"""Pair-moment builders.

Three routes to the same object, a :class:`~pairrank.core.PairMoments`:

* :func:`batch_moments_naive` walks every positive-negative pair and
  accumulates difference moments literally.  Quadratic in the sample
  counts; kept as the reference implementation and the honest cost
  model for the all-pairs trainer.
* :func:`batch_moments_fast` produces the algebraically identical
  result from per-class moments in linear time.
* :func:`subsample_moments` averages over s pairs drawn uniformly with
  replacement from the n1 * n0 grid, using a counter-based generator so
  the drawn index sequence is a pure function of (seed, s, n1, n0).

Numerical policy, chosen for run-to-run determinism: mean vectors are
accumulated with a chunked Neumaier compensated sum.  Each second-moment
entry is the plain row-order sum of x_si * x_sj, computed by einsum with
optimization disabled, never by BLAS.  Matrices wider than one tile are
computed as square output tiles of the upper triangle, mirrored into the
lower one, on one thread per usable CPU; every entry is still the same
row-order sum as a single einsum over the whole matrix gives, so the
result is independent of BLAS vendor, BLAS thread count and pool size.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import (
    BatchProvenance,
    Dataset,
    PairMoments,
    SubsampleProvenance,
)

__all__ = [
    "SubsampleConfig",
    "batch_moments_naive",
    "batch_moments_fast",
    "subsample_moments",
    "draw_pair_indices",
]

# Rows per partial sum in the compensated mean accumulator.
_CHUNK = 512
# Width of the square output tiles of the second-moment kernel.
_TILE = 64
# Pairs whose differences are formed per gather in subsample_moments.
_GATHER_ROWS = 4096


# How many pairs to draw and with what seed; the same class is the
# provenance of the moments it produces.
SubsampleConfig = SubsampleProvenance


def _neumaier_over_rows(rows: np.ndarray) -> np.ndarray:
    """Sum matrix rows with chunked Neumaier compensation.

    Rows are grouped into fixed-size chunks summed by numpy (pairwise,
    deterministic for a fixed chunk size), and the chunk partials are
    combined left to right with Neumaier's correction.  This keeps the
    result independent of the total row count's effect on numpy's
    internal blocking while costing one pass.
    """
    n, dim = rows.shape
    total = np.zeros(dim, dtype=np.float64)
    comp = np.zeros(dim, dtype=np.float64)
    for start in range(0, n, _CHUNK):
        part = np.sum(rows[start : start + _CHUNK], axis=0)
        fresh = total + part
        swap = np.abs(total) >= np.abs(part)
        comp += np.where(swap, (total - fresh) + part, (part - fresh) + total)
        total = fresh
    return total + comp


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _second_moment(rows: np.ndarray) -> np.ndarray:
    """Plain row-order sum of row outer products (not BLAS-reordered).

    Up to _TILE columns this is one einsum call.  Wider inputs are cut
    into _TILE-wide column blocks; each upper-triangle block pair is one
    einsum over the column slices (which releases the GIL), written to
    its own output tile and mirrored below the diagonal.  An entry's sum
    runs over the same rows in the same order either way, and tiles
    write disjoint slices, so neither the tiling nor the worker count
    nor the completion order changes a bit.
    """
    dim = rows.shape[1]
    if dim <= _TILE:
        return np.einsum("si,sj->ij", rows, rows, optimize=False)
    out = np.empty((dim, dim), dtype=np.float64)
    starts = range(0, dim, _TILE)

    def fill(tile: tuple[int, int]) -> None:
        a, c = tile
        block = np.einsum(
            "si,sj->ij", rows[:, a : a + _TILE], rows[:, c : c + _TILE], optimize=False
        )
        out[a : a + _TILE, c : c + _TILE] = block
        out[c : c + _TILE, a : a + _TILE] = block.T

    tiles = [(a, c) for a in starts for c in starts if c >= a]
    with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
        # Reading every result re-raises any worker's exception here.
        list(pool.map(fill, tiles))
    return out


def batch_moments_naive(data: Dataset) -> PairMoments:
    """All-pairs difference moments by literal enumeration.

    For every positive row i the full block of n0 differences is formed
    and folded into the accumulators, so time is Theta(n1 * n0 * d) for
    the mean and Theta(n1 * n0 * d^2) for the second moment, with
    Theta(d^2) working memory.  Exists as the ground-truth oracle and
    for cost measurement; use :func:`batch_moments_fast` otherwise.
    """
    data.require_trainable()
    n1, n0, dim = data.n1, data.n0, data.dim
    pos, neg = data.positives, data.negatives
    row_sums = np.empty((n1, dim), dtype=np.float64)
    sigma = np.zeros((dim, dim), dtype=np.float64)
    for i in range(n1):
        diffs = pos[i] - neg
        row_sums[i] = np.sum(diffs, axis=0)
        sigma += _second_moment(diffs)
    count = float(n1) * float(n0)
    mu = _neumaier_over_rows(row_sums) / count
    sigma /= count
    return PairMoments(mu=mu, sigma=sigma, provenance=BatchProvenance(n1=n1, n0=n0))


def batch_moments_fast(data: Dataset) -> PairMoments:
    """All-pairs difference moments from per-class moments, linear time.

    Writing m1, m0 for the class means and M1, M0 for the class second
    moments, the average over all n1 * n0 differences factorizes:

        mu    = m1 - m0
        sigma = M1 + M0 - m1 m0' - m0 m1'

    because the cross term of (x1 - x0)(x1 - x0)' averages to the outer
    product of the class means.  Cost Theta((n1 + n0) d^2), same result
    as :func:`batch_moments_naive` up to rounding.
    """
    data.require_trainable()
    n1, n0 = data.n1, data.n0
    m1 = _neumaier_over_rows(data.positives) / n1
    m0 = _neumaier_over_rows(data.negatives) / n0
    big_m1 = _second_moment(data.positives) / n1
    big_m0 = _second_moment(data.negatives) / n0
    cross = np.outer(m1, m0)
    mu = m1 - m0
    sigma = big_m1 + big_m0 - cross - cross.T
    return PairMoments(mu=mu, sigma=sigma, provenance=BatchProvenance(n1=n1, n0=n0))


def draw_pair_indices(seed: int, s: int, n1: int, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic uniform pair indices, with replacement.

    Generator contract (stable across platforms and releases of this
    package; changing it is a format break):

    * The stream is Philox4x64-10 keyed by ``seed``, read as raw 64-bit
      words in counter order.
    * Draw t (0-based) consumes word 2t for its positive index and word
      2t + 1 for its negative index.
    * A word u maps to an index in {0, ..., n-1} by modulo rejection:
      u is accepted iff u < 2**64 - (2**64 mod n), in which case the
      index is u mod n.  Rejected slots are redrawn from the words
      after the first 2s: all still-rejected positive slots first, in
      ascending draw position, round by round until none remain, then
      the negative slots the same way.  When n is a power of two no
      word is ever rejected.

    Rejection makes every index exactly equally likely, and the fixed
    word layout makes the sequence a pure function of (seed, s, n1, n0).
    """
    if s < 1:
        raise ValueError(f"need at least one pair, got s={s}")
    if n1 < 1 or n0 < 1:
        raise ValueError(f"both classes must be non-empty, got n1={n1}, n0={n0}")
    bits = np.random.Philox(key=seed)
    words = bits.random_raw(2 * s)
    pos_raw = words[0::2].copy()
    neg_raw = words[1::2].copy()
    out: list[np.ndarray] = []
    for raw, n in ((pos_raw, np.uint64(n1)), (neg_raw, np.uint64(n0))):
        remainder = (1 << 64) % int(n)
        # remainder == 0 means every 64-bit word already maps uniformly.
        if remainder:
            cutoff = np.uint64((1 << 64) - remainder)
            rejected = np.flatnonzero(raw >= cutoff)
            while rejected.size:
                redraw = bits.random_raw(rejected.size)
                raw[rejected] = redraw
                rejected = rejected[redraw >= cutoff]
        out.append((raw % n).astype(np.int64))
    return out[0], out[1]


def subsample_moments(data: Dataset, cfg: SubsampleConfig) -> PairMoments:
    """Difference moments over s uniformly drawn pairs, with replacement.

    Each of the s draws picks one positive and one negative index
    independently and uniformly, so the expectation of the returned
    moments under the seed equals the all-pairs moments.  Cost is
    Theta(s * d^2) time.  Memory is the s x d matrix of pair differences,
    filled _GATHER_ROWS pairs at a time so no gathered copy of either
    class is held whole, plus Theta(s) indices and Theta(d^2) for sigma.
    """
    data.require_trainable()
    i_idx, j_idx = draw_pair_indices(cfg.seed, cfg.s, data.n1, data.n0)
    pos, neg = data.positives, data.negatives
    diffs = np.empty((cfg.s, data.dim), dtype=np.float64)
    for start in range(0, cfg.s, _GATHER_ROWS):
        block = slice(start, start + _GATHER_ROWS)
        np.subtract(pos[i_idx[block]], neg[j_idx[block]], out=diffs[block])
    mu = _neumaier_over_rows(diffs) / cfg.s
    sigma = _second_moment(diffs) / cfg.s
    return PairMoments(mu=mu, sigma=sigma, provenance=cfg)
