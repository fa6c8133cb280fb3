"""Pair-moment builders.

Three routes to the same object, a :class:`~pairrank.core.PairMoments`:

* :func:`batch_moments_naive` walks every positive-negative pair and
  accumulates difference moments literally, one plain einsum per
  positive row, without the strips or threads below.  Quadratic in the
  sample counts; kept as the reference implementation and the honest
  cost model for the all-pairs trainer.
* :func:`batch_moments_fast` produces the algebraically identical
  result from centered per-class moments in linear time.
* :func:`subsample_moments` averages over s pairs drawn uniformly with
  replacement from the n1 * n0 grid, (s, seed) given as a
  :class:`SubsampleConfig`, using a counter-based generator so the
  drawn index sequence is a pure function of (seed, s, n1, n0).  It
  never forms the s pair differences: the moments come from how often
  each row was drawn, in Theta(min(s, n1 + n0) d^2 + s d) time.  Its
  cross sums G are built a column at a time, holding G plus r + s floats
  for the r drawn rows.

The moments carry no record of their route; a caller that needs one
(the CLI's result rows) keeps the route, s and seed it chose.

Numerical policy, chosen for run-to-run determinism: mean vectors are
accumulated with a chunked Neumaier compensated sum.  Each second-moment
entry is the plain row-order sum of x_si * y_sj (y = x, or a second
matrix of the same shape), by einsum with optimization disabled, never
by BLAS.  Above 64 columns the output is cut into strips of 8 rows from
column 0 on, a one-column remainder joining the last strip, run on one
thread per usable CPU; with y = x a strip runs from the diagonal on and
is mirrored below it.  einsum keeps row order in every output of two or
more entries (a 1 x 1 output it reduces its own way), so for d >= 2 each
entry equals one whole-matrix einsum's, whatever the BLAS or pool size.
The linear-time routes stream centered class rows (for
:func:`subsample_moments`, only the drawn ones) through one buffer of at
most _BLOCK_ROWS x d; the Neumaier state runs across blocks, and block
second moments are added in block order.

Every kernel reads class rows through a row source
(:class:`pairrank.core._DenseRows`), so a builder takes a Dataset or the
sparse rows ``train`` loads, with the same bits: a dense class is read in
place.  A sparse one is densified into the same second-moment buffers,
block by block with edges on multiples of _CHUNK, giving the same values.
Its means are summed from its stored entries, a _CHUNK-row chunk at a
time: above one column, each chunk's column sums are one np.bincount,
which adds each column's entries in the row order numpy's sum of the
dense chunk takes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset, PairMoments, _row_source

__all__ = [
    "SubsampleConfig",
    "batch_moments_naive",
    "batch_moments_fast",
    "subsample_moments",
    "draw_pair_indices",
]

# Rows per partial sum in the compensated mean accumulator.
_CHUNK = 512
# Outputs of at most this many columns are one second-moment einsum call.
_ONE_CALL_COLS = 64
# Rows per output strip of the second-moment kernel above _ONE_CALL_COLS.
_STRIP = 8
# Rows per streaming block; a multiple of _CHUNK.  A block is allocated and
# freed per class, so whether it finds a free gap in the heap depends on
# where small allocations (the strip pool's locks among them) landed; when
# none fits, the heap grows by a block.  16384 rows (16 MB at d = 123) made
# that the peak of `train` on an a9a-shaped file and moved the process's
# peak RSS by 11 MB from run to run; 4096 rows (4 MB) stay below the
# parser's own transient there.
_BLOCK_ROWS = 4096


@dataclass(frozen=True, slots=True)
class SubsampleConfig:
    """How many pairs :func:`subsample_moments` draws, and with what seed.

    The seed is a single unsigned 64-bit word; it keys the counter-based
    generator described in :func:`draw_pair_indices`.
    """

    s: int
    seed: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(f"subsample size must be >= 1, got {self.s}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must fit in an unsigned 64-bit word, got {self.seed}")


def _neumaier_add(state: tuple, part: np.ndarray) -> None:
    """Add one chunk's column sums to the running (total, comp) state, in place."""
    total, comp = state
    fresh = total + part
    swap = np.abs(total) >= np.abs(part)
    comp += np.where(swap, (total - fresh) + part, (part - fresh) + total)
    total[...] = fresh


def _neumaier_over_rows(rows: np.ndarray, state: tuple | None = None) -> np.ndarray:
    """Sum matrix rows with chunked Neumaier compensation.

    Rows are grouped into fixed-size chunks, each summed by its row
    source (numpy adds a C-contiguous chunk's rows in row order for
    d >= 2 and sums one column pairwise; sparse rows at d >= 2 add their
    stored entries in the same order), and the chunk partials are
    combined left to right with Neumaier's correction.  This keeps the
    result independent of the total row count's effect on numpy's
    internal blocking while costing one pass.  A running `state`
    (total, comp) is updated in place, so calls on consecutive row
    blocks whose lengths are multiples of _CHUNK give one call's bits.
    Both start at +0.0, so a chunk sum of -0.0 adds as +0.0 does.
    """
    source = _row_source(rows)
    count, dim = source.shape
    state = state if state is not None else (np.zeros(dim), np.zeros(dim))
    for start in range(0, count, _CHUNK):
        _neumaier_add(state, source.sums(start, min(start + _CHUNK, count)))
    return state[0] + state[1]


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _second_moment(rows: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Plain row-order sum of row outer products (not BLAS-reordered).

    With `other` (same shape as `rows`) the sum of rows[k] other[k]'
    instead, which need not be symmetric.  Up to _ONE_CALL_COLS columns
    this is one einsum call.  Wider outputs are cut into _STRIP-row
    strips from column 0 on, a one-column remainder joining the last
    strip.  Each strip is one einsum (which releases the GIL) of its
    columns of `rows` against `other` whole, or with y = x against the
    columns from its first one on, mirrored below the diagonal: about
    d (d + _STRIP) / 2 entries for d (d + 1) / 2 distinct ones, with
    `other` exactly d^2.  einsum sums each entry of an output of two or
    more entries in row order, but reduces a 1 x 1 output with a loop of
    its own: always for a contiguous column, and for a strided one above
    8192 rows (numpy's buffer size).  With no one-column strip, every
    entry for d >= 2 is the one a single whole-matrix einsum gives.
    Strips write disjoint slices (a diagonal block's mirror repeats its
    own, equal entries), so neither the strips nor the worker count nor
    the completion order changes a bit.
    """
    dim = rows.shape[1]
    if dim <= _ONE_CALL_COLS:
        return np.einsum("si,sj->ij", rows, rows if other is None else other, optimize=False)
    out = np.empty((dim, dim), dtype=np.float64)

    def fill(a: int, b: int) -> None:
        strip = slice(a, b)
        if other is not None:
            out[strip] = np.einsum("si,sj->ij", rows[:, strip], other, optimize=False)
            return
        block = np.einsum("si,sj->ij", rows[:, strip], rows[:, a:], optimize=False)
        out[strip, a:] = block
        out[a:, strip] = block.T

    edges = [*range(0, dim - 1, _STRIP), dim]
    with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
        # Reading every result re-raises any worker's exception here.
        list(pool.map(fill, edges[:-1], edges[1:]))
    return out


def _centered_blocks(rows, shift: np.ndarray, take: np.ndarray | None = None):
    """Yield (at, block): `rows`, or rows[take], minus `shift`, _BLOCK_ROWS at a time.

    Every block is a leading slice of one buffer of min(count, _BLOCK_ROWS)
    rows, valid until the next block is yielded; `at` is the position of
    its first row among all yielded rows.  A sparse source's rows are
    densified into that buffer, then centered in place.
    """
    source = _row_source(rows)
    count = source.shape[0] if take is None else take.size
    buffer = np.empty((min(count, _BLOCK_ROWS), source.shape[1]), dtype=np.float64)
    for at in range(0, count, _BLOCK_ROWS):
        block = buffer[: min(_BLOCK_ROWS, count - at)]
        end = at + block.shape[0]
        read = source.block(at, end, block) if take is None else source.take(take[at:end], block)
        np.subtract(read, shift, out=block)
        yield at, block


def _add(total: np.ndarray | None, moment: np.ndarray) -> np.ndarray:
    """Running block-order sum of second moments."""
    return moment if total is None else np.add(total, moment, out=total)


def _square_sum(rows, shift: np.ndarray, take: np.ndarray | None = None,
                counts: np.ndarray | None = None) -> np.ndarray:
    """Summed outer products of the rows (rows[take]) minus `shift`, streamed.

    With `counts`, row k's product is counted counts[k] times: the row is
    scaled by the square root of its count, so the symmetric kernel serves.
    Block second moments are added in block order.
    """
    second = None
    for at, block in _centered_blocks(rows, shift, take):
        if counts is not None:
            block *= np.sqrt(counts[at : at + block.shape[0]])[:, None]
        second = _add(second, _second_moment(block))
    return second


def batch_moments_naive(data: Dataset) -> PairMoments:
    """All-pairs difference moments by literal enumeration.

    For every positive row i the full block of n0 differences is formed
    in one preallocated n0 x d buffer and folded into the accumulators,
    so time is Theta(n1 * n0 * d) for the mean and Theta(n1 * n0 * d^2)
    for the second moment.  Working memory is n1 * d + n0 * d floats (the
    per-row sums and the buffer) plus a few d x d matrices and the ufunc
    buffer numpy fills to broadcast row i.  Each block's second moment is
    one plain whole-matrix einsum on one thread, sharing no strip code
    with the other routes.  Exists as the ground-truth oracle and for
    cost measurement; use :func:`batch_moments_fast` otherwise.
    """
    data.require_trainable()
    n1, n0, dim = data.n1, data.n0, data.dim
    pos, neg = data.positives, data.negatives
    row_sums = np.empty((n1, dim), dtype=np.float64)
    diffs = np.empty((n0, dim), dtype=np.float64)
    sigma = np.zeros((dim, dim), dtype=np.float64)
    for i in range(n1):
        np.subtract(pos[i], neg, out=diffs)
        row_sums[i] = np.sum(diffs, axis=0)
        sigma += np.einsum("si,sj->ij", diffs, diffs, optimize=False)
    count = float(n1) * float(n0)
    mu = _neumaier_over_rows(row_sums) / count
    sigma /= count
    return PairMoments(mu=mu, sigma=sigma)


def batch_moments_fast(data: Dataset) -> PairMoments:
    """All-pairs difference moments from centered per-class moments.

    With m1, m0 the class means and C1, C0 the summed outer products of
    each class's rows about its own mean, the average over all n1 * n0
    differences is (centered cross terms average to zero)

        mu    = m1 - m0
        sigma = C1 / n1 + C0 / n0 + mu mu'

    This shifted form (Chan, Golub & LeVeque, 1983) does not cancel on a
    common feature offset as the uncentered M1 + M0 - m1 m0' - m0 m1'
    does.  Each class streams, minus its mean, through a _BLOCK_ROWS x d
    buffer: memory Theta(_BLOCK_ROWS * d + d^2) beyond the data, time
    Theta((n1 + n0) d^2), same result as :func:`batch_moments_naive` up
    to rounding.
    """
    data.require_trainable()
    n1, n0 = data.n1, data.n0
    m1 = _neumaier_over_rows(data.positives) / n1
    m0 = _neumaier_over_rows(data.negatives) / n0
    c1 = _square_sum(data.positives, m1)
    c0 = _square_sum(data.negatives, m0)
    mu = m1 - m0
    sigma = c1 / n1 + c0 / n0 + np.outer(mu, mu)
    return PairMoments(mu=mu, sigma=sigma)


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
    pos_raw, neg_raw = bits.random_raw(2 * s).reshape(s, 2).T.copy()
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


class _Draws(NamedTuple):
    """One class's side of the s drawn pairs."""

    rows: object  # the source of the class's feature rows
    drawn: np.ndarray  # the rows drawn at least once, ascending
    counts: np.ndarray  # how often each drawn row was drawn, as floats
    slot: np.ndarray  # each draw's position in `drawn`, in draw order
    shift: np.ndarray  # the count-weighted mean of the drawn rows


def _draws(rows, idx: np.ndarray, s: int) -> _Draws:
    """Count the draws of each row of one class, and their mean."""
    source = _row_source(rows)
    count, dim = source.shape
    counts = np.bincount(idx, minlength=count)
    drawn = np.flatnonzero(counts)
    slot = np.empty(count, dtype=np.intp)
    slot[drawn] = np.arange(drawn.size)
    weights = counts[drawn].astype(np.float64)
    state = (np.zeros(dim), np.zeros(dim))
    buffer = np.empty((min(drawn.size, _CHUNK), dim), dtype=np.float64)
    for lo in range(0, drawn.size, _CHUNK):
        part = source.take_sums(drawn[lo : lo + _CHUNK], weights[lo : lo + _CHUNK], buffer)
        _neumaier_add(state, part)
    return _Draws(source, drawn, weights, slot[idx], (state[0] + state[1]) / s)


def _cross_sums(g: _Draws, o: _Draws) -> np.ndarray:
    """G: row r sums o's centered rows over the draws of g's r-th drawn row.

    Column by column: o's drawn entries of the column, centered, are
    gathered in draw order and summed by one np.bincount over g's slots.
    Beyond G that holds r_o + s + r_g floats: the centered column, its
    draws and their sums.  A sparse source also holds its column index
    of o's drawn rows, O(nnz) of them.
    """
    cross = np.empty((g.drawn.size, o.rows.shape[1]), dtype=np.float64)
    for k, column in enumerate(o.rows.each_column(o.drawn)):
        column -= o.shift[k]
        cross[:, k] = np.bincount(g.slot, weights=column.take(o.slot), minlength=g.drawn.size)
    return cross


def _mixed_sum(g: _Draws, cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A'(diag(c) A - 2G) and A'c for g's centered drawn rows A, streamed.

    diag(c) A - 2G overwrites G (`cross`) block by block; the weighted row
    sum A'c is one Neumaier sum over the same weighted rows.
    """
    dim = g.rows.shape[1]
    state = (np.zeros(dim), np.zeros(dim))
    mixed = None
    for at, block in _centered_blocks(g.rows, g.shift, g.drawn):
        right = cross[at : at + block.shape[0]]
        for lo in range(0, block.shape[0], _CHUNK):
            weighted = block[lo : lo + _CHUNK] * g.counts[at + lo : at + lo + _CHUNK, None]
            total = _neumaier_over_rows(weighted, state)
            part = right[lo : lo + _CHUNK]
            part *= -2.0
            part += weighted
        mixed = _add(mixed, _second_moment(block, right))
    return mixed, total


def subsample_moments(data: Dataset, cfg: SubsampleConfig) -> PairMoments:
    """Difference moments over s uniformly drawn pairs, with replacement.

    Each of the s draws picks one positive and one negative index
    independently and uniformly, so the expectation of the returned
    moments under the seed equals the all-pairs moments.

    The moments come from how often each row was drawn, not from the s
    differences.  Write A and B for the drawn rows of each class, centered
    on m1 and m0, the count-weighted means of those rows; mu = m1 - m0;
    c and c' for the draw counts of the rows of A and B; and G for the
    matrix whose row i sums the rows of B over the draws of A's row i.
    With u = A'c - B'c' and sym(M) = (M + M') / 2,

        s mu_s    = u + s mu
        s sigma_s = sym(A'(diag(c) A - 2G)) + B' diag(c') B
                    + u mu' + mu u' + s mu mu'

    G is built for whichever class has fewer drawn rows: sigma's formula
    holds with the classes' roles swapped.  With r <= min(2s, n1 + n0)
    drawn rows, r_g of them in G's class, time is Theta(r d^2 + s d): the
    kernel sums over drawn rows (for A'(...) over all d^2 entries), and
    each column of G is one np.bincount over the s draws.  Each class's
    drawn rows stream, gathered and centered, through one
    min(r, _BLOCK_ROWS) x d buffer, so memory is
    Theta(min(r, _BLOCK_ROWS) d + r_g d + d^2 + s) for that buffer, G,
    sigma and the pair indices; building G holds r + s floats beyond it.
    As in :func:`batch_moments_fast`, centering keeps a common feature
    offset out of every product; the result equals the plain sum over the
    s pair differences up to rounding.
    """
    data.require_trainable()
    s = cfg.s
    i_idx, j_idx = draw_pair_indices(cfg.seed, s, data.n1, data.n0)
    pos, neg = _draws(data.positives, i_idx, s), _draws(data.negatives, j_idx, s)
    del i_idx, j_idx  # the draws' slots replace them
    g, o = (pos, neg) if pos.drawn.size <= neg.drawn.size else (neg, pos)
    cross = _cross_sums(g, o)
    o_sum = _neumaier_over_rows(cross)
    mixed, g_sum = _mixed_sum(g, cross)
    del cross  # before the next pass allocates its buffer
    sigma = mixed + mixed.T
    sigma *= 0.5
    sigma += _square_sum(o.rows, o.shift, o.drawn, o.counts)
    u = g_sum - o_sum if g is pos else o_sum - g_sum
    mu = pos.shift - neg.shift
    # Added as one matrix, u mu' + mu u' keeps sigma exactly symmetric.
    spread = np.outer(u, mu)
    sigma += spread + spread.T
    sigma /= s
    sigma += np.outer(mu, mu)
    return PairMoments(mu=mu + u / s, sigma=sigma)
