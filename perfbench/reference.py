"""Independent reference computations for the benchmark's output checks.

Nothing here calls pairrank.  The routines re-derive, from the documented
contracts (seed derivation, split order, Philox pair stream, mixture draw
order, SGD update), the values the program must produce, by different
arithmetic where the contract allows it:

* pair moments use the centered identity and BLAS products, not the
  program's uncentered einsum;
* the ball-constrained solve finds the multiplier with Brent's method,
  not the program's safeguarded Newton iteration;
* AUC is counted with sorted searches into a tie-robust interval, not
  midranks; phi risk uses the score-space identity, not pair moments.

Checks compare at reassociation-level tolerances, so a change that only
reorders floating-point sums passes and a wrong answer does not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# Rows of pair differences materialised at once; keeps the reference's
# memory far below the program's so peak_rss_mb stays the program's.
PAIR_CHUNK = 4096
# Score gaps below this share of the largest |score| may order either way.
TIE_REL_EPS = 1e-9
NULL_REL_TOL = 1e-13


def derived_seed(base: int, *role: int) -> int:
    """The CLI's sub-seed: SeedSequence(base) with the role path as spawn key."""
    sequence = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(role))
    return int(sequence.generate_state(1, np.uint64)[0])


def split_indices(n1: int, n0: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows kept by the ratio split: first ceil(ratio n) of one permutation."""
    total = n1 + n0
    chosen = np.random.default_rng(seed).permutation(total)[: int(math.ceil(ratio * total))]
    return np.sort(chosen[chosen < n1]), np.sort(chosen[chosen >= n1]) - n1


def pair_indices(seed: int, s: int, n1: int, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """The Philox4x64 pair stream with modulo rejection, as documented."""
    bits = np.random.Philox(key=seed)
    words = bits.random_raw(2 * s)
    out = []
    for raw, n in ((words[0::2].copy(), n1), (words[1::2].copy(), n0)):
        remainder = (1 << 64) % n
        if remainder:
            cutoff = np.uint64((1 << 64) - remainder)
            rejected = np.flatnonzero(raw >= cutoff)
            while rejected.size:
                redraw = bits.random_raw(rejected.size)
                raw[rejected] = redraw
                rejected = rejected[redraw >= cutoff]
        out.append((raw % np.uint64(n)).astype(np.int64))
    return out[0], out[1]


def all_pair_moments(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and second moment over all n1 * n0 differences, centered form."""
    m1, m0 = pos.mean(axis=0), neg.mean(axis=0)
    c1, c0 = pos - m1, neg - m0
    mu = m1 - m0
    sigma = c1.T @ c1 / len(pos) + c0.T @ c0 / len(neg) + np.outer(mu, mu)
    return mu, (sigma + sigma.T) / 2.0


def sampled_pair_moments(
    pos: np.ndarray, neg: np.ndarray, i_idx: np.ndarray, j_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and second moment over the listed pairs, in bounded chunks."""
    dim = pos.shape[1]
    total = np.zeros(dim)
    outer = np.zeros((dim, dim))
    for start in range(0, len(i_idx), PAIR_CHUNK):
        diffs = pos[i_idx[start : start + PAIR_CHUNK]] - neg[j_idx[start : start + PAIR_CHUNK]]
        total += diffs.sum(axis=0)
        outer += diffs.T @ diffs
    sigma = outer / len(i_idx)
    return total / len(i_idx), (sigma + sigma.T) / 2.0


def solve_ball(mu: np.ndarray, sigma: np.ndarray, radius: float) -> np.ndarray:
    """Minimum-norm minimiser of 0.5 w'Sw - mu'w over ||w|| <= radius."""
    eigs, basis = np.linalg.eigh(sigma)
    eigs = np.maximum(eigs, 0.0)
    eigs[eigs <= NULL_REL_TOL * eigs[-1]] = 0.0
    b = basis.T @ mu
    null = eigs == 0.0
    if np.linalg.norm(b[null]) <= 1e-11 * np.linalg.norm(mu):
        inside = np.where(null, 0.0, b / np.where(null, 1.0, eigs))
        if np.linalg.norm(inside) <= radius:
            return basis @ inside

    def excess(lam: float) -> float:
        return float(np.linalg.norm(b / (eigs + lam))) - radius

    hi = np.linalg.norm(mu) / radius
    while excess(hi) > 0.0:
        hi *= 2.0
    lam = brentq(excess, hi * 1e-18, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    return basis @ (b / (eigs + lam))


def auc_interval(pos_scores: np.ndarray, neg_scores: np.ndarray) -> tuple[float, float]:
    """Bounds on the pair-ordering statistic under any rounding of near ties.

    Pairs whose scores differ by more than TIE_REL_EPS of the largest
    score are ordered for certain; the rest may earn 0, 1/2 or 1.
    """
    neg = np.sort(neg_scores)
    eps = TIE_REL_EPS * max(float(np.max(np.abs(pos_scores))), float(np.max(np.abs(neg))), 1e-300)
    below = np.searchsorted(neg, pos_scores - eps, side="left").sum()
    not_above = np.searchsorted(neg, pos_scores + eps, side="right").sum()
    pairs = len(pos_scores) * len(neg)
    return float(below) / pairs, float(not_above) / pairs


def phi_risk(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Average pairwise squared loss from per-class score means and variances."""
    gap = pos_scores.mean() - neg_scores.mean()
    return float(0.5 * ((1.0 - gap) ** 2 + pos_scores.var() + neg_scores.var()))


def gmm_dataset(dim: int, k: int, sigma: float, spec_seed: int, n1: int, n0: int,
                sample_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture spec then sample, in the synthetic module's documented draw order."""
    spec_rng = np.random.default_rng(spec_seed)
    means = (spec_rng.random((k, dim)), spec_rng.random((k, dim)) - 1.0)
    rng = np.random.default_rng(sample_seed)
    blocks = []
    for count, class_means in zip((n1, n0), means):
        components = rng.choice(k, size=count, p=np.full(k, 1.0 / k))
        blocks.append(class_means[components] + rng.standard_normal((count, dim)) * sigma)
    return blocks[0], blocks[1]


def pairwise_sgd(pos: np.ndarray, neg: np.ndarray, step: float, budget: int, seed: int,
                 w_star: float) -> np.ndarray:
    """Projected SGD on one uniformly drawn pair per step, zero start."""
    rng = np.random.default_rng(seed)
    pos_idx = rng.integers(0, len(pos), size=budget)
    neg_idx = rng.integers(0, len(neg), size=budget)
    w = np.zeros(pos.shape[1])
    for diff in pos[pos_idx] - neg[neg_idx]:
        w -= step * ((w @ diff - 1.0) * diff)
        norm = math.sqrt(w @ w)
        if norm > w_star:
            w *= w_star / norm
    return w
