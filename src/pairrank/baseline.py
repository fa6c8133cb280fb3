"""Projected stochastic-gradient comparator on the pairwise squared loss.

The moment-based trainers need no step size; this deliberately plain
SGD exists so experiments can show what the alternative looks like.
Each update draws one positive-negative pair uniformly with
replacement, steps along the squared-loss gradient for that pair, and
projects back onto the weight ball.  Fixed step size, zero
initialization, no schedule, no averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, RankerWeights, SolverConvergenceError, _require_positive

__all__ = ["SgdConfig", "train_pairwise_sgd"]

# Pair differences gathered per vectorised subtract.
_CHUNK = 4096


@dataclass(frozen=True, slots=True)
class SgdConfig:
    """Step size, pair budget, seed, and projection radius."""

    step_size: float
    pair_budget: int
    seed: int
    w_star: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_size) and self.step_size >= 0.0):
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size!r}")
        if self.pair_budget < 1:
            raise ValueError(f"pair_budget must be >= 1, got {self.pair_budget}")
        _require_positive("w_star", self.w_star)


def train_pairwise_sgd(data: Dataset, cfg: SgdConfig) -> RankerWeights:
    """Run the projected-SGD loop and return the final iterate.

    Update rule for the pair difference d: the squared-loss gradient is
    (w'd - 1) d, so w moves toward margin 1 on the sampled pair, then
    is radially projected whenever it leaves the ball.  The positive
    and negative index sequences are each pre-generated with one PCG64
    call keyed by cfg.seed (positives first), making the whole
    trajectory a pure function of the config.

    Pair differences are gathered 4096 at a time into two preallocated
    blocks and subtracted in place: working memory is two blocks of
    min(pair_budget, 4096) * d floats beyond the index arrays.  Each step
    keeps the BLAS dot and the two separate roundings (the multiply by
    w'd - 1, then by the step size) of the plain per-pair loop, so the
    iterate is bit-identical to it; another summation order would not be.

    Raises SolverConvergenceError, naming the step size, if the final
    iterate is not finite: the steps diverged.
    """
    data.require_trainable()
    rng = np.random.default_rng(cfg.seed)
    pos_idx = rng.integers(0, data.n1, size=cfg.pair_budget)
    neg_idx = rng.integers(0, data.n0, size=cfg.pair_budget)
    w_star = cfg.w_star
    w = np.zeros(data.dim, dtype=np.float64)
    step = np.empty_like(w)
    # Local names and a 0-d step size spare each call a lookup or a
    # scalar conversion; the arithmetic is the same.
    step_size = np.array(cfg.step_size)
    dot, multiply, subtract, sqrt = w.dot, np.multiply, np.subtract, math.sqrt
    rows = min(cfg.pair_budget, _CHUNK)
    pos_block, neg_block = np.empty((rows, data.dim)), np.empty((rows, data.dim))
    for start in range(0, cfg.pair_budget, _CHUNK):
        pos, neg = pos_idx[start : start + _CHUNK], neg_idx[start : start + _CHUNK]
        diffs, negs = pos_block[: pos.size], neg_block[: pos.size]
        np.take(data.positives, pos, axis=0, out=diffs, mode="clip")
        np.take(data.negatives, neg, axis=0, out=negs, mode="clip")
        subtract(diffs, negs, out=diffs)
        for diff in diffs:
            multiply(diff, dot(diff) - 1.0, out=step)
            multiply(step, step_size, out=step)
            subtract(w, step, out=w)
            # sqrt of the BLAS dot is how np.linalg.norm takes a vector's norm.
            norm = sqrt(dot(w))
            if norm > w_star:
                multiply(w, w_star / norm, out=w)
    if not np.all(np.isfinite(w)):
        raise SolverConvergenceError(
            f"pairwise SGD diverged: the iterate is not finite at step size {cfg.step_size!r}"
        )
    return RankerWeights(w)
