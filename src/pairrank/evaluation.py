"""Ranking metrics: pair-ordering statistic and pairwise squared risk.

The ordering statistic is the classical probability that a uniformly
random positive-negative pair is ranked correctly by the score w'x,
with ties credited one half.  `auc_naive` enumerates the pairs;
`auc_fast` gets the identical value (bit for bit, not merely close)
from sorting and exact counts.  The squared-loss risk averages
0.5 * (1 - w'(x1 - x0))^2 over pairs; for a fixed w it depends only on
the per-class means and variances of the scores, which is how
`phi_risk` computes it, in O(n * d) and without pair moments.  Both
metrics read the same two score vectors, so `evaluate_ranker` scores
each class once.

Orientation note: the statistic reported here is a reward, 1.0 for a
perfect ranking; the misranked fraction is 1 - auc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, PairMoments, PairRankError, RankerWeights, _block_scores, _SparseDataset

__all__ = [
    "EvalReport",
    "auc_naive",
    "auc_fast",
    "phi_risk",
    "expected_phi_risk",
    "evaluate_ranker",
]


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Metrics of one ranker on one dataset.

    auc: fraction of correctly ordered pairs (ties half-credited), 1.0
        is a perfect ranking.
    phi_risk: average pairwise squared loss, including its constant
        term, so the zero ranker scores exactly 0.5.
    """

    auc: float
    phi_risk: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must lie in [0, 1], got {self.auc!r}")
        if not self.phi_risk >= 0.0:
            raise ValueError(f"phi_risk must be >= 0, got {self.phi_risk!r}")


def _scores(data: Dataset | _SparseDataset, w: RankerWeights) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the positives and of the negatives; needs at least one pair.

    Every class, dense or sparse, is scored _BLOCK_ROWS rows at a time by
    :func:`pairrank.core._block_scores`, so a Dataset and the sparse rows
    ``train`` holds give the same bits.  Raises PairRankError if a score
    is not finite (a nan or inf feature, or an overflowing product), which
    neither metric could rank or average into a meaningful value.
    """
    data.require_trainable()
    w.require_dim(data.dim, "features")
    pos, neg = (_block_scores(rows, w.w) for rows in (data.positives, data.negatives))
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise PairRankError("cannot evaluate a ranker on non-finite scores")
    return pos, neg


def _auc(pos: np.ndarray, neg: np.ndarray) -> float:
    neg = np.sort(neg)
    # Sorted needles let each binary search start where the last one ended.
    pos = np.sort(pos)
    below = int(np.searchsorted(neg, pos, side="left").sum())
    upto = int(np.searchsorted(neg, pos, side="right").sum())
    return (below + 0.5 * (upto - below)) / (pos.shape[0] * neg.shape[0])


def _phi(pos: np.ndarray, neg: np.ndarray) -> float:
    gap = pos.mean() - neg.mean()
    return float(0.5 * ((1.0 - gap) ** 2 + pos.var() + neg.var()))


def auc_naive(data: Dataset, w: RankerWeights) -> float:
    """Pair-ordering statistic by literal enumeration, O(n1 * n0).

    Reference implementation; `auc_fast` is the production path.
    """
    pos, neg = _scores(data, w)
    margins = pos[:, None] - neg[None, :]
    correct = float(np.sum(margins > 0.0))
    tied = float(np.sum(margins == 0.0))
    return (correct + 0.5 * tied) / (data.n1 * data.n0)


def auc_fast(data: Dataset, w: RankerWeights) -> float:
    """Pair-ordering statistic by sort and search, O(n log n).

    Both score vectors are sorted; two binary searches of the sorted
    negatives per positive count the negatives strictly below it and
    those at or below it, whose difference is its cross-class ties.
    The counts are exact integers.  While n1 * n0 stays below 2**53
    they are exact doubles too, and (below + 0.5 * tied) / (n1 * n0)
    is bit-identical to `auc_naive`, which forms the same sum.
    """
    return _auc(*_scores(data, w))


def phi_risk(data: Dataset, w: RankerWeights) -> float:
    """Average pairwise squared loss, constant term included.

    With scores a = w'x1 over positives and b = w'x0 over negatives,
    averaging 0.5 * (1 - (a - b))^2 over all n1 * n0 pairs gives
    0.5 * [(1 - (mean a - mean b))^2 + var a + var b] with population
    variances: O(n * d) for the scores, no pair loop and no pair
    moments.  Every term is non-negative, and the variances are taken
    about the class means, so a common feature offset does not cancel.
    """
    return _phi(*_scores(data, w))


def expected_phi_risk(moments: PairMoments, w: RankerWeights) -> float:
    """Population squared-loss risk 0.5 + 0.5 * w' sigma w - mu' w.

    `moments` are population difference moments, for example the
    closed-form mixture moments from the synthetic-data module.
    """
    w.require_dim(moments.dim, "moments")
    return float(0.5 + 0.5 * w.w @ moments.sigma @ w.w - moments.mu @ w.w)


def evaluate_ranker(data: Dataset | _SparseDataset, w: RankerWeights) -> EvalReport:
    """Both metrics of one ranker on one dataset, from one scoring pass."""
    pos, neg = _scores(data, w)
    return EvalReport(auc=_auc(pos, neg), phi_risk=_phi(pos, neg))
