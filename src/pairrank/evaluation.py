"""Ranking metrics: pair-ordering statistic and pairwise squared risk.

The ordering statistic is the classical probability that a uniformly
random positive-negative pair is ranked correctly by the score w'x,
with ties credited one half.  `auc_naive` enumerates the pairs;
`auc_fast` gets the identical value (bit for bit, not merely close)
from one sort via midranks.  The squared-loss risk averages
0.5 * (1 - w'(x1 - x0))^2 over pairs; for a fixed w it depends only on
the per-class means and variances of the scores, which is how
`phi_risk` computes it, in O(n * d) and without pair moments.  Both
metrics read the same two score vectors, so `evaluate_ranker` scores
each class once.

Orientation note: the statistic reported here is a reward, 1.0 for a
perfect ranking.  `EvalReport.auc_risk` carries the complementary
misranking fraction for callers that want a loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, DimensionMismatchError, RankerWeights

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
    auc_risk: 1 - auc, the misranked fraction.
    phi_risk: average pairwise squared loss, including its constant
        term, so the zero ranker scores exactly 0.5.
    n_pairs: n1 * n0, the number of cross-class pairs behind the means.
    """

    auc: float
    auc_risk: float
    phi_risk: float
    n_pairs: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.auc <= 1.0 and 0.0 <= self.auc_risk <= 1.0):
            raise ValueError(
                f"auc and auc_risk must lie in [0, 1], got {self.auc!r}, {self.auc_risk!r}"
            )
        if not self.phi_risk >= 0.0:
            raise ValueError(f"phi_risk must be >= 0, got {self.phi_risk!r}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")


def _scores(data: Dataset, w: RankerWeights) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the positives and of the negatives; needs at least one pair."""
    data.require_trainable()
    if w.dim != data.dim:
        raise DimensionMismatchError(
            f"weights of dimension {w.dim} cannot score {data.dim}-dim features"
        )
    return data.positives @ w.w, data.negatives @ w.w


def _midranks(xs: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group given its mean rank (scipy's "average")."""
    order = np.argsort(xs, kind="stable")
    ordered = xs[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], xs.size]
    ranks = np.empty(xs.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _auc(pos: np.ndarray, neg: np.ndarray) -> float:
    ranks = _midranks(np.concatenate([pos, neg]))
    n1, n0 = pos.shape[0], neg.shape[0]
    return (float(np.sum(ranks[:n1])) - n1 * (n1 + 1) / 2.0) / (n1 * n0)


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
    """Pair-ordering statistic via one joint midrank pass, O(n log n).

    Midranks assign every member of a tied group the group's average
    rank, which reproduces the half tie credit exactly: the sum of
    positive midranks, shifted by n1 (n1 + 1) / 2, counts correctly
    ordered pairs plus half the cross-class ties.  All quantities are
    half-integers well inside float64's exact range, so the result is
    bit-identical to `auc_naive`.
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


def expected_phi_risk(sigma: np.ndarray, mu: np.ndarray, w: RankerWeights) -> float:
    """Population squared-loss risk 0.5 + 0.5 * w' sigma w - mu' w.

    `sigma` and `mu` are population difference moments, for example the
    closed-form mixture moments from the synthetic-data module.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if sigma.shape != (mu.shape[0], mu.shape[0]) or w.dim != mu.shape[0]:
        raise DimensionMismatchError(
            f"shapes disagree: sigma {sigma.shape}, mu {mu.shape}, w dim {w.dim}"
        )
    return float(0.5 + 0.5 * w.w @ sigma @ w.w - mu @ w.w)


def evaluate_ranker(data: Dataset, w: RankerWeights) -> EvalReport:
    """Both metrics of one ranker on one dataset, from one scoring pass."""
    pos, neg = _scores(data, w)
    auc = _auc(pos, neg)
    return EvalReport(
        auc=auc,
        auc_risk=1.0 - auc,
        phi_risk=_phi(pos, neg),
        n_pairs=data.n1 * data.n0,
    )
