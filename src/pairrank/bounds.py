"""Closed-form sample-complexity and concentration calculators.

Companions to the two trainers: given the problem geometry (feature
cap, weight-ball radius), the class skew, the sample or pair counts,
and a target accuracy, these evaluate the guarantees that hold for the
trained rankers.  Nothing here is estimated; every function evaluates
a printed formula, so tests pin them against independent evaluations.

Conventions:

* Large-deviation tails for the trained rankers are returned as log
  probabilities (they underflow linear floats long before they stop
  being informative); clamp at the reporting boundary via
  ``min(1.0, math.exp(value))``.
* The two moment-deviation tails are returned in linear space already
  clamped to [0, 1], because their Monte-Carlo validation compares
  frequencies against them directly.
* Covering numbers use the volumetric bound for a Euclidean ball of
  radius w_star: a cover at radius r needs at most (1 + 2 w_star / r)^D
  balls.  All uses are through :func:`log_covering_number`.
* Minimum pair counts are ceilings of the real-valued thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _require_positive

__all__ = [
    "RiskConstants",
    "risk_constants",
    "log_covering_number",
    "BoundInputs",
    "batch_excess_risk_log_tail",
    "uniform_deviation_log_tail",
    "subsampled_excess_risk_log_tail",
    "min_pairs_empirical_gap",
    "min_pairs_excess_risk",
    "second_moment_deviation_tail",
    "mean_deviation_tail",
    "BoundReport",
    "evaluate_bounds",
]


@dataclass(frozen=True, slots=True)
class RiskConstants:
    """Scale constants of the pairwise squared loss over the weight ball.

    covering_sensitivity: 8 x*^2 w* + 4 x*, the factor converting a
        target accuracy into the covering radius the deviation argument
        needs.
    deviation_scale: 3 x*^2 w*^2 + 2 x* w*, the per-example range that
        enters the exponents of the concentration tails.
    """

    covering_sensitivity: float
    deviation_scale: float


def risk_constants(x_star: float, w_star: float) -> RiskConstants:
    """Evaluate both loss-scale constants for the given geometry."""
    if not (x_star >= 0.0 and w_star >= 0.0):
        raise ValueError(f"geometry must be nonnegative, got {x_star!r}, {w_star!r}")
    return RiskConstants(
        covering_sensitivity=8.0 * x_star**2 * w_star + 4.0 * x_star,
        deviation_scale=3.0 * x_star**2 * w_star**2 + 2.0 * x_star * w_star,
    )


def log_covering_number(radius_ratio: float, dim: int) -> float:
    """Log of the volumetric covering bound D * log(1 + 2 / ratio).

    `radius_ratio` is the covering radius divided by the radius of the
    ball being covered.  Ratios above 1 are allowed (the bound simply
    gets coarse); nonpositive ratios are rejected.
    """
    if not radius_ratio > 0.0:
        raise ValueError(f"radius_ratio must be > 0, got {radius_ratio!r}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return dim * math.log1p(2.0 / radius_ratio)


@dataclass(frozen=True, slots=True, kw_only=True)
class BoundInputs:
    """Guarantee-formula inputs, by keyword, in the bounds table's column order.

    dim: feature dimension D.
    n: total labeled examples.
    x_star: feature-norm cap.
    w_star: weight-ball radius.
    rho: positive-class fraction, in (0, 1).
    sigma_n_opnorm: spectral norm of the all-pairs second moment.
    epsilon: target accuracy.
    delta: target failure probability, in (0, 1); plays the role of
        both the batch stage's and the subsampling stage's budget.
    """

    dim: int
    n: int
    x_star: float
    w_star: float
    rho: float
    sigma_n_opnorm: float
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        for name in ("x_star", "w_star", "epsilon"):
            _require_positive(name, getattr(self, name))
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (np.isfinite(self.sigma_n_opnorm) and self.sigma_n_opnorm >= 0.0):
            raise ValueError(
                f"sigma_n_opnorm must be finite and >= 0, got {self.sigma_n_opnorm!r}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")


def _log_tail(inputs: BoundInputs, radius_div: float, exponent_div: float) -> float:
    """Shared shape of the three log tails:

    log of  2 * Cov(eps / (radius_div c1))
            * exp(-eps^2 / (exponent_div c2^2) * rho (1-rho) n).
    """
    c = risk_constants(inputs.x_star, inputs.w_star)
    ratio = inputs.epsilon / (radius_div * c.covering_sensitivity * inputs.w_star)
    exponent = (
        inputs.epsilon**2
        / (exponent_div * c.deviation_scale**2)
        * inputs.rho
        * (1.0 - inputs.rho)
        * inputs.n
    )
    return math.log(2.0) + log_covering_number(ratio, inputs.dim) - exponent


def batch_excess_risk_log_tail(inputs: BoundInputs) -> float:
    """Log tail of the all-pairs trainer's population excess risk.

    log of  2 * Cov(eps / (4 c1)) * exp(-eps^2 / (8 c2^2) * rho (1-rho) n)
    where Cov is the ball-covering bound at the stated radius.
    """
    return _log_tail(inputs, 4.0, 8.0)


def uniform_deviation_log_tail(inputs: BoundInputs) -> float:
    """Log tail of the uniform risk deviation over the weight ball.

    log of  2 * Cov(eps / (2 c1)) * exp(-eps^2 / (2 c2^2) * rho (1-rho) n).
    Same shape as :func:`batch_excess_risk_log_tail` with the halved
    covering radius and the four-times-larger exponent.
    """
    return _log_tail(inputs, 2.0, 2.0)


def subsampled_excess_risk_log_tail(inputs: BoundInputs) -> float:
    """Log tail of the pair-subsampled trainer's population excess risk.

    log of  2 * Cov(eps / (10 c1)) * exp(-eps^2 / (50 c2^2) * rho (1-rho) n)
    + delta, where delta is the probability budget already spent on the
    subsampling stage.  Combined in log space.
    """
    sampling_part = _log_tail(inputs, 10.0, 50.0)
    return float(np.logaddexp(sampling_part, math.log(inputs.delta)))


def _min_pairs(inputs: BoundInputs, linear_div: float, first_div: float, second_div: float) -> int:
    """Ceiling of the larger of the two pair-count thresholds, at least 1.

    max( log(4 D / delta) * (opnorm x*^2 w*^4 + eps x*^2 w*^2 / linear_div)
             / (eps^2 / first_div),
         x*^2 w*^2 / (eps^2 / second_div) * (sqrt(2 log(4 / delta)) + 1)^2 )
    """
    x2 = inputs.x_star**2
    w2 = inputs.w_star**2
    eps = inputs.epsilon
    first = (
        math.log(4.0 * inputs.dim / inputs.delta)
        * (inputs.sigma_n_opnorm * x2 * w2 * w2 + eps * x2 * w2 / linear_div)
        / (eps**2 / first_div)
    )
    root = math.sqrt(2.0 * math.log(4.0 / inputs.delta))
    second = x2 * w2 / (eps**2 / second_div) * (root + 1.0) ** 2
    return max(1, math.ceil(max(first, second)))


def min_pairs_empirical_gap(inputs: BoundInputs) -> int:
    """Pairs needed so the subsampled solution nearly minimizes the batch risk.

    Ceiling of
        max( log(4 D / delta) * (opnorm x*^2 w*^4 + eps x*^2 w*^2 / 3)
                / (eps^2 / 32),
             x*^2 w*^2 / (eps^2 / 4) * (sqrt(2 log(4 / delta)) + 1)^2 ).
    """
    return _min_pairs(inputs, 3.0, 32.0, 4.0)


def min_pairs_excess_risk(inputs: BoundInputs) -> int:
    """Pairs needed for the population excess-risk guarantee.

    Same shape as :func:`min_pairs_empirical_gap` with denominators
    eps^2 / 800 and eps^2 / 100 and the linear term divided by 15, as
    the guarantee splits its accuracy budget five ways.
    """
    return _min_pairs(inputs, 15.0, 800.0, 100.0)


def second_moment_deviation_tail(
    s: int,
    epsilon: float,
    x_star: float,
    w_star: float,
    sigma_n_opnorm: float,
    dim: int,
) -> float:
    """Probability that the subsampled second moment strays in operator norm.

    2 D exp( -s eps^2 / (8 opnorm x*^2 w*^4 + (16/3) eps x*^2 w*^2) ),
    clamped to [0, 1].
    """
    if s < 1 or dim < 1:
        raise ValueError(f"need s >= 1 and dim >= 1, got s={s}, dim={dim}")
    if not (epsilon > 0.0 and x_star > 0.0 and w_star > 0.0 and sigma_n_opnorm >= 0.0):
        raise ValueError("epsilon, x_star, w_star must be > 0 and sigma_n_opnorm >= 0")
    x2w2 = x_star**2 * w_star**2
    denom = 8.0 * sigma_n_opnorm * x2w2 * w_star**2 + (16.0 / 3.0) * epsilon * x2w2
    log_tail = math.log(2.0 * dim) - s * epsilon**2 / denom
    return min(1.0, math.exp(min(log_tail, 0.0)))


def mean_deviation_tail(s: int, epsilon: float, x_star: float, w_star: float) -> float:
    """Probability that the subsampled mean strays in Euclidean norm.

    2 exp( -0.5 (eps sqrt(s) / (2 x* w*) - 1)^2 ) once the argument
    exceeds 1; below that the statement is vacuous and 1.0 is returned.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got s={s}")
    if not (epsilon > 0.0 and x_star > 0.0 and w_star > 0.0):
        raise ValueError("epsilon, x_star and w_star must be > 0")
    arg = epsilon * math.sqrt(s) / (2.0 * x_star * w_star)
    if arg <= 1.0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-0.5 * (arg - 1.0) ** 2))


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Only the guarantee outputs for one input point; table rows put BoundInputs first."""

    covering_sensitivity: float
    deviation_scale: float
    batch_excess_risk_log_tail: float
    uniform_deviation_log_tail: float
    subsampled_excess_risk_log_tail: float
    min_pairs_empirical_gap: int
    min_pairs_excess_risk: int
    second_moment_deviation_tail: float
    mean_deviation_tail: float


def evaluate_bounds(inputs: BoundInputs) -> BoundReport:
    """Evaluate every calculator once on shared inputs.

    The moment-deviation tails are evaluated at s = the empirical-gap
    pair count, which is the pair budget the other outputs assume.  A
    calculator that leaves the float range (x_star**2 overflows, epsilon**2
    underflows) raises ArithmeticError naming it and the inputs.
    """
    def run(calc, *args):
        try:
            return calc(*args)
        except ArithmeticError as exc:
            raise ArithmeticError(f"{calc.__name__} leaves the float range at {inputs}") from exc

    c = run(risk_constants, inputs.x_star, inputs.w_star)
    s = run(min_pairs_empirical_gap, inputs)
    return BoundReport(
        covering_sensitivity=c.covering_sensitivity,
        deviation_scale=c.deviation_scale,
        batch_excess_risk_log_tail=run(batch_excess_risk_log_tail, inputs),
        uniform_deviation_log_tail=run(uniform_deviation_log_tail, inputs),
        subsampled_excess_risk_log_tail=run(subsampled_excess_risk_log_tail, inputs),
        min_pairs_empirical_gap=s,
        min_pairs_excess_risk=run(min_pairs_excess_risk, inputs),
        second_moment_deviation_tail=run(second_moment_deviation_tail, s, inputs.epsilon,
                                         inputs.x_star, inputs.w_star, inputs.sigma_n_opnorm,
                                         inputs.dim),
        mean_deviation_tail=run(mean_deviation_tail, s, inputs.epsilon, inputs.x_star,
                                inputs.w_star),
    )
