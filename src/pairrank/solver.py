"""Exact minimization of the pair-moment quadratic over a Euclidean ball.

The trainers reduce to one optimization problem: given pair moments
(mu, sigma) and a radius cap, minimize

    q(w) = 0.5 * w' sigma w - mu' w      subject to  ||w||_2 <= radius.

Because sigma is PSD this is a convex problem whose solution is fully
characterized by one scalar: the Lagrange multiplier lam >= 0 of the
ball constraint.  In the eigenbasis of sigma the stationarity condition
(sigma + lam I) w = mu becomes diagonal.  The solver reads that basis
from the moments, which computed it once at construction as their PSD
check, so a solve adds neither a decomposition nor a check.  It decides
interior versus boundary from the minimum-norm stationary point, and if
the constraint is active finds lam as the root of a one-dimensional
secular equation by a Newton iteration safeguarded by bisection on the
bracket [0, ||mu|| / radius].  Nothing is tuned per call: the root search
stops when ||w|| is within 1e-12 of the radius, relative, and gives up
after 200 iterations.

Among minimizers (non-unique when sigma is singular) the solver returns
the one of minimum Euclidean norm, equivalently the minimum-lam KKT
point: null-space components that the objective cannot see are set to
zero in the interior case, and on the boundary the root search starts
from the smallest feasible multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairMoments, ProblemConfig, RankerWeights, SolverConvergenceError, _prescaled_norm

__all__ = [
    "SolveDiagnostics",
    "objective_value",
    "solve_erm",
]

# Eigenvalues below this fraction of the largest are treated as zero
# when splitting range from null space.
_NULL_REL_TOL = 1e-13
# Null-space mass of mu below this fraction of ||mu|| is attributed to
# eigendecomposition rounding (observed level ~1e-14 relative), so the
# problem is treated as stationary-solvable; above it the linear term
# genuinely pushes the optimum to the boundary.
_INTERIOR_GAP_REL = 1e-11
# A boundary solve stops once ||w|| is within this fraction of the radius.
_BOUNDARY_REL_TOL = 1e-12
# Secular-equation iterations (Newton steps and bisections combined)
# before the solve gives up with SolverConvergenceError.
_MAX_SECULAR_ITERS = 200


@dataclass(frozen=True, slots=True)
class SolveDiagnostics:
    """KKT certificate for a completed solve.

    constrained_active: whether the optimum sits on the ball boundary.
    multiplier: the Lagrange multiplier of the norm constraint (zero in
        the interior case).
    kkt_residual: ||sigma w - mu + multiplier * w||_2 at the returned point.
    objective_value: q(w) at the returned point.
    iterations: secular-equation iterations spent (0 when interior).
    """

    constrained_active: bool
    multiplier: float
    kkt_residual: float
    objective_value: float
    iterations: int


def objective_value(moments: PairMoments, w: RankerWeights) -> float:
    """Evaluate 0.5 * w' sigma w - mu' w (no constant term)."""
    w.require_dim(moments.dim, "moments")
    return float(0.5 * w.w @ moments.sigma @ w.w - moments.mu @ w.w)


def _secular(lam: float, eigs: np.ndarray, b: np.ndarray,
             radius: float) -> tuple[float, float, float]:
    """Return (||w||, f, df/dlam) at lam, where f = 1 / ||w|| - 1 / radius and
    w = (sigma + lam I)^-1 mu, in the eigenbasis w_i = b_i / (eigs_i + lam):
    df/dlam = sum_i w_i^2 / (eigs_i + lam) / ||w||^3."""
    denom = eigs + lam
    terms = (b / denom) ** 2
    norm = float(np.sqrt(np.sum(terms)))
    return norm, 1.0 / norm - 1.0 / radius, float(np.sum(terms / denom)) / norm / (norm * norm)


def _boundary_multiplier(eigs: np.ndarray, b: np.ndarray, bound: float,
                         radius: float) -> tuple[float, int]:
    """Return (lam, iterations) for the root lam > 0 of f, with bound = ||mu|| / radius.

    ||w(lam)|| is strictly decreasing in lam and is >= radius as lam -> 0+
    (either the min-norm stationary point is too long, or unseen mass in
    the null space sends the norm to infinity), while at lam = bound it is
    <= radius since every denominator is >= lam.  f is increasing and
    nearly linear in lam; Newton steps are clipped to a bisection bracket
    that is revalidated every iteration.
    """
    if not 0.0 < bound < math.inf:
        raise SolverConvergenceError(f"the multiplier bound ||mu|| / radius = {bound!r} "
                                     "does not fit a float")
    # Search on w / 2^k with radius / 2^k in [0.5, 1): each step is the unscaled
    # one bit for bit, but no square of w under- or overflows at any radius.
    radius, exponent = math.frexp(radius)
    b = np.ldexp(b, -exponent)
    lo, hi = 0.0, bound
    while _secular(hi, eigs, b, radius)[1] < 0.0:
        # Rounding can push the analytic upper bound a hair short; widen.
        hi *= 2.0
    # Start from the isotropic-case root bound - min eig, an upper bound
    # for the true root, clipped into the open bracket.
    lam = min(hi, max(lo, bound - float(np.min(eigs))))
    if not (lo < lam < hi):
        lam = 0.5 * (lo + hi)
    for iterations in range(1, _MAX_SECULAR_ITERS + 1):
        norm, f, df = _secular(lam, eigs, b, radius)
        if abs(norm - radius) <= _BOUNDARY_REL_TOL * radius:
            return lam, iterations
        # The bracket moves on the norm itself, so ||w(hi)|| <= radius holds
        # exactly, not only up to the rounding of 1 / ||w||.
        if norm > radius:
            lo = lam
        elif norm < radius:
            hi = lam
        else:
            raise SolverConvergenceError("the secular norm is nan", bracket=(lo, hi))
        step = lam - f / df if df > 0.0 else None
        # The right endpoint is admissible (the root can sit exactly at
        # the analytic upper bound); the left one is not, since the
        # norm may be singular at 0 when mu has null-space mass.
        if step is None or not (lo < step <= hi):
            step = 0.5 * (lo + hi)
        if step in (lam, lo):
            # The bracket collapsed to adjacent floats (the step repeats lam or
            # the midpoint rounds onto lo) before the tolerance was met; keep
            # the endpoint with ||w|| <= radius, the feasibility invariant.
            return hi, iterations
        lam = step
    raise SolverConvergenceError("secular iteration exhausted its budget", bracket=(lo, hi))


def solve_erm(moments: PairMoments, cfg: ProblemConfig) -> tuple[RankerWeights, SolveDiagnostics]:
    """Minimize the pair-moment quadratic over the ball of radius cfg.w_star.

    Returns the minimum-norm minimizer together with a KKT certificate.
    Any radius whose multiplier fits a double solves, since every norm is
    taken after an exact power-of-two prescale.  Raises
    SolverConvergenceError if ||mu|| / radius leaves the float range, or
    (carrying the final bracket) if the secular iteration exhausts its
    budget, which for PSD moments indicates a tolerance tighter than the
    arithmetic supports.  Sigma is not re-checked here: `PairMoments`
    rejects a non-PSD sigma at construction.
    """
    radius = cfg.w_star
    eigs, basis = moments.eigh
    opnorm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    # Clamp rounding-level negatives and split range from null space.
    eigs = np.maximum(eigs, 0.0)
    null_mask = eigs <= opnorm * _NULL_REL_TOL
    eigs = np.where(null_mask, 0.0, eigs)

    b = basis.T @ moments.mu
    mu_norm = float(_prescaled_norm(moments.mu))
    # Minimum-norm stationary point: invert on the range, zero on the null.
    # An entry that overflows is inf, and its norm then picks the boundary.
    with np.errstate(over="ignore"):
        coef = np.where(null_mask, 0.0, b / np.where(null_mask, 1.0, eigs))
    lam, iterations = 0.0, 0
    if (_prescaled_norm(np.where(null_mask, b, 0.0)) > _INTERIOR_GAP_REL * mu_norm
            or _prescaled_norm(coef) > radius):
        # Boundary case: find lam > 0 with ||(sigma + lam I)^-1 mu|| = radius.
        lam, iterations = _boundary_multiplier(eigs, b, mu_norm / radius, radius)
        coef = b / (eigs + lam)

    w = RankerWeights(basis @ coef)
    return w, SolveDiagnostics(
        constrained_active=lam > 0.0,
        multiplier=lam,
        kkt_residual=float(_prescaled_norm(moments.sigma @ w.w - moments.mu + lam * w.w)),
        objective_value=objective_value(moments, w),
        iterations=iterations,
    )
