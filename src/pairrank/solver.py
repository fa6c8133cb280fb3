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

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatchError,
    PairMoments,
    ProblemConfig,
    RankerWeights,
    SolverConvergenceError,
)

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
    if w.dim != moments.dim:
        raise DimensionMismatchError(
            f"weights of dimension {w.dim} cannot score {moments.dim}-dim moments"
        )
    return float(0.5 * w.w @ moments.sigma @ w.w - moments.mu @ w.w)


def _secular_norm(lam: float, eigs: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Return (||w(lam)||, d||w||/dlam) for w(lam) = (sigma + lam I)^-1 mu.

    In the eigenbasis ||w(lam)||^2 = sum_i b_i^2 / (eigs_i + lam)^2.
    """
    denom = eigs + lam
    terms = (b / denom) ** 2
    norm = float(np.sqrt(np.sum(terms)))
    if norm == 0.0:
        return 0.0, 0.0
    deriv = float(-np.sum(terms / denom) / norm)
    return norm, deriv


def solve_erm(moments: PairMoments, cfg: ProblemConfig) -> tuple[RankerWeights, SolveDiagnostics]:
    """Minimize the pair-moment quadratic over the ball of radius cfg.w_star.

    Returns the minimum-norm minimizer together with a KKT certificate.
    Raises SolverConvergenceError (carrying the final bracket) if the
    secular iteration exhausts its budget, which for PSD moments
    indicates a tolerance tighter than the arithmetic supports.  Sigma is
    not re-checked here: `PairMoments` rejects a non-PSD sigma at
    construction.
    """
    radius = cfg.w_star
    eigs, basis = moments.eigh
    opnorm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    # Clamp rounding-level negatives and split range from null space.
    eigs = np.maximum(eigs, 0.0)
    null_cut = opnorm * _NULL_REL_TOL
    null_mask = eigs <= null_cut
    eigs = np.where(null_mask, 0.0, eigs)

    b = basis.T @ moments.mu
    mu_norm = float(np.linalg.norm(moments.mu))

    if mu_norm == 0.0:
        w = RankerWeights(np.zeros(moments.dim))
        return w, SolveDiagnostics(
            constrained_active=False,
            multiplier=0.0,
            kkt_residual=0.0,
            objective_value=0.0,
            iterations=0,
        )

    # Minimum-norm stationary point: invert on the range, zero on the null.
    w_range = np.where(null_mask, 0.0, b / np.where(null_mask, 1.0, eigs))
    range_norm = float(np.linalg.norm(w_range))
    stationarity_gap = float(np.linalg.norm(np.where(null_mask, b, 0.0)))

    if stationarity_gap <= _INTERIOR_GAP_REL * mu_norm and range_norm <= radius:
        w = RankerWeights(basis @ w_range)
        residual = float(np.linalg.norm(moments.sigma @ w.w - moments.mu))
        return w, SolveDiagnostics(
            constrained_active=False,
            multiplier=0.0,
            kkt_residual=residual,
            objective_value=objective_value(moments, w),
            iterations=0,
        )

    # Boundary case: find lam > 0 with ||(sigma + lam I)^-1 mu|| = radius.
    # The norm is strictly decreasing in lam and is >= radius as lam -> 0+
    # (either the min-norm stationary point is too long, or unseen mass in
    # the null space sends the norm to infinity), while at lam = ||mu|| /
    # radius it is <= radius since every denominator is >= lam.  Root-find
    # on f(lam) = 1 / ||w(lam)|| - 1 / radius, which is increasing and
    # nearly linear in lam, with Newton steps clipped to a bisection
    # bracket that is revalidated every iteration.
    lo, f_lo = 0.0, -1.0  # sign only; f < 0 at the left edge by case analysis
    hi = mu_norm / radius
    norm_hi, _ = _secular_norm(hi, eigs, b)
    f_hi = 1.0 / norm_hi - 1.0 / radius
    while f_hi < 0.0:
        # Rounding can push the analytic upper bound a hair short; widen.
        hi *= 2.0
        norm_hi, _ = _secular_norm(hi, eigs, b)
        f_hi = 1.0 / norm_hi - 1.0 / radius

    # Start from the isotropic-case root ||mu|| / radius - min eig, an
    # upper bound for the true root, clipped into the open bracket.
    lam = min(hi, max(lo, mu_norm / radius - float(np.min(eigs))))
    if not (lo < lam < hi):
        lam = 0.5 * (lo + hi)
    iterations = 0
    while True:
        iterations += 1
        if iterations > _MAX_SECULAR_ITERS:
            raise SolverConvergenceError(
                "secular iteration exhausted its budget", bracket=(lo, hi)
            )
        norm, dnorm = _secular_norm(lam, eigs, b)
        f = 1.0 / norm - 1.0 / radius
        if abs(norm - radius) <= _BOUNDARY_REL_TOL * radius:
            break
        if f < 0.0:
            lo, f_lo = lam, f
        else:
            hi, f_hi = lam, f
        assert f_lo < 0.0 <= f_hi, "bracket lost its sign change"
        df = -dnorm / (norm * norm)
        step = lam - f / df if df > 0.0 else None
        # The right endpoint is admissible (the root can sit exactly at
        # the analytic upper bound); the left one is not, since the
        # norm may be singular at 0 when mu has null-space mass.
        if step is None or not (lo < step <= hi):
            step = 0.5 * (lo + hi)
        if step == lam:
            # Bracket collapsed to adjacent floats before the tolerance
            # was met; take the endpoint with ||w|| <= radius so the
            # feasibility invariant survives.
            lam = hi
            break
        lam = step

    w_vec = basis @ (b / (eigs + lam))
    w = RankerWeights(w_vec)
    residual = float(
        np.linalg.norm(moments.sigma @ w_vec - moments.mu + lam * w_vec)
    )
    return w, SolveDiagnostics(
        constrained_active=True,
        multiplier=float(lam),
        kkt_residual=residual,
        objective_value=objective_value(moments, w),
        iterations=iterations,
    )
