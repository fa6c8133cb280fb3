"""Ball-constrained quadratic solver: analytic cases, KKT, search oracle."""

import math
import warnings

import numpy as np
import pytest

import pairrank.solver as solver
from pairrank import (
    Dataset,
    DimensionMismatchError,
    PairMoments,
    ProblemConfig,
    RankerWeights,
    SolveDiagnostics,
    SolverConvergenceError,
    batch_moments_fast,
    objective_value,
    solve_erm,
)

from conftest import load_perfbench_reference


def _moments(mu, sigma):
    return PairMoments(mu=np.asarray(mu, float), sigma=np.asarray(sigma, float))


def _random_psd_instance(rng, dim, allow_rank_deficient=True):
    rank = dim
    if allow_rank_deficient and rng.random() < 0.4:
        rank = int(rng.integers(1, dim + 1))
    factor = rng.standard_normal((dim, rank))
    sigma = factor @ factor.T / rank
    mu = rng.standard_normal(dim) * rng.uniform(0.3, 3.0)
    return _moments(mu, sigma)


def _uniform_ball(rng, count, dim, radius):
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]


def _batch_objective(moments, points):
    quad = 0.5 * np.einsum("si,ij,sj->s", points, moments.sigma, points)
    return quad - points @ moments.mu


class TestAnalyticCases:
    def test_boundary_case_identity_sigma(self):
        moments = _moments([2.0, 0.0], np.eye(2))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        assert np.all(np.abs(weights.w - [1.0, 0.0]) <= 1e-12)
        assert diag.constrained_active
        assert abs(diag.multiplier - 1.0) <= 1e-12
        assert diag.kkt_residual <= 1e-10

    def test_interior_case_identity_sigma(self):
        moments = _moments([0.5, 0.0], np.eye(2))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        assert np.all(np.abs(weights.w - [0.5, 0.0]) <= 1e-12)
        assert not diag.constrained_active
        assert diag.multiplier == 0.0
        assert diag.iterations == 0

    def test_linear_objective_on_ball(self):
        moments = _moments([1.0, 0.0], np.zeros((2, 2)))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=2.0))
        assert np.all(np.abs(weights.w - [2.0, 0.0]) <= 1e-12)
        assert diag.constrained_active
        assert abs(diag.multiplier - 0.5) <= 1e-12

    def test_zero_mean_returns_zero_weights(self):
        # A zero mu, with signed zeros too, takes the interior branch and
        # gets +0.0 weights with an all-zero certificate, whatever sigma is.
        rng = np.random.default_rng(404)
        signed = rng.choice([0.0, -0.0], size=(4, 3))
        cases = [
            _moments([0.0, 0.0], np.eye(2)),
            _moments([-0.0, -0.0], np.zeros((2, 2))),
            _moments([0.0, -0.0, 0.0], np.diag([2.0, 0.0, 1.0])),
            *(_moments(mu, _random_psd_instance(rng, 3).sigma) for mu in signed),
            batch_moments_fast(Dataset.from_arrays(np.full((3, 2), -0.0), np.full((4, 2), -0.0))),
        ]
        certificate = SolveDiagnostics(constrained_active=False, multiplier=0.0, kkt_residual=0.0,
                                       objective_value=0.0, iterations=0)
        for moments in cases:
            weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
            assert np.array_equal(weights.w, np.zeros(moments.dim))
            assert not np.any(np.signbit(weights.w))
            assert diag == certificate
            assert not np.any(np.signbit([diag.multiplier, diag.kkt_residual,
                                          diag.objective_value]))

    def test_nonzero_mean_whose_square_underflows_reaches_boundary(self):
        # mu is about 6.8e-167, so the plain ||mu|| rounds to 0; sigma is
        # 1e-300, so the unconstrained optimum lies far outside the ball.
        data = Dataset.from_arrays([[1e-150], [-1e-150 + 2.0**-551]], [[0.0]])
        moments = batch_moments_fast(data)
        assert moments.mu[0] > 0.0 and np.linalg.norm(moments.mu) == 0.0
        for radius in (0.5, 1.0, 4.0):
            weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=radius))
            assert diag.constrained_active
            assert diag.multiplier > 0.0
            assert radius * (1.0 - 1e-12) <= np.linalg.norm(weights.w) <= radius

    def test_null_space_mean_whose_norm_underflows_reaches_boundary(self):
        # The null-space gap is 1e-200, whose plain norm underflows to 0; it
        # must still send the optimum to the boundary, at multiplier 1e-200.
        moments = _moments([1e-200, 0.0], np.diag([0.0, 1.0]))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        assert diag.constrained_active
        assert np.all(np.abs(weights.w - [1.0, 0.0]) <= 1e-12)
        assert abs(diag.multiplier - 1e-200) <= 1e-12 * 1e-200

    def test_null_space_mass_forces_boundary(self):
        # The second coordinate of mu sees zero curvature, so the
        # unconstrained problem is unbounded and the ball must bind.
        moments = _moments([1.0, 1.0], np.diag([1.0, 0.0]))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        assert diag.constrained_active
        assert abs(np.linalg.norm(weights.w) - 1.0) <= 1e-9
        residual = moments.sigma @ weights.w - moments.mu + diag.multiplier * weights.w
        assert np.linalg.norm(residual) <= 1e-8


class TestRandomInstances:
    def test_kkt_feasibility_and_search_oracle(self):
        rng = np.random.default_rng(401)
        for _ in range(60):
            dim = int(rng.integers(1, 9))
            moments = _random_psd_instance(rng, dim)
            w_star = float(rng.uniform(0.2, 3.0))
            cfg = ProblemConfig(x_star=1.0, w_star=w_star)
            weights, diag = solve_erm(moments, cfg)

            assert np.linalg.norm(weights.w) <= w_star * (1.0 + 1e-9)
            residual = (
                moments.sigma @ weights.w
                - moments.mu
                + diag.multiplier * weights.w
            )
            mu_norm = np.linalg.norm(moments.mu)
            assert np.linalg.norm(residual) <= 1e-8 * (1.0 + mu_norm)
            assert diag.multiplier >= 0.0
            # Complementary slackness within solver tolerance.
            assert diag.multiplier * (w_star - np.linalg.norm(weights.w)) <= 1e-8

            candidates = _uniform_ball(rng, 10_000, dim, w_star)
            best = _batch_objective(moments, candidates).min()
            assert objective_value(moments, weights) <= best + 1e-9

    def test_interior_matches_pseudoinverse_solution(self):
        rng = np.random.default_rng(402)
        factor = rng.standard_normal((4, 4))
        sigma = factor @ factor.T + np.eye(4)
        mu = rng.standard_normal(4) * 0.05
        moments = _moments(mu, sigma)
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=10.0))
        expected = np.linalg.solve(moments.sigma, moments.mu)
        assert not diag.constrained_active
        assert np.all(np.abs(weights.w - expected) <= 1e-10 * (1.0 + np.abs(expected)))

    def test_diagnostics_objective_matches_function(self):
        rng = np.random.default_rng(403)
        moments = _random_psd_instance(rng, 5)
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=0.7))
        assert diag.objective_value == objective_value(moments, weights)


def _rescaled_norm(w, radius):
    """||w|| / radius, both scaled exactly by the radius's power of two first."""
    exponent = math.frexp(radius)[1]
    return float(np.linalg.norm(np.ldexp(w, -exponent))) / math.ldexp(radius, -exponent)


# Cases whose bracket [0, ||mu|| / radius] rounds a hair short and is widened
# once, with (multiplier, iterations) as the solver returned them before the
# search moved into the radius's binade.  With zero sigma the widened
# bracket's midpoint is the bound itself; the last case, with a tiny
# isotropic sigma, starts elsewhere if the start is taken from the widened bound.
_WIDENING = [
    ([0.1, 0.4], 0.0, 0.3, 1.3743685418725535, 1),
    ([2.5, 3.0, 0.9], 0.0, 0.7, 5.724989974146822, 1),
    ([-1.79, -0.78], 5e-16, 0.6, 3.2542706982944387, 1),
]


class TestBoundarySearch:
    @pytest.mark.parametrize("mu, eig, radius, multiplier, iterations", _WIDENING)
    def test_widened_bracket_keeps_the_unwidened_start(self, mu, eig, radius, multiplier,
                                                        iterations, monkeypatch):
        seen, real = [], solver._secular
        monkeypatch.setattr(solver, "_secular",
                            lambda lam, *rest: seen.append(lam) or real(lam, *rest))
        moments = _moments(mu, eig * np.eye(len(mu)))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=radius))
        assert seen[1] == 2.0 * seen[0]
        assert (diag.multiplier, diag.iterations) == (multiplier, iterations)
        assert diag.constrained_active
        assert abs(np.linalg.norm(weights.w) - radius) <= 1e-12 * radius

    @pytest.mark.parametrize("mu, eig, radius, multiplier, iterations", _WIDENING)
    def test_widened_cases_match_the_brent_reference(self, mu, eig, radius, multiplier, iterations):
        reference = load_perfbench_reference()
        sigma = eig * np.eye(len(mu))
        weights, _ = solve_erm(_moments(mu, sigma), ProblemConfig(x_star=1.0, w_star=radius))
        expected = reference.solve_ball(np.asarray(mu, float), sigma, radius)
        assert np.all(np.abs(weights.w - expected) <= 1e-9 * np.abs(expected))

    def test_collapsed_bracket_returns_the_feasible_endpoint(self, monkeypatch):
        # With no tolerance the search ends when the bracket collapses to
        # adjacent floats (a bisection midpoint that rounds onto lo counts:
        # without it, steps cycle between the two ends until the budget is
        # spent), and then it must keep the side inside the ball:
        # exactly so for the norm it searches on, and to rounding once the
        # weights are rotated out of the eigenbasis.
        monkeypatch.setattr(solver, "_BOUNDARY_REL_TOL", 0.0)
        rng = np.random.default_rng(405)
        for _ in range(300):
            moments = _random_psd_instance(rng, int(rng.integers(1, 8)), allow_rank_deficient=False)
            stationary = float(np.linalg.norm(np.linalg.solve(moments.sigma, moments.mu)))
            radius = float(rng.uniform(0.01, 0.99)) * stationary
            weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=radius))
            assert diag.constrained_active
            assert diag.iterations < solver._MAX_SECULAR_ITERS
            eigs, basis = moments.eigh
            assert solver._secular(diag.multiplier, eigs, basis.T @ moments.mu, radius)[0] <= radius
            assert np.linalg.norm(weights.w) <= radius * (1.0 + 1e-15)

    def test_nan_norm_is_a_convergence_error(self, monkeypatch):
        # PairMoments keeps nan out, so only a broken evaluation yields one;
        # the search must then fail with its bracket, not move it.
        real = solver._secular
        calls = []

        def nan_after_widening(lam, *rest):
            calls.append(lam)
            return real(lam, *rest) if len(calls) == 1 else (math.nan, math.nan, math.nan)

        monkeypatch.setattr(solver, "_secular", nan_after_widening)
        moments = _moments([2.0, 0.0], np.eye(2))
        with pytest.raises(SolverConvergenceError, match=r"nan \(bracket: \[0\.0, 2\.0\]\)"):
            solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))

    def test_tiny_radii_reach_the_boundary(self):
        # The squares of w underflow at these radii unless the search runs
        # on w / 2^k; before it did, 1e-170 divided by zero and 1e-160 ended
        # 7e-5 outside the ball after 52 iterations.
        moments = _moments([1.0, 0.5], [[2.0, 0.3], [0.3, 1.0]])
        for radius in (1e-150, 1e-160, 1e-170, 1e-200, 1e-250, 1e-300):
            weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=radius))
            assert diag.constrained_active and diag.iterations <= 3
            assert abs(_rescaled_norm(weights.w, radius) - 1.0) <= 1e-12
        # A subnormal radius solves too while ||mu|| / radius fits a double.
        weights, diag = solve_erm(_moments([1e-10, 0.5e-10], moments.sigma),
                                  ProblemConfig(x_star=1.0, w_star=1e-310))
        assert diag.constrained_active and 1e299 < diag.multiplier < 1e301
        assert abs(_rescaled_norm(weights.w, 1e-310) - 1.0) <= 1e-12

    def test_multiplier_beyond_float_range_is_refused(self):
        moments = _moments([1.0, 0.5], [[2.0, 0.3], [0.3, 1.0]])
        with pytest.raises(SolverConvergenceError, match="does not fit a float"):
            solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1e-310))


class TestOverflowingIntermediates:
    """Solves whose intermediate products overflow; run with warnings as errors."""

    def test_tiny_eigenvalues_under_a_large_mean(self):
        # b / eigs overflows to inf; the inf entries must only pick the boundary.
        moments = _moments([1e10, 0.0], 1e-300 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        assert np.array_equal(weights.w, [1.0, 0.0])
        assert diag.constrained_active and diag.multiplier == 1e10

    def test_kkt_residual_whose_squares_overflow(self):
        # Residual entries near 1e165: their squares overflow a plain norm.
        rng = np.random.default_rng(3)
        factor = rng.standard_normal((4, 4))
        moments = _moments(rng.standard_normal(4) * 1e180, factor @ factor.T * 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        residual = moments.sigma @ weights.w - moments.mu + diag.multiplier * weights.w
        assert np.max(np.abs(residual)) > 1e155
        assert math.isfinite(diag.kkt_residual)
        assert diag.kkt_residual <= 1e-12 * float(np.max(np.abs(moments.mu)))
        scale = 2.0 ** -600
        assert diag.kkt_residual * scale == pytest.approx(np.linalg.norm(residual * scale), rel=1e-15)


class TestSharedEigendecomposition:
    def _path(self, rng):
        moments = _random_psd_instance(rng, 150, allow_rank_deficient=False)
        interior = float(np.linalg.norm(np.linalg.solve(moments.sigma, moments.mu)))
        radii = [f * interior for f in (0.05, 0.2, 0.5, 0.9, 1.5, 4.0)]
        return moments, radii

    def test_radius_path_matches_fresh_moments_per_radius(self, monkeypatch):
        real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        calls, eigvalsh_calls = [], []

        def counting_eigh(matrix):
            calls.append(matrix.shape)
            return real_eigh(matrix)

        def counting_eigvalsh(matrix):
            eigvalsh_calls.append(matrix.shape)
            return real_eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        moments, radii = self._path(np.random.default_rng(401))
        shared = [solve_erm(moments, ProblemConfig(x_star=1.0, w_star=r)) for r in radii]
        assert len(calls) == 1
        active = set()
        for radius, (weights, diag) in zip(radii, shared):
            fresh = PairMoments(moments.mu, moments.sigma)
            fresh_weights, fresh_diag = solve_erm(fresh, ProblemConfig(x_star=1.0, w_star=radius))
            assert np.array_equal(weights.w, fresh_weights.w)
            assert diag == fresh_diag
            active.add(diag.constrained_active)
        assert active == {True, False}
        assert len(calls) == 1 + len(radii)
        assert eigvalsh_calls == []

    def test_cached_arrays_are_read_only(self):
        moments, _ = self._path(np.random.default_rng(402))
        eigs, basis = moments.eigh
        assert moments.eigh[0] is eigs and moments.eigh[1] is basis
        for arr in (eigs, basis):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestObjectiveValue:
    def test_zero_weights_score_zero(self):
        moments = _moments([1.0, 2.0], np.eye(2))
        assert objective_value(moments, RankerWeights(w=[0.0, 0.0])) == 0.0

    def test_identity_sigma_zero_mu(self):
        moments = _moments([0.0, 0.0], np.eye(2))
        assert objective_value(moments, RankerWeights(w=[1.0, 1.0])) == 1.0

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(404)
        moments = _random_psd_instance(rng, 6, allow_rank_deficient=False)
        w = rng.standard_normal(6)
        expected = float(0.5 * np.dot(w, moments.sigma @ w) - np.dot(moments.mu, w))
        got = objective_value(moments, RankerWeights(w=w))
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_dimension_mismatch_rejected(self):
        moments = _moments([1.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            objective_value(moments, RankerWeights(w=[1.0]))

