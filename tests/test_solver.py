"""Ball-constrained quadratic solver: analytic cases, KKT, search oracle."""

import numpy as np
import pytest

from pairrank import (
    DimensionMismatchError,
    PairMoments,
    ProblemConfig,
    RankerWeights,
    objective_value,
    solve_erm,
)


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
        moments = _moments([0.0, 0.0], np.eye(2))
        weights, diag = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=1.0))
        assert np.array_equal(weights.w, [0.0, 0.0])
        assert diag.objective_value == 0.0
        assert not diag.constrained_active

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

