"""Mixture generator: spec validation, sampling, closed-form moments."""

from dataclasses import fields

import numpy as np
import pytest

from pairrank import (
    GmmSpec,
    ProblemConfig,
    RankerWeights,
    analytic_pair_moments,
    expected_phi_risk,
    optimal_phi_ranker,
    batch_moments_fast,
    random_gmm_spec,
    sample_dataset,
    solve_erm,
)


def _spec(dim=2, k=1, sigma=1.0, means_pos=None, means_neg=None):
    if means_pos is None:
        means_pos = np.full((k, dim), 0.5)
    if means_neg is None:
        means_neg = np.full((k, dim), -0.5)
    return GmmSpec(sigma=sigma, means_pos=means_pos, means_neg=means_neg)


class TestGmmSpecValidation:
    def test_shape_and_weights_come_from_the_means(self):
        spec = _spec(dim=4, k=3)
        assert [f.name for f in fields(GmmSpec)] == ["sigma", "means_pos", "means_neg"]
        assert (spec.k, spec.dim) == (3, 4)
        assert np.array_equal(spec.weights, np.full(3, 1.0 / 3.0))

    def test_empty_or_flat_means_rejected(self):
        with pytest.raises(ValueError, match="k, dim >= 1"):
            _spec(k=0)
        with pytest.raises(ValueError, match="k, dim >= 1"):
            GmmSpec(sigma=1.0, means_pos=np.zeros(2), means_neg=np.zeros(2))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            _spec(sigma=0.0)

    def test_mean_shape_must_match(self):
        with pytest.raises(ValueError):
            _spec(means_pos=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dim >= 1"):
            _spec(dim=0)

    def test_non_finite_mean_rejected(self):
        with pytest.raises(ValueError):
            _spec(means_pos=np.array([[np.nan, 0.0]]))


class TestRandomSpec:
    def test_single_component_weights(self):
        spec = random_gmm_spec(dim=3, k=1, sigma=2.0, seed=0)
        assert np.array_equal(spec.weights, [1.0])

    def test_deterministic_in_seed(self):
        a = random_gmm_spec(dim=4, k=3, sigma=1.0, seed=77)
        b = random_gmm_spec(dim=4, k=3, sigma=1.0, seed=77)
        assert np.array_equal(a.means_pos, b.means_pos)
        assert np.array_equal(a.means_neg, b.means_neg)

    def test_means_live_in_mirrored_unit_cubes(self):
        for seed in range(100):
            spec = random_gmm_spec(dim=2, k=3, sigma=1.0, seed=seed)
            assert np.all((spec.means_pos >= 0.0) & (spec.means_pos <= 1.0))
            assert np.all((spec.means_neg >= -1.0) & (spec.means_neg <= 0.0))


class TestSampleDataset:
    def test_vanishing_noise_recovers_component_mean(self):
        spec = _spec(sigma=1e-9)
        data = sample_dataset(spec, 50, 50, seed=1)
        assert np.all(np.abs(data.positives - 0.5) <= 1e-6)
        assert np.all(np.abs(data.negatives + 0.5) <= 1e-6)

    def test_sample_mean_tracks_mixture_mean(self):
        spec = random_gmm_spec(dim=3, k=1, sigma=1.5, seed=601)
        target = spec.weights @ spec.means_pos
        bound = 4.0 * spec.sigma / np.sqrt(1000.0)
        for seed in (602, 603, 604, 605, 606):
            data = sample_dataset(spec, 1000, 1, seed=seed)
            sample_mean = data.positives.mean(axis=0)
            assert np.all(np.abs(sample_mean - target) <= bound)

    def test_deterministic_in_seed(self):
        spec = random_gmm_spec(dim=2, k=2, sigma=1.0, seed=607)
        a = sample_dataset(spec, 10, 12, seed=8)
        b = sample_dataset(spec, 10, 12, seed=8)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)

    def test_rejects_empty_classes(self):
        spec = _spec()
        with pytest.raises(ValueError):
            sample_dataset(spec, 0, 5, seed=0)


class TestAnalyticMoments:
    def test_two_gaussian_instance_by_hand(self):
        e1 = np.array([1.0, 0.0])
        spec = _spec(
            sigma=1.0,
            means_pos=e1[None, :],
            means_neg=-e1[None, :],
        )
        moments = analytic_pair_moments(spec)
        assert np.array_equal(moments.mu, 2.0 * e1)
        expected_sigma = 2.0 * np.eye(2) + 4.0 * np.outer(e1, e1)
        assert np.array_equal(moments.sigma, expected_sigma)

    def test_vanishing_noise_gives_rank_one_sigma(self):
        e1 = np.array([1.0, 0.0])
        spec = _spec(sigma=1e-12, means_pos=e1[None, :], means_neg=-e1[None, :])
        moments = analytic_pair_moments(spec)
        eigs = np.linalg.eigvalsh(moments.sigma)
        assert eigs[-1] == pytest.approx(4.0)
        assert eigs[0] <= 1e-12

    def test_matches_empirical_moments_of_large_sample(self):
        spec = random_gmm_spec(dim=3, k=3, sigma=1.0, seed=608)
        population = analytic_pair_moments(spec)
        pairs = sample_dataset(spec, 1_000_000, 1_000_000, seed=609)
        diffs = pairs.positives - pairs.negatives
        count = diffs.shape[0]
        emp_mu = diffs.mean(axis=0)
        mu_se = diffs.std(axis=0) / np.sqrt(count)
        assert np.all(np.abs(emp_mu - population.mu) <= 5.0 * mu_se + 1e-12)
        emp_sigma = np.einsum("si,sj->ij", diffs, diffs) / count
        squares = diffs**2
        second = np.einsum("si,sj->ij", squares, squares) / count
        sigma_se = np.sqrt(np.maximum(second - emp_sigma**2, 0.0) / count)
        assert np.all(np.abs(emp_sigma - population.sigma) <= 5.0 * sigma_se + 1e-12)


class TestOptimalRanker:
    def test_symmetric_spec_aligns_with_axis(self):
        a = 0.8
        e1 = np.array([1.0, 0.0])
        spec = _spec(sigma=0.5, means_pos=(a * e1)[None, :], means_neg=(-a * e1)[None, :])
        cfg = ProblemConfig(x_star=1.0, w_star=10.0)
        ranker = optimal_phi_ranker(spec, cfg)
        expected_first = 2.0 * a / (2.0 * spec.sigma**2 + 4.0 * a * a)
        assert abs(ranker.w[0] - expected_first) <= 1e-10
        assert abs(ranker.w[1]) <= 1e-12

    def test_beats_random_search(self):
        spec = random_gmm_spec(dim=4, k=2, sigma=2.0, seed=610)
        cfg = ProblemConfig(x_star=1.0, w_star=1.0)
        ranker = optimal_phi_ranker(spec, cfg)
        population = analytic_pair_moments(spec)
        optimal = expected_phi_risk(population, ranker)
        rng = np.random.default_rng(611)
        directions = rng.standard_normal((1000, 4))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = cfg.w_star * rng.random(1000) ** 0.25
        for point in directions * radii[:, None]:
            assert optimal <= expected_phi_risk(population, RankerWeights(w=point)) + 1e-9

    def test_shrinking_ball_shrinks_solution(self):
        spec = random_gmm_spec(dim=3, k=1, sigma=1.0, seed=612)
        cfg = ProblemConfig(x_star=1.0, w_star=1e-6)
        ranker = optimal_phi_ranker(spec, cfg)
        assert np.linalg.norm(ranker.w) <= 1e-6 * (1.0 + 1e-9)
        population = analytic_pair_moments(spec)
        assert expected_phi_risk(population, ranker) <= 0.5

    def test_trained_risk_dominates_optimal_risk(self):
        spec = random_gmm_spec(dim=5, k=2, sigma=2.0, seed=613)
        cfg = ProblemConfig(x_star=1.0, w_star=1.0)
        population = analytic_pair_moments(spec)
        reference = optimal_phi_ranker(spec, cfg)
        optimal_risk = expected_phi_risk(population, reference)
        train = sample_dataset(spec, 500, 500, seed=614)
        trained, _ = solve_erm(batch_moments_fast(train), cfg)
        trained_risk = expected_phi_risk(population, trained)
        assert trained_risk >= optimal_risk - 1e-9

