"""Domain types: construction contracts, validation, ball rescaling."""

import numpy as np
import pytest

from pairrank import (
    Dataset,
    DimensionMismatchError,
    InvalidMomentsError,
    PairMoments,
    PairRankError,
    ProblemConfig,
    RankerWeights,
    SubsampleConfig,
    UntrainableDatasetError,
    scale_to_ball,
)

from conftest import random_dataset


class TestDataset:
    def test_from_arrays_infers_dimension(self):
        data = Dataset.from_arrays([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
        assert (data.n1, data.n0, data.n, data.dim) == (1, 2, 3, 2)

    def test_from_arrays_rejects_dimension_clash(self):
        with pytest.raises(DimensionMismatchError):
            Dataset.from_arrays([[1.0, 2.0]], [[3.0]])

    def test_empty_class_keeps_declared_dimension(self):
        data = Dataset.from_arrays(np.empty((0, 3)), [[1.0, 2.0, 3.0]])
        assert data.positives.shape == (0, 3)
        assert data.n1 == 0

    def test_require_trainable_needs_both_classes(self):
        data = Dataset.from_arrays(np.empty((0, 2)), [[1.0, 2.0]])
        with pytest.raises(UntrainableDatasetError):
            data.require_trainable()

    def test_arrays_are_read_only(self):
        data = Dataset.from_arrays([[1.0]], [[2.0]])
        with pytest.raises(ValueError):
            data.positives[0, 0] = 9.0

    def test_non_finite_rows_are_constructible(self):
        # Construction does not scan values; scale_to_ball and the metrics refuse them.
        data = Dataset.from_arrays([[np.nan]], [[1.0]])
        assert data.n1 == 1


class TestProblemConfig:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            ProblemConfig(x_star=bad, w_star=1.0)
        with pytest.raises(ValueError):
            ProblemConfig(x_star=1.0, w_star=bad)

    def test_accepts_positive_finite(self):
        cfg = ProblemConfig(x_star=2.0, w_star=0.5)
        assert (cfg.x_star, cfg.w_star) == (2.0, 0.5)


class TestProvenance:
    """The (s, seed) pair a subsampled estimate is reproduced from."""

    def test_subsample_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            SubsampleConfig(s=1, seed=2**64)
        with pytest.raises(ValueError):
            SubsampleConfig(s=1, seed=-1)
        with pytest.raises(ValueError):
            SubsampleConfig(s=0, seed=0)


class TestPairMoments:
    def test_symmetrizes_rounding_level_asymmetry(self):
        sigma = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
        moments = PairMoments(mu=np.zeros(2), sigma=sigma)
        assert np.array_equal(moments.sigma, moments.sigma.T)

    def test_rejects_gross_asymmetry(self):
        sigma = np.array([[1.0, 0.9], [0.1, 1.0]])
        with pytest.raises(InvalidMomentsError):
            PairMoments(mu=np.zeros(2), sigma=sigma)

    def test_rejects_negative_definite(self):
        with pytest.raises(InvalidMomentsError):
            PairMoments(mu=np.zeros(2), sigma=-np.eye(2))
        # Indefinite too: the check runs at construction, before any solve.
        with pytest.raises(InvalidMomentsError):
            PairMoments(mu=np.zeros(2), sigma=np.diag([1.0, -1.0]))

    def test_tolerates_tiny_negative_eigenvalue(self):
        sigma = np.diag([1.0, -1e-12])
        moments = PairMoments(mu=np.zeros(2), sigma=sigma)
        assert moments.dim == 2

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMomentsError):
            PairMoments(mu=np.array([np.inf]), sigma=np.eye(1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PairMoments(mu=np.zeros(3), sigma=np.eye(2))


class TestRankerWeights:
    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            RankerWeights(w=[[1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RankerWeights(w=[float("nan")])


class TestScaleToBall:
    def test_inside_ball_returned_unchanged(self):
        data = Dataset.from_arrays([[0.1, 0.1]], [[0.2, 0.0]])
        assert scale_to_ball(data, 1.0) == (data, 1.0)
        assert scale_to_ball(data, 1.0)[0] is data

    def test_common_factor_caps_every_norm(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, 4, 20, 30, scale=5.0)
        scaled, _ = scale_to_ball(data, 1.0)
        worst = max(
            np.linalg.norm(scaled.positives, axis=1).max(),
            np.linalg.norm(scaled.negatives, axis=1).max(),
        )
        assert worst <= 1.0

    def test_scaling_preserves_pair_orderings(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 3, 10, 10, scale=7.0)
        scaled, _ = scale_to_ball(data, 2.0)
        w = rng.standard_normal(3)
        before = np.sign(data.positives @ w[:, None] - (data.negatives @ w)[None, :])
        after = np.sign(
            scaled.positives @ w[:, None] - (scaled.negatives @ w)[None, :]
        )
        assert np.array_equal(before, after)

    def test_rejects_non_finite_features(self):
        data = Dataset.from_arrays([[np.inf]], [[1.0]])
        with pytest.raises(PairRankError, match="non-finite feature"):
            scale_to_ball(data, 1.0)

    def test_rejects_bad_cap(self):
        data = Dataset.from_arrays([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            scale_to_ball(data, 0.0)

    def test_all_zero_dataset_unchanged(self):
        data = Dataset.from_arrays([[0.0, 0.0]], [[0.0, 0.0]])
        assert scale_to_ball(data, 0.5) == (data, 1.0)
        assert scale_to_ball(data, 0.5)[0] is data
