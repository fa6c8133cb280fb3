"""Domain types: construction contracts, validation, ball rescaling."""

import numpy as np
import pytest

from pairrank import (
    BatchProvenance,
    Dataset,
    DimensionMismatchError,
    InvalidMomentsError,
    PairMoments,
    PairRankError,
    ProblemConfig,
    RankerWeights,
    Sample,
    SubsampleProvenance,
    UntrainableDatasetError,
    scale_to_ball,
    validate_dataset,
)

from conftest import random_dataset


class TestSample:
    def test_valid_sample_freezes_features(self):
        sample = Sample(features=[1.0, 2.0], label=1)
        assert sample.dim == 2
        assert not sample.features.flags.writeable

    def test_label_outside_binary_rejected(self):
        with pytest.raises(ValueError):
            Sample(features=[1.0], label=2)

    def test_matrix_features_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Sample(features=[[1.0, 2.0]], label=0)


class TestDataset:
    def test_from_arrays_infers_dimension(self):
        data = Dataset.from_arrays([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
        assert (data.n1, data.n0, data.n, data.dim) == (1, 2, 3, 2)
        assert data.skew == pytest.approx(1.0 / 3.0)

    def test_from_arrays_rejects_dimension_clash(self):
        with pytest.raises(DimensionMismatchError):
            Dataset.from_arrays([[1.0, 2.0]], [[3.0]])

    def test_from_samples_partitions_by_label(self):
        samples = [
            Sample(features=[1.0], label=1),
            Sample(features=[2.0], label=0),
            Sample(features=[3.0], label=1),
        ]
        data = Dataset.from_samples(samples)
        assert data.positives[:, 0].tolist() == [1.0, 3.0]
        assert data.negatives[:, 0].tolist() == [2.0]

    def test_from_samples_rejects_mixed_dimensions(self):
        samples = [Sample(features=[1.0], label=1), Sample(features=[1.0, 2.0], label=0)]
        with pytest.raises(DimensionMismatchError):
            Dataset.from_samples(samples)

    def test_empty_class_keeps_declared_dimension(self):
        data = Dataset.from_arrays(np.empty((0, 3)), [[1.0, 2.0, 3.0]])
        assert data.positives.shape == (0, 3)
        assert data.n1 == 0

    def test_require_trainable_needs_both_classes(self):
        data = Dataset.from_arrays(np.empty((0, 2)), [[1.0, 2.0]])
        with pytest.raises(UntrainableDatasetError):
            data.require_trainable()

    def test_skew_of_empty_dataset_is_nan(self):
        data = Dataset(positives=np.empty((0, 1)), negatives=np.empty((0, 1)), dim=1)
        assert np.isnan(data.skew)

    def test_arrays_are_read_only(self):
        data = Dataset.from_arrays([[1.0]], [[2.0]])
        with pytest.raises(ValueError):
            data.positives[0, 0] = 9.0

    def test_non_finite_rows_are_constructible(self):
        # Construction tolerates dirty values; validate_dataset reports them.
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
    def test_batch_needs_both_counts(self):
        with pytest.raises(ValueError):
            BatchProvenance(n1=0, n0=5)

    def test_subsample_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            SubsampleProvenance(s=1, seed=2**64)
        with pytest.raises(ValueError):
            SubsampleProvenance(s=1, seed=-1)
        with pytest.raises(ValueError):
            SubsampleProvenance(s=0, seed=0)


class TestPairMoments:
    def test_symmetrizes_rounding_level_asymmetry(self):
        sigma = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
        moments = PairMoments(mu=np.zeros(2), sigma=sigma, provenance=BatchProvenance(1, 1))
        assert np.array_equal(moments.sigma, moments.sigma.T)

    def test_rejects_gross_asymmetry(self):
        sigma = np.array([[1.0, 0.9], [0.1, 1.0]])
        with pytest.raises(InvalidMomentsError):
            PairMoments(mu=np.zeros(2), sigma=sigma, provenance=BatchProvenance(1, 1))

    def test_rejects_negative_definite(self):
        with pytest.raises(InvalidMomentsError):
            PairMoments(
                mu=np.zeros(2), sigma=-np.eye(2), provenance=BatchProvenance(1, 1)
            )
        # Indefinite too: the check runs at construction, before any solve.
        with pytest.raises(InvalidMomentsError):
            PairMoments(
                mu=np.zeros(2), sigma=np.diag([1.0, -1.0]), provenance=BatchProvenance(1, 1)
            )

    def test_tolerates_tiny_negative_eigenvalue(self):
        sigma = np.diag([1.0, -1e-12])
        moments = PairMoments(mu=np.zeros(2), sigma=sigma, provenance=BatchProvenance(1, 1))
        assert moments.dim == 2

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMomentsError):
            PairMoments(
                mu=np.array([np.inf]),
                sigma=np.eye(1),
                provenance=BatchProvenance(1, 1),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PairMoments(mu=np.zeros(3), sigma=np.eye(2), provenance=BatchProvenance(1, 1))


class TestRankerWeights:
    def test_norm(self):
        assert RankerWeights(w=[3.0, 4.0]).norm() == 5.0

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            RankerWeights(w=[[1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RankerWeights(w=[float("nan")])


class TestValidateDataset:
    def test_clean_dataset_is_ok(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 3, 4, 4)
        cap = 1.0 + max(
            np.linalg.norm(data.positives, axis=1).max(),
            np.linalg.norm(data.negatives, axis=1).max(),
        )
        report = validate_dataset(data, ProblemConfig(x_star=cap, w_star=1.0))
        assert report.ok

    def test_flags_non_finite_rows(self):
        data = Dataset.from_arrays([[1.0, np.nan]], [[0.5, 0.5]])
        report = validate_dataset(data, ProblemConfig(x_star=10.0, w_star=1.0))
        assert report.non_finite == ((1, 0),)
        assert not report.ok

    def test_flags_norm_violations_per_class(self):
        data = Dataset.from_arrays([[3.0, 4.0]], [[0.1, 0.1], [5.0, 12.0]])
        report = validate_dataset(data, ProblemConfig(x_star=6.0, w_star=1.0))
        assert report.norm_violations == ((0, 1),)

    def test_norm_cap_has_relative_slack(self):
        # A vector one part in 1e10 over the cap still validates.
        data = Dataset.from_arrays([[1.0 + 1e-10]], [[0.5]])
        report = validate_dataset(data, ProblemConfig(x_star=1.0, w_star=1.0))
        assert report.norm_violations == ()

    def test_flags_empty_classes(self):
        data = Dataset.from_arrays(np.empty((0, 1)), [[0.5]])
        report = validate_dataset(data, ProblemConfig(x_star=1.0, w_star=1.0))
        assert report.empty_classes == (1,)
        assert not report.ok


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
        with pytest.raises(PairRankError):
            scale_to_ball(data, 1.0)

    def test_rejects_bad_cap(self):
        data = Dataset.from_arrays([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            scale_to_ball(data, 0.0)

    def test_all_zero_dataset_unchanged(self):
        data = Dataset.from_arrays([[0.0, 0.0]], [[0.0, 0.0]])
        assert scale_to_ball(data, 0.5) == (data, 1.0)
        assert scale_to_ball(data, 0.5)[0] is data
