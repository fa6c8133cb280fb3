"""Domain types: construction contracts, validation, ball rescaling."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from pairrank import (
    Dataset,
    DimensionMismatchError,
    GmmSpec,
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
from pairrank import core


class TestDataset:
    def test_from_arrays_infers_dimension(self):
        data = Dataset.from_arrays([[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]])
        assert (data.n1, data.n0, data.n, data.dim) == (1, 2, 3, 2)

    def test_from_arrays_rejects_dimension_clash(self):
        with pytest.raises(DimensionMismatchError):
            Dataset.from_arrays([[1.0, 2.0]], [[3.0]])
        with pytest.raises(DimensionMismatchError, match="positives is not coercible"):
            Dataset([[1.0, 2.0], [3.0]], [[1.0, 2.0]])
        with pytest.raises(DimensionMismatchError, match="ndim=3"):
            Dataset(np.zeros((1, 2, 2)), [[1.0, 2.0]])

    def test_empty_class_keeps_declared_dimension(self):
        data = Dataset.from_arrays(np.empty((0, 3)), [[1.0, 2.0, 3.0]])
        assert data.positives.shape == (0, 3)
        assert data.n1 == 0

    def test_dimension_is_read_from_the_arrays(self):
        assert [f.name for f in fields(Dataset)] == ["positives", "negatives"]
        for data in (Dataset([], [[1.0, 2.0, 3.0]]), Dataset([[1.0, 2.0, 3.0]], [])):
            assert data.dim == 3
            assert data.positives.shape[1] == data.negatives.shape[1] == 3
        assert Dataset([], []).dim == 0

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


def _writable_array():
    """A 4 x 4 array, and the array to write it through: itself."""
    base = np.arange(16.0).reshape(4, 4)
    return base, base


def _read_only_bytearray_view():
    """A 4 x 4 read-only view of a bytearray, and a writable array over the same bytes."""
    buffer = bytearray(np.arange(16.0).tobytes())
    owner = np.frombuffer(buffer)
    owner.flags.writeable = False
    return owner.reshape(4, 4), np.frombuffer(buffer)


class TestOwnership:
    """Every frozen container keeps values that no later write can move."""

    @pytest.mark.parametrize("source", [_writable_array, _read_only_bytearray_view])
    @pytest.mark.parametrize("build, names", [
        (lambda rows: Dataset(rows[:2], rows[2:]), ("positives", "negatives")),
        (lambda rows: PairMoments(rows[0], np.eye(4)), ("mu",)),
        (lambda rows: RankerWeights(rows[1]), ("w",)),
        (lambda rows: GmmSpec(1.0, rows[:2], rows[2:]), ("means_pos", "means_neg")),
    ], ids=["Dataset", "PairMoments", "RankerWeights", "GmmSpec"])
    def test_views_of_writable_memory_are_copied(self, build, names, source):
        rows, writer = source()
        built = build(rows)
        before = [getattr(built, name).copy() for name in names]
        writer[...] = 5.0
        for name, value in zip(names, before):
            assert not getattr(built, name).flags.writeable
            np.testing.assert_array_equal(getattr(built, name), value)

    def test_owned_arrays_and_views_of_frozen_ones_are_kept_not_copied(self):
        positives, frozen = np.ones((2, 3)), np.zeros((3, 3))
        frozen.flags.writeable = False
        data = Dataset(positives, frozen[1:])
        assert data.positives is positives and not positives.flags.writeable
        assert data.negatives.base is frozen
        weights = np.frombuffer(np.arange(3.0).tobytes())
        assert RankerWeights(weights).w is weights


class TestProblemConfig:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError, match="x_star must be finite and > 0"):
            ProblemConfig(x_star=bad, w_star=1.0)
        with pytest.raises(ValueError, match="w_star must be finite and > 0"):
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
        with pytest.raises(DimensionMismatchError, match="mu must be a vector"):
            PairMoments(mu=np.zeros((2, 1)), sigma=np.eye(2))
        with pytest.raises(DimensionMismatchError, match="mu is not coercible"):
            PairMoments(mu=[1.0, [2.0]], sigma=np.eye(2))

    def test_entries_above_half_the_float_maximum_stay_finite(self):
        # sigma_00 + sigma_00 overflows though sigma_00 = 1.44e308 does not.
        # The subnormal pair keeps its bits: halving it first would give 0.
        sigma = np.array([[1.44e308, -1.2e154, 5e-324],
                          [-1.2e154, 1.0, 0.0],
                          [5e-324, 0.0, 1.0]])
        moments = PairMoments(mu=np.array([1.2e154, -1.0, 0.0]), sigma=sigma)
        assert np.array_equal(moments.sigma, sigma)
        eigs, basis = moments.eigh
        assert np.all(np.isfinite(eigs)) and np.all(np.isfinite(basis))
        assert eigs[-1] == pytest.approx(1.44e308)

    def test_rejects_eigenvalue_beyond_float_range(self):
        # PSD and rank one, with top eigenvalue 3.4e308.
        with pytest.raises(InvalidMomentsError, match="float range"):
            PairMoments(mu=np.zeros(2), sigma=np.full((2, 2), 1.7e308))


class TestRankerWeights:
    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatchError):
            RankerWeights(w=[[1.0]])
        with pytest.raises(DimensionMismatchError, match="w is not coercible"):
            RankerWeights(w=[[1.0], 2.0])
        assert issubclass(DimensionMismatchError, ValueError)

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
        for bad in (np.inf, -np.inf, np.nan):
            for pos, neg in (([[bad]], [[1.0]]), ([[1.0]], [[bad]]), ([[1e200], [bad]], [[1.0]])):
                data = Dataset.from_arrays(pos, neg)
                with pytest.raises(PairRankError, match=r"non-finite feature \(nan or inf\)"):
                    scale_to_ball(data, 1.0)

    def test_norms_whose_squares_overflow_scale_exactly(self):
        # The squares of these features overflow, but their norms do not.
        # Measuring them after an exact power-of-two prescale gives the
        # factor of the same data stored 2**600 smaller, times 2**-600.
        rng = np.random.default_rng(13)
        small = random_dataset(rng, 3, 10, 12, scale=2.0)
        big = small.scaled(2.0**600)
        assert np.abs(big.positives).max() > np.sqrt(np.finfo(float).max)
        scaled, factor = scale_to_ball(big, 1.0)
        assert np.isfinite(factor) and factor > 0.0
        assert factor == scale_to_ball(small, 1.0)[1] * 2.0**-600
        norms = np.linalg.norm(np.vstack([scaled.positives, scaled.negatives]), axis=1)
        assert 1.0 - 1e-12 <= norms.max() <= 1.0

    @pytest.mark.parametrize(
        "row, x_star, factor",
        [([1e-170, 1e-170], 1e-171, 1e-171 / math.hypot(1e-170, 1e-170)),
         ([3e-160, 4e-160], 1e-160, 0.2)],
        ids=["squares-underflow", "squares-subnormal"],
    )
    def test_norms_whose_squares_underflow_scale_exactly(self, row, x_star, factor):
        # np.linalg.norm underflows on these rows too, so the checks use hypot.
        data = Dataset.from_arrays([row], [[0.0, 0.0]])
        scaled, got = scale_to_ball(data, x_star)
        assert got == factor
        assert math.hypot(*scaled.positives[0]) == x_star

    def test_peak_memory_is_one_copy_and_one_block(self):
        # The returned copy is the only one built; measuring it adds one
        # _NORM_BLOCK-row temporary.  64 KiB covers the per-block norms.
        rng = np.random.default_rng(14)
        data = random_dataset(rng, 40, 6000, 4000, scale=3.0)
        tracemalloc.start()
        try:
            scaled, factor = scale_to_ball(data, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert factor < 1.0
        copy = scaled.positives.nbytes + scaled.negatives.nbytes
        block = 8 * core._NORM_BLOCK * data.dim
        assert peak <= copy + block + 64 * 1024

    def test_norm_beyond_float_range_is_refused(self):
        data = Dataset.from_arrays([[1.5e308, 1.5e308]], [[1.0, 0.0]])
        with pytest.raises(PairRankError, match="factor rounds to zero"):
            scale_to_ball(data, 1.0)

    def test_rejects_bad_cap(self):
        data = Dataset.from_arrays([[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            scale_to_ball(data, 0.0)

    def test_all_zero_dataset_unchanged(self):
        data = Dataset.from_arrays([[0.0, 0.0]], [[0.0, 0.0]])
        assert scale_to_ball(data, 0.5) == (data, 1.0)
        assert scale_to_ball(data, 0.5)[0] is data
