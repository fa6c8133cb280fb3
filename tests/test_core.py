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
from pairrank.core import _CsrRows, _densify, _row_source, _SparseDataset
from pairrank.moments import _draws, _neumaier_over_rows
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

    def test_ragged_sigma_names_the_field(self):
        with pytest.raises(DimensionMismatchError, match="sigma is not coercible"):
            PairMoments(mu=np.zeros(2), sigma=[[1.0, 0.0], [0.0]])
        with pytest.raises(DimensionMismatchError, match="sigma must be a matrix"):
            PairMoments(mu=np.zeros(2), sigma=np.ones(2))

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


def _wide_range(rng, rows, dim):
    """Rows with about 30 % of entries stored, normal values times e^N(0, 3)."""
    stored = rng.random((rows, dim)) < 0.3
    return np.where(stored, rng.standard_normal((rows, dim)) * np.exp(rng.normal(0.0, 3.0, (rows, dim))),
                    0.0)


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestNumpyReductionOrder:
    # The premises the sparse row sources' bits rest on.  A numpy release
    # that changes how it orders these reductions fails here by name.

    @pytest.mark.parametrize("dim", [2, 3, 9, 123, 130, 700])
    def test_block_column_sums_add_rows_in_order(self, dim):
        # So one np.bincount over the stored entries, in row order, sums a
        # C-contiguous block of sparse rows as np.sum(axis=0) does.
        rng = np.random.default_rng(470 + dim)
        matrix = _wide_range(rng, 1200, dim)
        for block in (matrix[:512], matrix[512:1024], matrix[1024:]):
            rows, cols = np.nonzero(block)
            want = np.bincount(cols, weights=block[rows, cols], minlength=dim)
            assert np.array_equal(np.sum(block, axis=0), want)

    def test_one_column_is_summed_pairwise(self):
        # So at d = 1 a sparse chunk is densified and summed by numpy.
        column = np.r_[1.0, np.full(511, 2.0**-53)]
        assert np.sum(column[:, None], axis=0)[0] > 1.0
        assert np.bincount(np.zeros(512, dtype=np.intp), weights=column)[0] == 1.0

    @pytest.mark.parametrize("dim", [1, 2, 9, 123, 700])
    def test_row_norm_is_the_root_of_the_row_sum_of_squares(self, dim):
        rng = np.random.default_rng(480 + dim)
        x = _wide_range(rng, 300, dim)
        assert np.array_equal(np.linalg.norm(x, axis=1), np.sqrt(np.add.reduce(x * x, axis=1)))


def _csr(matrix):
    """`matrix`'s rows as a CSR source storing its nonzero and -0.0 entries, its
    offsets starting 3 entries into the entry arrays."""
    base = 3
    indices = [np.flatnonzero((row != 0.0) | np.signbit(row)) for row in matrix]
    offsets = base + np.r_[0, np.cumsum([index.size for index in indices])].astype(np.int64)
    columns = np.r_[np.full(base, -1), *indices].astype(np.int32)
    values = np.r_[np.full(base, np.nan), *(row[index] for row, index in zip(matrix, indices))]
    return _CsrRows(offsets, columns, values, matrix.shape[1])


class TestRowSources:
    @staticmethod
    def _matrix(rng, rows, dim):
        """Sparse rows with -0.0 entries and all-zero rows, the first and last among them."""
        matrix = np.where(rng.random((rows, dim)) < 0.2, rng.standard_normal((rows, dim)), 0.0)
        matrix[rng.random(rows) < 0.3] = 0.0
        matrix[[0, -1]] = 0.0
        matrix[1, 0] = -0.0
        return matrix

    @pytest.mark.parametrize("rows, dim", [(40, 7), (9, 300)])
    def test_csr_block_and_take_equal_dense_slices(self, rows, dim):
        rng = np.random.default_rng(452)
        matrix = self._matrix(rng, rows, dim)
        sparse, dense = _csr(matrix), _row_source(matrix)
        assert sparse.shape == dense.shape == matrix.shape
        buffer = sparse.scratch(rows)
        buffer.fill(np.nan)
        for lo, hi in [(0, rows), (0, 1), (3, rows - 2), (rows - 1, rows), (5, 5)]:
            got = sparse.block(lo, hi, buffer)
            assert np.array_equal(got, matrix[lo:hi]) and np.array_equal(np.signbit(got),
                                                                         np.signbit(matrix[lo:hi]))
            assert dense.block(lo, hi, None).base is matrix
        for index in [np.arange(rows), np.array([rows - 1, 0, 1, 0]), np.array([], dtype=np.intp)]:
            for source in (sparse, dense):
                got = source.take(index, buffer)
                assert np.array_equal(got, matrix[index])
                assert np.array_equal(np.signbit(got), np.signbit(matrix[index]))

    def test_csr_columns_equal_dense_columns(self):
        rng = np.random.default_rng(453)
        matrix = self._matrix(rng, 30, 12)
        index = np.array([0, 2, 3, 7, 11, 12, 29])
        sparse = [column.copy() for column in _csr(matrix).each_column(index)]
        dense = [column.copy() for column in _row_source(matrix).each_column(index)]
        assert len(sparse) == len(dense) == matrix.shape[1]
        for k, (got, want) in enumerate(zip(sparse, dense)):
            assert np.array_equal(got, matrix[index, k]) and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_empty_class_densifies_to_zero_rows(self):
        rng = np.random.default_rng(454)
        matrix = self._matrix(rng, 6, 4)
        whole = _csr(matrix)
        empty = _CsrRows(whole.offsets[6:], whole.indices, whole.values, 4)
        assert empty.shape == (0, 4)
        assert empty.block(0, 0, empty.scratch(0)).shape == (0, 4)
        for data in (_SparseDataset(whole, empty), _SparseDataset(empty, whole)):
            dense = _densify(data)
            assert (dense.n1, dense.n0) == (data.n1, data.n0)
            assert np.array_equal(np.vstack([dense.positives, dense.negatives]), matrix)
            with pytest.raises(UntrainableDatasetError):
                data.require_trainable()

    def test_densify_equals_the_dense_rows_and_freezes(self):
        rng = np.random.default_rng(455)
        pos, neg = self._matrix(rng, 1500, 5), self._matrix(rng, 900, 5)
        offsets = _csr(np.vstack([pos, neg]))
        data = _SparseDataset(_CsrRows(offsets.offsets[:1501], offsets.indices, offsets.values, 5),
                              _CsrRows(offsets.offsets[1500:], offsets.indices, offsets.values, 5))
        dense = _densify(data)
        w = rng.standard_normal(5)
        for got, want, rows in ((dense.positives, pos, data.positives),
                                (dense.negatives, neg, data.negatives)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
            assert _same_bits(core._block_scores(rows, w), core._block_scores(got, w))
            assert not got.flags.writeable and not got.base.flags.writeable
            with pytest.raises(ValueError):
                got.flags.writeable = True

    def test_ball_factor_reads_sparse_rows_as_dense(self):
        rng = np.random.default_rng(456)
        pos, neg = self._matrix(rng, 2100, 6) * 40.0, self._matrix(rng, 700, 6) * 40.0
        whole = _csr(np.vstack([pos, neg]))
        sparse = (_CsrRows(whole.offsets[:2101], whole.indices, whole.values, 6),
                  _CsrRows(whole.offsets[2100:], whole.indices, whole.values, 6))
        factor = core._ball_factor(*sparse, 1.0)
        assert factor < 1.0 and factor == scale_to_ball(Dataset(pos, neg), 1.0)[1]

    @pytest.mark.parametrize("rows", [0, 511, 512, 513, 1023, 1024, 1025])
    @pytest.mark.parametrize("dim", [1, 2, 9, 130])
    def test_csr_reductions_equal_the_dense_rows(self, rows, dim):
        # Wide-range values, all-zero rows, stored -0.0 entries and, for
        # d >= 2, a column stored -0.0 in every row but the first and last,
        # so a chunk's dense column sum can be -0.0 where bincount's is +0.0.
        rng = np.random.default_rng(457)
        if rows:
            matrix = self._matrix(rng, rows, dim) * np.exp(rng.normal(0.0, 3.0, (rows, dim)))
            if dim >= 2:
                matrix[1:-1, -1] = -0.0
        else:
            matrix = np.zeros((0, dim))
        sparse, dense = _csr(matrix), _row_source(matrix)
        w = rng.standard_normal(dim)
        assert _same_bits(core._block_scores(sparse, w), matrix @ w)
        assert _same_bits(core._block_scores(dense, w), matrix @ w)
        for lo, hi in [(0, rows), (0, min(rows, 512)), (min(rows, 512), min(rows, 1024))]:
            got, want = sparse.sums(lo, hi), np.sum(matrix[lo:hi], axis=0)
            assert np.array_equal(got, want)
            assert dim >= 2 or _same_bits(got, want)
            for factor in (1.0, 0.37):
                buffer = sparse.scratch(hi - lo)
                buffer.fill(np.nan)
                assert _same_bits(sparse.squares(lo, hi, buffer, factor),
                                  dense.squares(lo, hi, None, factor))
        for factor in (1.0, 0.37):
            want = float(np.max(np.linalg.norm(matrix * factor, axis=1), initial=0.0))
            assert core._max_row_norm(sparse, factor) == core._max_row_norm(matrix, factor) == want
        assert _same_bits(_neumaier_over_rows(sparse), _neumaier_over_rows(matrix))
        index = np.flatnonzero(rng.random(rows) < 0.7)
        weights = rng.integers(1, 6, index.size).astype(np.float64)
        buffer = np.full((index.size, dim), np.nan)
        assert np.array_equal(sparse.take_sums(index, weights, buffer),
                              dense.take_sums(index, weights, buffer))
        for got, want in zip(sparse.each_column(index), dense.each_column(index)):
            assert _same_bits(got, want)
        if rows:
            idx = rng.integers(0, rows, 3 * rows)
            assert _same_bits(_draws(sparse, idx, idx.size).shift, _draws(matrix, idx, idx.size).shift)

    @pytest.mark.parametrize("held", ["dense", "csr"])
    def test_rows_score_one_block_at_a_time(self, held):
        # 8197 rows: two whole blocks and five rows, at a width where one
        # gemv over them can give other bits than the blocks' gemvs (it does
        # on OpenBLAS 0.3.31).  A dense block is a view: no block buffer.
        rng = np.random.default_rng(458)
        matrix = self._matrix(rng, 2 * core._BLOCK_ROWS + 5, 123)
        rows = matrix if held == "dense" else _csr(matrix)
        w = rng.standard_normal(123)
        blocks = [matrix[lo : lo + core._BLOCK_ROWS] @ w
                  for lo in range(0, matrix.shape[0], core._BLOCK_ROWS)]
        tracemalloc.start()
        try:
            got = core._block_scores(rows, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _same_bits(got, np.concatenate(blocks))
        block = 8 * core._BLOCK_ROWS * matrix.shape[1]
        assert (peak < got.nbytes + block) == (held == "dense")

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_csr_norm_of_a_block_leaving_the_square_range_is_prescaled(self, scale):
        # The second block's squares overflow (or underflow); the first's do not.
        rng = np.random.default_rng(459)
        matrix = self._matrix(rng, 1500, 5)
        matrix[core._NORM_BLOCK :] *= scale
        with np.errstate(over="ignore"):
            plain = np.linalg.norm(matrix[core._NORM_BLOCK :], axis=1).max()
        assert not 2.0**-500 <= plain < np.inf
        want = max(np.linalg.norm(matrix[: core._NORM_BLOCK], axis=1).max(),
                   core._prescaled_norm(matrix[core._NORM_BLOCK :], axis=1).max())
        assert core._max_row_norm(_csr(matrix)) == core._max_row_norm(matrix) == want

    def test_csr_norm_refuses_a_non_finite_entry(self):
        rng = np.random.default_rng(460)
        for bad in (np.nan, np.inf):
            matrix = self._matrix(rng, 1100, 4)
            matrix[1050, 2] = bad
            with pytest.raises(PairRankError, match="non-finite"):
                core._max_row_norm(_csr(matrix))
