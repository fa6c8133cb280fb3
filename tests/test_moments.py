"""Moment builders: naive oracle, fast identity, seeded pair subsampling."""

import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank import moments
from pairrank import (
    Dataset,
    SubsampleConfig,
    UntrainableDatasetError,
    batch_moments_fast,
    batch_moments_naive,
    draw_pair_indices,
    subsample_moments,
)

from conftest import random_dataset

_STRIP = moments._STRIP
_ONE_CALL = moments._ONE_CALL_COLS
# Widths across the strip width, the one-call limit and the strip remainders.
_KERNEL_DIMS = [_STRIP - 1, _STRIP, _STRIP + 1, _ONE_CALL, _ONE_CALL + 1,
                _ONE_CALL + _STRIP + 3, 2 * _ONE_CALL + 2]


def _entrywise_close(a, b, rel):
    return np.all(np.abs(a - b) <= rel * (1.0 + np.abs(b)))


def _einsum_reference(rows):
    """The single-call kernel the strip kernel must reproduce bit for bit."""
    return np.einsum("si,sj->ij", rows, rows, optimize=False)


def _wide_range_rows(rng, n, dim):
    """Gaussian entries scaled by powers of two from 2**-60 to 2**60."""
    return rng.standard_normal((n, dim)) * np.exp2(rng.integers(-60, 61, size=(n, dim)))


class TestSecondMomentKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        dim=st.sampled_from([1, *_KERNEL_DIMS, 3 * _ONE_CALL + 1]),
        layout=st.sampled_from(["contiguous", "row-step", "column-offset", "column-step",
                                "fortran"]),
        two_operands=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_single_einsum_bit_for_bit(self, seed, n, dim, layout, two_operands):
        rng = np.random.default_rng(seed)

        def operand():
            base = _wide_range_rows(rng, 2 * n + 1, 2 * dim + 1)
            return {
                "contiguous": np.ascontiguousarray(base[:n, :dim]),
                "row-step": base[1::2][:n, :dim],
                "column-offset": base[:n, 1 : dim + 1],
                "column-step": base[:n, ::2][:, :dim],
                "fortran": np.asfortranarray(base[:n, :dim]),
            }[layout]

        rows = operand()
        if two_operands:
            other = operand()
            got = moments._second_moment(rows, other)
            assert np.array_equal(got, np.einsum("si,sj->ij", rows, other, optimize=False))
        else:
            got = moments._second_moment(rows)
            assert np.array_equal(got, _einsum_reference(rows))
            assert np.array_equal(got, got.T)

    def test_worker_count_does_not_change_a_bit(self, monkeypatch):
        rng = np.random.default_rng(310)
        rows = _wide_range_rows(rng, 257, 3 * _ONE_CALL + 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        single = moments._second_moment(rows)
        assert np.array_equal(single, _einsum_reference(rows))

        requested = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(moments, "ThreadPoolExecutor", RecordingPool)
        # More workers than this machine has cores, switching threads often.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        results = []

        def run():
            for _ in range(20):
                results.append(moments._second_moment(rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert requested == [8] * 20
        assert len(results) == 20
        for result in results:
            assert np.array_equal(result, single)

        # Without affinity, the pool is as wide as os.cpu_count() says, or 1 if unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for reported, expected in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: reported)
            assert np.array_equal(moments._second_moment(rows), single)
            assert requested[-1] == expected

    def test_worker_exception_surfaces(self, monkeypatch):
        class StripFailure(Exception):
            pass

        real_einsum = np.einsum
        dim = 2 * _ONE_CALL + 3  # the last strip is three columns wide
        seen = []

        def failing_on_last_strip(subscripts, left, right, **kwargs):
            seen.append(left.shape[1])
            if left.shape[1] < _STRIP:
                raise StripFailure("last strip failed")
            return real_einsum(subscripts, left, right, **kwargs)

        monkeypatch.setattr(moments.np, "einsum", failing_on_last_strip)
        rows = np.ones((4, dim))
        for other in (None, rows.copy()):
            seen.clear()
            with pytest.raises(StripFailure):
                moments._second_moment(rows, other)
            assert seen.count(dim % _STRIP) == 1

    @pytest.mark.parametrize("dim", [_ONE_CALL + 1, _ONE_CALL + _STRIP + 1, 2 * _ONE_CALL + 1])
    def test_no_strip_is_one_column_wide(self, monkeypatch, dim):
        # einsum sums a 1 x 1 output of more than 8192 strided rows out of
        # row order, so a one-column remainder joins the strip before it.
        real_einsum = np.einsum
        widths = []

        def recording(subscripts, left, right, **kwargs):
            widths.append(left.shape[1])
            return real_einsum(subscripts, left, right, **kwargs)

        monkeypatch.setattr(moments.np, "einsum", recording)
        rows = _wide_range_rows(np.random.default_rng(dim), 9000, dim)
        got = moments._second_moment(rows)
        assert sorted(widths) == [_STRIP] * (dim // _STRIP - 1) + [_STRIP + 1]
        assert np.array_equal(got, _einsum_reference(rows))

    @pytest.mark.parametrize("dim", [_ONE_CALL + 1, 123, 2 * _ONE_CALL + _STRIP - 1, 600])
    def test_work_is_the_upper_triangle_plus_half_a_strip(self, monkeypatch, dim):
        # Output entries each einsum call computes.  With y = x the strips
        # hold d (d + 1) / 2 entries plus at most half a strip per row; the
        # two-operand strips hold every entry once.
        real_einsum = np.einsum
        entries = []

        def recording(subscripts, left, right, **kwargs):
            entries.append(left.shape[1] * right.shape[1])
            return real_einsum(subscripts, left, right, **kwargs)

        monkeypatch.setattr(moments.np, "einsum", recording)
        rows = np.random.default_rng(dim).standard_normal((3, dim))
        moments._second_moment(rows)
        assert sum(entries) <= dim * (dim + 1) // 2 + dim * _STRIP // 2
        entries.clear()
        moments._second_moment(rows, rows[::-1].copy())
        assert sum(entries) == dim * dim


class TestBatchNaive:
    def test_single_pair_by_hand(self):
        data = Dataset.from_arrays([[1.0, 0.0]], [[0.0, 1.0]])
        moments = batch_moments_naive(data)
        assert np.array_equal(moments.mu, [1.0, -1.0])
        assert np.array_equal(moments.sigma, [[1.0, -1.0], [-1.0, 1.0]])

    def test_identical_classes_give_zero_moments(self):
        data = Dataset.from_arrays([[2.0, 3.0]], [[2.0, 3.0]])
        moments = batch_moments_naive(data)
        assert np.array_equal(moments.mu, [0.0, 0.0])
        assert np.array_equal(moments.sigma, np.zeros((2, 2)))

    def test_empty_class_rejected(self):
        data = Dataset.from_arrays(np.empty((0, 2)), [[1.0, 2.0]])
        with pytest.raises(UntrainableDatasetError):
            batch_moments_naive(data)


class TestFastMatchesNaive:
    def test_small_random_instance(self):
        rng = np.random.default_rng(301)
        data = random_dataset(rng, 3, 4, 5)
        naive = batch_moments_naive(data)
        fast = batch_moments_fast(data)
        assert _entrywise_close(fast.mu, naive.mu, 1e-10)
        assert _entrywise_close(fast.sigma, naive.sigma, 1e-10)

    def test_thousand_by_thousand_instance(self):
        rng = np.random.default_rng(302)
        data = random_dataset(rng, 10, 1000, 1000)
        naive = batch_moments_naive(data)
        fast = batch_moments_fast(data)
        assert _entrywise_close(fast.mu, naive.mu, 1e-9)
        assert _entrywise_close(fast.sigma, naive.sigma, 1e-9)

    def test_equal_class_means_give_zero_mu(self):
        base = np.array([[1.0, -1.0], [3.0, 5.0]])
        data = Dataset.from_arrays(base, base[::-1])
        fast = batch_moments_fast(data)
        assert np.all(np.abs(fast.mu) <= 1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        n1=st.integers(1, 40),
        n0=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(self, seed, dim, n1, n0):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, dim, n1, n0, scale=3.0)
        naive = batch_moments_naive(data)
        fast = batch_moments_fast(data)
        assert _entrywise_close(fast.mu, naive.mu, 1e-9)
        assert _entrywise_close(fast.sigma, naive.sigma, 1e-9)

    def test_offset_features_match_exact_pair_loop(self):
        # A common offset of 1e6 cancels in the uncentered identity; the
        # centered one shifts each class by its own mean first.
        rng = np.random.default_rng(303)
        base = random_dataset(rng, 3, 9, 11)
        data = Dataset.from_arrays(base.positives + 1e6, base.negatives + 1e6)
        diffs = [[Fraction(a) - Fraction(b) for a, b in zip(x1, x0)]
                 for x1 in data.positives for x0 in data.negatives]
        count = len(diffs)
        exact_mu = [sum(row[i] for row in diffs) / count for i in range(3)]
        exact_sigma = [[sum(row[i] * row[j] for row in diffs) / count for j in range(3)]
                       for i in range(3)]
        fast = batch_moments_fast(data)
        scale = max(abs(v) for row in exact_sigma for v in row)
        for i in range(3):
            assert abs(Fraction(fast.mu[i]) - exact_mu[i]) <= Fraction(1e-9) * scale
            for j in range(3):
                error = abs(Fraction(fast.sigma[i, j]) - exact_sigma[i][j])
                assert error <= Fraction(1e-9) * scale, (i, j, float(error / scale))


class TestBatchFastMemory:
    def test_peak_memory_is_one_block_buffer(self):
        # The docstring's bound, 8 * _BLOCK_ROWS * d + 8 * d^2 bytes, binds
        # once a class has more rows than a block.  Beside the block sit a
        # few d x d matrices (the finished C1, the sum being built, mu mu',
        # the eigenbasis): about 2.5 of them measured, 4 allowed as slack.
        rng = np.random.default_rng(304)
        dim, n = 123, 20_000
        data = random_dataset(rng, dim, n, n)
        tracemalloc.start()
        try:
            batch_moments_fast(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * moments._BLOCK_ROWS * dim + 8 * dim * dim
        assert peak > 8 * moments._BLOCK_ROWS * dim
        assert peak <= bound + 4 * 8 * dim * dim, f"peak {peak} B above {bound} B + slack"


class TestBatchNaiveMemory:
    def test_peak_memory_is_row_sums_and_one_difference_block(self):
        # The docstring's bound: n1 * d row sums and one n0 x d difference
        # block, plus a few d x d matrices and the ufunc buffer numpy fills
        # when it broadcasts a positive row against the block.  Slack, fixed
        # before the first run: 8 d x d matrices.  Forming each block anew
        # holds two blocks while the previous one is freed: 1.6 MB more.
        rng = np.random.default_rng(305)
        dim, n1, n0 = 10, 2000, 20_000
        data = random_dataset(rng, dim, n1, n0)
        tracemalloc.start()
        try:
            batch_moments_naive(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (n1 + n0) * dim + 8 * np.getbufsize()
        assert peak > 8 * n0 * dim
        assert peak <= bound + 8 * 8 * dim * dim, f"peak {peak} B above {bound} B + slack"


def _contract_pair_indices(seed, s, n1, n0):
    """The documented pair-draw contract, word by word, in plain Python.

    Returns the indices and the first-pass rejection count per class.
    """
    words = iter(int(word) for word in np.random.Philox(key=seed).random_raw(8 * s))
    first = [next(words) for _ in range(2 * s)]
    indices, rejected = [], []
    for raw, n in ((first[0::2], n1), (first[1::2], n0)):
        cutoff = 2**64 - 2**64 % n
        pending = [t for t in range(s) if raw[t] >= cutoff]
        rejected.append(len(pending))
        while pending:
            for t in pending:
                raw[t] = next(words)
            pending = [t for t in pending if raw[t] >= cutoff]
        indices.append([word % n for word in raw])
    return indices, rejected


class TestDrawPairIndices:
    def test_deterministic_and_in_range(self):
        first = draw_pair_indices(99, 500, 7, 13)
        second = draw_pair_indices(99, 500, 7, 13)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        pos, neg = first
        assert pos.shape == neg.shape == (500,)
        assert pos.min() >= 0 and pos.max() < 7
        assert neg.min() >= 0 and neg.max() < 13

    def test_power_of_two_class_sizes(self):
        pos, neg = draw_pair_indices(7, 1000, 8, 16)
        assert pos.max() < 8 and neg.max() < 16
        # no rejection happens here, so the words map straight through
        words = np.random.Philox(key=7).random_raw(2000)
        assert np.array_equal(pos, (words[0::2] % np.uint64(8)).astype(np.int64))
        assert np.array_equal(neg, (words[1::2] % np.uint64(16)).astype(np.int64))

    def test_rejects_empty_draws(self):
        with pytest.raises(ValueError):
            draw_pair_indices(0, 0, 3, 3)
        with pytest.raises(ValueError):
            draw_pair_indices(0, 5, 0, 3)

    def test_indices_roughly_uniform(self):
        pos, _ = draw_pair_indices(1234, 30000, 3, 5)
        freqs = np.bincount(pos, minlength=3) / 30000
        assert np.max(np.abs(freqs - 1.0 / 3.0)) <= 0.02

    def test_rejected_words_are_redrawn_positives_first(self):
        # At these class sizes about a quarter of the words are rejected.
        n1, n0 = 2**62 + 1, 2**62 + 3
        (pos_ref, neg_ref), rejected = _contract_pair_indices(5, 64, n1, n0)
        assert min(rejected) > 0
        pos, neg = draw_pair_indices(5, 64, n1, n0)
        assert pos.tolist() == pos_ref
        assert neg.tolist() == neg_ref

    def test_seed_changes_stream(self):
        a = draw_pair_indices(1, 64, 1000, 1000)
        b = draw_pair_indices(2, 64, 1000, 1000)
        assert not np.array_equal(a[0], b[0])


class TestSubsampleMoments:
    def test_single_pair_grid_equals_batch_exactly(self):
        # Integer features and a power-of-two s keep every sum exact.
        data = Dataset.from_arrays([[1.0, 0.0]], [[0.0, 1.0]])
        sub = subsample_moments(data, SubsampleConfig(s=8, seed=0))
        batch = batch_moments_naive(data)
        assert np.array_equal(sub.mu, batch.mu)
        assert np.array_equal(sub.sigma, batch.sigma)

    def test_single_pair_grid_float_features(self):
        rng = np.random.default_rng(303)
        data = random_dataset(rng, 3, 1, 1)
        sub = subsample_moments(data, SubsampleConfig(s=7, seed=5))
        batch = batch_moments_naive(data)
        assert _entrywise_close(sub.mu, batch.mu, 1e-12)
        assert _entrywise_close(sub.sigma, batch.sigma, 1e-12)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(304)
        data = random_dataset(rng, 4, 30, 20)
        cfg = SubsampleConfig(s=100, seed=42)
        first = subsample_moments(data, cfg)
        second = subsample_moments(data, cfg)
        assert np.array_equal(first.mu, second.mu)
        assert np.array_equal(first.sigma, second.sigma)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(305)
        data = random_dataset(rng, 4, 30, 20)
        first = subsample_moments(data, SubsampleConfig(s=100, seed=1))
        second = subsample_moments(data, SubsampleConfig(s=100, seed=2))
        assert not np.array_equal(first.mu, second.mu)

    def test_unbiasedness_over_seeds(self):
        rng = np.random.default_rng(306)
        data = random_dataset(rng, 3, 25, 25)
        x_star = max(
            np.linalg.norm(data.positives, axis=1).max(),
            np.linalg.norm(data.negatives, axis=1).max(),
        )
        s = 100
        seeds = 200
        total = np.zeros(3)
        for seed in range(seeds):
            total += subsample_moments(data, SubsampleConfig(s=s, seed=seed)).mu
        batch = batch_moments_fast(data)
        deviation = np.linalg.norm(total / seeds - batch.mu)
        assert deviation <= 3.0 * (2.0 * x_star) / np.sqrt(seeds * s)

    def test_mean_spread_at_large_pair_budget(self):
        rng = np.random.default_rng(307)
        data = random_dataset(rng, 2, 10, 10)
        x_star = max(
            np.linalg.norm(data.positives, axis=1).max(),
            np.linalg.norm(data.negatives, axis=1).max(),
        )
        s = 50 * data.n1 * data.n0
        batch = batch_moments_fast(data)
        hits = 0
        for seed in range(100):
            sub = subsample_moments(data, SubsampleConfig(s=s, seed=seed))
            if np.linalg.norm(sub.mu - batch.mu) <= 0.15 * x_star:
                hits += 1
        assert hits >= 95

    def test_sigma_is_psd_for_every_seed(self):
        rng = np.random.default_rng(308)
        data = random_dataset(rng, 5, 12, 9)
        for seed in range(50):
            sub = subsample_moments(data, SubsampleConfig(s=20, seed=seed))
            eigs = np.linalg.eigvalsh(sub.sigma)
            assert eigs[0] >= -1e-12 * max(1.0, eigs[-1])

    def test_empty_class_rejected(self):
        data = Dataset.from_arrays(np.empty((0, 2)), [[1.0, 2.0]])
        with pytest.raises(UntrainableDatasetError):
            subsample_moments(data, SubsampleConfig(s=5, seed=0))

    def test_count_route_bits_across_block_edges(self, monkeypatch):
        # Both classes span three 1024-row blocks, the last ones partial.
        monkeypatch.setattr(moments, "_BLOCK_ROWS", 2 * moments._CHUNK)
        rng = np.random.default_rng(311)
        data = random_dataset(rng, _ONE_CALL + 3, 2500, 3000, scale=3.0)
        cfg = SubsampleConfig(s=20000, seed=17)
        sub = subsample_moments(data, cfg)
        mu, sigma = _count_route_by_blocks(data, cfg, moments._BLOCK_ROWS)
        assert np.array_equal(sub.mu, mu)
        assert np.array_equal(sub.sigma, sigma)

    def test_one_block_per_class_is_one_kernel_call(self):
        rng = np.random.default_rng(314)
        data = random_dataset(rng, _ONE_CALL + 3, 40, 30)
        cfg = SubsampleConfig(s=moments._BLOCK_ROWS + 5, seed=23)
        sub = subsample_moments(data, cfg)
        mu, sigma = _count_route_by_blocks(data, cfg, max(data.n1, data.n0))
        assert np.array_equal(sub.mu, mu)
        assert np.array_equal(sub.sigma, sigma)

    def test_block_size_keeps_mu_and_moves_sigma_by_rounding_only(self, monkeypatch):
        rng = np.random.default_rng(313)
        data = random_dataset(rng, 5, 2500, 3000, scale=3.0)
        cfg = SubsampleConfig(s=20000, seed=19)
        whole = subsample_moments(data, cfg)
        monkeypatch.setattr(moments, "_BLOCK_ROWS", moments._CHUNK)
        blocked = subsample_moments(data, cfg)
        assert np.array_equal(blocked.mu, whole.mu)
        assert _entrywise_close(blocked.sigma, whole.sigma, 1e-13)

    @pytest.mark.parametrize("case", ["offset-1e6", "one-pair", "one-row-per-class",
                                      "undrawn-rows", "above-block-rows", "tile-minus-one",
                                      "tile-plus-one", "two-tiles-plus-one"])
    def test_matches_long_double_pair_sum(self, case):
        dim, n1, n0, s, offset = {
            "offset-1e6": (4, 40, 60, 300, 1e6),
            "one-pair": (6, 30, 20, 1, 0.0),
            "one-row-per-class": (5, 1, 1, 9, 0.0),
            "undrawn-rows": (7, 500, 700, 50, 0.0),
            "above-block-rows": (3, 20000, 30, 40000, 0.0),
            "tile-minus-one": (_ONE_CALL - 1, 60, 80, 500, 0.0),
            "tile-plus-one": (_ONE_CALL + 1, 60, 80, 500, 0.0),
            "two-tiles-plus-one": (2 * _ONE_CALL + 1, 60, 80, 500, 0.0),
        }[case]
        rng = np.random.default_rng(320)
        base = random_dataset(rng, dim, n1, n0, scale=3.0)
        data = Dataset.from_arrays(base.positives + offset, base.negatives + offset)
        cfg = SubsampleConfig(s=s, seed=29)
        if case == "undrawn-rows":
            drawn = draw_pair_indices(cfg.seed, s, n1, n0)
            assert np.unique(drawn[0]).size < n1 and np.unique(drawn[1]).size < n0
        if case == "above-block-rows":
            assert np.unique(draw_pair_indices(cfg.seed, s, n1, n0)[0]).size > moments._BLOCK_ROWS
        sub = subsample_moments(data, cfg)
        mu, sigma = _long_double_pair_sum(data, cfg)
        assert _entrywise_close(sub.mu, mu, 1e-12)
        assert _entrywise_close(sub.sigma, sigma, 1e-12)

    def test_peak_memory_is_one_block_buffer(self):
        # Memory must not grow with s beyond the pair indices: one block
        # buffer, G (a row per drawn row of one class), 48 bytes per pair
        # and sigma.
        rng = np.random.default_rng(312)
        dim, s, n = 8, 400_000, 300
        data = random_dataset(rng, dim, n, n)
        tracemalloc.start()
        try:
            subsample_moments(data, SubsampleConfig(s=s, seed=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = 8 * min(n, moments._BLOCK_ROWS) * dim
        cross = 8 * n * dim
        limit = buffer + cross + 48 * s + 64 * dim * dim
        assert peak <= limit, f"peak {peak} B above {limit} B"


def _long_double_pair_sum(data, cfg):
    """The literal pair-difference moments, summed in long double: the lcbr oracle."""
    i_idx, j_idx = draw_pair_indices(cfg.seed, cfg.s, data.n1, data.n0)
    mu = np.zeros(data.dim, dtype=np.longdouble)
    sigma = np.zeros((data.dim, data.dim), dtype=np.longdouble)
    for start in range(0, cfg.s, 4096):
        pairs = slice(start, start + 4096)
        diffs = (data.positives[i_idx[pairs]].astype(np.longdouble)
                 - data.negatives[j_idx[pairs]].astype(np.longdouble))
        mu += diffs.sum(axis=0)
        sigma += np.einsum("si,sj->ij", diffs, diffs)
    return (mu / cfg.s).astype(np.float64), (sigma / cfg.s).astype(np.float64)


def _count_route_by_blocks(data, cfg, block):
    """subsample_moments' arithmetic written out whole, its sums cut at `block` rows.

    G comes from np.add.at, which adds in draw order as np.bincount does.
    """
    s = cfg.s
    sides = []
    for rows, idx in zip((data.positives, data.negatives),
                         draw_pair_indices(cfg.seed, s, data.n1, data.n0)):
        counts = np.bincount(idx, minlength=rows.shape[0])
        drawn = np.flatnonzero(counts)
        weights = counts[drawn].astype(np.float64)
        shift = moments._neumaier_over_rows(rows[drawn] * weights[:, None]) / s
        slot = np.searchsorted(drawn, idx)
        sides.append((rows[drawn] - shift, weights, slot, shift))
    (a, c, a_slot, m1), (b, c0, b_slot, m0) = sides
    swap = a.shape[0] > b.shape[0]
    if swap:
        (a, c, a_slot), (b, c0, b_slot) = (b, c0, b_slot), (a, c, a_slot)
    cross = np.zeros_like(a)
    np.add.at(cross, a_slot, b[b_slot])
    b_sum = moments._neumaier_over_rows(cross)
    weighted = a * c[:, None]
    a_sum = moments._neumaier_over_rows(weighted)
    right = weighted - 2.0 * cross
    root = b * np.sqrt(c0)[:, None]
    mixed = square = None
    for start in range(0, max(a.shape[0], b.shape[0]), block):
        rows = slice(start, start + block)
        if start < a.shape[0]:
            moment = moments._second_moment(a[rows], right[rows])
            mixed = moment if mixed is None else mixed + moment
        if start < b.shape[0]:
            moment = moments._second_moment(root[rows])
            square = moment if square is None else square + moment
    u = b_sum - a_sum if swap else a_sum - b_sum
    mu = m1 - m0
    spread = np.outer(u, mu)
    sigma = (mixed + mixed.T) * 0.5 + square + (spread + spread.T)
    return mu + u / s, sigma / s + np.outer(mu, mu)


def _badly_scaled_dataset(rng, dim, n1, n0):
    """Columns scaled by powers of two from 2**-30 to 2**30, some offset by 1e6 of their scale."""
    scale = np.exp2(rng.integers(-30, 31, size=dim))
    offset = np.where(rng.random(dim) < 0.5, 1e6, 0.0)
    return Dataset.from_arrays((rng.standard_normal((n1, dim)) + offset) * scale,
                               (rng.standard_normal((n0, dim)) + offset) * scale)


_ROUTES = {
    "batch_moments_naive": batch_moments_naive,
    "batch_moments_fast": batch_moments_fast,
    "subsample_moments": lambda data: subsample_moments(data, SubsampleConfig(s=150, seed=41)),
}


# (n1, n0): positive classes on both sides of the compensated sum's chunk
# edge, the larger one against a small negative class so that the naive
# route, one kernel call per positive row, stays cheap.
_CLASS_SIZES = [(40, 30), (moments._CHUNK + 3, 7)]


class TestEquivariance:
    """Exact symmetries of the moment routes; none needs an oracle."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from(_KERNEL_DIMS),
        sizes=st.sampled_from(_CLASS_SIZES),
        route=st.sampled_from(sorted(_ROUTES)),
    )
    @settings(max_examples=24, deadline=None)
    def test_permuting_columns_permutes_the_moments(self, seed, dim, sizes, route):
        rng = np.random.default_rng(seed)
        data = _badly_scaled_dataset(rng, dim, *sizes)
        perm = rng.permutation(dim)
        moved = Dataset.from_arrays(data.positives[:, perm], data.negatives[:, perm])
        got, want = _ROUTES[route](moved), _ROUTES[route](data)
        assert np.array_equal(got.mu, want.mu[perm])
        assert np.array_equal(got.sigma, want.sigma[np.ix_(perm, perm)])

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from(_KERNEL_DIMS),
        sizes=st.sampled_from(_CLASS_SIZES),
        route=st.sampled_from(sorted(_ROUTES)),
        exponent=st.integers(-40, 40),
    )
    @settings(max_examples=24, deadline=None)
    def test_scaling_by_a_power_of_two_scales_the_moments(self, seed, dim, sizes, route, exponent):
        rng = np.random.default_rng(seed)
        data = _badly_scaled_dataset(rng, dim, *sizes)
        factor = 2.0 ** exponent
        scaled = Dataset.from_arrays(data.positives * factor, data.negatives * factor)
        got, want = _ROUTES[route](scaled), _ROUTES[route](data)
        assert np.array_equal(got.mu, want.mu * factor)
        assert np.array_equal(got.sigma, want.sigma * factor**2)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from(_KERNEL_DIMS),
        sizes=st.sampled_from(_CLASS_SIZES),
    )
    @settings(max_examples=24, deadline=None)
    def test_swapping_the_classes_negates_mu_and_keeps_sigma(self, seed, dim, sizes):
        rng = np.random.default_rng(seed)
        data = _badly_scaled_dataset(rng, dim, *sizes)
        swapped = Dataset.from_arrays(data.negatives, data.positives)
        got, want = batch_moments_fast(swapped), batch_moments_fast(data)
        assert np.array_equal(got.mu, -want.mu)
        assert np.array_equal(got.sigma, want.sigma)

    @pytest.mark.parametrize("route", ["batch_moments_fast", "subsample_moments"])
    def test_rolling_the_columns_past_a_lone_last_column(self, route):
        # d = 65 leaves one column after the 8-row strips, and a class of
        # 9000 rows runs the symmetric kernel on more than 8192 rows.
        dim = _ONE_CALL + 1
        data = _badly_scaled_dataset(np.random.default_rng(330), dim, 9000, 40)
        if route == "batch_moments_fast":
            build = batch_moments_fast
        else:
            # G is built for the 40 positives; the 9000 negatives' squares
            # run the symmetric kernel.
            data = Dataset.from_arrays(data.negatives, data.positives)
            build = lambda d: subsample_moments(d, SubsampleConfig(s=60000, seed=43))
        perm = np.roll(np.arange(dim), 1)
        moved = Dataset.from_arrays(data.positives[:, perm], data.negatives[:, perm])
        got, want = build(moved), build(data)
        assert np.array_equal(got.mu, want.mu[perm])
        assert np.array_equal(got.sigma, want.sigma[np.ix_(perm, perm)])


class TestSubsampleConfig:
    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            SubsampleConfig(s=0, seed=0)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            SubsampleConfig(s=1, seed=-1)
        with pytest.raises(ValueError):
            SubsampleConfig(s=1, seed=2**64)

    def test_accepts_the_whole_seed_range(self):
        assert SubsampleConfig(s=1, seed=0).seed == 0
        assert SubsampleConfig(s=1, seed=2**64 - 1).seed == 2**64 - 1
