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

_TILE = moments._TILE


def _entrywise_close(a, b, rel):
    return np.all(np.abs(a - b) <= rel * (1.0 + np.abs(b)))


def _einsum_reference(rows):
    """The single-call kernel the tiled one must reproduce bit for bit."""
    return np.einsum("si,sj->ij", rows, rows, optimize=False)


def _wide_range_rows(rng, n, dim):
    """Gaussian entries scaled by powers of two from 2**-60 to 2**60."""
    return rng.standard_normal((n, dim)) * np.exp2(rng.integers(-60, 61, size=(n, dim)))


class TestSecondMomentKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        dim=st.sampled_from([1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE, 3 * _TILE + 1]),
        layout=st.sampled_from(["contiguous", "row-step", "column-offset", "column-step",
                                "fortran"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_single_einsum_bit_for_bit(self, seed, n, dim, layout):
        rng = np.random.default_rng(seed)
        base = _wide_range_rows(rng, 2 * n + 1, 2 * dim + 1)
        rows = {
            "contiguous": np.ascontiguousarray(base[:n, :dim]),
            "row-step": base[1::2][:n, :dim],
            "column-offset": base[:n, 1 : dim + 1],
            "column-step": base[:n, ::2][:, :dim],
            "fortran": np.asfortranarray(base[:n, :dim]),
        }[layout]
        got = moments._second_moment(rows)
        assert np.array_equal(got, _einsum_reference(rows))
        assert np.array_equal(got, got.T)

    def test_worker_count_does_not_change_a_bit(self, monkeypatch):
        rng = np.random.default_rng(310)
        rows = _wide_range_rows(rng, 257, 3 * _TILE + 1)
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

    def test_worker_exception_surfaces(self, monkeypatch):
        class TileFailure(Exception):
            pass

        real_einsum = np.einsum

        def failing_on_remainder_tile(subscripts, left, right, **kwargs):
            if right.shape[1] == 1:
                raise TileFailure("remainder tile failed")
            return real_einsum(subscripts, left, right, **kwargs)

        monkeypatch.setattr(moments.np, "einsum", failing_on_remainder_tile)
        with pytest.raises(TileFailure):
            moments._second_moment(np.ones((4, 2 * _TILE + 1)))


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

    def test_blockwise_gather_matches_whole_gather_bit_for_bit(self):
        rng = np.random.default_rng(311)
        data = random_dataset(rng, _TILE + 3, 50, 70, scale=3.0)
        cfg = SubsampleConfig(s=2 * moments._GATHER_ROWS + 3, seed=17)
        sub = subsample_moments(data, cfg)
        i_idx, j_idx = draw_pair_indices(cfg.seed, cfg.s, data.n1, data.n0)
        diffs = data.positives[i_idx] - data.negatives[j_idx]
        assert np.array_equal(sub.mu, moments._neumaier_over_rows(diffs) / cfg.s)
        sigma = _einsum_reference(diffs) / cfg.s
        assert np.array_equal(sub.sigma, (sigma + sigma.T) / 2.0)

    def test_block_edges_keep_mu_and_add_sigma_in_block_order(self):
        rng = np.random.default_rng(313)
        data = random_dataset(rng, _TILE + 3, 50, 70, scale=3.0)
        block = moments._BLOCK_ROWS
        cfg = SubsampleConfig(s=2 * block + 3, seed=19)
        sub = subsample_moments(data, cfg)
        i_idx, j_idx = draw_pair_indices(cfg.seed, cfg.s, data.n1, data.n0)
        diffs = data.positives[i_idx] - data.negatives[j_idx]
        assert np.array_equal(sub.mu, moments._neumaier_over_rows(diffs) / cfg.s)
        sigma = moments._second_moment(diffs[:block])
        for start in range(block, cfg.s, block):
            sigma += moments._second_moment(diffs[start : start + block])
        sigma /= cfg.s
        assert np.array_equal(sub.sigma, (sigma + sigma.T) / 2.0)

    def test_one_full_block_is_one_einsum(self):
        rng = np.random.default_rng(314)
        data = random_dataset(rng, 5, 40, 30)
        cfg = SubsampleConfig(s=moments._BLOCK_ROWS, seed=23)
        sub = subsample_moments(data, cfg)
        i_idx, j_idx = draw_pair_indices(cfg.seed, cfg.s, data.n1, data.n0)
        sigma = _einsum_reference(data.positives[i_idx] - data.negatives[j_idx]) / cfg.s
        assert np.array_equal(sub.sigma, (sigma + sigma.T) / 2.0)

    def test_peak_memory_is_one_block_buffer(self):
        # Memory must not grow with s beyond the pair indices: one block
        # buffer, two gathered blocks, 48 bytes per pair and sigma.
        rng = np.random.default_rng(312)
        dim, s = 8, 400_000
        data = random_dataset(rng, dim, 300, 300)
        tracemalloc.start()
        try:
            subsample_moments(data, SubsampleConfig(s=s, seed=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = 8 * moments._BLOCK_ROWS * dim
        gather_blocks = 2 * 8 * moments._GATHER_ROWS * dim
        limit = buffer + gather_blocks + 48 * s + 64 * dim * dim
        assert peak <= limit, f"peak {peak} B above {limit} B"


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
