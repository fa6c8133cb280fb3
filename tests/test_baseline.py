"""Projected pairwise SGD comparator."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_dataset
from pairrank import (
    Dataset,
    SgdConfig,
    SolverConvergenceError,
    UntrainableDatasetError,
    train_pairwise_sgd,
)


def _literal_sgd(data, cfg):
    """The plain per-pair loop, kept as written: (iterate, projection count)."""
    rng = np.random.default_rng(cfg.seed)
    pos_idx = rng.integers(0, data.n1, size=cfg.pair_budget)
    neg_idx = rng.integers(0, data.n0, size=cfg.pair_budget)
    w = np.zeros(data.dim, dtype=np.float64)
    projections = 0
    for i, j in zip(pos_idx, neg_idx):
        diff = data.positives[i] - data.negatives[j]
        w -= cfg.step_size * ((w @ diff - 1.0) * diff)
        norm = float(np.linalg.norm(w))
        if norm > cfg.w_star:
            w *= cfg.w_star / norm
            projections += 1
    return w, projections


def _single_pair(diff):
    # One positive at `diff`, one negative at the origin: every sampled
    # pair difference equals `diff`.
    pos = np.asarray(diff, dtype=float)[None, :]
    neg = np.zeros_like(pos)
    return Dataset.from_arrays(pos, neg)


class TestSgdConfig:
    def test_zero_step_size_allowed(self):
        assert SgdConfig(step_size=0.0, pair_budget=1, seed=0, w_star=1.0).step_size == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"step_size": -0.1},
            {"step_size": float("nan")},
            {"pair_budget": 0},
            {"w_star": 0.0},
            {"w_star": -1.0},
            {"step_size": float("inf")},
            {"w_star": float("inf")},
            {"w_star": float("nan")},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        values = dict(step_size=0.1, pair_budget=10, seed=0, w_star=1.0)
        values.update(overrides)
        (field,) = overrides
        message = "w_star must be finite and > 0" if field == "w_star" else field
        with pytest.raises(ValueError, match=message):
            SgdConfig(**values)


class TestTrainPairwiseSgd:
    def test_zero_step_returns_origin(self):
        rng = np.random.default_rng(431)
        data = random_dataset(rng, dim=4, n1=6, n0=5)
        model = train_pairwise_sgd(data, SgdConfig(0.0, pair_budget=50, seed=3, w_star=1.0))
        np.testing.assert_array_equal(model.w, np.zeros(4))

    def test_single_pair_geometric_contraction(self):
        data = _single_pair([1.0, 0.0])
        cfg = SgdConfig(step_size=0.1, pair_budget=200, seed=0, w_star=2.0)
        model = train_pairwise_sgd(data, cfg)
        # Along the pair direction the iteration is u <- (1 - eta) u + eta,
        # so after T steps u = 1 - 0.9^T; the ball never binds (radius 2).
        closed_form = 1.0 - 0.9**200
        assert abs(model.w[0] - closed_form) <= 1e-12
        assert abs(model.w[0] - 1.0) <= 1e-8
        assert model.w[1] == 0.0

    def test_projection_clamps_first_overshoot(self):
        data = _single_pair([10.0, 0.0])
        cfg = SgdConfig(step_size=1.0, pair_budget=1, seed=5, w_star=0.5)
        model = train_pairwise_sgd(data, cfg)
        # The single update lands at (10, 0), radially scaled back to 0.5.
        np.testing.assert_array_equal(model.w, [0.5, 0.0])

    def test_iterates_stay_in_ball_under_large_steps(self):
        rng = np.random.default_rng(432)
        data = random_dataset(rng, dim=3, n1=8, n0=8, scale=2.0)
        cfg = SgdConfig(step_size=5.0, pair_budget=500, seed=9, w_star=0.7)
        model = train_pairwise_sgd(data, cfg)
        assert float(np.linalg.norm(model.w)) <= 0.7 * (1.0 + 1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(433)
        data = random_dataset(rng, dim=5, n1=10, n0=12)
        cfg = SgdConfig(step_size=0.05, pair_budget=300, seed=21, w_star=1.0)
        a = train_pairwise_sgd(data, cfg)
        b = train_pairwise_sgd(data, cfg)
        c = train_pairwise_sgd(data, SgdConfig(0.05, 300, seed=22, w_star=1.0))
        np.testing.assert_array_equal(a.w, b.w)
        assert not np.array_equal(a.w, c.w)

    def test_trajectory_matches_reference_loop(self):
        # Pin the sampling contract: one PCG64 stream keyed by the seed,
        # positive indices drawn first, both with replacement.
        rng = np.random.default_rng(434)
        data = random_dataset(rng, dim=3, n1=7, n0=4)
        cfg = SgdConfig(step_size=0.2, pair_budget=64, seed=77, w_star=0.9)
        model = train_pairwise_sgd(data, cfg)
        expected, _ = _literal_sgd(data, cfg)
        np.testing.assert_array_equal(model.w, expected)

    def test_empty_class_rejected(self):
        data = Dataset.from_arrays(np.zeros((0, 2)), np.ones((3, 2)))
        with pytest.raises(UntrainableDatasetError):
            train_pairwise_sgd(data, SgdConfig(0.1, 10, 0, 1.0))

    @pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
    def test_diverging_steps_raise_convergence_error_naming_the_step(self):
        rng = np.random.default_rng(435)
        data = random_dataset(rng, dim=3, n1=6, n0=6)
        with pytest.raises(SolverConvergenceError, match=r"step size 1e\+308") as caught:
            train_pairwise_sgd(data, SgdConfig(1e308, pair_budget=50, seed=0, w_star=1.0))
        assert caught.value.bracket is None


class TestWorkingMemory:
    def test_peak_is_two_blocks_beyond_the_index_arrays(self):
        # Above 4096 pairs the two gather blocks stay 4096 rows each; the
        # index arrays grow with the budget.  16 KiB covers w and the step.
        rng = np.random.default_rng(125)
        dim, budget = 123, 20_000
        data = random_dataset(rng, dim, 300, 300)
        cfg = SgdConfig(step_size=1e-3, pair_budget=budget, seed=7, w_star=1.0)
        tracemalloc.start()
        try:
            train_pairwise_sgd(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        blocks = 2 * 8 * 4096 * dim
        indices = 2 * 8 * budget
        assert blocks < peak <= blocks + indices + 16 * 1024


class TestChunkedLoopBits:
    """The chunked loop against the plain per-pair loop, byte for byte.

    Budgets straddle the 4096-pair gather; the radius either binds on
    every step, never binds, or the step size is zero.
    """

    # (step_size, w_star, projects on every step rather than never)
    CASES = {
        "projects-every-step": (1.0, 1e-3, True),
        "never-projects": (1e-4, 1e9, False),
        "zero-step": (0.0, 1.0, False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("dim", [1, 3, 123])
    @pytest.mark.parametrize("budget", [1, 4095, 4096, 4097, 9000])
    def test_matches_plain_loop(self, budget, dim, case):
        step_size, w_star, every_step = self.CASES[case]
        rng = np.random.default_rng(1000 * dim + budget)
        # Positives sit 3 units out along every axis, so no pair
        # difference is short enough to stay inside the small ball.
        data = Dataset.from_arrays(rng.standard_normal((37, dim)) + 3.0,
                                   rng.standard_normal((29, dim)))
        cfg = SgdConfig(step_size, pair_budget=budget, seed=budget + dim, w_star=w_star)
        expected, projected = _literal_sgd(data, cfg)
        assert projected == (budget if every_step else 0)
        assert train_pairwise_sgd(data, cfg).w.tobytes() == expected.tobytes()
