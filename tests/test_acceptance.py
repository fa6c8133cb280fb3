"""End-to-end acceptance checks, one test per shipped guarantee.

Each test reports through the conftest hook as a single
``ACCEPTANCE: criterion N PASS|FAIL|SKIP (label)`` line.  Seeds are fixed
so every run evaluates the same draws, and each tolerance sits next to
the assert it guards.
"""

import csv
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (close, independent_constants, independent_log_tail, independent_logaddexp,
                      independent_matrix_tail, independent_min_pairs, independent_vector_tail,
                      integer_dataset, random_dataset, uniform_ball, write_a9a_shaped)
from pairrank import (
    BoundInputs,
    Dataset,
    PairMoments,
    ProblemConfig,
    RankerWeights,
    SubsampleConfig,
    auc_fast,
    auc_naive,
    batch_excess_risk_log_tail,
    batch_moments_fast,
    batch_moments_naive,
    evaluate_ranker,
    mean_deviation_tail,
    min_pairs_empirical_gap,
    min_pairs_excess_risk,
    objective_value,
    parse_libsvm,
    random_gmm_spec,
    risk_constants,
    sample_dataset,
    second_moment_deviation_tail,
    solve_erm,
    subsample_moments,
    subsample_ratio_split,
    subsampled_excess_risk_log_tail,
    uniform_deviation_log_tail,
    write_libsvm,
)
from pairrank.cli import (
    ROLE_PAIRS,
    ROLE_SPEC,
    ROLE_SPLIT,
    ROLE_TEST,
    ROLE_TRAIN,
    derived_seed,
    main,
)
from pairrank.io import _read_dataset


def test_criterion_1():
    """Vectorized batch moments match pair-by-pair accumulation entrywise."""
    rng = np.random.default_rng(1001)
    for case in range(200):
        dim = int(rng.integers(1, 7))
        n1 = int(rng.integers(1, 41))
        n0 = int(rng.integers(1, 41))
        if case % 3 == 0:
            data = integer_dataset(rng, dim=dim, n1=n1, n0=n0)
        else:
            scale = float(rng.uniform(0.1, 3.0))
            data = random_dataset(rng, dim=dim, n1=n1, n0=n0, scale=scale)
        fast = batch_moments_fast(data)
        naive = batch_moments_naive(data)
        assert np.all(np.abs(fast.mu - naive.mu) <= 1e-9 * (1.0 + np.abs(naive.mu)))
        assert np.all(
            np.abs(fast.sigma - naive.sigma) <= 1e-9 * (1.0 + np.abs(naive.sigma))
        )


def test_criterion_2():
    """Solver output is feasible, KKT-certified, and beats random search."""
    rng = np.random.default_rng(2001)
    for case in range(100):
        dim = int(rng.integers(1, 9))
        rank = int(rng.integers(1, dim + 1)) if case % 5 == 0 else dim
        factor = rng.standard_normal((dim, rank))
        sigma = factor @ factor.T / rank
        mu = rng.standard_normal(dim) * float(rng.uniform(0.3, 1.5))
        w_star = float(rng.uniform(0.5, 2.0))
        moments = PairMoments(mu=mu, sigma=sigma)
        weights, diagnostics = solve_erm(moments, ProblemConfig(x_star=1.0, w_star=w_star))
        w = weights.w
        assert float(np.linalg.norm(w)) <= w_star * (1.0 + 1e-9)
        residual = float(np.linalg.norm(sigma @ w - mu + diagnostics.multiplier * w))
        assert residual <= 1e-8
        points = uniform_ball(rng, 10_000, dim, w_star)
        values = 0.5 * np.einsum("si,ij,sj->s", points, sigma, points) - points @ mu
        assert objective_value(moments, weights) <= float(values.min()) + 1e-9

    # closed-form instances: identity curvature, optimum on and off the boundary
    eye = np.eye(2)
    boundary = PairMoments(mu=np.array([2.0, 0.0]), sigma=eye)
    w_b, diag_b = solve_erm(boundary, ProblemConfig(x_star=1.0, w_star=1.0))
    np.testing.assert_allclose(w_b.w, [1.0, 0.0], rtol=0.0, atol=1e-12)
    assert abs(diag_b.multiplier - 1.0) <= 1e-12
    interior = PairMoments(mu=np.array([0.5, 0.0]), sigma=eye)
    w_i, diag_i = solve_erm(interior, ProblemConfig(x_star=1.0, w_star=1.0))
    np.testing.assert_allclose(w_i.w, [0.5, 0.0], rtol=0.0, atol=1e-12)
    assert diag_i.multiplier == 0.0


def test_criterion_3():
    """Rank-based pair-ordering statistic equals naive enumeration exactly."""
    rng = np.random.default_rng(3001)
    zero_data = random_dataset(rng, dim=3, n1=8, n0=9)
    zero = RankerWeights(np.zeros(3))
    assert auc_fast(zero_data, zero) == 0.5
    assert auc_naive(zero_data, zero) == 0.5
    for case in range(500):
        dim = int(rng.integers(1, 6))
        n1 = int(rng.integers(1, 101))
        n0 = int(rng.integers(1, 101))
        if case % 2 == 0:
            # integer features and weights force heavy score ties
            data = integer_dataset(rng, dim=dim, n1=n1, n0=n0)
            w = RankerWeights(rng.integers(-2, 3, size=dim).astype(float))
        else:
            data = random_dataset(rng, dim=dim, n1=n1, n0=n0)
            w = RankerWeights(rng.standard_normal(dim))
        if case % 10 == 0:
            # plant an exact cross-class duplicate row
            neg = np.array(data.negatives)
            neg[0] = data.positives[0]
            data = Dataset.from_arrays(data.positives, neg)
        assert auc_fast(data, w) == auc_naive(data, w)


def test_criterion_4():
    """Pair-subsampled risk approaches the all-pairs risk as s grows."""
    cfg = ProblemConfig(x_star=1.0, w_star=1.0)
    base = 20260816
    s_grid = (500, 3000, 5000)
    batch_risks = []
    sub_risks = {s: [] for s in s_grid}
    for rep in range(20):
        seed = base + rep
        spec = random_gmm_spec(10, 1, 2.0, derived_seed(seed, ROLE_SPEC))
        train = sample_dataset(spec, 1000, 1000, derived_seed(seed, ROLE_TRAIN))
        test = sample_dataset(spec, 10000, 10000, derived_seed(seed, ROLE_TEST))
        weights, _ = solve_erm(batch_moments_fast(train), cfg)
        batch_risks.append(evaluate_ranker(test, weights).phi_risk)
        for index, s in enumerate(s_grid):
            sub_cfg = SubsampleConfig(s=s, seed=derived_seed(seed, ROLE_PAIRS, index))
            sub_weights, _ = solve_erm(subsample_moments(train, sub_cfg), cfg)
            sub_risks[s].append(evaluate_ranker(test, sub_weights).phi_risk)
    batch_mean = float(np.mean(batch_risks))
    gaps = {s: abs(float(np.mean(v)) - batch_mean) for s, v in sub_risks.items()}
    assert gaps[3000] <= 0.05 * batch_mean
    assert gaps[5000] <= gaps[500]


def test_pair_budget_does_not_grow_with_pair_count():
    """lcbr's held-out risk gap to bbr stays flat as n1 * n0 grows 256x, and falls with s.

    The paper's headline claim: the pairs lcbr needs to compete with the
    all-pairs trainer do not grow quadratically in the sample size.  Each
    of 20 replicates draws one d = 10 mixture and a 5000 + 5000 held-out
    set, then trains at every n of a geometric grid (n1 = n0 = n) and
    every s.  The gap is lcbr's held-out phi_risk minus bbr's on the same
    training set.  At each s, the mean gap at a larger n may exceed the
    mean gap at the smallest n by at most three standard errors of that
    difference, taken from the replicates' spread (the rule was fixed
    before the test first ran).
    """
    cfg = ProblemConfig(x_star=1.0, w_star=1.0)
    base = 20191201
    n_grid, s_grid, replicates = (250, 1000, 4000), (500, 2000, 8000), 20
    gaps = np.empty((replicates, len(n_grid), len(s_grid)))
    for rep in range(replicates):
        seed = base + rep
        spec = random_gmm_spec(10, 1, 2.0, derived_seed(seed, ROLE_SPEC))
        test = sample_dataset(spec, 5000, 5000, derived_seed(seed, ROLE_TEST))
        for i, n in enumerate(n_grid):
            train = sample_dataset(spec, n, n, derived_seed(seed, ROLE_TRAIN, i))
            batch_w, _ = solve_erm(batch_moments_fast(train), cfg)
            batch_risk = evaluate_ranker(test, batch_w).phi_risk
            for j, s in enumerate(s_grid):
                sub_cfg = SubsampleConfig(s=s, seed=derived_seed(seed, ROLE_PAIRS, i, j))
                sub_w, _ = solve_erm(subsample_moments(train, sub_cfg), cfg)
                gaps[rep, i, j] = evaluate_ranker(test, sub_w).phi_risk - batch_risk
    mean = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / math.sqrt(replicates)
    for j, s in enumerate(s_grid):
        for i, n in enumerate(n_grid[1:], start=1):
            margin = 3.0 * math.hypot(stderr[i, j], stderr[0, j])
            assert mean[i, j] <= mean[0, j] + margin, (s, n, mean[:, j], margin)
    for i, n in enumerate(n_grid):
        assert np.all(np.diff(mean[i]) < 0.0), (n, mean[i])


def test_pair_budget_objective_excess_falls_with_s():
    """lcbr's all-pairs objective excess over bbr is never below rounding, and falls with s.

    The deterministic form of the claim above, on the same draws: the
    excess is the all-pairs objective at lcbr's w minus its value at bbr's
    w, which minimizes that objective over the same ball.  In every
    replicate the excess must be at least -1e-9 * (1 + |objective at bbr's
    w|), and at each n its replicate mean must fall as s grows.  Comparing
    the excess with the epsilon the bound certifies is not done here.
    """
    cfg = ProblemConfig(x_star=1.0, w_star=1.0)
    base = 20191201
    n_grid, s_grid, replicates = (250, 1000, 4000), (500, 2000, 8000), 20
    excess = np.empty((replicates, len(n_grid), len(s_grid)))
    for rep in range(replicates):
        seed = base + rep
        spec = random_gmm_spec(10, 1, 2.0, derived_seed(seed, ROLE_SPEC))
        for i, n in enumerate(n_grid):
            train = sample_dataset(spec, n, n, derived_seed(seed, ROLE_TRAIN, i))
            batch = batch_moments_fast(train)
            batch_w, _ = solve_erm(batch, cfg)
            best = objective_value(batch, batch_w)
            for j, s in enumerate(s_grid):
                sub_cfg = SubsampleConfig(s=s, seed=derived_seed(seed, ROLE_PAIRS, i, j))
                sub_w, _ = solve_erm(subsample_moments(train, sub_cfg), cfg)
                excess[rep, i, j] = objective_value(batch, sub_w) - best
                assert excess[rep, i, j] >= -1e-9 * (1.0 + abs(best)), (rep, n, s, best)
    mean = excess.mean(axis=0)
    for i, n in enumerate(n_grid):
        assert np.all(np.diff(mean[i]) < 0.0), (n, mean[i])


def _best_of(repeats, fn):
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_criterion_5():
    """Subsampling s pairs beats accumulating all n1*n0 pairs on wall clock."""
    base = 20260816
    spec = random_gmm_spec(10, 1, 2.0, derived_seed(base, ROLE_SPEC))
    data = sample_dataset(spec, 1000, 1000, derived_seed(base, ROLE_TRAIN))
    naive_seconds = _best_of(3, lambda: batch_moments_naive(data))
    fast_seconds = _best_of(5, lambda: batch_moments_fast(data))
    sub_cfg = SubsampleConfig(s=5000, seed=1)
    sub_seconds = _best_of(5, lambda: subsample_moments(data, sub_cfg))
    assert naive_seconds >= 20.0 * sub_seconds
    assert naive_seconds >= 10.0 * fast_seconds


def test_lcbr_beats_bbr_on_sparse_rows_at_small_s(tmp_path):
    """At s = 2000, lcbr builds its moments at least 1.5x faster than bbr.

    The rows are 26 000 a9a-shaped one-hot rows (d = 123), held sparse as
    `train` holds them.  lcbr reads at most 2s drawn rows where bbr reads
    all n, so it pays only while s is well below n: README's crossover
    table measured 2.3-4.1x here, about 1.2x at s = 8000, and about half
    bbr's speed at s = 100 000.  Criterion 5 times the literal all-pairs
    route; this check times the factored one, best of 5 each.
    """
    path = tmp_path / "a9a-shaped.svm"
    write_a9a_shaped(path, 26_000, np.random.default_rng(20191202))
    data, _ = _read_dataset(path)
    fast_seconds = _best_of(5, lambda: batch_moments_fast(data))
    sub_cfg = SubsampleConfig(s=2000, seed=1)
    sub_seconds = _best_of(5, lambda: subsample_moments(data, sub_cfg))
    assert fast_seconds >= 1.5 * sub_seconds, (fast_seconds, sub_seconds)


def test_criterion_6():
    """Class imbalance degrades held-out ranking quality for both trainers."""
    cfg = ProblemConfig(x_star=1.0, w_star=1.0)
    base = 916
    mean_auc = {}
    for rho in (0.05, 0.5, 0.95):
        n1 = max(1, round(rho * 2000))
        n0 = max(1, 2000 - n1)
        batch_aucs = []
        sub_aucs = []
        for rep in range(20):
            # identical seeds across rho cells pair the comparisons
            seed = base + rep
            spec = random_gmm_spec(10, 1, 2.0, derived_seed(seed, ROLE_SPEC))
            train = sample_dataset(spec, n1, n0, derived_seed(seed, ROLE_TRAIN))
            test = sample_dataset(spec, 10000, 10000, derived_seed(seed, ROLE_TEST))
            weights, _ = solve_erm(batch_moments_fast(train), cfg)
            batch_aucs.append(evaluate_ranker(test, weights).auc)
            sub_cfg = SubsampleConfig(s=5000, seed=derived_seed(seed, ROLE_PAIRS))
            sub_weights, _ = solve_erm(subsample_moments(train, sub_cfg), cfg)
            sub_aucs.append(evaluate_ranker(test, sub_weights).auc)
        mean_auc[rho] = (float(np.mean(batch_aucs)), float(np.mean(sub_aucs)))
    balanced_batch, balanced_sub = mean_auc[0.5]
    for rho in (0.05, 0.95):
        skewed_batch, skewed_sub = mean_auc[rho]
        assert balanced_batch > skewed_batch
        assert balanced_sub > skewed_sub


def _locate_adult_files():
    override = os.environ.get("PAIRRANK_DATA_DIR")
    root = Path(override) if override else Path(__file__).resolve().parents[1] / "data"
    train, test = root / "a9a", root / "a9a.t"
    if train.is_file() and test.is_file():
        return train, test
    return None


def test_criterion_7():
    """Subsampled trainer reaches AUC 0.88 on the adult benchmark quickly."""
    located = _locate_adult_files()
    if located is None:
        pytest.skip(
            "a9a/a9a.t not found; place the LIBSVM adult files at data/a9a and"
            " data/a9a.t (or point PAIRRANK_DATA_DIR at a directory holding"
            " them) to run this check"
        )
    train_path, test_path = located
    train = parse_libsvm(train_path, dim_hint=123)
    test = parse_libsvm(test_path, dim_hint=123)
    started = time.perf_counter()
    half = subsample_ratio_split(train, 0.5, seed=derived_seed(7, ROLE_SPLIT))
    half.require_trainable()
    sub_cfg = SubsampleConfig(s=20000, seed=derived_seed(7, ROLE_PAIRS))
    weights, _ = solve_erm(
        subsample_moments(half, sub_cfg), ProblemConfig(x_star=4.0, w_star=10.0)
    )
    elapsed = time.perf_counter() - started
    assert evaluate_ranker(test, weights).auc >= 0.88
    assert elapsed < 60.0


def test_criterion_8():
    """Observed moment-deviation frequencies stay below the printed tails."""
    rng = np.random.default_rng(8041)
    pos = rng.uniform(-1.0, 1.0, size=(12, 2))
    neg = rng.uniform(-1.0, 1.0, size=(12, 2))
    data = Dataset.from_arrays(pos, neg)
    x_star = float(
        max(np.linalg.norm(pos, axis=1).max(), np.linalg.norm(neg, axis=1).max())
    )
    w_star = 1.0
    batch = batch_moments_fast(data)
    opnorm = float(np.linalg.norm(batch.sigma, 2))

    matrix_events = [(64, 0.8), (64, 1.0), (128, 0.7), (256, 0.5)]
    vector_events = [(64, 0.9), (128, 0.6), (256, 0.45), (256, 0.6)]
    n_seeds = 10_000
    checked = 0
    sizes = sorted({s for s, _ in matrix_events} | {s for s, _ in vector_events})
    for s in sizes:
        matrix_sup = np.empty(n_seeds)
        vector_sup = np.empty(n_seeds)
        for seed in range(n_seeds):
            sub = subsample_moments(data, SubsampleConfig(s=s, seed=seed))
            matrix_sup[seed] = w_star**2 * float(
                np.linalg.norm(sub.sigma - batch.sigma, 2)
            )
            vector_sup[seed] = 2.0 * w_star * float(np.linalg.norm(sub.mu - batch.mu))
        for event_s, eps in matrix_events:
            if event_s != s:
                continue
            tail = second_moment_deviation_tail(s, eps, x_star, w_star, opnorm, 2)
            assert tail < 1.0
            assert float(np.mean(matrix_sup >= eps)) <= tail
            checked += 1
        for event_s, eps in vector_events:
            if event_s != s:
                continue
            tail = mean_deviation_tail(s, eps, x_star, w_star)
            assert tail < 1.0
            assert float(np.mean(vector_sup >= eps)) <= tail
            checked += 1
    assert checked >= 5


def _matches_ceiling(got, expected_real):
    # guard the integer comparison against a knife-edge ceiling flip
    slack = 1e-9 * max(1.0, abs(expected_real))
    low = math.ceil(max(1.0, expected_real - slack))
    high = math.ceil(max(1.0, expected_real + slack))
    return low <= got <= high


def test_criterion_9():
    """Bound calculators match independent formulas and stay monotone."""
    points = []
    for dim in (2, 10):
        for rho in (0.1, 0.5):
            for n in (1000, 100000):
                for epsilon in (0.05, 0.3, 0.8):
                    for delta in (0.01, 0.2):
                        for x_star, w_star, opnorm in (
                            (1.0, 1.0, 4.0),
                            (2.0, 0.5, 0.5),
                        ):
                            points.append(
                                BoundInputs(
                                    dim=dim,
                                    x_star=x_star,
                                    w_star=w_star,
                                    rho=rho,
                                    n=n,
                                    sigma_n_opnorm=opnorm,
                                    epsilon=epsilon,
                                    delta=delta,
                                )
                            )
    points.append(
        BoundInputs(dim=10, x_star=1.0, w_star=1.0, rho=0.5, n=100000,
                    sigma_n_opnorm=4.0, epsilon=0.1, delta=0.05)
    )
    points.append(
        BoundInputs(dim=1, x_star=0.5, w_star=3.0, rho=0.25, n=1,
                    sigma_n_opnorm=0.0, epsilon=0.9, delta=0.5)
    )
    points.append(
        BoundInputs(dim=12, x_star=2.0, w_star=0.3, rho=0.02, n=500000,
                    sigma_n_opnorm=6.0, epsilon=0.5, delta=0.01)
    )
    points.append(
        BoundInputs(dim=3, x_star=1.5, w_star=1.5, rho=0.75, n=12345,
                    sigma_n_opnorm=2.25, epsilon=0.2, delta=0.1)
    )
    assert len(points) == 100

    for p in points:
        c1, c2 = independent_constants(p.x_star, p.w_star)
        constants = risk_constants(p.x_star, p.w_star)
        assert close(constants.covering_sensitivity, c1)
        assert close(constants.deviation_scale, c2)
        assert close(batch_excess_risk_log_tail(p), independent_log_tail(p, 4.0, 8.0))
        assert close(uniform_deviation_log_tail(p), independent_log_tail(p, 2.0, 2.0))
        assert close(
            subsampled_excess_risk_log_tail(p),
            independent_logaddexp(independent_log_tail(p, 10.0, 50.0), math.log(p.delta)),
        )
        assert _matches_ceiling(
            min_pairs_empirical_gap(p), independent_min_pairs(p, 3.0, 32.0, 4.0)
        )
        assert _matches_ceiling(
            min_pairs_excess_risk(p), independent_min_pairs(p, 15.0, 800.0, 100.0)
        )
        s = min_pairs_empirical_gap(p)
        matrix_args = (s, p.epsilon, p.x_star, p.w_star, p.sigma_n_opnorm, p.dim)
        got_matrix = second_moment_deviation_tail(*matrix_args)
        assert close(got_matrix, independent_matrix_tail(*matrix_args))
        got_vector = mean_deviation_tail(s, p.epsilon, p.x_star, p.w_star)
        assert close(got_vector, independent_vector_tail(s, p.epsilon, p.x_star, p.w_star))

        # monotonicity: more examples, more sampled pairs, a looser accuracy
        # target, and a more balanced class ratio never worsen any figure
        more_n = replace(p, n=2 * p.n)
        assert batch_excess_risk_log_tail(more_n) <= batch_excess_risk_log_tail(p)
        assert uniform_deviation_log_tail(more_n) <= uniform_deviation_log_tail(p)
        assert subsampled_excess_risk_log_tail(more_n) <= subsampled_excess_risk_log_tail(p)
        looser = replace(p, epsilon=2.0 * p.epsilon)
        assert batch_excess_risk_log_tail(looser) <= batch_excess_risk_log_tail(p)
        assert min_pairs_empirical_gap(looser) <= min_pairs_empirical_gap(p)
        assert min_pairs_excess_risk(looser) <= min_pairs_excess_risk(p)
        assert second_moment_deviation_tail(
            2 * s, p.epsilon, p.x_star, p.w_star, p.sigma_n_opnorm, p.dim
        ) <= got_matrix
        assert mean_deviation_tail(2 * s, p.epsilon, p.x_star, p.w_star) <= got_vector
        if p.rho < 0.5:
            balanced = replace(p, rho=0.5)
            assert batch_excess_risk_log_tail(balanced) <= batch_excess_risk_log_tail(p)
            assert uniform_deviation_log_tail(balanced) <= uniform_deviation_log_tail(p)

    # the tails depend on rho only through rho * (1 - rho); a dyadic pair
    # makes the symmetry exact in floating point
    pivot = BoundInputs(dim=5, x_star=1.0, w_star=1.0, rho=0.25, n=10_000,
                        sigma_n_opnorm=4.0, epsilon=0.5, delta=0.05)
    mirrored = replace(pivot, rho=0.75)
    assert batch_excess_risk_log_tail(pivot) == batch_excess_risk_log_tail(mirrored)
    assert uniform_deviation_log_tail(pivot) == uniform_deviation_log_tail(mirrored)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _strip_columns(rows, drop):
    return [[cell for i, cell in enumerate(row) if i not in drop] for row in rows]


def test_criterion_10(tmp_path):
    """Every seeded command reproduces its outputs run over run."""
    rng = np.random.default_rng(1040)
    data = random_dataset(rng, dim=3, n1=15, n0=12, scale=0.5)
    train_file = tmp_path / "toy.txt"
    write_libsvm(data, train_file)

    wall_time = {9}           # wall_time_seconds varies run to run
    wall_and_extra = {9, 10}  # timing rows also carry seconds in extra

    invocations = [
        (
            "train",
            ["train", "lcbr", str(train_file), "--pairs", "400", "--seed", "9",
             "--model-out", "{run}.bin", "--csv-out", "{run}.csv"],
            wall_time,
        ),
        (
            "synth",
            ["synth-sweep", "--out", "{run}.csv", "--k-grid", "1",
             "--sigma-grid", "2.0", "--pairs-grid", "40,80", "--replicates", "2",
             "--dim", "3", "--n1", "25", "--n0", "20", "--test-per-class", "40",
             "--base-seed", "3"],
            wall_time,
        ),
        (
            "skew",
            ["skew-sweep", "--out", "{run}.csv", "--rho-grid", "0.25,0.5",
             "--total-n", "30", "--pairs", "50", "--replicates", "2", "--dim", "2",
             "--sigma", "1.5", "--test-per-class", "30", "--base-seed", "4"],
            wall_time,
        ),
        (
            "bounds",
            ["bounds-table", "--out", "{run}.csv", "--dim", "4",
             "--rho-grid", "0.25,0.5", "--n-grid", "100,1000",
             "--epsilon-grid", "0.2,0.4", "--delta", "0.1",
             "--sigma-opnorm", "2.0"],
            set(),
        ),
        (
            "timing",
            ["timing", "--out", "{run}.csv", "--n1", "30", "--n0", "25",
             "--dim", "3", "--pairs-grid", "40", "--repeats", "1",
             "--base-seed", "6"],
            wall_and_extra,
        ),
    ]
    for name, template, volatile in invocations:
        outputs = []
        for run in ("a", "b"):
            stem = str(tmp_path / f"{name}_{run}")
            argv = [piece.replace("{run}", stem) for piece in template]
            assert main(argv) == 0
            outputs.append(tmp_path / f"{name}_{run}.csv")
        first, second = (_csv_rows(path) for path in outputs)
        assert _strip_columns(first, volatile) == _strip_columns(second, volatile)
        if not volatile:
            assert outputs[0].read_bytes() == outputs[1].read_bytes()
    model_a = (tmp_path / "train_a.bin").read_bytes()
    model_b = (tmp_path / "train_b.bin").read_bytes()
    assert model_a == model_b
