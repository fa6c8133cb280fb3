"""The program against perfbench/reference.py's independent re-derivations.

reference.py recomputes, from the documented contracts and by other
arithmetic, what the benchmark checks the program's outputs against.
These tests run the same comparisons on small seeded inputs, at the
benchmark's relative tolerance where the arithmetic differs and exactly
where the contract fixes every bit.  They need scipy (the ``bench``
extra) and skip without it.
"""

import numpy as np
import pytest

from pairrank import (
    Dataset,
    ProblemConfig,
    RankerWeights,
    SgdConfig,
    SubsampleConfig,
    auc_fast,
    batch_moments_fast,
    draw_pair_indices,
    phi_risk,
    solve_erm,
    subsample_moments,
    subsample_ratio_split,
    train_pairwise_sgd,
)
from pairrank import moments
from pairrank.cli import derived_seed

from conftest import integer_dataset, load_perfbench_reference, random_dataset

# The benchmark's output tolerance (perfbench/workloads.py REL_TOL).
REL_TOL = 1e-7


@pytest.fixture(scope="module")
def reference():
    return load_perfbench_reference()


def _scores(data, w):
    return data.positives @ w, data.negatives @ w


def _moments_close(got, mu_ref, sigma_ref):
    """The benchmark's moment check: mu in norm, sigma entrywise against its largest entry."""
    return (np.linalg.norm(got.mu - mu_ref) <= REL_TOL * np.linalg.norm(mu_ref)
            and np.abs(got.sigma - sigma_ref).max() <= REL_TOL * np.abs(sigma_ref).max())


@pytest.mark.parametrize("base", [0, 1, 7, 2**63 + 5, 2**64 - 1])
def test_derived_seed(reference, base):
    for role in [(), (0,), (3,), (3, 0), (3, 11), (5,), (4, 2, 9)]:
        assert derived_seed(base, *role) == reference.derived_seed(base, *role)


@pytest.mark.parametrize("ratio", [0.05, 0.3, 0.999, 1.0])
def test_split_indices(reference, ratio):
    # Each row carries its own number, so the kept rows name themselves.
    n1, n0 = 37, 53
    numbers = np.arange(n1 + n0, dtype=np.float64)[:, None]
    data = Dataset.from_arrays(numbers[:n1], numbers[n1:])
    seed = derived_seed(11, 5)
    kept = subsample_ratio_split(data, ratio, seed)
    keep_pos, keep_neg = reference.split_indices(n1, n0, ratio, seed)
    assert np.array_equal(kept.positives[:, 0], keep_pos)
    assert np.array_equal(kept.negatives[:, 0], keep_neg + n1)


@pytest.mark.parametrize("n1, n0", [(7, 13), (8, 16), (1, 1), (30000, 3),
                                    (2**62 + 1, 2**62 + 3), (2**63 + 1, 3 * 2**61 + 1)])
def test_pair_indices(reference, n1, n0):
    seed, s = 2**64 - 3, 257
    got = draw_pair_indices(seed, s, n1, n0)
    want = reference.pair_indices(seed, s, n1, n0)
    for indices, expected in zip(got, want):
        assert np.array_equal(indices, expected)
    if n1 > 2**61:
        # A quarter or more of the words are rejected at these sizes.
        words = np.random.Philox(key=seed).random_raw(2 * s)
        assert np.any(words[0::2] >= np.uint64(2**64 - 2**64 % n1))


# d across the strip kernel's one-call limit and a lone remainder column;
# class sizes with G built for either class and drawn rows above one block.
_MOMENT_SHAPES = [(5, 40, 60), (moments._ONE_CALL_COLS + 1, 90, 30), (130, 50, 200),
                  (3, 20000, 40)]


@pytest.mark.parametrize("dim, n1, n0", _MOMENT_SHAPES)
def test_all_pair_moments(reference, dim, n1, n0):
    data = random_dataset(np.random.default_rng(dim + n1), dim, n1, n0, scale=3.0)
    mu_ref, sigma_ref = reference.all_pair_moments(data.positives, data.negatives)
    assert _moments_close(batch_moments_fast(data), mu_ref, sigma_ref)


@pytest.mark.parametrize("dim, n1, n0", _MOMENT_SHAPES)
@pytest.mark.parametrize("s", [1, 700, 45000])
def test_sampled_pair_moments(reference, dim, n1, n0, s):
    rng = np.random.default_rng(dim + n0)
    base = random_dataset(rng, dim, n1, n0, scale=3.0)
    # A common offset that the centered count route must keep out of G.
    data = Dataset.from_arrays(base.positives + 1e3, base.negatives + 1e3)
    cfg = SubsampleConfig(s=s, seed=derived_seed(s, 3))
    i_idx, j_idx = reference.pair_indices(cfg.seed, s, n1, n0)
    mu_ref, sigma_ref = reference.sampled_pair_moments(data.positives, data.negatives,
                                                      i_idx, j_idx)
    assert _moments_close(subsample_moments(data, cfg), mu_ref, sigma_ref)


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_auc_falls_inside_the_interval(reference, ties, seed):
    rng = np.random.default_rng(seed)
    if ties:
        data = integer_dataset(rng, 3, 60, 90)
        w = rng.integers(-2, 3, size=3).astype(float)
    else:
        data = random_dataset(rng, 6, 60, 90)
        w = rng.standard_normal(6)
    lo, hi = reference.auc_interval(*_scores(data, w))
    assert lo <= auc_fast(data, RankerWeights(w)) <= hi


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_phi_risk(reference, seed):
    rng = np.random.default_rng(seed)
    base = random_dataset(rng, 8, 70, 40)
    data = Dataset.from_arrays(base.positives + 5.0, base.negatives + 5.0)
    w = rng.standard_normal(8)
    expected = reference.phi_risk(*_scores(data, w))
    assert abs(phi_risk(data, RankerWeights(w)) - expected) <= REL_TOL * max(1.0, abs(expected))


@pytest.mark.parametrize("step, budget, w_star", [(0.05, 3000, 1.0), (0.5, 5000, 0.3),
                                                  (0.01, 9000, 10.0)])
def test_pairwise_sgd(reference, step, budget, w_star):
    data = random_dataset(np.random.default_rng(budget), 5, 30, 45)
    seed = derived_seed(budget, 4)
    got = train_pairwise_sgd(data, SgdConfig(step_size=step, pair_budget=budget, seed=seed,
                                             w_star=w_star)).w
    want = reference.pairwise_sgd(data.positives, data.negatives, step, budget, seed, w_star)
    assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("where", ["interior", "boundary"])
def test_solve_ball(reference, seed, where):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 12))
    data = random_dataset(rng, dim, int(rng.integers(2, 40)) + dim, 30, scale=2.0)
    data = Dataset.from_arrays(data.positives + rng.standard_normal(dim), data.negatives)
    pair_moments = batch_moments_fast(data)
    inside = np.linalg.norm(np.linalg.solve(pair_moments.sigma, pair_moments.mu))
    share = rng.uniform(1.5, 4.0) if where == "interior" else rng.uniform(0.1, 0.9)
    radius = float(inside * share)
    got, diag = solve_erm(pair_moments, ProblemConfig(x_star=1.0, w_star=radius))
    want = reference.solve_ball(pair_moments.mu, pair_moments.sigma, radius)
    assert diag.constrained_active == (where == "boundary")
    assert np.linalg.norm(got.w - want) <= REL_TOL * np.linalg.norm(want)
