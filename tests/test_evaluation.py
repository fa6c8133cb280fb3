"""Ranking metrics: naive vs sort-and-search ordering statistic, squared risk."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairrank import (
    Dataset,
    DimensionMismatchError,
    EvalReport,
    PairMoments,
    PairRankError,
    RankerWeights,
    auc_fast,
    auc_naive,
    batch_moments_fast,
    batch_moments_naive,
    evaluate_ranker,
    expected_phi_risk,
    objective_value,
    phi_risk,
    random_gmm_spec,
    sample_dataset,
    analytic_pair_moments,
)

from pairrank import moments, write_libsvm
from pairrank import core
from pairrank.core import _densify
from pairrank.evaluation import _auc, _phi, _scores
from pairrank.io import _read_dataset

from conftest import integer_dataset, random_dataset


def _scores_dataset(pos_scores, neg_scores):
    """One-dimensional dataset whose scores under w=(1,) are the inputs."""
    pos = np.asarray(pos_scores, float)[:, None]
    neg = np.asarray(neg_scores, float)[:, None]
    return Dataset.from_arrays(pos, neg)


_UNIT = RankerWeights(w=[1.0])


class TestAucNaive:
    def test_perfect_separation(self):
        assert auc_naive(_scores_dataset([2.0, 3.0], [0.0, 1.0]), _UNIT) == 1.0

    def test_zero_weights_give_exactly_half(self):
        rng = np.random.default_rng(501)
        data = random_dataset(rng, 3, 8, 5)
        w = RankerWeights(w=np.zeros(3))
        assert auc_naive(data, w) == 0.5
        assert auc_fast(data, w) == 0.5

    def test_mixed_ordering_by_enumeration(self):
        # Pairs: (1 vs 0.5) correct, (0 vs 0.5) wrong.
        assert auc_naive(_scores_dataset([1.0, 0.0], [0.5]), _UNIT) == 0.5

    def test_cross_class_tie_gets_half_credit(self):
        assert auc_naive(_scores_dataset([1.0], [1.0]), _UNIT) == 0.5


class TestAucFastEquivalence:
    def test_tie_heavy_integer_scores(self):
        rng = np.random.default_rng(502)
        for _ in range(100):
            n1 = int(rng.integers(1, 30))
            n0 = int(rng.integers(1, 30))
            data = integer_dataset(rng, 2, n1, n0)
            w = RankerWeights(w=rng.integers(-2, 3, size=2).astype(float))
            assert auc_fast(data, w) == auc_naive(data, w)

    def test_continuous_scores(self):
        rng = np.random.default_rng(503)
        for _ in range(50):
            data = random_dataset(rng, 4, int(rng.integers(1, 60)), int(rng.integers(1, 60)))
            w = RankerWeights(w=rng.standard_normal(4))
            assert auc_fast(data, w) == auc_naive(data, w)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n1=st.integers(1, 200),
        n0=st.integers(1, 200),
        use_ties=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_property(self, seed, n1, n0, use_ties):
        rng = np.random.default_rng(seed)
        if use_ties:
            data = integer_dataset(rng, 2, n1, n0)
            w = RankerWeights(w=rng.integers(-1, 2, size=2).astype(float))
        else:
            data = random_dataset(rng, 3, n1, n0)
            w = RankerWeights(w=rng.standard_normal(3))
        assert auc_fast(data, w) == auc_naive(data, w)


def _auc_by_counting(pos, neg):
    """Literal pair count, ties credited one half, compared rather than subtracted."""
    correct = sum(a > b for a in pos for b in neg)
    tied = sum(a == b for a in pos for b in neg)
    return (correct + 0.5 * tied) / (len(pos) * len(neg))


# Few distinct values (signed zeros and subnormals among them) make
# heavy ties likely.
_TIE_HEAVY_SCORES = st.lists(
    st.one_of(
        st.sampled_from([-2.5, -1.0, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0, 3.0]),
        st.floats(allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


class TestAucCounting:
    @given(pos=_TIE_HEAVY_SCORES, neg=_TIE_HEAVY_SCORES)
    @example(pos=[4.0], neg=[4.0])
    @example(pos=[1.5] * 7, neg=[1.5])
    @example(pos=[-0.0], neg=[0.0, -0.0, 1.0, -0.0, 0.0])
    @example(pos=[5e-324, -5e-324, 0.0], neg=[-0.0, 5e-324])
    @settings(max_examples=300, deadline=None)
    def test_match_literal_count_bit_for_bit(self, pos, neg):
        got = _auc(np.array(pos), np.array(neg))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_auc_by_counting(pos, neg)).tobytes()

    @given(pos=_TIE_HEAVY_SCORES, neg=_TIE_HEAVY_SCORES)
    @settings(max_examples=200, deadline=None)
    def test_match_scipy_mann_whitney_statistic(self, pos, neg):
        stats = pytest.importorskip("scipy.stats")
        u = stats.mannwhitneyu(pos, neg, method="asymptotic").statistic
        assert _auc(np.array(pos), np.array(neg)) == u / (len(pos) * len(neg))

    def test_package_imports_without_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, pairrank, pairrank.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=120, check=True)
        assert result.stdout.strip() == "[]"


class TestAucInvariances:
    def test_flip_symmetry_is_exact(self):
        rng = np.random.default_rng(504)
        for _ in range(50):
            data = integer_dataset(rng, 3, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            w = rng.integers(-2, 3, size=3).astype(float)
            forward = auc_fast(data, RankerWeights(w=w))
            backward = auc_fast(data, RankerWeights(w=-w))
            assert forward + backward == 1.0

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(505)
        data = random_dataset(rng, 4, 30, 25)
        w = rng.standard_normal(4)
        reference = auc_fast(data, RankerWeights(w=w))
        for factor in (1e-6, 3.7, 1e6):
            assert auc_fast(data, RankerWeights(w=factor * w)) == reference

    @given(
        seed=st.integers(0, 2**32 - 1),
        # Across the moment kernel's strip width and one-call limit and the
        # compensated sum's chunk, as the moment properties are.
        dim=st.sampled_from([1, moments._STRIP + 1, moments._ONE_CALL_COLS + 1, 130]),
        n1=st.sampled_from([3, moments._CHUNK + 3]),
        exponent=st.integers(-60, 60),
        ties=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scaling_keeps_the_value_bit_for_bit(self, seed, dim, n1, exponent,
                                                              ties):
        # The scores scale exactly, ties included, so the value cannot move.
        rng = np.random.default_rng(seed)
        data = (integer_dataset if ties else random_dataset)(rng, dim, n1, 40)
        w = rng.integers(-2, 3, size=dim).astype(float) if ties else rng.standard_normal(dim)
        reference = auc_fast(data, RankerWeights(w=w))
        assert auc_fast(data, RankerWeights(w=w * 2.0**exponent)) == reference


class TestPhiRisk:
    def test_zero_weights_score_half(self):
        rng = np.random.default_rng(506)
        data = random_dataset(rng, 3, 6, 7)
        assert phi_risk(data, RankerWeights(w=np.zeros(3))) == 0.5

    def test_unit_margin_single_pair_scores_zero(self):
        data = Dataset.from_arrays([[1.0, 0.0]], [[0.0, 0.0]])
        assert phi_risk(data, RankerWeights(w=[1.0, 0.0])) == 0.0

    def test_moments_identity_matches_double_loop(self):
        rng = np.random.default_rng(507)
        data = random_dataset(rng, 4, 30, 40)
        w = rng.standard_normal(4)
        margins = (data.positives @ w)[:, None] - (data.negatives @ w)[None, :]
        direct = float(np.mean(0.5 * (1.0 - margins) ** 2))
        via_scores = phi_risk(data, RankerWeights(w=w))
        assert abs(via_scores - direct) <= 1e-9 * (1.0 + abs(direct))
        via_moments = 0.5 + objective_value(batch_moments_naive(data), RankerWeights(w=w))
        assert abs(via_scores - via_moments) <= 1e-12 * abs(via_moments)

    def test_offset_features_match_exact_pair_loop(self):
        # A common offset of 1e6 cancels in the uncentered pair moments;
        # the score-space form takes variances about the class means.
        rng = np.random.default_rng(511)
        base = random_dataset(rng, 3, 9, 11)
        data = Dataset.from_arrays(base.positives + 1e6, base.negatives + 1e6)
        w = RankerWeights(w=rng.standard_normal(3) * 0.3)
        exact_w = [Fraction(v) for v in w.w]

        def exact_scores(rows):
            return [sum(Fraction(x) * c for x, c in zip(row, exact_w)) for row in rows]

        pos, neg = exact_scores(data.positives), exact_scores(data.negatives)
        exact = sum((1 - (a - b)) ** 2 for a in pos for b in neg) / (2 * len(pos) * len(neg))
        assert abs(Fraction(phi_risk(data, w)) - exact) <= Fraction(1e-9) * exact

    def test_dimension_mismatch_rejected(self):
        data = Dataset.from_arrays([[1.0, 0.0]], [[0.0, 1.0]])
        with pytest.raises(DimensionMismatchError):
            phi_risk(data, RankerWeights(w=[1.0]))


class TestExpectedPhiRisk:
    def test_zero_weights_score_half(self):
        assert expected_phi_risk(PairMoments(mu=np.zeros(2), sigma=np.eye(2)),
                                 RankerWeights(w=[0.0, 0.0])) == 0.5

    def test_identity_instance_scores_zero(self):
        assert (
            expected_phi_risk(PairMoments(mu=np.array([1.0, 0.0]), sigma=np.eye(2)),
                              RankerWeights(w=[1.0, 0.0]))
            == 0.0
        )

    def test_matches_monte_carlo_on_mixture(self):
        spec = random_gmm_spec(dim=3, k=2, sigma=1.5, seed=508)
        population = analytic_pair_moments(spec)
        w = RankerWeights(w=np.array([0.4, -0.2, 0.1]))
        pairs = sample_dataset(spec, 1_000_000, 1_000_000, seed=509)
        margins = pairs.positives @ w.w - pairs.negatives @ w.w
        losses = 0.5 * (1.0 - margins) ** 2
        estimate = float(np.mean(losses))
        stderr = float(np.std(losses) / np.sqrt(losses.shape[0]))
        exact = expected_phi_risk(population, w)
        assert abs(exact - estimate) <= 3.0 * stderr

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            expected_phi_risk(PairMoments(mu=np.zeros(3), sigma=np.eye(3)),
                              RankerWeights(w=[1.0, 0.0]))


class TestEvalReport:
    def test_bundle_matches_individual_metrics(self):
        rng = np.random.default_rng(510)
        data = random_dataset(rng, 3, 12, 15)
        w = RankerWeights(w=rng.standard_normal(3))
        report = evaluate_ranker(data, w)
        assert report.auc == auc_fast(data, w)
        assert report.phi_risk == phi_risk(data, w)

    def test_builds_no_pair_moments(self, monkeypatch):
        built = []
        real_post_init = PairMoments.__post_init__

        def counting_post_init(moments):
            built.append(moments.dim)
            real_post_init(moments)

        monkeypatch.setattr(PairMoments, "__post_init__", counting_post_init)
        rng = np.random.default_rng(512)
        data = random_dataset(rng, 3, 12, 15)
        evaluate_ranker(data, RankerWeights(w=rng.standard_normal(3)))
        assert built == []
        batch_moments_fast(data)
        assert built == [3]

    def test_sparse_rows_score_like_their_dense_matrix(self, tmp_path):
        # The positives span more than one 4096-row score block.  Dense or
        # sparse, a class is scored a block at a time, so both classes have
        # the bits of their dense rows scored 4096 at a time, and a class
        # within one block the bits of one product.
        rng = np.random.default_rng(513)
        data = random_dataset(rng, 20, 4200, 1300)
        keep = rng.random((data.n, 20)) < 0.3
        path = tmp_path / "sparse.svm"
        write_libsvm(Dataset.from_arrays(data.positives * keep[: data.n1],
                                         data.negatives * keep[data.n1 :]), path)
        sparse, _ = _read_dataset(path)
        dense = _densify(sparse)
        assert sparse.n1 > core._BLOCK_ROWS >= sparse.n0
        w = RankerWeights(w=rng.standard_normal(20))
        (pos, neg), (dense_pos, dense_neg) = _scores(sparse, w), _scores(dense, w)
        blocks = np.concatenate([dense.positives[lo : lo + core._BLOCK_ROWS] @ w.w
                                 for lo in range(0, dense.n1, core._BLOCK_ROWS)])
        for got, want in ((pos, dense_pos), (neg, dense_neg), (pos, blocks),
                          (neg, dense.negatives @ w.w)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert evaluate_ranker(sparse, w) == EvalReport(_auc(pos, neg), _phi(pos, neg))

    def test_zero_loss_ranker_reports_nonnegative_risk(self):
        data = Dataset.from_arrays([[1.0, 0.0]], [[0.0, 0.0]])
        report = evaluate_ranker(data, RankerWeights(w=[1.0, 0.0]))
        assert report.phi_risk == 0.0
        assert report.auc == 1.0

    def test_field_validation(self):
        with pytest.raises(ValueError):
            EvalReport(auc=1.5, phi_risk=0.0)
        with pytest.raises(ValueError):
            EvalReport(auc=0.5, phi_risk=-0.1)


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
class TestNonFiniteScores:
    @pytest.mark.parametrize("metric", [auc_fast, auc_naive, phi_risk, evaluate_ranker])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_metrics_refuse_non_finite_features(self, metric, bad):
        # The bad entry meets a zero weight: its score is still nan.
        data = Dataset.from_arrays([[0.5, bad], [0.2, 0.1]], [[0.1, 0.3]])
        with pytest.raises(PairRankError, match="non-finite scores"):
            metric(data, RankerWeights(w=[1.0, 0.0]))

    def test_overflowing_scores_are_refused(self):
        data = Dataset.from_arrays([[0.0, 0.0]], [[1e300, 1e300]])
        with pytest.raises(PairRankError, match="non-finite scores"):
            phi_risk(data, RankerWeights(w=[1e10, 1e10]))
