"""Guarantee calculators pinned against independently written formulas.

The formulas come from conftest's independent derivation, spelled out
with plain math calls in a different composition order than the package
code, so a transcription slip on either side breaks the comparison.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from pairrank import (
    BoundInputs,
    BoundReport,
    batch_excess_risk_log_tail,
    evaluate_bounds,
    log_covering_number,
    mean_deviation_tail,
    min_pairs_empirical_gap,
    min_pairs_excess_risk,
    risk_constants,
    second_moment_deviation_tail,
    subsampled_excess_risk_log_tail,
    uniform_deviation_log_tail,
)
from pairrank.io import csv_cells

from conftest import (close, independent_log_tail, independent_logaddexp, independent_matrix_tail,
                      independent_min_pairs, independent_vector_tail)


def _inputs(**overrides):
    values = dict(
        dim=5, x_star=1.0, w_star=1.0, rho=0.5, n=100_000,
        sigma_n_opnorm=4.0, epsilon=0.5, delta=0.05,
    )
    values.update(overrides)
    return BoundInputs(**values)


# The bounds table's header: the input columns, then the report columns.
TABLE_HEADER = [f.name for cls in (BoundInputs, BoundReport) for f in fields(cls)]


def _table_row(inputs):
    """One bounds-table line for `inputs`, keyed by column name."""
    row = csv_cells(inputs) + csv_cells(evaluate_bounds(inputs))
    assert len(row) == len(TABLE_HEADER)
    return dict(zip(TABLE_HEADER, row))


class TestRiskConstants:
    def test_unit_geometry(self):
        c = risk_constants(1.0, 1.0)
        assert c.covering_sensitivity == 12.0
        assert c.deviation_scale == 5.0

    def test_hand_evaluated_instance(self):
        c = risk_constants(2.0, 0.5)
        assert c.covering_sensitivity == 24.0
        assert c.deviation_scale == 5.0

    def test_zero_feature_cap_limit(self):
        c = risk_constants(0.0, 1.0)
        assert c.covering_sensitivity == 0.0 and c.deviation_scale == 0.0

    def test_negative_geometry_rejected(self):
        with pytest.raises(ValueError):
            risk_constants(-1.0, 1.0)


class TestLogCoveringNumber:
    def test_one_dimensional_unit_ratio(self):
        assert close(log_covering_number(1.0, 1), math.log(3.0))

    def test_ten_dimensional_tenth_ratio(self):
        assert close(log_covering_number(0.1, 10), 10.0 * math.log(21.0))

    def test_coarse_cover_stays_below_dim_log_two(self):
        assert log_covering_number(2.0, 7) <= 7 * math.log(2.0) + 1e-12

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            log_covering_number(0.0, 3)
        with pytest.raises(ValueError):
            log_covering_number(0.5, 0)


class TestBoundInputsValidation:
    def test_accepts_valid(self):
        assert _inputs().dim == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("x_star", 0.0),
            ("w_star", -1.0),
            ("rho", 0.0),
            ("rho", 1.0),
            ("n", 0),
            ("sigma_n_opnorm", -0.5),
            ("epsilon", 0.0),
            ("delta", 0.0),
            ("delta", 1.0),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        positive = field in ("x_star", "w_star", "epsilon")
        message = f"{field} must be finite and > 0" if positive else field
        with pytest.raises(ValueError, match=message):
            _inputs(**{field: value})


class TestExcessRiskTails:
    def test_batch_tail_matches_independent_formula(self):
        inputs = _inputs()
        assert close(batch_excess_risk_log_tail(inputs), independent_log_tail(inputs, 4.0, 8.0))

    def test_uniform_deviation_matches_independent_formula(self):
        inputs = _inputs(epsilon=0.3, n=20_000)
        assert close(
            uniform_deviation_log_tail(inputs), independent_log_tail(inputs, 2.0, 2.0)
        )

    def test_subsampled_tail_matches_independent_formula(self):
        inputs = _inputs(epsilon=0.4, n=50_000, delta=0.02)
        expected = independent_logaddexp(
            independent_log_tail(inputs, 10.0, 50.0), math.log(inputs.delta)
        )
        assert close(subsampled_excess_risk_log_tail(inputs), expected)

    def test_subsampled_tail_floors_at_probability_budget(self):
        inputs = _inputs(n=10**9)
        assert subsampled_excess_risk_log_tail(inputs) == math.log(inputs.delta)

    def test_doubling_n_shifts_log_tail_linearly(self):
        inputs = _inputs(n=10_000)
        doubled = _inputs(n=20_000)
        c2 = risk_constants(inputs.x_star, inputs.w_star).deviation_scale
        step = (
            inputs.epsilon**2 / (8.0 * c2 * c2) * inputs.rho * (1.0 - inputs.rho) * inputs.n
        )
        lhs = batch_excess_risk_log_tail(doubled)
        rhs = batch_excess_risk_log_tail(inputs) - step
        assert close(lhs, rhs)

    def test_balanced_skew_minimizes_tail(self):
        balanced = batch_excess_risk_log_tail(_inputs(rho=0.5))
        skewed = batch_excess_risk_log_tail(_inputs(rho=0.05))
        assert balanced <= skewed

    def test_skew_symmetry(self):
        # Dyadic skews make rho * (1 - rho) bit-identical on both sides.
        assert batch_excess_risk_log_tail(_inputs(rho=0.25)) == batch_excess_risk_log_tail(
            _inputs(rho=0.75)
        )
        assert uniform_deviation_log_tail(_inputs(rho=0.25)) == uniform_deviation_log_tail(
            _inputs(rho=0.75)
        )
        assert close(
            batch_excess_risk_log_tail(_inputs(rho=0.1)),
            batch_excess_risk_log_tail(_inputs(rho=0.9)),
        )


class TestMinPairs:
    @staticmethod
    def _assert_matches_ceiling(got, expected_real):
        # Last-ulp composition differences must not flip the ceiling.
        slack = 1e-9 * abs(expected_real)
        assert math.ceil(expected_real - slack) <= got <= math.ceil(expected_real + slack)

    def test_empirical_gap_matches_hand_evaluation(self):
        inputs = _inputs(dim=10, x_star=1.0, w_star=1.0, epsilon=0.1, delta=0.05)
        got = min_pairs_empirical_gap(inputs)
        self._assert_matches_ceiling(got, independent_min_pairs(inputs, 3.0, 32.0, 4.0))
        # Direct arithmetic of the same instance, fully spelled out.
        first = math.log(800.0) * (4.0 + 0.1 / 3.0) / (0.01 / 32.0)
        second = (math.sqrt(2.0 * math.log(80.0)) + 1.0) ** 2 / (0.01 / 4.0)
        assert got == math.ceil(max(first, second))

    def test_excess_risk_count_matches_independent_formula(self):
        inputs = _inputs(dim=10, epsilon=0.1, delta=0.05)
        expected_real = independent_min_pairs(inputs, 15.0, 800.0, 100.0)
        self._assert_matches_ceiling(min_pairs_excess_risk(inputs), expected_real)

    def test_excess_risk_needs_more_pairs_than_empirical_gap(self):
        for epsilon in (0.05, 0.2, 0.7):
            inputs = _inputs(epsilon=epsilon)
            assert min_pairs_excess_risk(inputs) >= min_pairs_empirical_gap(inputs)

    def test_doubling_epsilon_never_increases_count(self):
        inputs = _inputs(epsilon=0.1)
        doubled = _inputs(epsilon=0.2)
        assert min_pairs_empirical_gap(doubled) <= min_pairs_empirical_gap(inputs)
        assert min_pairs_excess_risk(doubled) <= min_pairs_excess_risk(inputs)

    def test_halving_delta_increases_count(self):
        assert min_pairs_excess_risk(_inputs(delta=0.025)) > min_pairs_excess_risk(
            _inputs(delta=0.05)
        )

    def test_near_unit_delta_stays_finite(self):
        assert min_pairs_empirical_gap(_inputs(dim=1, delta=0.999)) >= 1


class TestMomentDeviationTails:
    def test_matrix_tail_matches_independent_formula(self):
        args = (500, 0.3, 1.2, 0.9, 2.0, 4)
        assert close(second_moment_deviation_tail(*args), independent_matrix_tail(*args))

    def test_matrix_tail_vanishes_for_huge_subsamples(self):
        assert second_moment_deviation_tail(10**12, 0.5, 1.0, 1.0, 1.0, 2) == 0.0

    def test_matrix_log_tail_is_linear_in_s(self):
        base = second_moment_deviation_tail(2000, 0.5, 1.0, 1.0, 1.0, 2)
        doubled = second_moment_deviation_tail(4000, 0.5, 1.0, 1.0, 1.0, 2)
        assert 0.0 < doubled < base < 1.0
        assert close(math.log(doubled / 4.0), 2.0 * math.log(base / 4.0), 1e-9)

    def test_vector_tail_matches_independent_formula(self):
        args = (400, 0.5, 1.0, 1.0)
        assert close(mean_deviation_tail(*args), independent_vector_tail(*args))

    def test_vector_tail_vacuous_below_unit_argument(self):
        # eps * sqrt(s) equals 2 x* w* exactly: the exponent is zero.
        assert mean_deviation_tail(1, 2.0, 1.0, 1.0) == 1.0
        assert mean_deviation_tail(4, 0.5, 1.0, 1.0) == 1.0

    def test_vector_argument_scales_with_sqrt_s(self):
        x = w = 1.0
        eps = 2.0
        arg_small = eps * math.sqrt(2500.0) / (2.0 * x * w)
        arg_large = eps * math.sqrt(10000.0) / (2.0 * x * w)
        ratio = (arg_large - 1.0) / (arg_small - 1.0)
        assert 1.9 <= ratio <= 2.1

    def test_tails_are_probabilities(self):
        rng = np.random.default_rng(701)
        for _ in range(50):
            s = int(rng.integers(1, 10_000))
            eps = float(rng.uniform(0.01, 3.0))
            x = float(rng.uniform(0.1, 3.0))
            w = float(rng.uniform(0.1, 3.0))
            opnorm = float(rng.uniform(0.0, 5.0))
            dim = int(rng.integers(1, 50))
            mat = second_moment_deviation_tail(s, eps, x, w, opnorm, dim)
            vec = mean_deviation_tail(s, eps, x, w)
            assert 0.0 <= mat <= 1.0
            assert 0.0 <= vec <= 1.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            second_moment_deviation_tail(0, 0.5, 1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="epsilon"):
            second_moment_deviation_tail(10, 0.0, 1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            mean_deviation_tail(10, -0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="s >= 1"):
            mean_deviation_tail(0, 0.5, 1.0, 1.0)


class TestBoundReport:
    def test_header_and_row_align(self):
        report = evaluate_bounds(_inputs())
        assert len(TABLE_HEADER) == len(set(TABLE_HEADER)) == 17
        assert TABLE_HEADER[:2] == ["dim", "n"]
        mapping = _table_row(_inputs())
        assert mapping["dim"] == "5"
        assert int(mapping["min_pairs_empirical_gap"]) == report.min_pairs_empirical_gap

    def test_int_cells_keep_every_digit_past_float_precision(self):
        report = evaluate_bounds(_inputs(epsilon=1e-8))
        assert report.min_pairs_excess_risk > 10**20
        mapping = _table_row(_inputs(epsilon=1e-8))
        assert mapping["min_pairs_excess_risk"] == str(report.min_pairs_excess_risk)
        assert mapping["n"] == "100000"

    def test_float_cells_round_trip_exactly(self):
        report = evaluate_bounds(_inputs(epsilon=0.37, rho=0.41))
        mapping = _table_row(_inputs(epsilon=0.37, rho=0.41))
        assert float(mapping["batch_excess_risk_log_tail"]) == report.batch_excess_risk_log_tail
        assert float(mapping["epsilon"]) == 0.37

    def test_inputs_are_keyword_only(self):
        with pytest.raises(TypeError):
            BoundInputs(5, 100_000, 1.0, 1.0, 0.5, 4.0, 0.5, 0.05)

    def test_moment_tails_use_empirical_gap_budget(self):
        inputs = _inputs()
        report = evaluate_bounds(inputs)
        s = min_pairs_empirical_gap(inputs)
        assert report.second_moment_deviation_tail == second_moment_deviation_tail(
            s, inputs.epsilon, inputs.x_star, inputs.w_star, inputs.sigma_n_opnorm, inputs.dim
        )
        assert report.mean_deviation_tail == mean_deviation_tail(
            s, inputs.epsilon, inputs.x_star, inputs.w_star
        )
