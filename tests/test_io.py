"""Sparse-text ingestion, ratio splits, and CSV emission."""

import csv
import io
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairrank.io
from conftest import integer_dataset, parse_libsvm_reference, random_dataset, write_a9a_shaped
from pairrank import (
    RESULT_CSV_HEADER,
    Dataset,
    LibsvmLabelError,
    LibsvmParseError,
    PairRankError,
    ResultRow,
    parse_libsvm,
    scale_to_ball,
    subsample_ratio_split,
    write_libsvm,
    write_results_csv,
)
from pairrank.core import _densify
from pairrank.io import _cast_with_float, _parse_line, _read_dataset, csv_cells

MALFORMED_LINES = [
    "+1 1",
    "+1 :5",
    "+1 a:1",
    "+1 1:",
    "+1 1:abc",
    "+1 0:1",
    "+1 -2:1",
    "+1 2:1 2:3",
    "+1 3:1 2:5",
    "abc 1:1",
    "+1 1:nan",
    "+1 1:1e400",
    "+1 1:1\x00",
    "1\x00 1:1",
]


def _parse(text, dim_hint=None):
    return parse_libsvm(io.StringIO(text), dim_hint=dim_hint)


class TestParseLibsvm:
    def test_sparse_line_densifies(self):
        data = _parse("+1 1:0.5 3:2\n", dim_hint=3)
        assert data.dim == 3
        assert data.n1 == 1 and data.n0 == 0
        np.testing.assert_array_equal(data.positives[0], [0.5, 0.0, 2.0])

    def test_classes_leave_no_writable_alias(self):
        # The classes are row blocks of one array; its base is frozen too,
        # so no view of it can be made writable again.
        data = _parse("+1 1:1\n-1 2:1\n-1 1:3\n")
        for rows in (data.positives, data.negatives):
            assert not rows.flags.writeable
            assert rows.base is None or not rows.base.flags.writeable
            with pytest.raises(ValueError):
                rows.flags.writeable = True

    def test_bare_label_is_zero_vector(self):
        data = _parse("-1\n", dim_hint=2)
        assert data.n0 == 1
        np.testing.assert_array_equal(data.negatives[0], [0.0, 0.0])

    def test_label_synonyms(self):
        data = _parse("+1 1:1\n1 1:2\n1.0 1:3\n-1 1:4\n0 1:5\n-1.0 1:6\n0.0 1:7\n")
        assert data.n1 == 3 and data.n0 == 4
        np.testing.assert_array_equal(data.positives[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(data.negatives[:, 0], [4.0, 5.0, 6.0, 7.0])

    @pytest.mark.parametrize("token", ["2", "+0.5", "-3"])
    def test_unrecognized_label_raises(self, token):
        with pytest.raises(LibsvmLabelError) as excinfo:
            _parse(f"+1 1:1\n{token} 1:3\n")
        assert excinfo.value.line_number == 2
        assert isinstance(excinfo.value, LibsvmParseError)

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_line_raises_with_line_number(self, line):
        with pytest.raises(LibsvmParseError) as excinfo:
            _parse(line + "\n")
        assert excinfo.value.line_number == 1
        assert "line 1" in str(excinfo.value)

    def test_blank_lines_skipped_but_counted(self):
        data = _parse("+1 1:1\n\n   \n-1 2:1\n")
        assert data.n1 == 1 and data.n0 == 1 and data.dim == 2
        with pytest.raises(LibsvmParseError) as excinfo:
            _parse("+1 1:1\n\n-1 1:\n")
        assert excinfo.value.line_number == 3

    def test_dim_hint_widens_but_never_narrows(self):
        assert _parse("+1 1:1\n", dim_hint=5).dim == 5
        assert _parse("+1 4:1\n", dim_hint=2).dim == 4
        assert _parse("+1 4:1\n").dim == 4

    def test_path_and_stream_agree(self, tmp_path):
        text = "+1 1:0.25 2:-1\n-1 2:3\n"
        path = tmp_path / "toy.txt"
        path.write_text(text, encoding="ascii")
        from_str = parse_libsvm(str(path))
        from_path = parse_libsvm(Path(path))
        from_stream = _parse(text)
        np.testing.assert_array_equal(from_str.positives, from_stream.positives)
        np.testing.assert_array_equal(from_path.negatives, from_stream.negatives)

    def test_non_ascii_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"+1 1:\xc3\xa9\n")
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(path)
        assert info.value.line_number == 1

    def test_non_breaking_space_in_path_input_is_not_a_separator(self, tmp_path):
        path = tmp_path / "nbsp.txt"
        path.write_bytes(b"+1 1:1\n-1 1:1\xc2\xa02:1\n")
        with pytest.raises(LibsvmParseError) as info:
            parse_libsvm(path)
        assert info.value.line_number == 2

    def test_wide_data_warns(self):
        with pytest.warns(UserWarning, match="5001"):
            data = _parse("+1 5001:1\n")
        assert data.dim == 5001

    def test_index_past_int64_fails_at_allocation_with_exact_width(self):
        with pytest.warns(UserWarning, match="densifying 9223372036854775813 columns"):
            with pytest.raises(ValueError, match="dimension"):
                _parse("+1 1:1\n-1 9223372036854775813:1\n")

    def test_index_that_wraps_int64_to_one_keeps_exact_width(self):
        with pytest.warns(UserWarning, match="densifying 18446744073709551617 columns"):
            with pytest.raises(ValueError, match="dimension"):
                _parse("+1 18446744073709551617:1\n")

    def test_wide_data_warning_points_at_caller(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("+1 5001:1\n", encoding="ascii")
        for source in (path, io.StringIO("+1 5001:1\n")):
            with pytest.warns(UserWarning, match="5001") as record:
                parse_libsvm(source)
            assert [warning.filename for warning in record] == [__file__]


_LABELS = ("+1", "1", "1.0", "+1.", "1e0", "01", "-1", "-1.0", "-1E0", "0", "0.0", "-0", "00")
_SPECIAL_VALUES = (
    "1_0", ".5", "-.5", "5.", "+3", "007.25", "1e-400", "4.9e-324", "2.5e-320",
    "1E+05", "1.e3", "-0", "0", "123456789012345678901234567890", "3." + "1" * 40,
)
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(_SPECIAL_VALUES),
)
_SEPARATORS = (" ", "\t", "  ", " \x0c", "\x0b", "\x1f ", " \t ")
_NON_ASCII_SEPARATORS = ("\u00a0", " \u2003")
_BLANK_LINES = ("", "   ", "\t", "\x0c")
_MALFORMED_SPELLINGS = [
    "2 1:1", "-3", "+0.5 2:1", "1:1 2:1", "+1 1:.", "+1 1:e5", "+1 1:1e", "-1 1:+-1", "+1 1:1:2",
]


def _index_spellings(index):
    text = str(index)
    spellings = [text, "0" + text, "+" + text]
    if len(text) > 1:
        spellings.append(text[0] + "_" + text[1:])
    return st.sampled_from(spellings)


@st.composite
def _valid_lines(draw, separators):
    tokens = [draw(st.sampled_from(_LABELS))]
    for index in sorted(draw(st.sets(st.integers(1, 40), max_size=6))):
        tokens.append(f"{draw(_index_spellings(index))}:{draw(_VALUES)}")
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(st.sampled_from(separators)) + token
    margin = st.sampled_from(("",) + separators)
    return draw(margin) + line + draw(margin)


@st.composite
def _documents(draw, ascii_only=True):
    """LIBSVM text: valid and blank lines, plus zero to two malformed ones."""
    separators = _SEPARATORS if ascii_only else _SEPARATORS + _NON_ASCII_SEPARATORS
    lines = draw(
        st.lists(st.one_of(_valid_lines(separators), st.sampled_from(_BLANK_LINES)), max_size=10)
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        bad = draw(st.sampled_from(MALFORMED_LINES + _MALFORMED_SPELLINGS))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    text = "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


# A run of more than five digits could name an index in the millions and
# densify hundreds of megabytes per row.
_LONG_DIGIT_RUN = re.compile(r"[0-9_]{6}")
_BYTE_SOUP = st.text(alphabet="0123456789:+-._eEnaif \t\n\r\x00\x0c\x1c", max_size=60).filter(
    lambda text: not _LONG_DIGIT_RUN.search(text)
)


def _outcome(parse, source, dim_hint):
    try:
        data = parse(source, dim_hint=dim_hint)
    except (PairRankError, ValueError) as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return data.dim, data.positives.shape, data.positives.tobytes(), data.negatives.tobytes()


class TestParseMatchesPerLineReference:
    """The vectorised parser against the per-line reference, bit for bit."""

    @given(text=_documents(ascii_only=False), dim_hint=st.none() | st.integers(0, 45))
    @settings(max_examples=300, deadline=None)
    def test_stream_input(self, text, dim_hint):
        expected = _outcome(parse_libsvm_reference, io.StringIO(text), dim_hint)
        assert _outcome(parse_libsvm, io.StringIO(text), dim_hint) == expected

    @given(text=_documents(), dim_hint=st.none() | st.integers(0, 45))
    @settings(max_examples=150, deadline=None)
    def test_path_input(self, tmp_path_factory, text, dim_hint):
        path = tmp_path_factory.getbasetemp() / "differential.txt"
        path.write_bytes(text.encode("ascii"))
        expected = _outcome(parse_libsvm_reference, path, dim_hint)
        assert _outcome(parse_libsvm, path, dim_hint) == expected

    @given(text=_BYTE_SOUP, dim_hint=st.none() | st.integers(0, 45))
    @settings(max_examples=500, deadline=None)
    def test_byte_soup(self, text, dim_hint):
        expected = _outcome(parse_libsvm_reference, io.StringIO(text), dim_hint)
        assert _outcome(parse_libsvm, io.StringIO(text), dim_hint) == expected

    def test_first_bad_line_is_reported(self):
        text = "+1 1:1\n-1 1:.5 3:1_0\n+1 2:1 2:1\n-1 0:1\n"
        with pytest.raises(LibsvmParseError) as excinfo:
            _parse(text)
        assert excinfo.value.line_number == 3
        assert str(excinfo.value) == "line 3: feature index 2 does not increase (previous was 2)"


class TestVectorisedPassCoverage:
    """Plain input never reaches the per-line parser."""

    @pytest.fixture()
    def line_calls(self, monkeypatch):
        calls = []

        def counting(line, line_number):
            calls.append(line_number)
            return _parse_line(line, line_number)

        monkeypatch.setattr(pairrank.io, "_parse_line", counting)
        return calls

    def test_plain_spellings_stay_vectorised(self, tmp_path, line_calls):
        values = ("1_0", "1e-400", "-0", "123456789012345678901234567890")
        text = "".join(
            f"{label} 2:{values[k % 4]} 013:{values[(k + 1) % 4]}\r\n"
            for k, label in enumerate(_LABELS)
        )
        data = _parse(text)
        rng = np.random.default_rng(431)
        round_trips = []
        for scale in (1e300, 1e-300):
            original = random_dataset(rng, dim=4, n1=3, n0=3, scale=scale)
            path = tmp_path / f"scale-{scale:g}.txt"
            write_libsvm(original, path)
            round_trips.append((original, parse_libsvm(path, dim_hint=4)))
        assert line_calls == []
        expected = parse_libsvm_reference(io.StringIO(text))
        assert data.positives.tobytes() == expected.positives.tobytes()
        assert data.negatives.tobytes() == expected.negatives.tobytes()
        for original, back in round_trips:
            np.testing.assert_array_equal(back.positives, original.positives)
            np.testing.assert_array_equal(back.negatives, original.negatives)

    def test_unusual_index_spelling_parses_line_by_line(self, line_calls):
        # A signed index, and a value or a label longer than _MAX_TOKEN (40
        # bytes), each send their input down the per-line path.
        long_value, long_label = "9" * 45, "+1." + "0" * 38
        assert len(long_label) == 41 and float(long_label) == 1.0
        for text, value in (("+1 +5:1\n", 1.0), (f"+1 5:{long_value}\n", float(long_value)),
                            (f"{long_label} 5:1\n", 1.0)):
            before = len(line_calls)
            data = _parse(text)
            assert len(line_calls) > before, text
            np.testing.assert_array_equal(data.positives, [[0.0, 0.0, 0.0, 0.0, value]])

    @pytest.fixture()
    def float_calls(self, monkeypatch):
        calls = []

        def counting(chars):
            calls.append(chars.shape[0])
            return _cast_with_float(chars)

        monkeypatch.setattr(pairrank.io, "_cast_with_float", counting)
        return calls

    def test_plain_decimals_never_call_float(self, line_calls, float_calls):
        text = "+1 1:1 3:0.5\n-1 2:-0 4:1\n0 1:0.5 2:1\n1 5:1\n-1\n"
        data = _parse(text)
        assert line_calls == [] and float_calls == []
        expected = parse_libsvm_reference(io.StringIO(text))
        assert data.positives.tobytes() == expected.positives.tobytes()
        assert data.negatives.tobytes() == expected.negatives.tobytes()

    def test_other_spellings_go_through_float(self, line_calls, float_calls):
        data = _parse("+1 1:1e-3 2:1 3:1_0 4:12345678901234567\n-1 1:1\n")
        assert line_calls == [] and float_calls == [3]
        np.testing.assert_array_equal(data.positives, [[1e-3, 1.0, 10.0, 12345678901234567.0]])


@st.composite
def _decimal_spellings(draw):
    """A sign or none, then 1 to 17 digits with at most one "." anywhere among them."""
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=17))
    dot = draw(st.none() | st.integers(0, len(digits)))
    body = digits if dot is None else digits[:dot] + "." + digits[dot:]
    return draw(st.sampled_from(("", "+", "-"))) + body


def _read_values(spellings):
    """parse_libsvm of one positive row holding `spellings` as its values."""
    text = "+1 " + " ".join(f"{k}:{value}" for k, value in enumerate(spellings, start=1))
    return _parse(text + "\n").positives[0]


class TestExactDecimalCast:
    """Plain decimals, read without float(), give float()'s bits."""

    @given(spellings=st.lists(_decimal_spellings(), min_size=1, max_size=20))
    @example(spellings=["-0", "+0.0", "-0.", ".0", "-.5", "5.", "007.25", "-123.456"])
    # 15 digits are read exactly; the 16-digit spellings here round twice
    # if read as mant / 10**frac, so they must go to float().
    @example(spellings=["999999999999999", "-9.99999999999999", "9614.940693800935"])
    @example(spellings=["91148087304781.65", "-9.351876527703153", "9007199254740993"])
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_float(self, spellings):
        expected = np.array([float(value) for value in spellings])
        assert _read_values(spellings).tobytes() == expected.tobytes()

    def test_seeded_sweep_of_long_spellings(self):
        rng = np.random.default_rng(433)
        spellings = []
        for length in rng.integers(12, 18, size=3000):
            digits = "".join(rng.choice(list("0123456789"), size=length))
            dot = rng.integers(0, length + 1)
            spellings.append(rng.choice(["", "-"]) + digits[:dot] + "." + digits[dot:])
        expected = np.array([float(value) for value in spellings])
        assert _read_values(spellings).tobytes() == expected.tobytes()


_NON_ASCII = "\u0661\u00a0\u2003\u00e9\x85\u2028"
_GRAMMAR_SOUP = st.text(alphabet="0123456789:+-.e \t\n\r" + _NON_ASCII, max_size=60).filter(
    lambda text: not _LONG_DIGIT_RUN.search(text)
)


def _grammar_outcome(source, dim_hint):
    try:
        data = parse_libsvm(source, dim_hint=dim_hint)
    except (PairRankError, ValueError) as exc:
        return type(exc), getattr(exc, "line_number", None)
    return data.dim, data.positives.shape, data.positives.tobytes(), data.negatives.tobytes()


class TestOneGrammar:
    """A path and a stream holding the same text parse alike."""

    @given(
        text=st.one_of(_documents(ascii_only=False), _GRAMMAR_SOUP),
        dim_hint=st.none() | st.integers(0, 45),
    )
    @settings(max_examples=300, deadline=None)
    def test_stream_and_path_agree(self, tmp_path_factory, text, dim_hint):
        path = tmp_path_factory.getbasetemp() / "grammar.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = _grammar_outcome(io.StringIO(text), dim_hint)
        assert _grammar_outcome(path, dim_hint) == expected

    @pytest.mark.parametrize(
        "text, line",
        [("+1 1:\u0661 2:5\n-1 1:0\n", 1), ("+1 1:1\n-1 1:1\u00a02:1\n", 2)],
        ids=["arabic-indic-digit", "no-break-space"],
    )
    def test_unicode_digit_or_space_fails_its_line(self, tmp_path, text, line):
        path = tmp_path / "unicode.txt"
        path.write_bytes(text.encode("utf-8"))
        for source in (io.StringIO(text), path):
            with pytest.raises(LibsvmParseError, match="non-ASCII character") as info:
                parse_libsvm(source)
            assert info.value.line_number == line

    def test_carriage_return_is_whitespace(self, tmp_path):
        text = "+1 1:1\r2:2\r\n-1 1:3\n"
        path = tmp_path / "cr.txt"
        path.write_bytes(text.encode("ascii"))
        for source in (io.StringIO(text), path):
            data = parse_libsvm(source)
            np.testing.assert_array_equal(data.positives, [[1.0, 2.0]])
            np.testing.assert_array_equal(data.negatives, [[3.0, 0.0]])


class TestSparseLoader:
    # Classes interleave, a row is all zero, one value is -0 and a line is
    # blank; "+5:1" sends the whole input to the per-line path.
    TEXT = "-1 2:0.5 4:-0\n+1 1:1 3:2\n\n-1\n+1 4:7.25\n-1 1:-3 {index}:1\n+1\n"

    @pytest.mark.parametrize("index", ["5", "+5"], ids=["vectorised", "per-line"])
    def test_class_ordered_rows_equal_the_reference(self, index):
        text = self.TEXT.format(index=index)
        data, factor = _read_dataset(io.StringIO(text), dim_hint=6)
        reference = parse_libsvm_reference(io.StringIO(text), dim_hint=6)
        assert factor == 1.0 and (data.n1, data.n0, data.dim) == (3, 3, 6)
        for rows, want in ((data.positives, reference.positives),
                           (data.negatives, reference.negatives)):
            assert rows.indices.dtype == np.int32
            got = rows.block(0, rows.shape[0], rows.scratch(rows.shape[0]))
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_split_and_scale_match_the_dense_chain(self):
        text = self.TEXT.format(index="5")
        data, factor = _read_dataset(io.StringIO(text), split=(0.5, 3), x_star=1.0)
        dense = subsample_ratio_split(parse_libsvm(io.StringIO(text)), 0.5, 3)
        scaled, expected = scale_to_ball(dense, 1.0)
        assert factor == expected < 1.0
        assert (data.n1, data.n0) == (dense.n1, dense.n0)
        got = _densify(data)
        assert np.array_equal(got.positives, scaled.positives)
        assert np.array_equal(got.negatives, scaled.negatives)

    # The second text has no positive row.
    @pytest.mark.parametrize("text", [TEXT.format(index="5"), "-1 2:0.5 4:-0\n-1\n-1 1:-3 3:7\n"],
                             ids=["both-classes", "empty-class"])
    def test_factor_scales_like_dataset_scaled(self, text):
        factor = 1.0 / 3.0
        data, applied = _read_dataset(io.StringIO(text), factor=factor)
        expected = parse_libsvm(io.StringIO(text)).scaled(factor)
        assert applied == factor
        got = _densify(data)
        for rows, want in ((got.positives, expected.positives), (got.negatives, expected.negatives)):
            assert rows.shape == want.shape
            assert np.array_equal(rows, want) and np.array_equal(np.signbit(rows), np.signbit(want))
        assert np.signbit(got.negatives).any()


class TestParseMemory:
    def test_peak_stays_within_the_documented_bound(self, tmp_path):
        # parse_libsvm's docstring: on one-hot input like a9a's, the traced
        # peak stays below the dense output plus 5 bytes per input byte.
        rows = 10_000
        path = tmp_path / "a9a-shaped.svm"
        write_a9a_shaped(path, rows, np.random.default_rng(434))
        tracemalloc.start()
        try:
            data = parse_libsvm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.dim == 123 and data.n == rows
        output = data.positives.nbytes + data.negatives.nbytes
        limit = output + 5 * path.stat().st_size
        assert peak <= limit, f"peak {peak} B above {limit} B"


class TestWriteLibsvm:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(411)
        data = integer_dataset(rng, dim=4, n1=3, n0=2)
        path = tmp_path / "round.txt"
        write_libsvm(data, path)
        back = parse_libsvm(path, dim_hint=data.dim)
        np.testing.assert_array_equal(back.positives, data.positives)
        np.testing.assert_array_equal(back.negatives, data.negatives)

    def test_continuous_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(412)
        data = random_dataset(rng, dim=3, n1=4, n0=4)
        path = tmp_path / "cont.txt"
        write_libsvm(data, path)
        back = parse_libsvm(path, dim_hint=data.dim)
        np.testing.assert_array_equal(back.positives, data.positives)
        np.testing.assert_array_equal(back.negatives, data.negatives)

    def test_zeros_are_omitted(self, tmp_path):
        data = Dataset.from_arrays(
            positives=np.array([[0.0, 2.0]]), negatives=np.array([[0.0, 0.0]])
        )
        path = tmp_path / "sparse.txt"
        write_libsvm(data, path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "+1 2:2.0"
        assert lines[1] == "-1"


class TestSubsampleRatioSplit:
    def test_full_ratio_returns_same_object(self):
        rng = np.random.default_rng(421)
        data = integer_dataset(rng, dim=3, n1=5, n0=5)
        assert subsample_ratio_split(data, 1.0, seed=7) is data

    def test_half_of_hundred_keeps_fifty(self):
        rng = np.random.default_rng(422)
        data = integer_dataset(rng, dim=3, n1=60, n0=40)
        split = subsample_ratio_split(data, 0.5, seed=1)
        assert split.n == 50

    def test_keep_count_is_ceiling(self):
        rng = np.random.default_rng(423)
        data = integer_dataset(rng, dim=2, n1=4, n0=3)
        split = subsample_ratio_split(data, 0.5, seed=2)
        assert split.n == 4

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(424)
        data = integer_dataset(rng, dim=3, n1=30, n0=30)
        a = subsample_ratio_split(data, 0.4, seed=11)
        b = subsample_ratio_split(data, 0.4, seed=11)
        c = subsample_ratio_split(data, 0.4, seed=12)
        np.testing.assert_array_equal(a.positives, b.positives)
        np.testing.assert_array_equal(a.negatives, b.negatives)
        assert a.positives.shape != c.positives.shape or not np.array_equal(
            a.positives, c.positives
        )

    def test_kept_rows_come_from_matching_class(self):
        rng = np.random.default_rng(425)
        data = integer_dataset(rng, dim=5, n1=20, n0=15)
        split = subsample_ratio_split(data, 0.6, seed=3)
        pos_rows = {tuple(row) for row in data.positives}
        neg_rows = {tuple(row) for row in data.negatives}
        assert all(tuple(row) in pos_rows for row in split.positives)
        assert all(tuple(row) in neg_rows for row in split.negatives)

    def test_empty_class_warns_not_raises(self):
        rng = np.random.default_rng(426)
        data = integer_dataset(rng, dim=2, n1=1, n0=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emptied = [
                split for seed in range(20)
                if (split := subsample_ratio_split(data, 0.1, seed=seed)).n1 == 0
            ]
        assert emptied, "no scanned seed dropped the lone positive"
        assert emptied[0].n0 == 5

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5])
    def test_invalid_ratio_rejected(self, ratio):
        rng = np.random.default_rng(427)
        data = integer_dataset(rng, dim=2, n1=3, n0=3)
        with pytest.raises(ValueError):
            subsample_ratio_split(data, ratio, seed=0)


def _row(**overrides):
    values = dict(
        experiment_id="exp",
        algorithm="bbr",
        dataset="toy",
        n1=3,
        n0=2,
        s=0,
        seed=17,
        phi_risk=0.125,
        auc=1.0,
        wall_time_seconds=0.0,
        extra={},
    )
    values.update(overrides)
    return ResultRow(**values)


class TestResultRow:
    def test_cells_align_with_header(self):
        row = _row(extra={"a": "b", "c": "d"})
        cells = csv_cells(row)
        assert len(cells) == len(RESULT_CSV_HEADER) == 11
        assert cells[3:7] == ["3", "2", "0", "17"]
        assert cells[7] == "0.125"
        assert cells[8] == "1"
        assert cells[10] == "a=b;c=d"

    def test_float_cells_round_trip(self):
        row = _row(phi_risk=2.0 / 3.0, auc=1.0 / 3.0, wall_time_seconds=0.1234567890123)
        cells = csv_cells(row)
        assert float(cells[7]) == row.phi_risk
        assert float(cells[8]) == row.auc
        assert float(cells[9]) == row.wall_time_seconds

    def test_int_cells_keep_every_digit(self):
        assert csv_cells(_row(seed=2**64 - 1))[6] == "18446744073709551615"

    def test_float_extra_values_take_seventeen_digits(self):
        row = _row(extra={"step": 0.1, "k": 3, "single": np.float32(0.1)})
        assert csv_cells(row)[10] == "step=0.10000000000000001;k=3;single=0.10000000149011612"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"auc": 1.2},
            {"auc": -0.1},
            {"auc": float("nan")},
            {"wall_time_seconds": -1.0},
            {"extra": {"a=b": "c"}},
            {"extra": {"a": "b;c"}},
            {"extra": {"a;b": "c"}},
            {"extra": {"grid": {"k": 1}}},
            {"extra": {"path": Path("a;b")}},
        ],
    )
    def test_invalid_rows_rejected(self, overrides):
        with pytest.raises(ValueError):
            _row(**overrides)


class TestWriteResultsCsv:
    def test_empty_iterable_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results_csv([], path)
        assert path.read_text(encoding="utf-8") == ",".join(RESULT_CSV_HEADER) + "\n"

    def test_two_rows_three_lines(self, tmp_path):
        path = tmp_path / "two.csv"
        write_results_csv([_row(), _row(algorithm="lcbr", s=100)], path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_reader_round_trip_preserves_cells(self, tmp_path):
        rows = [
            _row(dataset="name,with comma", phi_risk=0.3333333333333333),
            _row(extra={"note": "x,y", "mult": "0.5"}, auc=0.7071067811865476),
        ]
        path = tmp_path / "round.csv"
        write_results_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == list(RESULT_CSV_HEADER)
        for row, cells in zip(rows, parsed[1:]):
            assert cells == csv_cells(row)
            assert float(cells[7]) == row.phi_risk
            assert float(cells[8]) == row.auc
