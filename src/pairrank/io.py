"""Dataset ingestion, splits, and CSV result emission.

The input format is the classic sparse text format used by the LIBSVM
collection: one example per line, a numeric label followed by
whitespace-separated index:value features with 1-based, strictly
increasing indices.  Parsing is strict; any malformed token aborts with
the offending line number.  One loader, `_read_dataset`, holds a file's
rows as class-ordered CSR (12 bytes per stored feature) and alone scales
them; `parse_libsvm` densifies them, and `train` densifies one block, or
one evaluated class, at a time (see `pairrank.core`'s row sources).  A
warning is emitted past 5000 columns, where dense rows stop being small.

The parser reads its input whole.  A path is decoded as ASCII with
"surrogateescape" and no newline translation, so a path and a stream
holding the same text parse alike: lines end at "\n" only, and a
non-ASCII character fails on its own line.  An ASCII input without NUL
bytes is parsed in one vectorised pass.  Byte comparisons find the
tokens, indices are read from their digit columns, and labels and values
are copied into a zero-padded byte matrix.  A plain decimal (an optional
sign, then 1 to 15 digits with at most one ".") is read exactly as
mant / 10**frac, the double float() returns (Clinger 1990).  Any other
spelling, such as "1e-3", "1_0", "inf" or 16 digits or more, goes through
numpy's string-to-float cast, which calls float().  An input the pass
cannot vouch for is parsed line by line by `_parse_line`, the reference
the tests compare the pass against, so results are bit-identical to
parsing line by line.  The pass needs a few bytes per input byte (the
text, its bytes and boolean masks) plus a few dozen bytes per token and
the widest label or value's length per token, never an integer array per
byte: byte positions are int32 below 2**31 bytes, and the digit loop
works in place.  On a9a-shaped text its traced peak is 9.1 bytes per
input byte.  The per-line path takes about 150 bytes of Python objects
per token.

CSV tables have one column per dataclass field, each cell written by
`csv_cells`: floats at 17 significant digits so a parse-back reproduces
the exact binary values, mappings as semicolon-joined key=value text,
anything else with str().  A bounds row is a BoundInputs, then its report.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (Dataset, PairRankError, _ball_factor, _CsrRows, _densify, _freeze,
                   _SparseDataset)

__all__ = [
    "LibsvmParseError",
    "LibsvmLabelError",
    "ResultRow",
    "RESULT_CSV_HEADER",
    "parse_libsvm",
    "write_libsvm",
    "write_results_csv",
    "subsample_ratio_split",
]

# Columns past this count trigger a dense-storage warning.
_DENSE_WARN_DIM = 5000

_POSITIVE_LABELS = (1.0,)
_NEGATIVE_LABELS = (-1.0, 0.0)


class LibsvmParseError(PairRankError):
    """A structurally malformed line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class LibsvmLabelError(LibsvmParseError):
    """A numeric label outside the recognized set {-1, 0, +1}."""


def _cell(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    if isinstance(value, Mapping):
        return ";".join(f"{_cell(k)}={_cell(v)}" for k, v in value.items())
    return str(value)


def csv_cells(record: object) -> list[str]:
    """One cell per dataclass field of `record`, in field order.

    A float (numpy's too) is written at 17 significant digits, a mapping
    as ";"-joined key=value entries by this same rule, anything else by str().
    """
    return [_cell(getattr(record, f.name)) for f in fields(record)]


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One experiment outcome destined for a CSV line.

    `s` is the pair-subsample size, 0 for all-pairs training.  `extra`
    holds free-form key-values (grid coordinates, reference risks),
    written in the last column by the `csv_cells` rule, floats included.
    """

    experiment_id: str
    algorithm: str
    dataset: str
    n1: int
    n0: int
    s: int
    seed: int
    phi_risk: float
    auc: float
    wall_time_seconds: float
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must lie in [0, 1], got {self.auc!r}")
        if not self.wall_time_seconds >= 0.0:
            raise ValueError(f"wall_time_seconds must be >= 0, got {self.wall_time_seconds!r}")
        for key, value in self.extra.items():
            cells = _cell(key) + _cell(value)
            if "=" in cells or ";" in cells:
                raise ValueError(f"extra entries may not contain '=' or ';': {key}={value}")


# The results-CSV schema: one column per ResultRow field, in field order.
RESULT_CSV_HEADER = tuple(f.name for f in fields(ResultRow))


def _parse_label(token: str, line_number: int) -> int:
    try:
        value = float(token)
    except ValueError as exc:
        raise LibsvmParseError(line_number, f"non-numeric label {token!r}") from exc
    if value in _POSITIVE_LABELS:
        return 1
    if value in _NEGATIVE_LABELS:
        return 0
    raise LibsvmLabelError(line_number, f"label {token!r} is not one of -1, 0, +1")


def _parse_feature(token: str, line_number: int, previous_index: int) -> tuple[int, float]:
    head, sep, tail = token.partition(":")
    if not sep or not head or not tail:
        raise LibsvmParseError(line_number, f"feature token {token!r} is not index:value")
    try:
        index = int(head)
    except ValueError as exc:
        raise LibsvmParseError(line_number, f"non-integer feature index in {token!r}") from exc
    if index < 1:
        raise LibsvmParseError(line_number, f"feature index {index} is not 1-based")
    if index <= previous_index:
        raise LibsvmParseError(
            line_number,
            f"feature index {index} does not increase (previous was {previous_index})",
        )
    try:
        value = float(tail)
    except ValueError as exc:
        raise LibsvmParseError(line_number, f"non-numeric feature value in {token!r}") from exc
    if not np.isfinite(value):
        raise LibsvmParseError(line_number, f"non-finite feature value in {token!r}")
    return index, value


def _parse_line(line: str, line_number: int) -> tuple[int, list[tuple[int, float]]] | None:
    """Parse one line token by token: (label, [(index, value), ...]), or None if blank.

    This is the grammar's reference implementation.  parse_libsvm sends
    it every line of an input its vectorised pass cannot vouch for, and
    the tests compare the vectorised pass against it.  Only ASCII is
    read, so Unicode digits and spaces that str.split() and float() would
    take fail here as they do in a path's bytes.
    """
    if not line.isascii():
        column = next(i for i, ch in enumerate(line, start=1) if not ch.isascii())
        raise LibsvmParseError(line_number, f"non-ASCII character at column {column}")
    tokens = line.split()
    if not tokens:
        return None
    label = _parse_label(tokens[0], line_number)
    features: list[tuple[int, float]] = []
    previous = 0
    for token in tokens[1:]:
        index, value = _parse_feature(token, line_number, previous)
        features.append((index, value))
        previous = index
    return label, features


# Longer labels and values go to _parse_line; this bounds the byte matrix.
_MAX_TOKEN = 40
# Longer indices could overflow int64 while their digits are read.
_MAX_INDEX_DIGITS = 18
# Up to 15 decimal digits spell an integer below 2**53, exact in a double.
_MAX_EXACT_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(_MAX_EXACT_DIGITS + 1)])


def _cast_with_float(chars: np.ndarray) -> np.ndarray:
    """numpy's string-to-float64 cast, which calls float(), of each byte row.

    Rows are left-aligned and zero-padded.  Raises ValueError if float()
    rejects one; an overflowing value such as "1e400" becomes inf.
    """
    with np.errstate(over="ignore"):
        return chars.view(f"S{chars.shape[1]}").ravel().astype(np.float64)


def _read_numbers(padded: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """float() of each token padded[start:start + length], bit for bit.

    Returns None if a token is longer than _MAX_TOKEN bytes or float()
    rejects it or reads it as infinite.  The tokens are copied
    left-aligned into a zero-padded byte matrix.  A plain decimal -- an
    optional sign, then 1 to _MAX_EXACT_DIGITS digits with at most one
    "." among them -- is read column by column as mant / 10**frac: its
    digits as an integer below 2**53 over the power of ten of its fraction
    digits.  Both are exact doubles and one IEEE division rounds
    correctly, so the quotient is float()'s (Clinger 1990).  Negating it
    keeps "-0" as -0.0.  Other rows go through _cast_with_float.
    """
    width = int(length.max(initial=1))
    if width > _MAX_TOKEN:
        return None
    chars = sliding_window_view(padded, width)[start]
    chars[np.arange(width) >= length[:, None]] = 0

    # Rows longer than a sign, _MAX_EXACT_DIGITS digits and a "." are not
    # plain; columns past the longest other row need no reading.
    plain = length <= _MAX_EXACT_DIGITS + 2
    sign = chars[:, 0]
    negative = sign == ord("-")
    signed = negative | (sign == ord("+"))
    mant = np.zeros(start.size)
    n_digits = np.zeros(start.size, dtype=np.uint8)
    n_dots = np.zeros(start.size, dtype=np.uint8)
    frac = np.zeros(start.size, dtype=np.uint8)
    for k in range(int(length[plain].max(initial=0))):
        byte = chars[:, k]
        digit = byte - np.uint8(ord("0"))  # uint8: bytes below "0" wrap past 9
        is_digit = digit < 10
        is_dot = byte == ord(".")
        # Only the first byte may be a sign, and rows end in zero padding.
        plain &= is_digit | is_dot | (signed if k == 0 else byte == 0)
        np.multiply(mant, 10.0, out=mant, where=is_digit)
        mant += digit * is_digit
        n_digits += is_digit
        n_dots += is_dot
        frac += is_digit & (n_dots > 0)
    plain &= (n_digits >= 1) & (n_digits <= _MAX_EXACT_DIGITS) & (n_dots <= 1)
    del sign, signed, n_digits, n_dots

    # One division per fraction length, so no float array of divisors.
    values = mant
    for digits in np.flatnonzero(np.bincount(frac)[1:]) + 1:
        np.divide(values, _POW10[min(digits, _MAX_EXACT_DIGITS)], out=values, where=frac == digits)
    values[negative] = -values[negative]
    if not plain.all():
        refused = ~plain
        try:
            # Skip the copy when no row is plain, as in a file of 17-digit reprs.
            other = _cast_with_float(chars[refused] if plain.any() else chars)
        except ValueError:
            return None
        if not np.all(np.isfinite(other)):
            return None
        values[refused] = other
    return values


def _parse_text(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse a whole input in one vectorised pass, or return None.

    Returns one label per row (1 positive, 0 negative; rows are the
    non-blank lines in file order), row offsets into the features, and
    each feature's 1-based index and value.  Returns None unless the text
    is ASCII without NULs and every token is plain: labels in {-1, 0, +1}
    and values that float() reads as finite, of at most _MAX_TOKEN bytes,
    and indices of 1 to _MAX_INDEX_DIGITS ASCII digits that increase
    along each row.
    """
    # numpy's S dtype drops trailing NULs, so "1\x00" would read as 1.0
    # where float() rejects it.
    if not text.isascii() or "\x00" in text:
        return None
    # Zero bytes past the end let _read_numbers take each token's bytes as
    # one window.
    padded = np.frombuffer(text.encode("ascii") + bytes(_MAX_TOKEN), dtype=np.uint8)
    buf = padded[: len(text)]
    # Byte positions, and so token and row counts, are held as int32 when they fit.
    position = np.int32 if buf.size < 2**31 else np.intp

    # Tokens are runs of bytes outside str.split()'s ASCII whitespace:
    # "\t\n\x0b\x0c\r" (9 to 13) and "\x1c\x1d\x1e\x1f " (28 to 32).
    in_token = np.zeros(buf.size + 2, dtype=bool)
    in_token[1:-1] = (buf < 9) | ((buf > 13) & (buf < 28)) | (buf > 32)
    edges = np.flatnonzero(in_token[1:] != in_token[:-1]).astype(position)
    del in_token
    starts, ends = edges[0::2], edges[1::2]
    # A row starts at the first token and at the first token after a newline.
    first = np.zeros(starts.size + 1, dtype=bool)
    first[np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))] = True
    first[0] = True
    label = np.flatnonzero(first[:-1])
    label_start, label_len = starts[label], ends[label] - starts[label]
    feature = ~first[:-1]
    feature_start, feature_end = starts[feature], ends[feature]
    # Each row's label token is followed by its feature tokens: row r's
    # start at token label[r] less r labels, and a row's first follows a label.
    offsets = np.append(label, starts.size) - np.arange(label.size + 1)
    row_start = first[:-2][feature[1:]]
    del edges, starts, ends, first, label, feature

    # Each feature token holds one colon with bytes on both sides, and a
    # label token none; the per-line path reports anything else.
    colons = np.flatnonzero(buf == ord(":")).astype(position)
    if colons.size != feature_start.size:
        return None
    digits = colons - feature_start
    value_len = feature_end - colons - 1
    del feature_start, feature_end
    n_digits = int(digits.max(initial=0))
    if digits.min(initial=1) < 1 or value_len.min(initial=1) < 1:
        return None
    if n_digits > _MAX_INDEX_DIGITS:
        return None

    # Index digits are read right to left from each colon.
    index = np.zeros(colons.size, dtype=np.int64)
    at = colons.copy()
    for k in range(n_digits):
        at -= 1
        digit = (buf.take(at, mode="clip") - np.uint8(ord("0"))) * (digits > k)
        if np.any(digit > 9):  # uint8: bytes below "0" wrap past 9
            return None
        index += digit * np.int64(10**k)
    del at, digits
    # Indices are at least 1 and increase along each row.
    if index.min(initial=1) < 1 or not np.all((index[1:] > index[:-1]) | row_start[1:]):
        return None
    del row_start

    labels = _read_numbers(padded, label_start, label_len)
    if labels is None or not np.all(np.isin(labels, _POSITIVE_LABELS + _NEGATIVE_LABELS)):
        return None
    colons += 1
    values = _read_numbers(padded, colons, value_len)
    if values is None:
        return None
    return np.isin(labels, _POSITIVE_LABELS).astype(np.int8), offsets, index, values


def _parse_lines(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_parse_text's result, read line by line through _parse_line.

    Raises for the first bad line in file order.  Indices are Python ints
    in an object array, so one past int64 keeps its exact width.
    """
    lines = enumerate(text.split("\n"), start=1)
    parsed = [row for number, line in lines if (row := _parse_line(line, number)) is not None]
    features = [feature for _, pairs in parsed for feature in pairs]
    return (
        np.array([label for label, _ in parsed], dtype=np.int8),
        np.cumsum([0, *(len(pairs) for _, pairs in parsed)]),
        np.array([index for index, _ in features], dtype=object),
        np.array([value for _, value in features], dtype=np.float64),
    )


def _read_dataset(
    source: str | Path | IO[str],
    dim_hint: int | None = None,
    split: tuple[float, int] | None = None,
    x_star: float | None = None,
    factor: float = 1.0,
) -> tuple[_SparseDataset, float]:
    """`parse_libsvm`'s rows, held sparse, split and scaled in place, and the factor used.

    The rows come class-ordered (positives first, each class in file
    order) as CSR: int64 row offsets, 0-based column indices (int32 below
    2**31 columns) and float64 values, shared by both classes' sources.
    `split` = (ratio, seed) keeps only the rows `subsample_ratio_split`
    would keep of the whole file, and the dimension is still that of the
    whole file.  The values are multiplied in place by `factor`, or given
    `x_star` by `scale_to_ball`'s factor: densified, the bits of those
    calls in turn, then ``.scaled(factor)``.  The arrays are then frozen.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", errors="surrogateescape", newline="") as handle:
            text = handle.read()
    else:
        text = source.read()
    labels, offsets, indices, values = _parse_text(text) or _parse_lines(text)
    del text

    dim = max(int(indices.max(initial=0)), dim_hint or 0)
    if dim > _DENSE_WARN_DIM:
        warnings.warn(
            f"densifying {dim} columns; each block of rows and each evaluated class is held dense",
            stacklevel=3,
        )
    if dim > np.iinfo(np.int64).max:
        # Before the int64 cast, so the message keeps the index's exact width.
        raise ValueError(f"{dim} columns exceed the maximum allowed dimension")
    positive = labels == 1
    n1 = int(np.count_nonzero(positive))
    # The file rows, numbered positives first.
    order = np.concatenate([np.flatnonzero(positive), np.flatnonzero(~positive)])
    keep = None if split is None else _kept_rows(n1, order.size - n1, *split)
    if keep is not None:
        n1 = int(np.count_nonzero(keep[:n1]))
        order = order[keep]
    del labels, positive, keep
    indices = np.asarray(indices, dtype=np.int64)
    indices -= 1
    columns = indices.astype(np.int32 if dim < 2**31 else np.int64)
    del indices
    # Each kept entry's place in the file's entry arrays, class-ordered.
    at, counts = _CsrRows(offsets, columns, values, dim)._entries(order)
    offsets = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    del order, counts
    _freeze(offsets)
    columns = _freeze(columns.take(at))
    values = values.take(at)
    del at
    positives = _CsrRows(offsets[: n1 + 1], columns, values, dim)
    negatives = _CsrRows(offsets[n1:], columns, values, dim)
    factor = factor if x_star is None else _ball_factor(positives, negatives, x_star)
    if factor != 1.0:
        values *= factor
    _freeze(values)
    return _SparseDataset(positives, negatives), factor


def parse_libsvm(source: str | Path | IO[str], dim_hint: int | None = None) -> Dataset:
    """Parse sparse label index:value lines into a dense dataset.

    `source` is a path or an open text stream.  Labels +1/1 become the
    positive class and -1/0 the negative class.  The dimension is the
    larger of the maximum feature index and `dim_hint` (use the hint to
    align a test file with its training file's width).  Blank lines are
    skipped; anything else malformed raises with its line number.

    The input is read whole (a path opens as ASCII text without newline
    translation, a stream is `.read()`), and lines end at "\n" only; "\r"
    is whitespace.  A non-ASCII character fails with its line number: a
    path's non-ASCII bytes read as lone surrogates ("surrogateescape"), and
    a stream's Unicode digits and spaces are refused alike.  If the
    vectorised pass cannot vouch for every line, the whole input is parsed
    line by line by `_parse_line`, several times slower: values are
    bit-identical, and the first bad line in file order raises that
    function's exception.  The per-line path takes any malformed line,
    non-ASCII or NUL bytes, an index other than 1 to 18 ASCII digits
    (such as "+5" or "1_0"), and a label or value over 40 bytes.  Indices
    with leading zeros stay on the vectorised pass.  So do value spellings
    float() accepts: a plain decimal, such as "-0", "5.", ".5" or
    "0.583333", is read without float(), and others, such as "1_0",
    "1e-400", "1E+05" or more than 15 digits, go through it.

    Memory: the loader first holds the rows as class-ordered CSR (int64
    row offsets, int32 columns and float64 values: 12 bytes per stored
    feature).  The classes are row blocks, not copies, of one array,
    filled from the CSR rows 1024 at a time and frozen before the blocks
    are cut.  On the vectorised pass the traced peak is the dense output
    plus at most 5 bytes per input byte for one-hot rows like a9a's,
    where the CSR rows held during the fill cost most.  A 2.35 MB
    a9a-shaped file read into 32.0 MB peaks at 38.0 MB, 2.5 bytes per
    input byte above the output; the parse alone peaks at 23.7 MB with
    the text.  Labels or values wider than a few bytes add their width
    per token.
    """
    return _densify(_read_dataset(source, dim_hint)[0])


def write_libsvm(data: Dataset, path: str | Path) -> None:
    """Write a dataset in the sparse text format (test helper).

    Positives first with label +1, then negatives with label -1; zero
    entries are omitted, indices are 1-based ascending.  Values use
    repr-style shortest round-trip formatting.
    """
    with open(path, "w", encoding="ascii") as handle:
        for label, matrix in (("+1", data.positives), ("-1", data.negatives)):
            for row in matrix:
                nonzero = np.flatnonzero(row != 0.0)
                cells = " ".join(f"{i + 1}:{float(row[i])!r}" for i in nonzero)
                handle.write(f"{label} {cells}".rstrip() + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header line plus one line per row of cells, RFC-4180 quoting."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(rows: Iterable[ResultRow], path: str | Path) -> None:
    """Write RESULT_CSV_HEADER plus one line per row."""
    write_csv(path, RESULT_CSV_HEADER, map(csv_cells, rows))


def _kept_rows(n1: int, n0: int, ratio: float, seed: int) -> np.ndarray | None:
    """`subsample_ratio_split`'s selection: a mask over the n1 + n0 examples,
    numbered positives first, that is True for each one kept; None at ratio 1."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio!r}")
    if ratio == 1.0:
        return None
    total = n1 + n0
    keep = np.zeros(total, dtype=bool)
    keep[np.random.default_rng(seed).permutation(total)[: int(np.ceil(ratio * total))]] = True
    return keep


def subsample_ratio_split(data: Dataset, ratio: float, seed: int) -> Dataset:
    """Keep a uniform without-replacement fraction of all examples.

    Selects ceil(ratio * n) of the n examples, unstratified, so class
    counts vary with the seed while labels stay attached to their rows.
    Selection order: examples are numbered 0..n-1 with positives first;
    the kept set is the first ceil(ratio * n) entries of one PCG64
    permutation of that numbering.  A class may come back empty; training
    on the result then raises through `Dataset.require_trainable`.
    """
    keep = _kept_rows(data.n1, data.n0, ratio, seed)
    if keep is None:
        return data
    return Dataset(data.positives[keep[: data.n1]], data.negatives[keep[data.n1 :]])
