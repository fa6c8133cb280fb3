"""Dataset ingestion, splits, and CSV result emission.

The input format is the classic sparse text format used by the LIBSVM
collection: one example per line, a numeric label followed by
whitespace-separated index:value features with 1-based, strictly
increasing indices.  Parsing is strict; any malformed token aborts with
the offending line number.  Parsed datasets are dense, matching the
d-by-d moment accumulation downstream; a warning is emitted past 5000
columns where dense storage stops being reasonable.

The parser reads its input whole.  An ASCII input without NUL bytes is
parsed in one vectorised pass: a lookup table finds the tokens, indices
are read from their digit columns, and every label and value goes
through one string-to-float array conversion, which calls float() as
the per-line parser does.  An input the pass cannot vouch for is parsed
line by line by `_parse_line`, the reference the tests compare the pass
against, so results are bit-identical to parsing line by line.  The
pass needs a few bytes per input byte (the text, its bytes and boolean
masks) plus a few dozen bytes per token, never an integer array per
byte; the per-line path about 150 bytes of Python objects per token.

CSV output follows one fixed schema (the ResultRow field order) with
floats at 17 significant digits so a parse-back reproduces the exact
binary values.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .core import Dataset, PairRankError

__all__ = [
    "LibsvmParseError",
    "LibsvmLabelError",
    "ResultRow",
    "RESULT_CSV_HEADER",
    "parse_libsvm",
    "write_libsvm",
    "write_csv",
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


RESULT_CSV_HEADER = (
    "experiment_id",
    "algorithm",
    "dataset",
    "n1",
    "n0",
    "s",
    "seed",
    "phi_risk",
    "auc",
    "wall_time_seconds",
    "extra",
)


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One experiment outcome destined for a CSV line.

    `s` is the pair-subsample size, 0 for all-pairs training.  `extra`
    holds free-form key-values (grid coordinates, reference risks),
    serialized as semicolon-joined key=value text in the last column.
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
    extra: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must lie in [0, 1], got {self.auc!r}")
        if not self.wall_time_seconds >= 0.0:
            raise ValueError(f"wall_time_seconds must be >= 0, got {self.wall_time_seconds!r}")
        for key, value in self.extra.items():
            if any(ch in key or ch in value for ch in "=;"):
                raise ValueError(f"extra entries may not contain '=' or ';': {key}={value}")

    def csv_cells(self) -> list[str]:
        """Values aligned with RESULT_CSV_HEADER; floats at 17 digits."""
        extra = ";".join(f"{k}={v}" for k, v in self.extra.items())
        return [
            self.experiment_id,
            self.algorithm,
            self.dataset,
            str(self.n1),
            str(self.n0),
            str(self.s),
            str(self.seed),
            f"{self.phi_risk:.17g}",
            f"{self.auc:.17g}",
            f"{self.wall_time_seconds:.17g}",
            extra,
        ]


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
    the tests compare the vectorised pass against it.
    """
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


# Token bytes: all but "\n" and the rest of str.split()'s ASCII whitespace.
_IN_TOKEN = np.ones(256, dtype=bool)
_IN_TOKEN[list(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")] = False
# Longer labels and values go to _parse_line; this bounds the byte matrix.
_MAX_TOKEN = 40
# Longer indices could overflow int64 while their digits are read.
_MAX_INDEX_DIGITS = 18


def _parse_text(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse a whole input in one vectorised pass, or return None.

    Returns one label per row (1 positive, 0 negative; rows are the
    non-blank lines in file order) and the row, 1-based index and value of
    each feature.  Returns None unless the text is ASCII without NULs and
    every token is plain: labels in {-1, 0, +1} and values that float()
    reads as finite, of at most _MAX_TOKEN bytes, and indices of 1 to
    _MAX_INDEX_DIGITS ASCII digits that increase along each row.
    """
    # numpy's S dtype drops trailing NULs, so "1\x00" would read as 1.0
    # where float() rejects it.
    if not text.isascii() or "\x00" in text:
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)

    in_token = np.zeros(buf.size + 2, dtype=bool)
    in_token[1:-1] = _IN_TOKEN[buf]
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    del in_token
    starts, ends = edges[0::2], edges[1::2]
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    first = np.ones(starts.size, dtype=bool)
    first[1:] = line[1:] != line[:-1]
    del line

    # A feature token splits at its first colon into index digits and a
    # value; a label token is all value.  A token without a colon finds a
    # later one, so its digits run into whitespace or past the digit limit.
    colons = np.flatnonzero(buf == ord(":"))
    colon = np.append(colons, buf.size)[np.searchsorted(colons, starts)]
    feature = np.flatnonzero(~first)
    digits = colon[feature] - starts[feature]
    n_digits = int(digits.max(initial=0))
    if n_digits > _MAX_INDEX_DIGITS:
        return None
    # An empty index reads 0, which the increase check below rejects.
    index = np.zeros(starts.size, dtype=np.int64)
    for k in range(n_digits):
        at = feature[digits > k]
        digit = buf[starts[at] + k] - ord("0")  # uint8: bytes below "0" wrap past 9
        if np.any(digit > 9):
            return None
        index[at] = index[at] * 10 + digit
    del digits
    value_start = np.where(first, starts, colon + 1)
    del colon
    value_len = ends - value_start
    width = int(value_len.max(initial=1))
    if width > _MAX_TOKEN:
        return None

    # Labels and values, left-aligned in a zero-padded byte matrix, go
    # through one string-to-float conversion, which calls float().
    chars = np.zeros((starts.size, width), dtype=np.uint8)
    for k in range(width):
        at = np.flatnonzero(value_len > k)
        chars[at, k] = buf[value_start[at] + k]
    del value_start, value_len
    try:
        # An overflowing value such as "1e400" becomes inf here; the
        # finiteness check below hands it to _parse_line, which reports it.
        with np.errstate(over="ignore"):
            values = chars.view(f"S{width}").ravel().astype(np.float64)
    except ValueError:
        return None
    del chars

    labels = values[first]
    if not (
        np.all(np.isin(labels, _POSITIVE_LABELS + _NEGATIVE_LABELS))
        and np.all(np.isfinite(values))
        # Label tokens read index 0, so this also asks every index to be >= 1.
        and np.all(first[1:] | (index[1:] > index[:-1]))
    ):
        return None
    row = np.cumsum(first)[feature] - 1
    return np.isin(labels, _POSITIVE_LABELS).astype(np.int8), row, index[feature], values[feature]


def _parse_lines(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_parse_text's result, read line by line through _parse_line.

    Raises for the first bad line in file order.  Indices are Python ints
    in an object array, so one past int64 keeps its exact width.
    """
    lines = enumerate(text.split("\n"), start=1)
    parsed = [row for number, line in lines if (row := _parse_line(line, number)) is not None]
    features = [(r, index, value) for r, (_, pairs) in enumerate(parsed) for index, value in pairs]
    return (
        np.array([label for label, _ in parsed], dtype=np.int8),
        np.array([row for row, _, _ in features], dtype=np.intp),
        np.array([index for _, index, _ in features], dtype=object),
        np.array([value for _, _, value in features], dtype=np.float64),
    )


def parse_libsvm(source: str | Path | IO[str], dim_hint: int | None = None) -> Dataset:
    """Parse sparse label index:value lines into a dense dataset.

    `source` is a path or an open text stream.  Labels +1/1 become the
    positive class and -1/0 the negative class.  The dimension is the
    larger of the maximum feature index and `dim_hint` (use the hint to
    align a test file with its training file's width).  Blank lines are
    skipped; anything else malformed raises with its line number.

    The input is read whole (a path opens as ASCII text with universal
    newlines, a stream is `.read()`), and lines end at "\\n" only.  If the
    vectorised pass cannot vouch for every line, the whole input is parsed
    line by line by `_parse_line`, several times slower: values are
    bit-identical, and the first bad line in file order raises that
    function's exception.  The per-line path takes any malformed line,
    non-ASCII or NUL bytes, an index other than 1 to 18 ASCII digits
    (such as "+5" or "1_0"), and a label or value over 40 bytes.  Value
    spellings float() accepts (such as "1_0", ".5" or "1e-400") and
    indices with leading zeros stay on the vectorised pass.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            text = handle.read()
    else:
        text = source.read()
    labels, rows, indices, values = _parse_text(text) or _parse_lines(text)
    del text

    dim = max(int(indices.max(initial=0)), dim_hint or 0)
    if dim > _DENSE_WARN_DIM:
        warnings.warn(
            f"densifying {dim} columns; this format is parsed into dense storage",
            stacklevel=2,
        )
    positive, negative = labels == 1, labels == 0
    pos = np.zeros((int(np.count_nonzero(positive)), dim), dtype=np.float64)
    neg = np.zeros((int(np.count_nonzero(negative)), dim), dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    class_row = np.where(positive, np.cumsum(positive), np.cumsum(negative)) - 1
    to_pos = positive[rows]
    pos[class_row[rows[to_pos]], indices[to_pos] - 1] = values[to_pos]
    neg[class_row[rows[~to_pos]], indices[~to_pos] - 1] = values[~to_pos]
    return Dataset(positives=pos, negatives=neg, dim=dim)


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
    write_csv(path, RESULT_CSV_HEADER, (row.csv_cells() for row in rows))


def subsample_ratio_split(data: Dataset, ratio: float, seed: int) -> Dataset:
    """Keep a uniform without-replacement fraction of all examples.

    Selects ceil(ratio * n) of the n examples, unstratified, so class
    counts vary with the seed while labels stay attached to their rows.
    Selection order: examples are numbered 0..n-1 with positives first;
    the kept set is the first ceil(ratio * n) entries of one PCG64
    permutation of that numbering.  A class may come back empty; training
    on the result then raises through `Dataset.require_trainable`.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio!r}")
    if ratio == 1.0:
        return data
    total = data.n
    keep = int(np.ceil(ratio * total))
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(total)[:keep]
    pos_idx = np.sort(chosen[chosen < data.n1])
    neg_idx = np.sort(chosen[chosen >= data.n1]) - data.n1
    return Dataset(
        positives=data.positives[pos_idx],
        negatives=data.negatives[neg_idx],
        dim=data.dim,
    )
