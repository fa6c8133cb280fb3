"""Dataset ingestion, splits, and CSV result emission.

The input format is the classic sparse text format used by the LIBSVM
collection: one example per line, a numeric label followed by
whitespace-separated index:value features with 1-based, strictly
increasing indices.  Parsing is strict; any malformed token aborts with
the offending line number.  Parsed datasets are dense, matching the
d-by-d moment accumulation downstream; a warning is emitted past 5000
columns where dense storage stops being reasonable.

The parser reads its input whole and parses it in one vectorised pass
over the bytes: lookup tables classify the bytes, one token automaton
runs over all tokens at once, and every label and value goes through a
single string-to-float array conversion.  Lines the pass cannot vouch
for go through a per-line, per-token parser (`_parse_line`), which is
also the reference the tests compare the pass against, so results are
bit-identical to parsing line by line.  Temporary memory is a few bytes
per input byte (the text, its bytes and boolean masks) plus a few dozen
bytes per token, never an integer array per byte.

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
    it every line its vectorised pass does not vouch for, and the tests
    compare the vectorised pass against it.
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


# Byte classes of the vectorised pass.  _END is the pseudo-byte past a
# token's last byte.
_OTHER, _DIGIT, _SIGN, _DOT, _EXP, _COLON, _END = range(7)
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
_BYTE_CLASS[ord(".")] = _DOT
_BYTE_CLASS[list(b"eE")] = _EXP
_BYTE_CLASS[ord(":")] = _COLON
# Token bytes: everything but "\n" and the rest of str.split()'s ASCII
# whitespace.  Bytes >= 0x80 count as token bytes of class _OTHER.
_IN_TOKEN = np.ones(256, dtype=bool)
_IN_TOKEN[list(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")] = False

# A token automaton for the plain forms of the grammar: labels and values
# `[+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?`, feature tokens `D+:value`.  Both
# are subsets of what int() and float() accept.  Anything it rejects
# goes to _parse_line, which accepts or reports it.
(_REJECT, _INDEX_START, _INDEX, _VALUE_START, _VALUE_SIGN, _INT, _BARE_DOT, _FRAC,
 _EXP_START, _EXP_SIGN, _EXP_DIGITS, _ACCEPT) = range(12)
_TRANSITIONS = np.array([  # (state, byte class, next state); all others reject
    (_INDEX_START, _DIGIT, _INDEX),
    (_INDEX, _DIGIT, _INDEX), (_INDEX, _COLON, _VALUE_START),
    (_VALUE_START, _SIGN, _VALUE_SIGN), (_VALUE_START, _DIGIT, _INT),
    (_VALUE_START, _DOT, _BARE_DOT),
    (_VALUE_SIGN, _DIGIT, _INT), (_VALUE_SIGN, _DOT, _BARE_DOT),
    (_INT, _DIGIT, _INT), (_INT, _DOT, _FRAC), (_INT, _EXP, _EXP_START), (_INT, _END, _ACCEPT),
    (_BARE_DOT, _DIGIT, _FRAC),
    (_FRAC, _DIGIT, _FRAC), (_FRAC, _EXP, _EXP_START), (_FRAC, _END, _ACCEPT),
    (_EXP_START, _SIGN, _EXP_SIGN), (_EXP_START, _DIGIT, _EXP_DIGITS),
    (_EXP_SIGN, _DIGIT, _EXP_DIGITS),
    (_EXP_DIGITS, _DIGIT, _EXP_DIGITS), (_EXP_DIGITS, _END, _ACCEPT),
])
_NEXT = np.zeros((12, 7), dtype=np.uint8)
_NEXT[_TRANSITIONS[:, 0], _TRANSITIONS[:, 1]] = _TRANSITIONS[:, 2]
# Longer tokens go to _parse_line; this bounds the value byte matrix.
_MAX_TOKEN = 40
# Longer indices could overflow int64 while their digits are read.
_MAX_INDEX_DIGITS = 18


def _parse_text(
    text: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int, float]]]:
    """Parse a whole input in one vectorised pass.

    Returns one label per row (1 positive, 0 negative, -1 for a line that
    only non-ASCII whitespace made look non-blank); the row, 1-based index
    and value of each vouched feature as arrays; and (row, index, value)
    triples from the rows re-parsed by _parse_line, whose indices may not
    fit int64.  Rows are the non-blank lines in file order.  Rows with a
    token the automaton rejects, an index that does not increase, a
    non-finite value or a label outside {-1, 0, +1} are re-parsed in file
    order, so the first bad line raises exactly what _parse_line raises.
    """
    if text.isascii():
        data = text.encode("ascii")
    else:
        data = text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)

    in_token = np.zeros(buf.size + 2, dtype=bool)
    in_token[1:-1] = _IN_TOKEN[buf]
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    del in_token
    starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    first = np.ones(starts.size, dtype=bool)
    first[1:] = line[1:] != line[:-1]
    row = np.cumsum(first) - 1
    row_line = line[first] + 1
    del line

    # Run the automaton over all tokens at once, one byte offset per step,
    # reading index digits and the colon offset on the way.
    state = np.where(first, _VALUE_START, _INDEX_START).astype(np.uint8)
    state[lengths > _MAX_TOKEN] = _REJECT
    index = np.zeros(starts.size, dtype=np.int64)
    colon = np.zeros(starts.size, dtype=np.int64)
    live = np.flatnonzero(state != _REJECT)
    offset = 0
    while live.size:
        byte = buf[starts[live] + offset]
        cls = _BYTE_CLASS[byte]
        current = state[live]
        digit = ((current == _INDEX_START) | (current == _INDEX)) & (cls == _DIGIT)
        at = live[digit]
        index[at] = index[at] * 10 + (byte[digit] - ord("0"))
        colon[live[(current == _INDEX) & (cls == _COLON)]] = offset
        state[live] = _NEXT[current, cls]
        offset += 1
        live = live[(lengths[live] > offset) & (state[live] != _REJECT)]
    ok = _NEXT[state, _END] == _ACCEPT
    ok &= first | (colon <= _MAX_INDEX_DIGITS)
    del state

    # Labels and values, left-aligned in a zero-padded byte matrix, go
    # through one string-to-float conversion.
    value_start = starts + np.where(first, 0, colon + 1)
    vouched = np.flatnonzero(ok)
    value_len = starts[vouched] + lengths[vouched] - value_start[vouched]
    width = int(value_len.max()) if vouched.size else 1
    chars = np.zeros((vouched.size, width), dtype=np.uint8)
    for k in range(width):
        at = np.flatnonzero(value_len > k)
        chars[at, k] = buf[value_start[vouched[at]] + k]
    values = np.zeros(starts.size)
    # An overflowing value such as "1e400" becomes inf here; the check
    # below sends its line to _parse_line, which reports it.
    with np.errstate(over="ignore"):
        values[vouched] = chars.view(f"S{width}").ravel().astype(np.float64)
    del chars, value_start

    label_value = values[first]
    positive = label_value == 1.0
    ok[first] &= positive | (label_value == -1.0) | (label_value == 0.0)
    ok &= np.isfinite(values)
    # Label tokens read index 0, so this also asks every index to be >= 1.
    ok[1:] &= first[1:] | (index[1:] > index[:-1])

    bad = np.zeros(row_line.size, dtype=bool)
    bad[row[~ok]] = True
    labels = positive.astype(np.int8)
    feature = ~first & ~bad[row]
    rows, indices, values = row[feature], index[feature], values[feature]

    reparsed: list[tuple[int, int, float]] = []
    row_starts = starts[first]
    for r in np.flatnonzero(bad).tolist():
        start = int(row_starts[r])
        end = data.find(b"\n", start)
        line_text = data[data.rfind(b"\n", 0, start) + 1 : None if end < 0 else end]
        parsed = _parse_line(line_text.decode("utf-8", "surrogatepass"), int(row_line[r]))
        if parsed is None:
            labels[r] = -1
            continue
        labels[r], features = parsed
        reparsed.extend((r, column, value) for column, value in features)
    return labels, rows, indices, values, reparsed


def parse_libsvm(source: str | Path | IO[str], dim_hint: int | None = None) -> Dataset:
    """Parse sparse label index:value lines into a dense dataset.

    `source` is a path or an open text stream.  Labels +1/1 become the
    positive class and -1/0 the negative class.  The dimension is the
    larger of the maximum feature index and `dim_hint` (use the hint to
    align a test file with its training file's width).  Blank lines are
    skipped; anything else malformed raises with its line number.

    The input is read whole (a path opens as ASCII text with universal
    newlines, a stream is `.read()`), and lines end at "\\n" only.  One
    vectorised pass classifies the bytes with lookup tables, runs a
    token automaton over all tokens at once, reads indices from their
    digit runs and converts every label and value in one array
    conversion; each class matrix is filled by one fancy-index
    assignment.  Lines the pass cannot vouch for (other number spellings
    such as "1_0" or "013", non-ASCII text, and every malformed line)
    are re-parsed token by token by `_parse_line`, the reference the
    tests hold the pass to: values are bit-identical, and the first bad
    line in file order raises that function's exception.  Temporary
    memory is a few bytes per input byte plus a few dozen per token.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            text = handle.read()
    else:
        text = source.read()
    labels, rows, indices, values, reparsed = _parse_text(text)
    del text

    max_index = max([int(indices.max(initial=0))] + [index for _, index, _ in reparsed])
    dim = max(max_index, dim_hint or 0)
    if dim > _DENSE_WARN_DIM:
        warnings.warn(
            f"densifying {dim} columns; this format is parsed into dense storage",
            stacklevel=2,
        )
    positive, negative = labels == 1, labels == 0
    n1 = int(np.count_nonzero(positive))
    pos = np.zeros((n1, dim), dtype=np.float64)
    neg = np.zeros((int(np.count_nonzero(negative)), dim), dtype=np.float64)
    if reparsed:
        more_rows, more_indices, more_values = zip(*reparsed)
        rows = np.concatenate([rows, more_rows])
        indices = np.concatenate([indices, more_indices])
        values = np.concatenate([values, np.array(more_values, dtype=np.float64)])
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
    permutation of that numbering.  A warning (not an error) is emitted
    if a class comes back empty; callers that train must then decide.
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
    result = Dataset(
        positives=data.positives[pos_idx],
        negatives=data.negatives[neg_idx],
        dim=data.dim,
    )
    if result.n1 == 0 or result.n0 == 0:
        warnings.warn(
            f"split left a class empty (n1={result.n1}, n0={result.n0}); "
            "the result is untrainable",
            stacklevel=2,
        )
    return result
