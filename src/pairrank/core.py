"""Shared domain types for the bipartite-ranking toolkit.

Everything downstream (moment builders, the ball-constrained solver, the
evaluators, the experiment harness) speaks in terms of the types defined
here.  The two load-bearing containers are :class:`Dataset`, a pair of
dense feature matrices split by class, and :class:`PairMoments`, the
first and second moments of positive-minus-negative difference vectors.
No container stores a dimension: :class:`Dataset`, :class:`PairMoments`
and :class:`RankerWeights` each read it from their arrays' shape.

Arrays stored on frozen dataclasses are coerced to contiguous float64.
One rule, `_float_array`, coerces a dataset's two classes, `mu`,
`sigma`, `w` and a mixture's mean matrices, and raises
DimensionMismatchError naming the field when one cannot be coerced or
has the wrong rank.  All are made read-only by one rule, `_freeze`: an array
that owns its memory is frozen in place, and a view of memory that can
still be written elsewhere (a slice of a writable array, an array over a
bytearray) is copied first.  So instances can be shared freely between
threads and across test fixtures; only the caller's own array, whose
flag it can set back, and views it took of that array first can still
write to them.

The kernels and evaluators read class rows through a private row source:
a dense matrix in place (:class:`_DenseRows`), or rows held sparse
(:class:`_CsrRows`), as ``train`` holds a file from parser to scores.
A sparse source holds at most one block of its rows dense at a time, and
its column sums and norms read only the stored entries.  A
:class:`_SparseDataset` pairs two sparse classes where a Dataset pairs
two matrices, and :func:`_densify` turns one into a dense Dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PairRankError",
    "DimensionMismatchError",
    "UntrainableDatasetError",
    "InvalidMomentsError",
    "SolverConvergenceError",
    "Dataset",
    "ProblemConfig",
    "PairMoments",
    "RankerWeights",
    "scale_to_ball",
]

# Relative symmetry slack allowed before a second-moment matrix is rejected.
_SYMMETRY_TOL = 1e-12
# A matrix counts as PSD if its smallest eigenvalue is above -tol * opnorm.
_PSD_REL_TOL = 1e-9
# Rows per block when scale_to_ball measures norms, so no n-by-d temporary
# sits next to the dataset (each row's norm is the same either way), and
# when sparse rows fill a dense matrix.
_NORM_BLOCK = 1024
# Rows per block when a class is scored or streamed through the moment
# kernels; a multiple of moments' 512-row sum chunk.  A block buffer is
# allocated and freed per class, so whether it finds a free gap in the heap
# depends on where small allocations (the strip pool's locks among them)
# landed; when none fits, the heap grows by a block.  16384 rows (16 MB at
# d = 123) made that the peak of `train` on an a9a-shaped file and moved
# the process's peak RSS by 11 MB from run to run; 4096 rows (4 MB) stay
# below the parser's own transient there.
_BLOCK_ROWS = 4096


class PairRankError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(PairRankError, ValueError):
    """Feature vectors, weights, or moments disagree on dimension or rank."""


class UntrainableDatasetError(PairRankError):
    """A dataset has no positive or no negative examples, so no pair exists."""


class InvalidMomentsError(PairRankError):
    """A second-moment matrix is non-symmetric or non-PSD beyond tolerance."""


class SolverConvergenceError(PairRankError):
    """A trainer did not converge to a finite answer.

    The constrained solver raises it when it exhausts its iteration
    budget, the SGD comparator when its iterate diverges.

    Attributes:
        bracket: the solver's final (low, high) multiplier bracket, for
            diagnosis; None when the error does not come from the solver.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        if bracket is not None:
            message = f"{message} (bracket: [{bracket[0]!r}, {bracket[1]!r}])"
        super().__init__(message)
        self.bracket = bracket


def _float_array(value: object, name: str, ndim: int | None) -> np.ndarray:
    """Coerce to a C-contiguous float64 array of rank `ndim`, or raise naming `name`.

    ``[]`` as a matrix (ndim 2) is the 0 x 0 matrix.  With ndim None any
    rank passes, for a caller with a shape rule of its own.
    """
    kind = "vector" if ndim == 1 else "matrix"
    try:
        arr = np.ascontiguousarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{name} is not coercible to a float {kind}: {exc}") from exc
    if ndim == 2 and arr.shape == (0,):
        arr = arr.reshape(0, 0)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be a {kind}, got ndim={arr.ndim}")
    return arr


def _require_positive(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise ValueError unless `value` is finite and > 0 (>= 0 if `zero_ok`)."""
    if not (np.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Mark `arr` read-only, after copying it if other code can still write its memory."""
    owner = arr
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    outside = owner.base is not None and not isinstance(owner.base, bytes)
    if outside or (owner is not arr and owner.flags.writeable):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature vectors partitioned by class.

    `positives` has shape (n1, dim) and `negatives` (n0, dim); `dim` is
    read from them, and an empty class (even one built from ``[]``)
    takes the other class's width.  Either class may be empty;
    operations that need at least one pair call
    :meth:`require_trainable` first.  Construction enforces the shared
    width but does not scan for non-finite entries, which would cost a
    pass over every row of every dataset built: `parse_libsvm` rejects
    them in files, :func:`scale_to_ball` refuses them, and the metrics
    refuse the non-finite scores they produce.
    """

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self) -> None:
        pos = _float_array(self.positives, "positives", 2)
        neg = _float_array(self.negatives, "negatives", 2)
        if pos.shape[0] == 0:
            pos = pos.reshape(0, neg.shape[1])
        if neg.shape[0] == 0:
            neg = neg.reshape(0, pos.shape[1])
        if pos.shape[1] != neg.shape[1]:
            raise DimensionMismatchError(
                f"positives have dimension {pos.shape[1]}, negatives {neg.shape[1]}"
            )
        object.__setattr__(self, "positives", _freeze(pos))
        object.__setattr__(self, "negatives", _freeze(neg))

    @classmethod
    def from_arrays(cls, positives: object, negatives: object) -> "Dataset":
        """Build a dataset from two row-matrices (the same as ``Dataset(positives, negatives)``)."""
        return cls(positives, negatives)

    @property
    def dim(self) -> int:
        return self.positives.shape[1]

    @property
    def n1(self) -> int:
        return self.positives.shape[0]

    @property
    def n0(self) -> int:
        return self.negatives.shape[0]

    @property
    def n(self) -> int:
        return self.n1 + self.n0

    def scaled(self, factor: float) -> "Dataset":
        """Both classes multiplied by one common factor (self when it is 1)."""
        if factor == 1.0:
            return self
        return Dataset(self.positives * factor, self.negatives * factor)

    def require_trainable(self) -> None:
        """Raise unless both classes are non-empty (so at least one pair exists)."""
        if self.n1 == 0 or self.n0 == 0:
            raise UntrainableDatasetError(
                f"training needs both classes non-empty, got n1={self.n1}, n0={self.n0}"
            )


@dataclass(frozen=True, slots=True)
class ProblemConfig:
    """Geometry of the learning problem.

    `x_star` caps feature-vector norms, `w_star` caps the weight norm.
    Both must be finite and strictly positive.
    """

    x_star: float
    w_star: float

    def __post_init__(self) -> None:
        _require_positive("x_star", self.x_star)
        _require_positive("w_star", self.w_star)


@dataclass(frozen=True)
class PairMoments:
    """First and second moments of positive-minus-negative differences.

    `mu` is the mean difference vector and `sigma` the mean of difference
    outer products, so the empirical surrogate risk of weights w is
    0.5 + 0.5 * w' sigma w - mu' w.  Construction symmetrizes `sigma`
    after checking the asymmetry is at rounding level (an entry pair
    whose sum overflows is averaged from its halves), runs one
    ``np.linalg.eigh`` of it, and rejects matrices with an eigenvalue
    beyond the float range or below -1e-9 times the spectral norm.  The
    decomposition is kept, read-only, as `eigh` = (eigs, basis): every
    solve of these moments shares it, so a path of k radii costs one
    O(d^3) decomposition.
    """

    mu: np.ndarray
    sigma: np.ndarray
    eigh: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mu = _float_array(self.mu, "mu", 1)
        sigma = _float_array(self.sigma, "sigma", 2)
        if sigma.shape != (mu.shape[0], mu.shape[0]):
            raise DimensionMismatchError(
                f"sigma shape {sigma.shape} does not match mu dimension {mu.shape[0]}"
            )
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidMomentsError("moments contain non-finite entries")
        scale = float(np.max(np.abs(sigma))) if sigma.size else 0.0
        with np.errstate(over="ignore"):
            asym = float(np.max(np.abs(sigma - sigma.T))) if sigma.size else 0.0
            sym = (sigma + sigma.T) / 2.0
        if asym > _SYMMETRY_TOL * max(1.0, scale):
            raise InvalidMomentsError(
                f"sigma asymmetry {asym:.3e} exceeds tolerance at scale {scale:.3e}"
            )
        if not np.all(np.isfinite(sym)):
            # Entries above half the float maximum: their halves add without overflow.
            sym = np.where(np.isfinite(sym), sym, sigma / 2.0 + sigma.T / 2.0)
        eigs, basis = np.linalg.eigh(sym)
        if not np.all(np.isfinite(eigs)):
            raise InvalidMomentsError("sigma has an eigenvalue beyond the float range")
        if eigs.size and eigs[0] < -_PSD_REL_TOL * max(1.0, float(np.max(np.abs(eigs)))):
            raise InvalidMomentsError(
                f"sigma has eigenvalue {eigs[0]:.3e}, below PSD tolerance"
            )
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "sigma", _freeze(sym))
        object.__setattr__(self, "eigh", (_freeze(eigs), _freeze(basis)))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class RankerWeights:
    """A linear scoring rule: rank by the inner product with `w`."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = _float_array(self.w, "w", 1)
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def require_dim(self, dim: int, what: str) -> None:
        """Raise DimensionMismatchError unless these weights can score `dim`-dim `what`."""
        if self.dim != dim:
            raise DimensionMismatchError(
                f"weights of dimension {self.dim} cannot score {dim}-dim {what}"
            )


class _DenseRows:
    """The row source over a dense matrix: blocks are views, gathers copy.

    A row source is how the kernels and evaluators read rows.  `block(lo,
    hi, out)` gives rows lo..hi, and `take(index, out)` rows[index], as
    dense arrays: each is written into the leading rows of `out`, a buffer
    from `scratch`, unless the source holds the rows dense already, as
    this one does for blocks.  `each_column(index)` yields each column of
    rows[index] in turn, in one buffer.  `sums(lo, hi)` is the column sums
    of rows lo..hi, `take_sums(index, weights, out)` those of rows[index]
    each times its weight (through `out` where the rows are densified),
    and `squares(lo, hi, out, factor)` rows lo..hi times `factor`, squared
    entry by entry.  Each has the bits the dense matrix gives.
    """

    def __init__(self, array: np.ndarray):
        self.array, self.shape = array, array.shape

    def scratch(self, count: int) -> None:
        return None

    def block(self, lo: int, hi: int, out: np.ndarray | None) -> np.ndarray:
        return self.array[lo:hi]

    def take(self, index: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The indices are in range; mode "clip" writes straight into `out`,
        # where the default mode would buffer a copy.
        return np.take(self.array, index, axis=0, out=out[: index.size], mode="clip")

    def each_column(self, index: np.ndarray):
        column = np.empty(index.size)
        for k in range(self.shape[1]):
            yield np.take(self.array[:, k], index, out=column, mode="clip")

    def sums(self, lo: int, hi: int) -> np.ndarray:
        return np.sum(self.block(lo, hi, self.scratch(hi - lo)), axis=0)

    def take_sums(self, index: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        part = self.take(index, out)
        part *= weights[:, None]
        return np.sum(part, axis=0)

    def squares(self, lo: int, hi: int, out: np.ndarray | None, factor: float) -> np.ndarray:
        block = self.array[lo:hi] * factor
        block *= block
        return block


class _CsrRows:
    """The row source over rows held sparse (CSR): only stored entries are kept.

    Row r's entries sit at offsets[r]:offsets[r + 1] of `indices` (0-based
    columns, strictly increasing within a row) and `values`; the offsets
    are absolute, so two sources can share one pair of entry arrays.  A
    block, gather or `squares` zero-fills its rows of the buffer and
    scatters their entries.  For d >= 2 the column sums are one
    np.bincount over the stored entries: it adds each column's entries in
    row order, as numpy sums a C-contiguous block's rows, and a missing
    entry's +0.0 changes no sum but the sign of a zero one.  At d = 1
    numpy sums the column pairwise, so the rows are densified and reduced
    as a dense source reduces them.
    `each_column` sorts the gathered rows' entries by column once, with a
    stable sort (numpy's radix sort on uint16 keys), then zero-fills and
    scatters one column at a time: at most 24 bytes per gathered entry
    and a few floats per gathered row while the index is built, then 12
    per entry (an int32 row id and a value), never the gathered rows dense.
    """

    def __init__(self, offsets: np.ndarray, indices: np.ndarray, values: np.ndarray, dim: int):
        self.offsets, self.indices, self.values = offsets, indices, values
        self.shape = (offsets.size - 1, dim)

    def scratch(self, count: int) -> np.ndarray:
        return np.empty((count, self.shape[1]), dtype=np.float64)

    def _entries(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry-array positions of rows[index]'s entries, in order, and each row's count."""
        starts = self.offsets[index]
        counts = self.offsets[index + 1] - starts
        at = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        at += np.arange(at.size)
        return at, counts

    def _fill(self, lo: int, hi: int, out: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Rows lo..hi, their stored entries set to `values`, in the leading rows of `out`."""
        out = out[: hi - lo]
        out.fill(0.0)
        row = np.repeat(np.arange(hi - lo), np.diff(self.offsets[lo : hi + 1]))
        out[row, self.indices[self.offsets[lo] : self.offsets[hi]]] = values
        return out

    def block(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        return self._fill(lo, hi, out, self.values[self.offsets[lo] : self.offsets[hi]])

    def take(self, index: np.ndarray, out: np.ndarray) -> np.ndarray:
        out = out[: index.size]
        out.fill(0.0)
        at, counts = self._entries(index)
        out[np.repeat(np.arange(index.size), counts), self.indices[at]] = self.values[at]
        return out

    def each_column(self, index: np.ndarray):
        at, counts = self._entries(index)
        dim = self.shape[1]
        key = self.indices[at]
        if dim <= 2**16:
            key = key.astype(np.uint16)
        edges = np.zeros(dim + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=dim), out=edges[1:])
        order = np.argsort(key, kind="stable")
        del key
        at = at[order]
        row = np.arange(index.size, dtype=np.int32 if index.size < 2**31 else np.intp)
        row = np.repeat(row, counts)[order]
        del order, counts
        values = self.values[at]
        del at
        column = np.empty(index.size)
        for k in range(dim):
            column.fill(0.0)
            column[row[edges[k] : edges[k + 1]]] = values[edges[k] : edges[k + 1]]
            yield column

    def sums(self, lo: int, hi: int) -> np.ndarray:
        if self.shape[1] == 1:
            return _DenseRows.sums(self, lo, hi)
        first, last = self.offsets[lo], self.offsets[hi]
        return np.bincount(self.indices[first:last], weights=self.values[first:last],
                           minlength=self.shape[1])

    def take_sums(self, index: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.shape[1] == 1:
            return _DenseRows.take_sums(self, index, weights, out)
        at, counts = self._entries(index)
        return np.bincount(self.indices[at], weights=self.values[at] * np.repeat(weights, counts),
                           minlength=self.shape[1])

    def squares(self, lo: int, hi: int, out: np.ndarray, factor: float) -> np.ndarray:
        scaled = self.values[self.offsets[lo] : self.offsets[hi]] * factor
        scaled *= scaled
        return self._fill(lo, hi, out, scaled)


def _row_source(rows: np.ndarray | _CsrRows | _DenseRows) -> _CsrRows | _DenseRows:
    """A source over `rows`; a dense matrix is read in place."""
    return rows if isinstance(rows, (_CsrRows, _DenseRows)) else _DenseRows(rows)


@dataclass(frozen=True)
class _SparseDataset:
    """A Dataset whose two classes are CSR row sources: what `train` reads.

    The moment builders and the evaluators take it where they take a
    Dataset, and :func:`_ball_factor` its two classes; :func:`_densify`
    makes a Dataset of it.
    """

    positives: _CsrRows
    negatives: _CsrRows

    dim, n1, n0, n = Dataset.dim, Dataset.n1, Dataset.n0, Dataset.n
    require_trainable = Dataset.require_trainable


def _densify(data: _SparseDataset) -> Dataset:
    """`data` as one dense matrix, frozen, its classes row blocks of it.

    Each class fills its rows _NORM_BLOCK at a time, so beyond the matrix
    only one block's entry indices are held.  The matrix is frozen before
    the blocks are cut, so neither class can be made writable again.
    """
    matrix = np.empty((data.n, data.dim), dtype=np.float64)
    for rows, first in ((data.positives, 0), (data.negatives, data.n1)):
        for lo in range(0, rows.shape[0], _NORM_BLOCK):
            rows.block(lo, min(lo + _NORM_BLOCK, rows.shape[0]), matrix[first + lo :])
    _freeze(matrix)
    return Dataset(matrix[: data.n1], matrix[data.n1 :])


def _block_scores(rows: np.ndarray | _CsrRows | _DenseRows, w: np.ndarray) -> np.ndarray:
    """rows @ w, one matrix-vector product per _BLOCK_ROWS-row block.

    A dense block is a view and a sparse one is densified into one reused
    buffer, so a class has the same scores held either way.  A class of at
    most _BLOCK_ROWS rows is one product.
    """
    source = _row_source(rows)
    count = source.shape[0]
    out = np.empty(count)
    buffer = source.scratch(min(count, _BLOCK_ROWS))
    for lo in range(0, count, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, count)
        np.matmul(source.block(lo, hi, buffer), w, out=out[lo:hi])
    return out


def _prescaled_norm(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` taken on x / 2^k, 2^k just above max |x|, then
    times 2^k: bit for bit the plain norm unless a square under- or overflows, 0 only
    for zero entries and inf only for a norm beyond the float range."""
    exponent = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(x, -exponent), axis=axis), exponent)


def _max_row_norm(rows: np.ndarray, factor: float = 1.0) -> float:
    """Largest Euclidean norm among the rows times `factor`; 0 if none.

    Each _NORM_BLOCK-row block's entries, times `factor` and squared, go
    to a temporary (sparse rows: only the stored ones, scattered into one
    reused block), so the rows are never written.  The largest norm is
    the square root of the largest row sum of that block, the bits of
    ``np.linalg.norm(rows * factor, axis=1).max()``.  Raises PairRankError
    on a nan or inf entry.  A block whose largest plain norm overflows, or
    is below 2^-500 where a square can leave the normal range (d < 2^20),
    is measured again with :func:`_prescaled_norm`.
    """
    source = _row_source(rows)
    count = source.shape[0]
    scratch = source.scratch(min(count, _NORM_BLOCK))
    largest = 0.0
    for start in range(0, count, _NORM_BLOCK):
        end = min(start + _NORM_BLOCK, count)
        with np.errstate(over="ignore"):
            squares = source.squares(start, end, scratch, factor)
            top = float(np.sqrt(np.max(np.add.reduce(squares, axis=1))))
        if not 2.0**-500 <= top < np.inf:
            block = source.block(start, end, scratch) * factor
            if not np.isfinite(np.max(np.abs(block))):
                raise PairRankError("scale_to_ball found a non-finite feature (nan or inf)")
            top = float(np.max(_prescaled_norm(block, axis=1)))
        largest = max(largest, top)
    return largest


def _ball_factor(positives: np.ndarray, negatives: np.ndarray, x_star: float) -> float:
    """The common factor that puts every row of both classes in the x_star ball.

    1.0 when every norm is already at most x_star.  Otherwise x_star over
    the largest norm, stepped down one ulp while a row times it still
    rounds above x_star; each factor tried is checked on _NORM_BLOCK-row
    temporaries, so the rows stay unwritten until the factor is final.
    """
    _require_positive("x_star", x_star)
    max_norm = max(_max_row_norm(positives), _max_row_norm(negatives))
    if max_norm <= x_star:
        return 1.0
    factor = x_star / max_norm
    if factor == 0.0:
        raise PairRankError(f"scale_to_ball cannot scale a feature norm of {max_norm:.6g} "
                            f"to at most {x_star!r}: the factor rounds to zero")
    while max(_max_row_norm(positives, factor), _max_row_norm(negatives, factor)) > x_star:
        factor = float(np.nextafter(factor, 0.0))
    return factor


def scale_to_ball(data: Dataset, x_star: float) -> tuple[Dataset, float]:
    """Rescale all features by one common factor so every norm is <= x_star.

    Returns the scaled dataset and the factor applied to it, so other
    data (a held-out set) can be scaled the same way with
    :meth:`Dataset.scaled`.  The factor starts at x_star over the largest
    norm across both classes and steps down one ulp while a row times it
    still rounds above x_star, so the inequality holds exactly for the
    dataset returned.  Each factor tried is verified on _NORM_BLOCK-row
    temporaries before ``data.scaled(factor)`` builds the one copy, so
    memory peaks at that copy plus one _NORM_BLOCK-row block.  Datasets
    already inside the ball (and all-zero or empty datasets) are returned
    as-is with factor 1.0.  One shared factor keeps every ordering by a
    fixed weight vector.

    A row whose squared norm overflows or underflows is measured after an
    exact power-of-two prescale, so it scales like any other.  Raises
    PairRankError on a nan or inf feature, and when the factor would round
    to zero, as it does for a norm beyond the float range.
    """
    factor = _ball_factor(data.positives, data.negatives, x_star)
    return data.scaled(factor), factor
