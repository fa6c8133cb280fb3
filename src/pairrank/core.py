"""Shared domain types for the bipartite-ranking toolkit.

Everything downstream (moment builders, the ball-constrained solver, the
evaluators, the experiment harness) speaks in terms of the types defined
here.  The two load-bearing containers are :class:`Dataset`, a pair of
dense feature matrices split by class, and :class:`PairMoments`, the
first and second moments of positive-minus-negative difference vectors.
No container stores a dimension: :class:`Dataset`, :class:`PairMoments`
and :class:`RankerWeights` each read it from their arrays' shape.

Arrays stored on frozen dataclasses are coerced to contiguous float64
and made read-only by one rule, `_freeze`: an array that owns its memory
is frozen in place, and a view of memory that can still be written
elsewhere (a slice of a writable array, an array over a bytearray) is
copied first.  So instances can be shared freely between threads and
across test fixtures; only the caller's own array, whose flag it can set
back, and views it took of that array first can still write to them.
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
# sits next to the dataset; each row's norm is the same either way.
_NORM_BLOCK = 1024


class PairRankError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(PairRankError):
    """Feature vectors, weights, or moments disagree on dimension."""


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


def _as_float_matrix(value: object, name: str) -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, or raise."""
    try:
        arr = np.ascontiguousarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(
            f"{name} is not coercible to a float matrix: {exc}"
        ) from exc
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be 2-D (rows are feature vectors), got ndim={arr.ndim}"
        )
    return arr


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
        pos = _as_float_matrix(self.positives, "positives")
        neg = _as_float_matrix(self.negatives, "negatives")
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
        for name in ("x_star", "w_star"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


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
        mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        sigma = np.ascontiguousarray(self.sigma, dtype=np.float64)
        if mu.ndim != 1:
            raise DimensionMismatchError(f"mu must be a vector, got ndim={mu.ndim}")
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
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise DimensionMismatchError(f"weights must be a vector, got ndim={w.ndim}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def _prescaled_norm(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` taken on x / 2^k, 2^k just above max |x|, then
    times 2^k: bit for bit the plain norm unless a square under- or overflows, 0 only
    for zero entries and inf only for a norm beyond the float range."""
    exponent = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(x, -exponent), axis=axis), exponent)


def _max_row_norm(rows: np.ndarray, factor: float = 1.0) -> float:
    """Largest Euclidean norm among the rows times `factor`; 0 if none.

    Each _NORM_BLOCK-row block is multiplied by `factor` into a temporary,
    the same bits as those rows of ``rows * factor``, so the rows are never
    written.  Raises PairRankError on a nan or inf entry.  A block whose
    largest plain norm overflows, or is below 2^-500 where a square can
    leave the normal range (d < 2^20), is measured with
    :func:`_prescaled_norm` instead.
    """
    largest = 0.0
    for start in range(0, rows.shape[0], _NORM_BLOCK):
        block = rows[start : start + _NORM_BLOCK]
        if factor != 1.0:
            block = block * factor
        with np.errstate(over="ignore"):
            top = float(np.max(np.linalg.norm(block, axis=1)))
        if not 2.0**-500 <= top < np.inf:
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
    if not (np.isfinite(x_star) and x_star > 0.0):
        raise ValueError(f"x_star must be finite and > 0, got {x_star!r}")
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
