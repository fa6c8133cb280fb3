"""Shared domain types for the bipartite-ranking toolkit.

Everything downstream (moment builders, the ball-constrained solver, the
evaluators, the experiment harness) speaks in terms of the types defined
here.  The two load-bearing containers are :class:`Dataset`, a pair of
dense feature matrices split by class, and :class:`PairMoments`, the
first and second moments of positive-minus-negative difference vectors.

Arrays stored on frozen dataclasses are coerced to contiguous float64
and marked read-only, so instances can be shared freely between threads
and across test fixtures without defensive copies.
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
_NORM_BLOCK = 4096


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
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature vectors partitioned by class.

    `positives` has shape (n1, dim) and `negatives` (n0, dim).  Either
    class may be empty; operations that need at least one pair call
    :meth:`require_trainable` first.  Construction enforces the shared
    dimension but does not scan for non-finite entries, which would cost
    a pass over every row of every dataset built: `parse_libsvm` rejects
    them in files, :func:`scale_to_ball` refuses them, and the metrics
    refuse the non-finite scores they produce.
    """

    positives: np.ndarray
    negatives: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        pos = _as_float_matrix(self.positives, "positives")
        neg = _as_float_matrix(self.negatives, "negatives")
        for name, arr in (("positives", pos), ("negatives", neg)):
            if arr.shape[0] > 0 and arr.shape[1] != self.dim:
                raise DimensionMismatchError(
                    f"{name} have dimension {arr.shape[1]}, dataset says {self.dim}"
                )
        # Empty classes keep the declared dimension so downstream shapes work.
        if pos.shape[0] == 0:
            pos = pos.reshape(0, self.dim)
        if neg.shape[0] == 0:
            neg = neg.reshape(0, self.dim)
        object.__setattr__(self, "positives", _freeze(pos))
        object.__setattr__(self, "negatives", _freeze(neg))

    @classmethod
    def from_arrays(cls, positives: object, negatives: object) -> "Dataset":
        """Build a dataset from two row-matrices, inferring the dimension."""
        pos = _as_float_matrix(positives, "positives")
        neg = _as_float_matrix(negatives, "negatives")
        dim = pos.shape[1] if pos.shape[0] > 0 else neg.shape[1]
        return cls(positives=pos, negatives=neg, dim=dim)

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
        return Dataset(
            positives=self.positives * factor,
            negatives=self.negatives * factor,
            dim=self.dim,
        )

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
    after checking the asymmetry is at rounding level, runs one
    ``np.linalg.eigh`` of it, and rejects matrices with an eigenvalue
    below -1e-9 times the spectral norm.  The decomposition is kept,
    read-only, as `eigh` = (eigs, basis): every solve of these moments
    shares it, so a path of k radii costs one O(d^3) decomposition.
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
        asym = float(np.max(np.abs(sigma - sigma.T))) if sigma.size else 0.0
        if asym > _SYMMETRY_TOL * max(1.0, scale):
            raise InvalidMomentsError(
                f"sigma asymmetry {asym:.3e} exceeds tolerance at scale {scale:.3e}"
            )
        sigma = (sigma + sigma.T) / 2.0
        eigs, basis = np.linalg.eigh(sigma)
        if eigs.size and eigs[0] < -_PSD_REL_TOL * max(1.0, float(np.max(np.abs(eigs)))):
            raise InvalidMomentsError(
                f"sigma has eigenvalue {eigs[0]:.3e}, below PSD tolerance"
            )
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "sigma", _freeze(sigma))
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


def _max_row_norm(rows: np.ndarray, factor: float = 1.0) -> float:
    """Largest Euclidean norm among the rows of ``rows * factor``; 0 if none."""
    largest = 0.0
    for start in range(0, rows.shape[0], _NORM_BLOCK):
        block = rows[start : start + _NORM_BLOCK] * factor
        largest = max(largest, float(np.max(np.linalg.norm(block, axis=1))))
    return largest


def scale_to_ball(data: Dataset, x_star: float) -> tuple[Dataset, float]:
    """Rescale all features by one common factor so every norm is <= x_star.

    Returns the scaled dataset and the factor applied to it, so other
    data (a held-out set) can be scaled the same way with
    :meth:`Dataset.scaled`.  The factor starts at x_star divided by the
    largest norm across both classes and is stepped down one ulp at a
    time while any scaled row still rounds above x_star, so the
    inequality holds exactly for ``data.scaled(factor)``.  Datasets
    already inside the ball (and all-zero or empty datasets) are
    returned as-is with factor 1.0.  A single shared factor preserves
    the ranking geometry: orderings by any fixed weight vector are
    unchanged.
    """
    if not (np.isfinite(x_star) and x_star > 0.0):
        raise ValueError(f"x_star must be finite and > 0, got {x_star!r}")
    if not (np.all(np.isfinite(data.positives)) and np.all(np.isfinite(data.negatives))):
        raise PairRankError("scale_to_ball found a non-finite feature (nan or inf)")
    classes = (data.positives, data.negatives)
    max_norm = max(_max_row_norm(m) for m in classes)
    if max_norm <= x_star:
        return data, 1.0
    factor = x_star / max_norm
    while max(_max_row_norm(m, factor) for m in classes) > x_star:
        factor = float(np.nextafter(factor, 0.0))
    return data.scaled(factor), factor
