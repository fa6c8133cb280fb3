"""Gaussian-mixture synthetic data with closed-form pair moments.

Each class draws from a K-component isotropic Gaussian mixture; the
positive class's component means live in the unit cube of the positive
orthant and the negative class's in the mirrored cube.  Because the
moments of a mixture are weight-averages of component moments, the
population difference moments (and from them the population-optimal
ranker under the squared pairwise loss) are available in closed form,
which gives the experiment harness an exact reference line.

Determinism: every sampling operation takes an explicit seed and uses
numpy's default PCG64 generator keyed by it, consuming draws in the
documented order, so equal seeds give equal bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, PairMoments, ProblemConfig, RankerWeights
from .solver import solve_erm

__all__ = [
    "GmmSpec",
    "random_gmm_spec",
    "sample_dataset",
    "analytic_pair_moments",
    "optimal_phi_ranker",
]

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GmmSpec:
    """A pair of K-component isotropic Gaussian mixtures, one per class.

    weights are shared by both classes and must sum to one; sigma is
    the common isotropic noise scale.  means_pos and means_neg are
    (k, dim) matrices of component means.
    """

    dim: int
    k: int
    weights: np.ndarray
    sigma: float
    means_pos: np.ndarray
    means_neg: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1 or self.dim < 1:
            raise ValueError(f"need k >= 1 and dim >= 1, got k={self.k}, dim={self.dim}")
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if weights.shape != (self.k,):
            raise ValueError(f"weights shape {weights.shape} does not match k={self.k}")
        if np.any(weights < 0.0) or abs(float(np.sum(weights)) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        mp = np.ascontiguousarray(self.means_pos, dtype=np.float64)
        mn = np.ascontiguousarray(self.means_neg, dtype=np.float64)
        for name, m in (("means_pos", mp), ("means_neg", mn)):
            if m.shape != (self.k, self.dim):
                raise ValueError(f"{name} shape {m.shape} != ({self.k}, {self.dim})")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, arr in (("weights", weights), ("means_pos", mp), ("means_neg", mn)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def random_gmm_spec(dim: int, k: int, sigma: float, seed: int) -> GmmSpec:
    """Draw component means from mirrored unit cubes, uniform weights.

    Positive-class means are uniform on [0, 1]^dim and negative-class
    means on [-1, 0]^dim; weights are the uniform 1/k.  Draw order:
    positive means first (k * dim uniforms, row by row), then negative.
    """
    rng = np.random.default_rng(seed)
    means_pos = rng.random((k, dim))
    means_neg = rng.random((k, dim)) - 1.0
    return GmmSpec(
        dim=dim,
        k=k,
        weights=np.full(k, 1.0 / k),
        sigma=float(sigma),
        means_pos=means_pos,
        means_neg=means_neg,
    )


def sample_dataset(spec: GmmSpec, n1: int, n0: int, seed: int) -> Dataset:
    """Draw n1 positives then n0 negatives from the mixture pair.

    Per class: component indices first (one weighted choice per row),
    then one (rows, dim) block of standard normals scaled by sigma.
    Deterministic in the seed.
    """
    if n1 < 1 or n0 < 1:
        raise ValueError(f"need n1 >= 1 and n0 >= 1, got n1={n1}, n0={n0}")
    rng = np.random.default_rng(seed)
    blocks = []
    for count, means in ((n1, spec.means_pos), (n0, spec.means_neg)):
        components = rng.choice(spec.k, size=count, p=spec.weights)
        noise = rng.standard_normal((count, spec.dim)) * spec.sigma
        blocks.append(means[components] + noise)
    return Dataset(positives=blocks[0], negatives=blocks[1], dim=spec.dim)


def analytic_pair_moments(spec: GmmSpec) -> PairMoments:
    """Population difference moments of the mixture pair, closed form.

    With per-class mean m_c and second moment M_c (both weight-averages
    over components, each component contributing its mean outer product
    plus sigma^2 I), independence of the two classes gives

        mu    = m1 - m0
        sigma = M1 + M0 - m1 m0' - m0 m1'
    """
    w = spec.weights
    m1 = w @ spec.means_pos
    m0 = w @ spec.means_neg
    noise = spec.sigma**2 * np.eye(spec.dim)
    big_m1 = np.einsum("k,ki,kj->ij", w, spec.means_pos, spec.means_pos) + noise
    big_m0 = np.einsum("k,ki,kj->ij", w, spec.means_neg, spec.means_neg) + noise
    cross = np.outer(m1, m0)
    return PairMoments(mu=m1 - m0, sigma=big_m1 + big_m0 - cross - cross.T)


def optimal_phi_ranker(spec: GmmSpec, cfg: ProblemConfig) -> RankerWeights:
    """Population-optimal linear ranker for the squared pairwise loss.

    Minimizes the closed-form population risk over the weight ball, so
    trained rankers can be compared against an exact target rather than
    another estimate.
    """
    weights, _ = solve_erm(analytic_pair_moments(spec), cfg)
    return weights

