"""Gaussian-mixture synthetic data with closed-form pair moments.

Each class draws from a K-component isotropic Gaussian mixture whose
components weigh equally; the positive class's component means live in
the unit cube of the positive orthant and the negative class's in the
mirrored cube.  A spec stores only the noise scale and the two mean
matrices: K and the dimension are read from their shape.  Because the
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

from .core import (Dataset, PairMoments, ProblemConfig, RankerWeights, _float_array, _freeze,
                   _require_positive)
from .solver import solve_erm

__all__ = [
    "GmmSpec",
    "random_gmm_spec",
    "sample_dataset",
    "analytic_pair_moments",
    "optimal_phi_ranker",
]


@dataclass(frozen=True)
class GmmSpec:
    """A pair of K-component isotropic Gaussian mixtures, one per class.

    means_pos and means_neg are (k, dim) matrices of component means,
    and `k` and `dim` are read from their shape.  Both mixtures weight
    their k components equally (`weights` is the uniform 1/k); sigma is
    the common isotropic noise scale.
    """

    sigma: float
    means_pos: np.ndarray
    means_neg: np.ndarray

    def __post_init__(self) -> None:
        _require_positive("sigma", self.sigma)
        mp = _float_array(self.means_pos, "means_pos", None)
        mn = _float_array(self.means_neg, "means_neg", None)
        if mp.ndim != 2 or mp.shape[0] < 1 or mp.shape[1] < 1:
            raise ValueError(f"means_pos must be (k, dim) with k, dim >= 1, got {mp.shape}")
        for name, m in (("means_pos", mp), ("means_neg", mn)):
            if m.shape != mp.shape:
                raise ValueError(f"{name} shape {m.shape} != {mp.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _freeze(m))

    @property
    def k(self) -> int:
        return self.means_pos.shape[0]

    @property
    def dim(self) -> int:
        return self.means_pos.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """The uniform component weights, 1/k each."""
        return np.full(self.k, 1.0 / self.k)


def random_gmm_spec(dim: int, k: int, sigma: float, seed: int) -> GmmSpec:
    """Draw component means from mirrored unit cubes.

    Positive-class means are uniform on [0, 1]^dim and negative-class
    means on [-1, 0]^dim.  Draw order: positive means first (k * dim
    uniforms, row by row), then negative.
    """
    rng = np.random.default_rng(seed)
    means_pos = rng.random((k, dim))
    means_neg = rng.random((k, dim)) - 1.0
    return GmmSpec(sigma=float(sigma), means_pos=means_pos, means_neg=means_neg)


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
        # p stays although it is uniform: choice without p draws another stream.
        components = rng.choice(spec.k, size=count, p=spec.weights)
        noise = rng.standard_normal((count, spec.dim)) * spec.sigma
        blocks.append(means[components] + noise)
    return Dataset(blocks[0], blocks[1])


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

