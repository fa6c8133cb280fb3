"""Linear bipartite ranking via pair moments.

Train linear rankers that order positive examples above negative ones
by minimizing the pairwise squared surrogate of the ranking risk.  Two
trainers share one exact ball-constrained quadratic solver: the batch
trainer folds every positive-negative pair into the difference moments,
and the low-cost trainer estimates the same moments from a seeded
uniform subsample of pairs.  The package also ships the evaluation
metrics (pair-ordering statistic with half-credit ties, squared-loss risk),
a Gaussian-mixture experiment harness with closed-form reference
moments, sample-complexity calculators, sparse-format ingestion, a
projected-SGD comparator, and a CLI (``pairrank``).

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports exactly those names, plus ``__version__``.
"""

from . import baseline, bounds, core, evaluation, io, moments, solver, synth
from .baseline import *  # noqa: F403
from .bounds import *  # noqa: F403
from .core import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .io import *  # noqa: F403
from .moments import *  # noqa: F403
from .solver import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (core, moments, solver, evaluation, synth, bounds, io, baseline)
    for name in module.__all__
]
