"""Linear bipartite ranking via pair moments.

Train linear rankers that order positive examples above negative ones
by minimizing the pairwise squared surrogate of the ranking risk.  Two
trainers share one exact ball-constrained quadratic solver: the batch
trainer folds every positive-negative pair into the difference moments,
and the low-cost trainer estimates the same moments from a seeded
uniform subsample of pairs.  The package also ships the evaluation
metrics (pair-ordering statistic with midrank ties, squared-loss risk),
a Gaussian-mixture experiment harness with closed-form reference
moments, sample-complexity calculators, sparse-format ingestion, a
projected-SGD comparator, and a CLI (``pairrank``).
"""

from .baseline import SgdConfig, train_pairwise_sgd
from .bounds import (
    BoundInputs,
    BoundReport,
    RiskConstants,
    batch_excess_risk_log_tail,
    evaluate_bounds,
    log_covering_number,
    mean_deviation_tail,
    min_pairs_empirical_gap,
    min_pairs_excess_risk,
    risk_constants,
    second_moment_deviation_tail,
    subsampled_excess_risk_log_tail,
    uniform_deviation_log_tail,
)
from .core import (
    Dataset,
    DimensionMismatchError,
    InvalidMomentsError,
    PairMoments,
    PairRankError,
    ProblemConfig,
    RankerWeights,
    SolverConvergenceError,
    UntrainableDatasetError,
    scale_to_ball,
)
from .evaluation import (
    EvalReport,
    auc_fast,
    auc_naive,
    evaluate_ranker,
    expected_phi_risk,
    phi_risk,
)
from .io import (
    RESULT_CSV_HEADER,
    LibsvmLabelError,
    LibsvmParseError,
    ResultRow,
    parse_libsvm,
    subsample_ratio_split,
    write_libsvm,
    write_results_csv,
)
from .moments import (
    SubsampleConfig,
    batch_moments_fast,
    batch_moments_naive,
    draw_pair_indices,
    subsample_moments,
)
from .solver import SolveDiagnostics, objective_value, solve_erm
from .synth import (
    GmmSpec,
    analytic_pair_moments,
    load_gmm_spec,
    optimal_phi_ranker,
    random_gmm_spec,
    sample_dataset,
    save_gmm_spec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
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
    # moments
    "SubsampleConfig",
    "batch_moments_naive",
    "batch_moments_fast",
    "subsample_moments",
    "draw_pair_indices",
    # solver
    "SolveDiagnostics",
    "solve_erm",
    "objective_value",
    # evaluation
    "EvalReport",
    "auc_naive",
    "auc_fast",
    "phi_risk",
    "expected_phi_risk",
    "evaluate_ranker",
    # synth
    "GmmSpec",
    "random_gmm_spec",
    "sample_dataset",
    "analytic_pair_moments",
    "optimal_phi_ranker",
    "save_gmm_spec",
    "load_gmm_spec",
    # bounds
    "RiskConstants",
    "risk_constants",
    "log_covering_number",
    "BoundInputs",
    "batch_excess_risk_log_tail",
    "uniform_deviation_log_tail",
    "subsampled_excess_risk_log_tail",
    "min_pairs_empirical_gap",
    "min_pairs_excess_risk",
    "second_moment_deviation_tail",
    "mean_deviation_tail",
    "BoundReport",
    "evaluate_bounds",
    # io
    "LibsvmParseError",
    "LibsvmLabelError",
    "ResultRow",
    "RESULT_CSV_HEADER",
    "parse_libsvm",
    "write_libsvm",
    "write_results_csv",
    "subsample_ratio_split",
    # baseline
    "SgdConfig",
    "train_pairwise_sgd",
]
