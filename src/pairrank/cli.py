"""Command-line surface and experiment harness.

Subcommands:

* ``train``: fit one ranker on one dataset file (all-pairs or
  pair-subsampled), optionally evaluate on a held-out file, write a
  model file and a metrics CSV row.
* ``synth-sweep``: the mixture-data experiment grid (component counts,
  noise scales, pair budgets, replicates), CSV out.
* ``skew-sweep``: class-imbalance sweep at fixed total sample count.
* ``bounds-table``: tabulate the guarantee calculators over a grid.
* ``timing``: wall-clock comparison of the moment-accumulation routes.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed input, untrainable dataset), 3 numerical failure (solver
non-convergence, invalid moments).

Determinism: every command takes seeds explicitly.  Sub-streams (spec
draw, train draw, test draw, pair draw, SGD draw, split draw) are
derived from the command seed with numpy's SeedSequence using fixed
role indices, so runs are bit-reproducible end to end; only the
wall-time CSV columns vary between runs.

Model file format (bit-exact): 8-byte magic ``PAIRRANK``, version as
little-endian uint32 (currently 1), dimension D as little-endian
uint32, the training weight-ball radius as little-endian float64, then
D little-endian float64 weights.  Total size 24 + 8 D bytes.

The environment variable ``PAIRRANK_OUT_DIR``, when set, prefixes
relative output paths (model files and CSVs).
"""

from __future__ import annotations

import argparse
import csv
import os
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from .baseline import SgdConfig, train_pairwise_sgd
from .bounds import BoundInputs, BoundReport, evaluate_bounds
from .core import (
    Dataset,
    InvalidMomentsError,
    PairRankError,
    ProblemConfig,
    RankerWeights,
    SolverConvergenceError,
)
from .evaluation import evaluate_ranker, expected_phi_risk
from .io import ResultRow, parse_libsvm, subsample_ratio_split, write_results_csv
from .moments import (
    SubsampleConfig,
    batch_moments_fast,
    batch_moments_naive,
    subsample_moments,
)
from .solver import SolverConfig, solve_erm
from .synth import (
    analytic_pair_moments,
    optimal_phi_ranker,
    random_gmm_spec,
    sample_dataset,
)

__all__ = [
    "ExperimentPlan",
    "UsageError",
    "save_weights",
    "load_weights",
    "derived_seed",
    "main",
]

MODEL_MAGIC = b"PAIRRANK"
MODEL_VERSION = 1

# Role indices for seed derivation; fixed, part of the reproducibility
# contract documented in the README.
ROLE_SPEC = 0
ROLE_TRAIN = 1
ROLE_TEST = 2
ROLE_PAIRS = 3
ROLE_SGD = 4
ROLE_SPLIT = 5

_PLAN_KINDS = ("synthetic-sweep", "libsvm-compare", "skew-sweep", "bounds-table")


class UsageError(PairRankError):
    """Flag combinations argparse cannot express; maps to exit code 1."""


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep's grids, replicate count, and base seed.

    Only the grids a given kind consumes need to be nonempty; the
    others may be left empty.
    """

    kind: str
    k_grid: tuple[int, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    pairs_grid: tuple[int, ...] = ()
    rho_grid: tuple[float, ...] = ()
    sample_ratio_grid: tuple[float, ...] = ()
    replicates: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _PLAN_KINDS:
            raise ValueError(f"kind must be one of {_PLAN_KINDS}, got {self.kind!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        required = {
            "synthetic-sweep": ("k_grid", "sigma_grid", "pairs_grid"),
            "skew-sweep": ("rho_grid", "pairs_grid"),
            "libsvm-compare": ("sample_ratio_grid",),
            "bounds-table": (),
        }[self.kind]
        for name in required:
            if not getattr(self, name):
                raise ValueError(f"{self.kind} needs a nonempty {name}")


def derived_seed(base: int, *role: int) -> int:
    """One 64-bit sub-seed per (base seed, role path), collision-resistant.

    Uses SeedSequence with the role path as the spawn key, so distinct
    roles get statistically independent streams even for adjacent base
    seeds.  Pure function; part of the reproducibility contract.
    """
    sequence = np.random.SeedSequence(
        entropy=int(base), spawn_key=tuple(int(r) for r in role)
    )
    return int(sequence.generate_state(1, np.uint64)[0])


def save_weights(path: str | Path, weights: RankerWeights, w_star: float) -> None:
    """Write the documented binary model format (see module docstring)."""
    blob = (
        MODEL_MAGIC
        + struct.pack("<II", MODEL_VERSION, weights.dim)
        + struct.pack("<d", w_star)
        + weights.w.astype("<f8").tobytes()
    )
    Path(path).write_bytes(blob)


def load_weights(path: str | Path) -> tuple[RankerWeights, float]:
    """Read a model file back; returns (weights, training radius)."""
    blob = Path(path).read_bytes()
    if len(blob) < 24 or blob[:8] != MODEL_MAGIC:
        raise PairRankError(f"{path} is not a ranker model file")
    version, dim = struct.unpack_from("<II", blob, 8)
    if version != MODEL_VERSION:
        raise PairRankError(f"{path} has unsupported model version {version}")
    if len(blob) != 24 + 8 * dim:
        raise PairRankError(
            f"{path} is {len(blob)} bytes; version-{version} files with "
            f"dimension {dim} must be {24 + 8 * dim}"
        )
    (w_star,) = struct.unpack_from("<d", blob, 16)
    vector = np.frombuffer(blob, dtype="<f8", offset=24, count=dim)
    return RankerWeights(vector.copy()), float(w_star)


def _resolve_out(path: str) -> Path:
    base = os.environ.get("PAIRRANK_OUT_DIR")
    resolved = Path(path)
    if base and not resolved.is_absolute():
        resolved = Path(base) / resolved
    return resolved


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _ratio(text: str) -> float:
    value = _positive_float(text)
    if value > 1.0:
        raise argparse.ArgumentTypeError(f"expected a ratio in (0, 1], got {text}")
    return value


def _open_unit(text: str) -> float:
    value = _positive_float(text)
    if value >= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text}")
    return value


def _grid(item_type: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        items = [piece for piece in text.split(",") if piece.strip()]
        if not items:
            raise argparse.ArgumentTypeError("grid must not be empty")
        return tuple(item_type(piece.strip()) for piece in items)

    return parse


def _scores_scale_factor(data: Dataset, x_star: float) -> float:
    """Common shrink factor putting every training vector inside the cap."""
    norms = [
        float(np.max(np.linalg.norm(m, axis=1)))
        for m in (data.positives, data.negatives)
        if m.shape[0]
    ]
    max_norm = max(norms) if norms else 0.0
    if max_norm <= x_star:
        return 1.0
    return x_star / max_norm


def _apply_factor(data: Dataset, factor: float) -> Dataset:
    if factor == 1.0:
        return data
    return Dataset(
        positives=data.positives * factor,
        negatives=data.negatives * factor,
        dim=data.dim,
    )


def _pad_weights(weights: RankerWeights, dim: int) -> RankerWeights:
    if weights.dim == dim:
        return weights
    return RankerWeights(np.pad(weights.w, (0, dim - weights.dim)))


# ---------------------------------------------------------------------------
# train


def _cmd_train(args: argparse.Namespace) -> int:
    if args.algorithm == "lcbr" and args.pairs is None:
        raise UsageError("lcbr requires --pairs")
    if args.algorithm == "lcbr" and args.naive:
        raise UsageError("--naive only applies to bbr")

    data = parse_libsvm(args.data)
    if args.sample_ratio is not None:
        data = subsample_ratio_split(
            data, args.sample_ratio, derived_seed(args.seed, ROLE_SPLIT)
        )
    data.require_trainable()

    factor = 1.0
    if args.x_star is not None:
        factor = _scores_scale_factor(data, args.x_star)
        data = _apply_factor(data, factor)

    cfg = ProblemConfig(x_star=args.x_star if args.x_star is not None else 1.0,
                        w_star=args.w_star)
    started = time.perf_counter()
    if args.algorithm == "bbr":
        build = batch_moments_naive if args.naive else batch_moments_fast
        moments = build(data)
        pairs_used = 0
        algorithm_name = "bbr-naive" if args.naive else "bbr"
    else:
        moments = subsample_moments(
            data, SubsampleConfig(s=args.pairs, seed=derived_seed(args.seed, ROLE_PAIRS))
        )
        pairs_used = args.pairs
        algorithm_name = "lcbr"
    weights, diagnostics = solve_erm(moments, cfg)
    wall_time = time.perf_counter() - started

    if args.test is not None:
        eval_data = parse_libsvm(args.test, dim_hint=data.dim)
        eval_data = _apply_factor(eval_data, factor)
        eval_weights = _pad_weights(weights, eval_data.dim)
        eval_name = "test"
    else:
        eval_data, eval_weights, eval_name = data, weights, "train"
    report = evaluate_ranker(eval_data, eval_weights)

    if args.model_out is not None:
        save_weights(_resolve_out(args.model_out), weights, args.w_star)
    if args.csv_out is not None:
        extra = {"eval_on": eval_name, "multiplier": f"{diagnostics.multiplier:.17g}"}
        if args.sample_ratio is not None:
            extra["sample_ratio"] = f"{args.sample_ratio:.17g}"
        row = ResultRow(
            experiment_id="train",
            algorithm=algorithm_name,
            dataset=Path(args.data).name,
            n1=data.n1,
            n0=data.n0,
            s=pairs_used,
            seed=args.seed,
            phi_risk=report.phi_risk,
            auc=report.auc,
            wall_time_seconds=wall_time,
            extra=extra,
        )
        write_results_csv([row], _resolve_out(args.csv_out))

    print(
        f"{algorithm_name}: n1={data.n1} n0={data.n0} dim={data.dim} "
        f"{eval_name}_auc={report.auc:.6f} {eval_name}_phi_risk={report.phi_risk:.6f} "
        f"constrained={diagnostics.constrained_active} seconds={wall_time:.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# synth-sweep


def _cmd_synth_sweep(args: argparse.Namespace) -> int:
    plan = ExperimentPlan(
        kind="synthetic-sweep",
        k_grid=args.k_grid,
        sigma_grid=args.sigma_grid,
        pairs_grid=args.pairs_grid,
        replicates=args.replicates,
        base_seed=args.base_seed,
    )
    cfg = ProblemConfig(x_star=1.0, w_star=args.w_star)
    rows: list[ResultRow] = []
    cell_seed = plan.base_seed
    for k in plan.k_grid:
        for sigma in plan.sigma_grid:
            for replicate in range(plan.replicates):
                rows.extend(
                    _synth_replicate_rows(
                        args, cfg, k, sigma, replicate, cell_seed, plan.pairs_grid
                    )
                )
                cell_seed += 1
    write_results_csv(rows, _resolve_out(args.out))
    print(f"wrote {len(rows)} rows to {_resolve_out(args.out)}")
    return 0


def _synth_replicate_rows(
    args: argparse.Namespace,
    cfg: ProblemConfig,
    k: int,
    sigma: float,
    replicate: int,
    replicate_seed: int,
    pairs_grid: tuple[int, ...],
) -> list[ResultRow]:
    """All rows of one replicate: one batch row, one row per pair budget."""
    spec = random_gmm_spec(args.dim, k, sigma, derived_seed(replicate_seed, ROLE_SPEC))
    train = sample_dataset(spec, args.n1, args.n0, derived_seed(replicate_seed, ROLE_TRAIN))
    test = sample_dataset(
        spec,
        args.test_per_class,
        args.test_per_class,
        derived_seed(replicate_seed, ROLE_TEST),
    )
    reference = optimal_phi_ranker(spec, cfg)
    population = analytic_pair_moments(spec)
    optimal_risk = expected_phi_risk(population.sigma, population.mu, reference)

    experiment = f"synth-k{k}-sigma{sigma:g}-rep{replicate}"
    shared_extra = {
        "k": str(k),
        "sigma": f"{sigma:.17g}",
        "replicate": str(replicate),
        "optimal_phi_risk": f"{optimal_risk:.17g}",
    }

    def make_row(algorithm: str, s: int, seed: int, weights, wall_time: float) -> ResultRow:
        report = evaluate_ranker(test, weights)
        return ResultRow(
            experiment_id=experiment,
            algorithm=algorithm,
            dataset="gmm",
            n1=args.n1,
            n0=args.n0,
            s=s,
            seed=seed,
            phi_risk=report.phi_risk,
            auc=report.auc,
            wall_time_seconds=wall_time,
            extra=shared_extra,
        )

    rows: list[ResultRow] = []
    started = time.perf_counter()
    batch_weights, _ = solve_erm(batch_moments_fast(train), cfg)
    rows.append(
        make_row("bbr", 0, replicate_seed, batch_weights, time.perf_counter() - started)
    )
    for s_index, s in enumerate(pairs_grid):
        pair_seed = derived_seed(replicate_seed, ROLE_PAIRS, s_index)
        started = time.perf_counter()
        moments = subsample_moments(train, SubsampleConfig(s=s, seed=pair_seed))
        weights, _ = solve_erm(moments, cfg)
        rows.append(make_row("lcbr", s, pair_seed, weights, time.perf_counter() - started))
    if args.sgd_step_size is not None:
        sgd_cfg = SgdConfig(
            step_size=args.sgd_step_size,
            pair_budget=args.sgd_budget,
            seed=derived_seed(replicate_seed, ROLE_SGD),
            w_star=cfg.w_star,
        )
        started = time.perf_counter()
        weights = train_pairwise_sgd(train, sgd_cfg)
        rows.append(
            make_row(
                "pairwise-sgd",
                args.sgd_budget,
                sgd_cfg.seed,
                weights,
                time.perf_counter() - started,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# skew-sweep


def _cmd_skew_sweep(args: argparse.Namespace) -> int:
    plan = ExperimentPlan(
        kind="skew-sweep",
        rho_grid=args.rho_grid,
        pairs_grid=(args.pairs,),
        replicates=args.replicates,
        base_seed=args.base_seed,
    )
    if args.total_n < 2:
        raise UsageError("--total-n must be at least 2 so that both classes are non-empty")
    cfg = ProblemConfig(x_star=1.0, w_star=args.w_star)
    rows: list[ResultRow] = []
    cell_seed = plan.base_seed
    for rho in plan.rho_grid:
        n1 = min(max(1, round(rho * args.total_n)), args.total_n - 1)
        n0 = args.total_n - n1
        for replicate in range(plan.replicates):
            spec = random_gmm_spec(
                args.dim, args.k, args.sigma, derived_seed(cell_seed, ROLE_SPEC)
            )
            train = sample_dataset(spec, n1, n0, derived_seed(cell_seed, ROLE_TRAIN))
            test = sample_dataset(
                spec,
                args.test_per_class,
                args.test_per_class,
                derived_seed(cell_seed, ROLE_TEST),
            )
            extra = {
                "rho": f"{rho:.17g}",
                "k": str(args.k),
                "sigma": f"{args.sigma:.17g}",
                "replicate": str(replicate),
            }

            experiment = f"skew-rho{rho:g}-rep{replicate}"
            started = time.perf_counter()
            batch_weights, _ = solve_erm(batch_moments_fast(train), cfg)
            batch_time = time.perf_counter() - started
            batch_report = evaluate_ranker(test, batch_weights)
            rows.append(
                ResultRow(
                    experiment_id=experiment,
                    algorithm="bbr",
                    dataset="gmm",
                    n1=n1,
                    n0=n0,
                    s=0,
                    seed=cell_seed,
                    phi_risk=batch_report.phi_risk,
                    auc=batch_report.auc,
                    wall_time_seconds=batch_time,
                    extra=extra,
                )
            )
            pair_seed = derived_seed(cell_seed, ROLE_PAIRS)
            started = time.perf_counter()
            moments = subsample_moments(train, SubsampleConfig(s=args.pairs, seed=pair_seed))
            sub_weights, _ = solve_erm(moments, cfg)
            sub_time = time.perf_counter() - started
            sub_report = evaluate_ranker(test, sub_weights)
            rows.append(
                ResultRow(
                    experiment_id=experiment,
                    algorithm="lcbr",
                    dataset="gmm",
                    n1=n1,
                    n0=n0,
                    s=args.pairs,
                    seed=pair_seed,
                    phi_risk=sub_report.phi_risk,
                    auc=sub_report.auc,
                    wall_time_seconds=sub_time,
                    extra=extra,
                )
            )
            cell_seed += 1
    write_results_csv(rows, _resolve_out(args.out))
    print(f"wrote {len(rows)} rows to {_resolve_out(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# bounds-table


def _cmd_bounds_table(args: argparse.Namespace) -> int:
    reports: list[BoundReport] = []
    for rho in args.rho_grid:
        for n in args.n_grid:
            for epsilon in args.epsilon_grid:
                reports.append(
                    evaluate_bounds(
                        BoundInputs(
                            dim=args.dim,
                            x_star=args.x_star,
                            w_star=args.w_star,
                            rho=rho,
                            n=n,
                            sigma_n_opnorm=args.sigma_opnorm,
                            epsilon=epsilon,
                            delta=args.delta,
                        )
                    )
                )
    out = _resolve_out(args.out)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(BoundReport.csv_header())
        for report in reports:
            writer.writerow(report.csv_row())
    print(f"wrote {len(reports)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# timing


def _best_of(repeats: int, fn: Callable[[], object]) -> tuple[float, object]:
    """Minimum wall time over `repeats` calls of fn, plus fn's last result."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best, result


def _cmd_timing(args: argparse.Namespace) -> int:
    spec = random_gmm_spec(args.dim, args.k, args.sigma, derived_seed(args.base_seed, ROLE_SPEC))
    data = sample_dataset(spec, args.n1, args.n0, derived_seed(args.base_seed, ROLE_TRAIN))
    cfg = ProblemConfig(x_star=1.0, w_star=args.w_star)

    rows: list[ResultRow] = []

    def record(algorithm: str, s: int, seed: int, accumulate_seconds: float, moments) -> None:
        solve_seconds, solved = _best_of(args.repeats, lambda: solve_erm(moments, cfg))
        weights = solved[0]
        report = evaluate_ranker(data, weights)
        rows.append(
            ResultRow(
                experiment_id=f"timing-n1{args.n1}-n0{args.n0}-d{args.dim}",
                algorithm=algorithm,
                dataset="gmm",
                n1=args.n1,
                n0=args.n0,
                s=s,
                seed=seed,
                phi_risk=report.phi_risk,
                auc=report.auc,
                wall_time_seconds=accumulate_seconds,
                extra={
                    "solve_seconds": f"{solve_seconds:.17g}",
                    "repeats": str(args.repeats),
                },
            )
        )

    naive_seconds, naive_moments = _best_of(args.repeats, lambda: batch_moments_naive(data))
    record("bbr-naive", 0, args.base_seed, naive_seconds, naive_moments)
    fast_seconds, fast_moments = _best_of(args.repeats, lambda: batch_moments_fast(data))
    record("bbr", 0, args.base_seed, fast_seconds, fast_moments)
    for s_index, s in enumerate(args.pairs_grid):
        pair_seed = derived_seed(args.base_seed, ROLE_PAIRS, s_index)
        sub_cfg = SubsampleConfig(s=s, seed=pair_seed)
        sub_seconds, sub_moments = _best_of(
            args.repeats, lambda: subsample_moments(data, sub_cfg)
        )
        record("lcbr", s, pair_seed, sub_seconds, sub_moments)

    write_results_csv(rows, _resolve_out(args.out))
    print(f"wrote {len(rows)} rows to {_resolve_out(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pairrank",
        description="Linear bipartite ranking via pair moments: train, sweep, bound, time.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    train = commands.add_parser(
        "train", help="fit one ranker on a sparse-format dataset file"
    )
    train.add_argument("algorithm", choices=("bbr", "lcbr"))
    train.add_argument("data", help="training file, sparse label index:value format")
    train.add_argument("--pairs", type=_positive_int, default=None,
                       help="pair-subsample size (lcbr only, required there)")
    train.add_argument("--seed", type=_nonnegative_int, default=0,
                       help="base seed; sub-streams are derived per role")
    train.add_argument("--naive", action="store_true",
                       help="bbr only: force the literal all-pairs accumulation")
    train.add_argument("--w-star", type=_positive_float, default=1.0,
                       help="weight-ball radius (default 1.0)")
    train.add_argument("--x-star", type=_positive_float, default=None,
                       help="when set, rescale features so every norm is <= this")
    train.add_argument("--sample-ratio", type=_ratio, default=None,
                       help="keep this fraction of examples before training")
    train.add_argument("--test", default=None,
                       help="held-out file; metrics are computed there instead")
    train.add_argument("--model-out", default=None, help="write the binary model here")
    train.add_argument("--csv-out", default=None, help="write one metrics CSV row here")
    train.set_defaults(handler=_cmd_train)

    sweep = commands.add_parser(
        "synth-sweep", help="mixture-data grid: batch vs subsampled vs optimal"
    )
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--k-grid", type=_grid(_positive_int), default=(1, 2, 3))
    sweep.add_argument("--sigma-grid", type=_grid(_positive_float), default=(2.0, 3.0, 4.0))
    sweep.add_argument("--pairs-grid", type=_grid(_positive_int),
                       default=(500, 1000, 3000, 5000))
    sweep.add_argument("--replicates", type=_positive_int, default=50)
    sweep.add_argument("--dim", type=_positive_int, default=10)
    sweep.add_argument("--n1", type=_positive_int, default=1000)
    sweep.add_argument("--n0", type=_positive_int, default=1000)
    sweep.add_argument("--test-per-class", type=_positive_int, default=10000)
    sweep.add_argument("--w-star", type=_positive_float, default=1.0)
    sweep.add_argument("--base-seed", type=_nonnegative_int, default=0)
    sweep.add_argument("--sgd-step-size", type=_positive_float, default=None,
                       help="also run the projected-SGD comparator at this step size")
    sweep.add_argument("--sgd-budget", type=_positive_int, default=5000,
                       help="pair budget for the SGD comparator")
    sweep.set_defaults(handler=_cmd_synth_sweep)

    skew = commands.add_parser(
        "skew-sweep", help="class-imbalance sweep at fixed total sample count"
    )
    skew.add_argument("--out", required=True)
    skew.add_argument("--rho-grid", type=_grid(_open_unit),
                      default=(0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95))
    skew.add_argument("--total-n", type=_positive_int, default=2000)
    skew.add_argument("--pairs", type=_positive_int, default=5000)
    skew.add_argument("--replicates", type=_positive_int, default=20)
    skew.add_argument("--dim", type=_positive_int, default=10)
    skew.add_argument("--k", type=_positive_int, default=1)
    skew.add_argument("--sigma", type=_positive_float, default=2.0)
    skew.add_argument("--test-per-class", type=_positive_int, default=10000)
    skew.add_argument("--w-star", type=_positive_float, default=1.0)
    skew.add_argument("--base-seed", type=_nonnegative_int, default=0)
    skew.set_defaults(handler=_cmd_skew_sweep)

    bounds = commands.add_parser(
        "bounds-table", help="tabulate the guarantee calculators over a grid"
    )
    bounds.add_argument("--out", required=True)
    bounds.add_argument("--dim", type=_positive_int, default=10)
    bounds.add_argument("--x-star", type=_positive_float, default=1.0)
    bounds.add_argument("--w-star", type=_positive_float, default=1.0)
    bounds.add_argument("--rho-grid", type=_grid(_open_unit), default=(0.05, 0.25, 0.5))
    bounds.add_argument("--n-grid", type=_grid(_positive_int), default=(1000, 10000, 100000))
    bounds.add_argument("--epsilon-grid", type=_grid(_positive_float), default=(0.1, 0.3, 0.5))
    bounds.add_argument("--delta", type=_open_unit, default=0.05)
    bounds.add_argument("--sigma-opnorm", type=_positive_float, default=4.0)
    bounds.set_defaults(handler=_cmd_bounds_table)

    timing = commands.add_parser(
        "timing", help="wall-clock comparison of the accumulation routes"
    )
    timing.add_argument("--out", required=True)
    timing.add_argument("--n1", type=_positive_int, default=1000)
    timing.add_argument("--n0", type=_positive_int, default=1000)
    timing.add_argument("--dim", type=_positive_int, default=10)
    timing.add_argument("--k", type=_positive_int, default=1)
    timing.add_argument("--sigma", type=_positive_float, default=2.0)
    timing.add_argument("--pairs-grid", type=_grid(_positive_int),
                        default=(500, 1000, 3000, 5000))
    timing.add_argument("--repeats", type=_positive_int, default=3)
    timing.add_argument("--w-star", type=_positive_float, default=1.0)
    timing.add_argument("--base-seed", type=_nonnegative_int, default=0)
    timing.set_defaults(handler=_cmd_timing)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"pairrank: usage error: {exc}", file=sys.stderr)
        return 1
    except (SolverConvergenceError, InvalidMomentsError, np.linalg.LinAlgError) as exc:
        print(f"pairrank: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PairRankError, OSError, ValueError) as exc:
        print(f"pairrank: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
