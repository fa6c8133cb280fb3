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

Every command that trains goes through :func:`_fit` (pair moments,
then the ball-constrained solve, timed) and :func:`_row` (evaluation and
the CSV row).  The three mixture commands draw each replicate's spec and
training set with :func:`_draw_mixture`; both sweeps fit a replicate's
bbr and lcbr rows with :func:`_fit_rows`.  ``train --x-star`` scales
the training set by :func:`~pairrank.core.scale_to_ball`'s factor and
the ``--test`` set by the same factor.  ``train`` holds its rows sparse:
``parse_libsvm``'s loader keeps the rows ``--sample-ratio`` keeps as CSR,
scales their values in place and freezes them; the fit and the
evaluation densify one block of rows at a time.
``--test`` is read and scaled the same way before the fit, so a bad file
fails before any moment is built.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed input, untrainable dataset, unwritable output path, an input
too large to allocate), 3 numerical failure (solver non-convergence, a
multiplier or guarantee value beyond the float range, invalid moments).
A warning raised under a command prints as one ``pairrank: warning:``
line on stderr.

Determinism: every command takes seeds explicitly.  Sub-streams (spec,
train, test, pair, SGD and split draws) come from the command seed via
numpy's SeedSequence with fixed role indices.  Runs are bit-reproducible
end to end, apart from wall-time CSV columns, for one numpy build, BLAS
and BLAS thread count (the solver's eigh depends on all three).  Sweep
replicate i (from 0, in grid order) takes ``--base-seed + i`` as its seed.

Model file format (bit-exact): 8-byte magic ``PAIRRANK``, version as
little-endian uint32 (currently 1), dimension D as little-endian
uint32, the training weight-ball radius as little-endian float64, then
D little-endian float64 weights.  Total size 24 + 8 D bytes.

The environment variable ``PAIRRANK_OUT_DIR``, when set, prefixes
relative output paths (model files and CSVs).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import struct
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

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
from .io import ResultRow, _read_dataset, csv_cells, write_csv, write_results_csv
from .moments import (
    SubsampleConfig,
    batch_moments_fast,
    batch_moments_naive,
    subsample_moments,
)
from .solver import SolveDiagnostics, solve_erm
from .synth import GmmSpec, analytic_pair_moments, random_gmm_spec, sample_dataset

__all__ = [
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


class UsageError(PairRankError):
    """Flag combinations argparse cannot express; maps to exit code 1."""


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
    return RankerWeights(vector), float(w_star)


def _resolve_out(path: str) -> Path:
    base = os.environ.get("PAIRRANK_OUT_DIR")
    resolved = Path(path)
    if base and not resolved.is_absolute():
        resolved = Path(base) / resolved
    return resolved


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


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


# ---------------------------------------------------------------------------
# fit -> evaluate -> row, shared by every command that trains


class _Fit(NamedTuple):
    """Solved weights, the solver's certificate, and the two stage times."""

    weights: RankerWeights
    diagnostics: SolveDiagnostics
    moment_seconds: float
    solve_seconds: float


def _fit(train: Dataset, cfg: ProblemConfig, algorithm: str, s: int, seed: int) -> _Fit:
    """Moments of `train` by `algorithm` (bbr's all pairs, bbr-naive's literal
    sum over them, or lcbr's s pairs drawn with `seed`), then the solve, timed."""
    started = time.perf_counter()
    if algorithm == "bbr":
        moments = batch_moments_fast(train)
    elif algorithm == "bbr-naive":
        moments = batch_moments_naive(train)
    elif algorithm == "lcbr":
        moments = subsample_moments(train, SubsampleConfig(s=s, seed=seed))
    else:
        raise ValueError(f"no moment route named {algorithm!r}")
    built = time.perf_counter()
    weights, diagnostics = solve_erm(moments, cfg)
    return _Fit(weights, diagnostics, built - started, time.perf_counter() - built)


def _row(
    experiment: str,
    algorithm: str,
    dataset: str,
    counts: tuple[int, int],
    s: int,
    seed: int,
    weights: RankerWeights,
    evaluate_on: Dataset,
    seconds: float,
    extra: dict[str, object],
) -> ResultRow:
    """Evaluate `weights` on `evaluate_on`; `counts` is the training set's (n1, n0)."""
    report = evaluate_ranker(evaluate_on, weights)
    return ResultRow(
        experiment_id=experiment,
        algorithm=algorithm,
        dataset=dataset,
        n1=counts[0],
        n0=counts[1],
        s=s,
        seed=seed,
        phi_risk=report.phi_risk,
        auc=report.auc,
        wall_time_seconds=seconds,
        extra=extra,
    )


def _write_out(out: str, rows: list, write: Callable[[list, Path], None]) -> int:
    """Write `rows` to `out` (under PAIRRANK_OUT_DIR if set) with `write`, and say where."""
    path = _resolve_out(out)
    write(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# train


def _cmd_train(args: argparse.Namespace) -> int:
    if args.algorithm == "lcbr" and args.pairs is None:
        raise UsageError("lcbr requires --pairs")
    if args.algorithm == "bbr" and args.pairs is not None:
        raise UsageError("--pairs only applies to lcbr")

    split = (args.sample_ratio or 1.0, derived_seed(args.seed, ROLE_SPLIT))
    data, factor = _read_dataset(args.data, split=split, x_star=args.x_star)
    n1, n0, dim = data.n1, data.n0, data.dim
    held, eval_name = data, "train"
    if args.test is not None:
        # Read before the fit, so a bad file fails before any moment is built.
        held, eval_name = _read_dataset(args.test, dim_hint=dim, factor=factor)[0], "test"
        if held.n1 == 0 or held.n0 == 0:
            raise PairRankError(f"--test file {args.test} needs both classes non-empty for "
                                f"evaluation, got n1={held.n1}, n0={held.n0}")

    cfg = ProblemConfig(x_star=args.x_star or 1.0, w_star=args.w_star)
    s = args.pairs or 0
    fit = _fit(data, cfg, args.algorithm, s, derived_seed(args.seed, ROLE_PAIRS))
    seconds = fit.moment_seconds + fit.solve_seconds

    # Features that only the test file names get weight zero.
    weights = RankerWeights(np.pad(fit.weights.w, (0, held.dim - dim)))
    extra = {"eval_on": eval_name, "multiplier": fit.diagnostics.multiplier}
    if args.sample_ratio is not None:
        extra["sample_ratio"] = args.sample_ratio
    row = _row("train", args.algorithm, Path(args.data).name, (n1, n0), s, args.seed,
               weights, held, seconds, extra)

    if args.model_out is not None:
        save_weights(_resolve_out(args.model_out), fit.weights, args.w_star)
    if args.csv_out is not None:
        write_results_csv([row], _resolve_out(args.csv_out))

    print(
        f"{args.algorithm}: n1={n1} n0={n0} dim={dim} "
        f"{eval_name}_auc={row.auc:.6f} {eval_name}_phi_risk={row.phi_risk:.6f} "
        f"constrained={fit.diagnostics.constrained_active} seconds={seconds:.3f}"
    )
    return 0


# ---------------------------------------------------------------------------
# mixture replicates: synth-sweep, skew-sweep and timing


def _draw_mixture(dim: int, k: int, sigma: float, n1: int, n0: int,
                  seed: int) -> tuple[GmmSpec, Dataset]:
    """A replicate's mixture spec and training set, drawn from `seed`'s spec and train roles."""
    spec = random_gmm_spec(dim, k, sigma, derived_seed(seed, ROLE_SPEC))
    return spec, sample_dataset(spec, n1, n0, derived_seed(seed, ROLE_TRAIN))


def _fit_rows(experiment: str, train: Dataset, test: Dataset, cfg: ProblemConfig, seed: int,
              pair_draws: list[tuple[int, int]], extra: dict[str, object]) -> list[ResultRow]:
    """A bbr row seeded `seed`, then one lcbr row per (s, pair seed) in `pair_draws`, on `test`."""
    rows: list[ResultRow] = []
    routes = [("bbr", 0, seed)] + [("lcbr", s, pair_seed) for s, pair_seed in pair_draws]
    for algorithm, s, row_seed in routes:
        fit = _fit(train, cfg, algorithm, s, row_seed)
        rows.append(_row(experiment, algorithm, "gmm", (train.n1, train.n0), s, row_seed,
                         fit.weights, test, fit.moment_seconds + fit.solve_seconds, extra))
    return rows


def _cmd_synth_sweep(args: argparse.Namespace) -> int:
    if args.sgd_budget is not None and args.sgd_step_size is None:
        raise UsageError("--sgd-budget only applies with --sgd-step-size")
    cfg = ProblemConfig(x_star=1.0, w_star=args.w_star)
    rows: list[ResultRow] = []
    grid = itertools.product(args.k_grid, args.sigma_grid, range(args.replicates))
    for seed, (k, sigma, replicate) in enumerate(grid, start=args.base_seed):
        spec, train = _draw_mixture(args.dim, k, sigma, args.n1, args.n0, seed)
        test = sample_dataset(
            spec, args.test_per_class, args.test_per_class, derived_seed(seed, ROLE_TEST)
        )
        population = analytic_pair_moments(spec)
        optimal, _ = solve_erm(population, cfg)
        optimum = expected_phi_risk(population, optimal)
        extra = {"k": k, "sigma": sigma, "replicate": replicate, "optimal_phi_risk": optimum}
        experiment = f"synth-k{k}-sigma{sigma:g}-rep{replicate}"
        pair_draws = [
            (s, derived_seed(seed, ROLE_PAIRS, s_index))
            for s_index, s in enumerate(args.pairs_grid)
        ]
        rows.extend(_fit_rows(experiment, train, test, cfg, seed, pair_draws, extra))
        if args.sgd_step_size is not None:
            sgd = SgdConfig(
                step_size=args.sgd_step_size,
                pair_budget=args.sgd_budget or 5000,
                seed=derived_seed(seed, ROLE_SGD),
                w_star=args.w_star,
            )
            started = time.perf_counter()
            weights = train_pairwise_sgd(train, sgd)
            rows.append(_row(experiment, "pairwise-sgd", "gmm", (train.n1, train.n0),
                             sgd.pair_budget, sgd.seed, weights, test,
                             time.perf_counter() - started, extra))
    return _write_out(args.out, rows, write_results_csv)


def _cmd_skew_sweep(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(x_star=1.0, w_star=args.w_star)
    rows: list[ResultRow] = []
    grid = itertools.product(args.rho_grid, range(args.replicates))
    for seed, (rho, replicate) in enumerate(grid, start=args.base_seed):
        n1 = min(max(1, round(rho * args.total_n)), args.total_n - 1)
        spec, train = _draw_mixture(args.dim, args.k, args.sigma, n1, args.total_n - n1, seed)
        test = sample_dataset(
            spec, args.test_per_class, args.test_per_class, derived_seed(seed, ROLE_TEST)
        )
        extra = {"rho": rho, "k": args.k, "sigma": args.sigma, "replicate": replicate}
        pair_draws = [(args.pairs, derived_seed(seed, ROLE_PAIRS))]
        rows.extend(_fit_rows(f"skew-rho{rho:g}-rep{replicate}", train, test, cfg, seed,
                              pair_draws, extra))
    return _write_out(args.out, rows, write_results_csv)


def _cmd_timing(args: argparse.Namespace) -> int:
    """Best-of-repeats moment and solve times per route, evaluated on the training set."""
    _, data = _draw_mixture(args.dim, args.k, args.sigma, args.n1, args.n0, args.base_seed)
    cfg = ProblemConfig(x_star=1.0, w_star=args.w_star)
    routes = [("bbr-naive", 0, args.base_seed), ("bbr", 0, args.base_seed)] + [
        ("lcbr", s, derived_seed(args.base_seed, ROLE_PAIRS, s_index))
        for s_index, s in enumerate(args.pairs_grid)
    ]
    rows: list[ResultRow] = []
    for algorithm, s, seed in routes:
        fits = [_fit(data, cfg, algorithm, s, seed) for _ in range(args.repeats)]
        extra = {"solve_seconds": min(fit.solve_seconds for fit in fits), "repeats": args.repeats}
        rows.append(_row(f"timing-n1{args.n1}-n0{args.n0}-d{args.dim}", algorithm, "gmm",
                         (data.n1, data.n0), s, seed, fits[-1].weights, data,
                         min(fit.moment_seconds for fit in fits), extra))
    return _write_out(args.out, rows, write_results_csv)


# ---------------------------------------------------------------------------
# bounds-table


def _cmd_bounds_table(args: argparse.Namespace) -> int:
    header = [f.name for cls in (BoundInputs, BoundReport) for f in fields(cls)]
    grid = [
        BoundInputs(dim=args.dim, n=n, x_star=args.x_star, w_star=args.w_star, rho=rho,
                    sigma_n_opnorm=args.sigma_opnorm, epsilon=epsilon, delta=args.delta)
        for rho in args.rho_grid
        for n in args.n_grid
        for epsilon in args.epsilon_grid
    ]
    rows = [csv_cells(inputs) + csv_cells(evaluate_bounds(inputs)) for inputs in grid]
    return _write_out(args.out, rows, lambda cells, path: write_csv(path, header, cells))


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Parsing leaves it unchanged: each call fills a new namespace.
    """
    parser = argparse.ArgumentParser(
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
    train.add_argument("--w-star", type=_positive_float, default=1.0,
                       help="weight-ball radius (default 1.0)")
    train.add_argument("--x-star", type=_positive_float, default=None,
                       help="when set, scale the training features by one common factor "
                            "so every norm is <= this; --test is scaled by the same factor")
    train.add_argument("--sample-ratio", type=_ratio, default=None,
                       help="keep this fraction of examples before training")
    train.add_argument("--test", default=None,
                       help="held-out file; metrics are computed there instead")
    train.add_argument("--model-out", default=None, help="write the binary model here")
    train.add_argument("--csv-out", default=None, help="write one metrics CSV row here")
    train.set_defaults(handler=_cmd_train)

    def add_csv_command(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        """A subcommand writing one CSV, with the --out, --dim and --w-star flags all share."""
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--out", required=True, help="output CSV path")
        command.add_argument("--dim", type=_positive_int, default=10)
        command.add_argument("--w-star", type=_positive_float, default=1.0)
        command.set_defaults(handler=handler)
        return command

    sweep = add_csv_command(
        "synth-sweep", _cmd_synth_sweep, "mixture-data grid: batch vs subsampled vs optimal"
    )
    sweep.add_argument("--k-grid", type=_grid(_positive_int), default=(1, 2, 3))
    sweep.add_argument("--sigma-grid", type=_grid(_positive_float), default=(2.0, 3.0, 4.0))
    sweep.add_argument("--pairs-grid", type=_grid(_positive_int),
                       default=(500, 1000, 3000, 5000))
    sweep.add_argument("--replicates", type=_positive_int, default=50)
    sweep.add_argument("--n1", type=_positive_int, default=1000)
    sweep.add_argument("--n0", type=_positive_int, default=1000)
    sweep.add_argument("--test-per-class", type=_positive_int, default=10000)
    sweep.add_argument("--base-seed", type=_nonnegative_int, default=0)
    sweep.add_argument("--sgd-step-size", type=_positive_float, default=None,
                       help="also run the projected-SGD comparator at this step size")
    sweep.add_argument("--sgd-budget", type=_positive_int, default=None,
                       help="pair budget for the SGD comparator (default 5000; "
                            "needs --sgd-step-size)")

    skew = add_csv_command(
        "skew-sweep", _cmd_skew_sweep, "class-imbalance sweep at fixed total sample count"
    )
    skew.add_argument("--rho-grid", type=_grid(_open_unit),
                      default=(0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95))
    skew.add_argument("--total-n", type=_int_at_least(2), default=2000,
                      help="examples per replicate, at least 2 so both classes are non-empty")
    skew.add_argument("--pairs", type=_positive_int, default=5000)
    skew.add_argument("--replicates", type=_positive_int, default=20)
    skew.add_argument("--k", type=_positive_int, default=1)
    skew.add_argument("--sigma", type=_positive_float, default=2.0)
    skew.add_argument("--test-per-class", type=_positive_int, default=10000)
    skew.add_argument("--base-seed", type=_nonnegative_int, default=0)

    bounds = add_csv_command(
        "bounds-table", _cmd_bounds_table, "tabulate the guarantee calculators over a grid"
    )
    bounds.add_argument("--x-star", type=_positive_float, default=1.0)
    bounds.add_argument("--rho-grid", type=_grid(_open_unit), default=(0.05, 0.25, 0.5))
    bounds.add_argument("--n-grid", type=_grid(_positive_int), default=(1000, 10000, 100000))
    bounds.add_argument("--epsilon-grid", type=_grid(_positive_float), default=(0.1, 0.3, 0.5))
    bounds.add_argument("--delta", type=_open_unit, default=0.05)
    bounds.add_argument("--sigma-opnorm", type=_positive_float, default=4.0)

    timing = add_csv_command("timing", _cmd_timing, "wall-clock comparison of the accumulation routes")
    timing.add_argument("--n1", type=_positive_int, default=1000)
    timing.add_argument("--n0", type=_positive_int, default=1000)
    timing.add_argument("--k", type=_positive_int, default=1)
    timing.add_argument("--sigma", type=_positive_float, default=2.0)
    timing.add_argument("--pairs-grid", type=_grid(_positive_int),
                        default=(500, 1000, 3000, 5000))
    timing.add_argument("--repeats", type=_positive_int, default=3)
    timing.add_argument("--base-seed", type=_nonnegative_int, default=0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage failure, and 0 after --help.
        return 1 if exc.code else 0
    try:
        # The parser, PairMoments and the metrics name every non-finite
        # result; numpy's overflow warnings would only precede that message.
        # Other warnings print as one line each, without a source line.
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"pairrank: warning: {message}",
                                                             file=sys.stderr)
            return args.handler(args)
    except UsageError as exc:
        print(f"pairrank: usage error: {exc}", file=sys.stderr)
        return 1
    except (SolverConvergenceError, InvalidMomentsError, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        print(f"pairrank: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (PairRankError, OSError, ValueError, MemoryError) as exc:
        print(f"pairrank: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
