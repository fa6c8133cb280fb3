"""Benchmark for pairrank: three workloads, end-to-end metrics, one traced run.

Run from the repository root:

    python3 perfbench/run.py --workload file-train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload wide-path --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

Load model: closed loop, one client in one process; each op is sent after
the previous one returns.  BLAS threads are pinned to at most the number
of CPUs this process may run on, and the value is recorded.  Each
invocation measures one workload in a fresh process, so ``peak_rss_mb``
(``ru_maxrss``) belongs to that workload alone; input generation and the
reference results for the output checks run in separate set-up processes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over three fresh set-up processes of the time each
  takes to ``import pairrank`` and generate and write the inputs, plus
  loading the inputs and one untimed warm-up op (with its output check)
  in the workload process;
* ``ops_per_s``: ops that passed their checks per second of timed op time;
* ``op_s_p50``: median op wall time (the sample count is printed);
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process;
* ``auc`` / ``phi_risk``: mean held-out AUC and pairwise squared risk of the
  models trained by the run's first ops, a fixed sequence of op seeds, so
  they repeat exactly for a given ``--seed``.

The failure ratio (failed / attempted, where an op fails if it raises,
exits non-zero or fails an output check) is printed and carried by the
result's ``attempted`` and ``failed`` fields.  ``op_s_p90`` is printed for
runs of at least 100 ops, the only ones with ten samples beyond it.

``--trace 1`` alternates untraced and traced ops for ``--seconds`` and
reports per-layer metrics of the traced ops (see tracing.py) plus
``trace.overhead_ratio``, the traced median op time over the untraced
one, minus one.  Spans are written to
``.perfbench_work/<workload>-<scale>/spans-seed<N>.jsonl``.

``--smoke`` runs every workload at tiny shapes, traced and untraced, and
fails unless each metric named in BENCHMARK.json is reported with a unit
and no op fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = {"full": 3, "smoke": 1}
# Traced and untraced ops each, at least, in a traced run.
TRACE_MIN_OPS = {"full": 2, "smoke": 1}
SUBPROCESS_TIMEOUT = 170
SHOWN_FAILURES = 3


def pin_blas_threads() -> int:
    """Cap every BLAS thread variable at the CPUs available; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine_record(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = "unknown"
    cpuinfo = _read(Path("/proc/cpuinfo")).splitlines()
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": {level: caches[level] for level in ("L2", "L3") if level in caches},
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def _set_up(args: argparse.Namespace, with_reference: bool) -> float:
    """One fresh set-up process; returns the set-up time it measured."""
    command = [sys.executable, str(Path(__file__).resolve()), "--generate", "--workload",
               args.workload, "--seed", str(args.seed), "--scale", args.scale]
    if with_reference:
        command.append("--with-reference")
    done = subprocess.run(command, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed ({done.returncode}):\n{done.stderr}")
    return float(done.stdout.split()[-1])


def generate(args: argparse.Namespace) -> None:
    """Set-up process body: import pairrank, write the inputs, print the time taken.

    With --with-reference it then computes the checks' reference results,
    outside the reported time.
    """
    start = time.perf_counter()
    pin_blas_threads()
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload](
        WORK / f"{args.workload}-{args.scale}", args.seed, args.scale)
    workload.generate()
    elapsed = time.perf_counter() - start
    if args.with_reference and hasattr(workload, "prepare_reference"):
        workload.prepare_reference()
    print(elapsed)


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads
    import pairrank

    if not Path(pairrank.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pairrank was imported from {pairrank.__file__}, not {SRC}")
    return workloads


class Ops:
    """Outcome of a stretch of ops: wall times, per-op quality, failures."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.quality: list[list[tuple[float, float]] | None] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.traced_times)


def run_ops(workload, seconds: float, min_ops: int, first: int, tracer=None) -> Ops:
    """Closed loop: ops until `seconds` of op time and `min_ops` ops are done.

    With a tracer every second op is traced, so traced and untraced ops
    share the machine's slow drifts and their medians can be compared.
    """
    ops = Ops()
    index = first
    while (sum(ops.times) + sum(ops.traced_times) < seconds or len(ops.times) < min_ops
           or (tracer is not None and len(ops.traced_times) < min_ops)):
        workload.clear()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracing.install(tracer)
        error = None
        start = time.perf_counter()
        try:
            if traced:
                out = tracer.run(tracing.ROOT_SPAN, lambda: workload.op(index))
            else:
                out = workload.op(index)
        except Exception:
            error = traceback.format_exc()
        finally:
            (ops.traced_times if traced else ops.times).append(time.perf_counter() - start)
            if traced:
                tracer.restore()
        quality = None
        if error is None:
            try:
                quality = workload.check(index, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            ops.failed += 1
            if ops.failed <= SHOWN_FAILURES:
                print(f"op {index} failed:\n{error}", file=sys.stderr)
        ops.quality.append(quality)
        index += 1
    return ops


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args: argparse.Namespace) -> dict:
    nproc = pin_blas_threads()
    if not (SRC / "pairrank" / "__init__.py").is_file():
        raise RuntimeError(f"no pairrank sources under {SRC}")
    work = WORK / f"{args.workload}-{args.scale}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    repeats = SETUP_REPEATS[args.scale]
    setup_times = [_set_up(args, with_reference=k == repeats - 1) for k in range(repeats)]
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload](work, args.seed, args.scale)
    machine = machine_record(nproc)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        workload.load()
        warmup = run_ops(workload, 0.0, 1, first=-1)
        setup_s = statistics.median(setup_times) + time.perf_counter() - start
        if warmup.failed:
            raise RuntimeError("the warm-up op failed")
        if args.trace:
            tracer = tracing.Tracer()
            ops = run_ops(workload, args.seconds, TRACE_MIN_OPS[args.scale], first=0, tracer=tracer)
        else:
            ops = run_ops(workload, args.seconds, workload.quality_ops, first=0)
    attempted, failed = ops.attempted, ops.failed

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} (scale {args.scale}) seed {args.seed} trace {args.trace}: "
          f"closed loop, 1 client, BLAS threads {os.environ[BLAS_VARS[0]]}")
    print(f"  ops attempted {attempted}, failed {failed}, "
          f"fail_ratio {_fmt(failed / attempted)} ratio")
    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (
            statistics.median(ops.traced_times) / statistics.median(ops.times) - 1.0, "ratio")
        tracer.write(work / f"spans-seed{args.seed}.jsonl")
    else:
        times = ops.times
        scored = [pair for op in ops.quality[: workload.quality_ops] if op for pair in op]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "auc": (statistics.fmean(a for a, _ in scored) if scored else 0.0, "ratio"),
            "phi_risk": (statistics.fmean(p for _, p in scored) if scored else 0.0, "loss"),
        }
        print(f"  op_s_p50 over {len(times)} ops (min {_fmt(min(times))}, max {_fmt(max(times))} s); "
              f"set-up processes {' '.join(_fmt(t) for t in setup_times)} s")
        if len(times) >= 100:
            print(f"  op_s_p90 {_fmt(statistics.quantiles(times, n=10)[8])} s")
    computed = set(tracing.COMPUTED) if args.trace else set()
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {_fmt(value):>12s} {unit}" + ("  [computed]" if name in computed else ""))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_smoke() -> int:
    """Every workload at tiny shapes, untraced and traced; checks the metric set."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload",
                       workload["name"], "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
                       "--scale", "smoke"]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT)
            problems = []
            if done.returncode != 0:
                problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-2000:]}")
            else:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if result["failed"] or not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{result['failed']} of {result['attempted']} ops failed")
                for metric in expected:
                    got = result["metrics"].get(metric["name"])
                    if not got or not got.get("unit") or not isinstance(got.get("value"), (int, float)):
                        problems.append(f"metric {metric['name']} missing or without a unit")
            ok = ok and not problems
            print(f"smoke {workload['name']} trace {trace}: " + ("ok" if not problems else "; ".join(problems)))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("file-train", "synth-sweep", "wide-path"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="quick self-test of every workload")
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--with-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return run_smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.generate:
        generate(args)
        return 0
    try:
        result = run_workload(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
