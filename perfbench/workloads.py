"""The benchmark's three workloads: inputs, the timed op, and output checks.

Each workload has the same life cycle:

* ``generate`` runs in a fresh set-up process and writes the workload's
  inputs into the work directory;
* ``prepare_reference`` (file-train only) runs after it in the last set-up
  process, outside the set-up time, and stores the reference results the
  checks compare against, so the reference's memory never counts toward
  the workload's peak RSS;
* ``load`` reads the inputs into the workload process;
* ``op(i)`` is the timed call into pairrank; ``check(i, out)`` runs after
  it, outside the timed interval, raises ``CheckFailed`` on a wrong
  output and returns the (auc, phi_risk) of every model the op trained.

Why these three (each stresses different layers; see BENCHMARK.json):

* file-train is the real-data user path, dominated by LIBSVM parsing,
  and the only one that splits, scales and writes model and CSV files.
* synth-sweep is the paper's experiment: many tiny calls where
  evaluation, the SGD comparator and sampling do the work and the
  trainers' moments and solves are a few percent, so a trainer
  optimisation should show no change there.
* wide-path is a library user tuning the weight radius at d = 600:
  no parsing, dominated by the s d^2 moment pass and the O(d^3) solves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

import pairrank.cli as cli
from pairrank import core, evaluation, moments, solver, synth
from pairrank.io import RESULT_CSV_HEADER

# Reassociation-level slack: a change that reorders sums passes, a wrong
# answer does not.
REL_TOL = 1e-7
KKT_TOL = 1e-8
NORM_SLACK = 1e-9


class CheckFailed(Exception):
    """An op's output differs from what the program must produce."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value: float, expected: float, what: str) -> None:
    _require(abs(value - expected) <= REL_TOL * max(1.0, abs(expected)),
             f"{what}: got {value!r}, reference {expected!r}")


def _check_auc(value: float, pos_scores: np.ndarray, neg_scores: np.ndarray, what: str) -> None:
    lo, hi = reference.auc_interval(pos_scores, neg_scores)
    _require(lo - 1e-12 <= value <= hi + 1e-12, f"{what}: auc {value!r} outside [{lo!r}, {hi!r}]")


def _read_results(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows) and tuple(rows[0]) == RESULT_CSV_HEADER,
             f"{path.name}: header is not RESULT_CSV_HEADER")
    return [dict(zip(RESULT_CSV_HEADER, row)) for row in rows[1:]]


# ---------------------------------------------------------------------------
# file-train


# a9a one-hot encodes 14 attributes into 123 binary columns; rows carry
# 13 or 14 ones and about 24 % are positive.
GROUP_SIZES = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41)
DIM = sum(GROUP_SIZES)
MISSING = np.array([0, .02, 0, 0, 0, 0, .02, 0, 0, 0, 0, 0, 0, .02])
POSITIVE_SHARE = 0.24
# Fixes the generating models of file-train and wide-path, so the
# workload seed only draws rows and quality varies little between seeds.
TASK_SEED = 20191201


def a9a_like(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense binary rows, their labels, and the column of each row's ones."""
    task = np.random.default_rng(TASK_SEED)
    probs = [task.dirichlet(np.full(size, 0.6)) for size in GROUP_SIZES]
    w_true = task.standard_normal(DIM)
    rng = np.random.default_rng(seed)
    offsets = np.cumsum((0,) + GROUP_SIZES[:-1])
    cols = np.stack([off + rng.choice(size, size=rows, p=p)
                     for off, size, p in zip(offsets, GROUP_SIZES, probs)], axis=1)
    cols[rng.random(cols.shape) < MISSING] = -1
    x = np.zeros((rows, DIM))
    r, c = np.nonzero(cols >= 0)
    x[r, cols[r, c]] = 1.0
    z = x @ w_true + rng.logistic(size=rows)
    return x, z > np.quantile(z, 1.0 - POSITIVE_SHARE), cols


@dataclass(frozen=True)
class FileTrainShape:
    train_rows: int
    test_rows: int
    pairs: int
    sample_ratio: float = 0.8


class FileTrain:
    name = "file-train"
    quality_ops = 1  # every op trains the same two models
    shapes = {"full": FileTrainShape(32561, 16281, 100_000),
              "smoke": FileTrainShape(1500, 700, 3000)}
    W_STAR = 1.0

    def __init__(self, work: Path, seed: int, scale: str) -> None:
        self.work, self.seed, self.shape = work, seed, self.shapes[scale]
        self.train, self.test = work / "train.svm", work / "test.svm"
        self.algorithms = {
            "bbr": [],
            "lcbr": ["--pairs", str(self.shape.pairs), "--sample-ratio", str(self.shape.sample_ratio)],
        }

    def _rows(self):
        shape = self.shape
        return a9a_like(self.seed, shape.train_rows + shape.test_rows)

    def generate(self) -> None:
        _, labels, cols = self._rows()
        cut = self.shape.train_rows
        for path, part in ((self.train, slice(0, cut)), (self.test, slice(cut, None))):
            lines = [("+1 " if label else "-1 ") + " ".join(f"{c + 1}:1" for c in row if c >= 0)
                     for label, row in zip(labels[part].tolist(), cols[part].tolist())]
            path.write_text("\n".join(lines) + "\n", encoding="ascii")

    def prepare_reference(self) -> None:
        x, labels, _ = self._rows()
        cut = self.shape.train_rows
        train_pos, train_neg = x[:cut][labels[:cut]], x[:cut][~labels[:cut]]
        out = {"test_pos": x[cut:][labels[cut:]], "test_neg": x[cut:][~labels[cut:]]}
        for name in self.algorithms:
            pos, neg = train_pos, train_neg
            if name == "lcbr":
                keep_pos, keep_neg = reference.split_indices(
                    len(pos), len(neg), self.shape.sample_ratio,
                    reference.derived_seed(0, 5))
                pos, neg = pos[keep_pos], neg[keep_neg]
            # --x-star 1: one shared factor puts every training row in the unit ball
            factor = min(1.0, 1.0 / max(np.linalg.norm(pos, axis=1).max(),
                                        np.linalg.norm(neg, axis=1).max()))
            pos, neg = pos * factor, neg * factor
            if name == "bbr":
                mu, sigma = reference.all_pair_moments(pos, neg)
            else:
                i_idx, j_idx = reference.pair_indices(
                    reference.derived_seed(0, 3), self.shape.pairs, len(pos), len(neg))
                mu, sigma = reference.sampled_pair_moments(pos, neg, i_idx, j_idx)
            out[f"{name}_w"] = reference.solve_ball(mu, sigma, self.W_STAR)
            out[f"{name}_factor"] = np.float64(factor)
            out[f"{name}_counts"] = np.array([len(pos), len(neg)])
        np.savez(self.work / "reference.npz", **out)

    def load(self) -> None:
        with np.load(self.work / "reference.npz") as saved:
            self.ref = dict(saved)

    def _outputs(self, name: str) -> tuple[Path, Path]:
        return self.work / f"model-{name}.bin", self.work / f"result-{name}.csv"

    def clear(self) -> None:
        for name in self.algorithms:
            for path in self._outputs(name):
                path.unlink(missing_ok=True)

    def op(self, i: int) -> list[int]:
        codes = []
        for name, extra in self.algorithms.items():
            model, result = self._outputs(name)
            codes.append(cli.main(["train", name, str(self.train), "--test", str(self.test),
                                   "--x-star", "1", "--model-out", str(model),
                                   "--csv-out", str(result), *extra]))
        return codes

    def check(self, i: int, codes: list[int]) -> list[tuple[float, float]]:
        quality = []
        for (name, _), code in zip(self.algorithms.items(), codes):
            _require(code == 0, f"train {name} exited with {code}")
            model, result = self._outputs(name)
            _require(model.stat().st_size == 24 + 8 * DIM, f"{model.name} has the wrong size")
            weights, w_star = cli.load_weights(model)
            w, w_ref = weights.w, self.ref[f"{name}_w"]
            _require(w_star == self.W_STAR and np.linalg.norm(w) <= w_star * (1 + NORM_SLACK),
                     f"{name}: weight norm {np.linalg.norm(w)!r} exceeds radius {w_star!r}")
            _require(np.linalg.norm(w - w_ref) <= REL_TOL * np.linalg.norm(w_ref),
                     f"{name}: weights differ from the reference solve")
            rows = _read_results(result)
            _require(len(rows) == 1, f"{result.name}: expected one row, got {len(rows)}")
            row = rows[0]
            n1, n0 = self.ref[f"{name}_counts"]
            _require((row["algorithm"], int(row["n1"]), int(row["n0"])) == (name, n1, n0),
                     f"{result.name}: algorithm or class counts differ")
            factor = float(self.ref[f"{name}_factor"])
            pos_scores = self.ref["test_pos"] @ w * factor
            neg_scores = self.ref["test_neg"] @ w * factor
            auc, phi = float(row["auc"]), float(row["phi_risk"])
            _check_auc(auc, pos_scores, neg_scores, name)
            _close(phi, reference.phi_risk(pos_scores, neg_scores), f"{name} phi_risk")
            quality.append((auc, phi))
        return quality


# ---------------------------------------------------------------------------
# synth-sweep


@dataclass(frozen=True)
class SweepShape:
    n: int
    test_per_class: int
    pairs_grid: tuple[int, ...]
    sgd_budget: int
    dim: int = 10
    sgd_step: float = 0.001


class SynthSweep:
    name = "synth-sweep"
    shapes = {"full": SweepShape(1000, 10000, (500, 1000, 3000, 5000), 5000),
              "smoke": SweepShape(150, 600, (50, 100), 300)}
    # (components, noise scale) cycles with the op index
    CELLS = ((1, 2.0), (1, 4.0), (3, 2.0), (3, 4.0))
    W_STAR = 1.0

    def __init__(self, work: Path, seed: int, scale: str) -> None:
        self.work, self.seed, self.shape = work, seed, self.shapes[scale]
        self.out = work / "sweep.csv"
        self.quality_ops = 96 if scale == "full" else 4

    def generate(self) -> None:
        """Inputs are the CLI arguments; nothing to write."""

    def load(self) -> None:
        pass

    def clear(self) -> None:
        self.out.unlink(missing_ok=True)

    def _cell(self, i: int) -> tuple[int, float, int]:
        k, sigma = self.CELLS[i % len(self.CELLS)]
        return k, sigma, self.seed * 1_000_000 + i + 1

    def op(self, i: int) -> int:
        k, sigma, base = self._cell(i)
        shape = self.shape
        return cli.main([
            "synth-sweep", "--out", str(self.out), "--k-grid", str(k), "--sigma-grid", f"{sigma:g}",
            "--replicates", "1", "--base-seed", str(base), "--dim", str(shape.dim),
            "--n1", str(shape.n), "--n0", str(shape.n), "--test-per-class", str(shape.test_per_class),
            "--pairs-grid", ",".join(map(str, shape.pairs_grid)), "--w-star", str(self.W_STAR),
            "--sgd-step-size", str(shape.sgd_step), "--sgd-budget", str(shape.sgd_budget)])

    def _expected(self, i: int):
        """(algorithm, s, seed, weights) per CSV row, and the test classes."""
        k, sigma, base = self._cell(i)
        shape = self.shape
        spec_seed = reference.derived_seed(base, 0)
        pos, neg = reference.gmm_dataset(shape.dim, k, sigma, spec_seed, shape.n, shape.n,
                                         reference.derived_seed(base, 1))
        rows = [("bbr", 0, base, reference.solve_ball(*reference.all_pair_moments(pos, neg),
                                                      self.W_STAR))]
        for index, s in enumerate(shape.pairs_grid):
            pair_seed = reference.derived_seed(base, 3, index)
            mu, sig = reference.sampled_pair_moments(
                pos, neg, *reference.pair_indices(pair_seed, s, shape.n, shape.n))
            rows.append(("lcbr", s, pair_seed, reference.solve_ball(mu, sig, self.W_STAR)))
        sgd_seed = reference.derived_seed(base, 4)
        rows.append(("pairwise-sgd", shape.sgd_budget, sgd_seed, reference.pairwise_sgd(
            pos, neg, shape.sgd_step, shape.sgd_budget, sgd_seed, self.W_STAR)))
        test = reference.gmm_dataset(shape.dim, k, sigma, spec_seed, shape.test_per_class,
                                     shape.test_per_class, reference.derived_seed(base, 2))
        return rows, test

    def check(self, i: int, code: int) -> list[tuple[float, float]]:
        _require(code == 0, f"synth-sweep exited with {code}")
        rows = _read_results(self.out)
        expected, (test_pos, test_neg) = self._expected(i)
        _require(len(rows) == len(expected), f"expected {len(expected)} rows, got {len(rows)}")
        quality = []
        for row, (algorithm, s, seed, w) in zip(rows, expected):
            what = f"{algorithm} s={s}"
            _require((row["algorithm"], int(row["s"]), int(row["seed"])) == (algorithm, s, seed),
                     f"row {row['algorithm']} s={row['s']} seed={row['seed']}, expected {what}")
            auc, phi = float(row["auc"]), float(row["phi_risk"])
            _require(0.0 <= auc <= 1.0, f"{what}: auc {auc!r} outside [0, 1]")
            pos_scores, neg_scores = test_pos @ w, test_neg @ w
            _check_auc(auc, pos_scores, neg_scores, what)
            _close(phi, reference.phi_risk(pos_scores, neg_scores), f"{what} phi_risk")
            quality.append((auc, phi))
        return quality


# ---------------------------------------------------------------------------
# wide-path


@dataclass(frozen=True)
class WideShape:
    dim: int
    n: int
    held_per_class: int
    pairs: int
    k: int = 2
    sigma: float = 14.0


class WidePath:
    name = "wide-path"
    quality_ops = 3
    shapes = {"full": WideShape(600, 1200, 500, 8000), "smoke": WideShape(60, 150, 100, 800)}
    # weight radii as multiples of the unconstrained minimiser's norm:
    # four boundary solves and two interior ones per moment route
    PATH = (0.05, 0.2, 0.5, 0.8, 2.0, 5.0)

    def __init__(self, work: Path, seed: int, scale: str) -> None:
        self.work, self.seed, self.shape = work, seed, self.shapes[scale]
        if scale == "smoke":
            self.quality_ops = 1

    def generate(self) -> None:
        # At n / d = 2 the trained models' quality swings between data
        # draws, so the data are fixed and the workload seed draws the
        # pair subsamples; the timed work does not depend on the values.
        shape = self.shape
        spec = synth.random_gmm_spec(shape.dim, shape.k, shape.sigma, TASK_SEED)
        train = synth.sample_dataset(spec, shape.n, shape.n, TASK_SEED + 1)
        held = synth.sample_dataset(spec, shape.held_per_class, shape.held_per_class, TASK_SEED + 2)
        np.savez(self.work / "gmm.npz", train_pos=train.positives, train_neg=train.negatives,
                 held_pos=held.positives, held_neg=held.negatives)

    def load(self) -> None:
        with np.load(self.work / "gmm.npz") as saved:
            arrays = dict(saved)
        self.train = core.Dataset.from_arrays(arrays["train_pos"], arrays["train_neg"])
        self.held = core.Dataset.from_arrays(arrays["held_pos"], arrays["held_neg"])
        self.batch_ref = reference.all_pair_moments(self.train.positives, self.train.negatives)
        unconstrained = np.linalg.lstsq(self.batch_ref[1], self.batch_ref[0], rcond=None)[0]
        self.radii = [f * float(np.linalg.norm(unconstrained)) for f in self.PATH]

    def clear(self) -> None:
        pass

    def _pair_seed(self, i: int) -> int:
        return reference.derived_seed(self.seed, i + 1)

    def op(self, i: int) -> dict:
        routes = {
            "batch": moments.batch_moments_fast(self.train),
            "subsample": moments.subsample_moments(
                self.train, moments.SubsampleConfig(s=self.shape.pairs, seed=self._pair_seed(i))),
        }
        out = {}
        for route, pair_moments in routes.items():
            fits = []
            for radius in self.radii:
                weights, diagnostics = solver.solve_erm(
                    pair_moments, core.ProblemConfig(x_star=1.0, w_star=radius))
                fits.append((radius, weights, diagnostics,
                             evaluation.auc_fast(self.held, weights)))
            best = max(fits, key=lambda fit: fit[3])
            out[route] = (pair_moments, fits, evaluation.evaluate_ranker(self.held, best[1]),
                          best[1])
        return out

    def check(self, i: int, out: dict) -> list[tuple[float, float]]:
        train = self.train
        i_idx, j_idx = reference.pair_indices(self._pair_seed(i), self.shape.pairs,
                                              train.n1, train.n0)
        refs = {"batch": self.batch_ref,
                "subsample": reference.sampled_pair_moments(train.positives, train.negatives,
                                                            i_idx, j_idx)}
        quality = []
        for route, (pair_moments, fits, report, best) in out.items():
            mu, sigma = pair_moments.mu, pair_moments.sigma
            mu_ref, sigma_ref = refs[route]
            _require(np.linalg.norm(mu - mu_ref) <= REL_TOL * np.linalg.norm(mu_ref)
                     and np.abs(sigma - sigma_ref).max() <= REL_TOL * np.abs(sigma_ref).max(),
                     f"{route}: moments differ from the reference")
            kkt_cap = KKT_TOL * (1.0 + np.linalg.norm(mu))
            for radius, weights, diagnostics, auc in fits:
                w, lam = weights.w, diagnostics.multiplier
                norm = np.linalg.norm(w)
                residual = np.linalg.norm(sigma @ w - mu + lam * w)
                what = f"{route} radius {radius:.4g}"
                _require(diagnostics.kkt_residual <= kkt_cap and residual <= kkt_cap,
                         f"{what}: KKT residual {residual:.3e} above {kkt_cap:.3e}")
                _require(lam >= 0.0 and norm <= radius * (1 + NORM_SLACK),
                         f"{what}: infeasible (multiplier {lam!r}, norm {norm!r})")
                _require(lam == 0.0 or abs(norm - radius) <= KKT_TOL * radius,
                         f"{what}: multiplier {lam!r} with an interior point")
                _require(auc == evaluation.auc_naive(self.held, weights),
                         f"{what}: auc_fast differs from auc_naive")
            pos_scores, neg_scores = self.held.positives @ best.w, self.held.negatives @ best.w
            _require(report.auc == max(fit[3] for fit in fits),
                     f"{route}: evaluate_ranker auc differs from auc_fast")
            _close(report.phi_risk, reference.phi_risk(pos_scores, neg_scores), f"{route} phi_risk")
            quality.append((report.auc, report.phi_risk))
        return quality


WORKLOADS = {w.name: w for w in (FileTrain, SynthSweep, WidePath)}
