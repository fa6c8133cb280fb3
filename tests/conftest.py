"""Shared dataset builders and the acceptance-summary reporting hook.

Every test that needs random data builds it through the helpers here so
seeds stay visible at the call site.  The hook at the bottom collects
the outcome of each test named ``test_criterion_<n>`` and prints one
ACCEPTANCE line per criterion at the end of the run.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from pairrank import Dataset
from pairrank.io import _parse_line

_ACCEPTANCE_LABELS = {
    1: "moments oracle equivalence",
    2: "solver correctness",
    3: "auc equivalence",
    4: "subsampled-vs-batch convergence",
    5: "wall-clock speedup",
    6: "skew degradation",
    7: "real-data sanity",
    8: "bound conservativeness",
    9: "bound-formula fidelity",
    10: "determinism",
}

_acceptance_results: dict[int, str] = {}


def random_dataset(
    rng: np.random.Generator,
    dim: int,
    n1: int,
    n0: int,
    scale: float = 1.0,
) -> Dataset:
    """Gaussian-featured dataset with both classes non-empty."""
    return Dataset.from_arrays(
        rng.standard_normal((n1, dim)) * scale,
        rng.standard_normal((n0, dim)) * scale,
    )


def integer_dataset(
    rng: np.random.Generator,
    dim: int,
    n1: int,
    n0: int,
    low: int = -2,
    high: int = 3,
) -> Dataset:
    """Small-integer features; with integer weights the scores tie often."""
    return Dataset.from_arrays(
        rng.integers(low, high, size=(n1, dim)).astype(float),
        rng.integers(low, high, size=(n0, dim)).astype(float),
    )


# a9a one-hot encodes 14 attributes into 123 binary columns.
A9A_GROUPS = np.array([5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 2, 2, 5, 41])


def write_a9a_shaped(path: Path, rows: int, rng: np.random.Generator) -> int:
    """Write `rows` one-hot rows like a9a's, about 24 % positive; return the positive count."""
    offsets = np.cumsum(A9A_GROUPS) - A9A_GROUPS
    cols = offsets + 1 + (rng.random((rows, A9A_GROUPS.size)) * A9A_GROUPS).astype(int)
    labels = np.where(rng.random(rows) < 0.24, "+1", "-1")
    path.write_text(
        "".join(
            f"{label} " + " ".join(f"{col}:1" for col in row) + "\n"
            for label, row in zip(labels, cols.tolist())
        ),
        encoding="ascii",
    )
    return int(np.count_nonzero(labels == "+1"))


def parse_libsvm_reference(source, dim_hint=None) -> Dataset:
    """parse_libsvm done line by line with its per-line reference parser.

    Reads the input the way parse_libsvm does, splits it on "\\n" and
    densifies row by row with its own loop, sharing none of parse_libsvm's
    array code; parse_libsvm must match it bit for bit, whether its
    vectorised pass or its per-line path parsed the input.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            text = handle.read()
    else:
        text = source.read()
    parsed = [
        row
        for line_number, line in enumerate(text.split("\n"), start=1)
        if (row := _parse_line(line, line_number)) is not None
    ]
    dim = max([features[-1][0] for _, features in parsed if features] + [dim_hint or 0])
    n1 = sum(label for label, _ in parsed)
    pos = np.zeros((n1, dim), dtype=np.float64)
    neg = np.zeros((len(parsed) - n1, dim), dtype=np.float64)
    cursors = [0, 0]
    for label, features in parsed:
        target = pos if label == 1 else neg
        for index, value in features:
            target[cursors[label], index - 1] = value
        cursors[label] += 1
    return Dataset(pos, neg)


def load_perfbench_reference():
    """perfbench/reference.py, loaded by path; skips the test without scipy."""
    pytest.importorskip("scipy")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _criterion_number(nodeid: str) -> int | None:
    match = re.search(r"test_criterion_(\d+)", nodeid)
    return int(match.group(1)) if match else None


def pytest_runtest_logreport(report):
    number = _criterion_number(report.nodeid)
    if number is None:
        return
    if report.when == "setup":
        if report.skipped:
            _acceptance_results[number] = "SKIP"
        elif report.failed:
            _acceptance_results[number] = "FAIL"
    elif report.when == "call":
        if report.skipped:
            _acceptance_results[number] = "SKIP"
        else:
            _acceptance_results[number] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_results):
        verdict = _acceptance_results[number]
        label = _ACCEPTANCE_LABELS.get(number, "")
        terminalreporter.write_line(
            f"ACCEPTANCE: criterion {number} {verdict} ({label})"
        )
