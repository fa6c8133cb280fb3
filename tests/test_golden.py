"""Golden outputs: every seeded command reproduces its recorded files.

Criterion 10 compares two runs of the same code, so it cannot see a
refactor that changes what the commands write.  This module re-runs
each command below on inputs it writes itself from fixed seeds and
compares the results with the files in ``tests/golden/``: model files
byte for byte, CSVs cell for cell except the wall-clock cells
(``wall_time_seconds`` everywhere, and ``solve_seconds`` inside
timing's ``extra``).

Regenerate the goldens with ``PYTHONPATH=src python tests/test_golden.py``
only when a numpy upgrade changes its random streams; never to absorb a
behaviour change (see ``tests/golden/README.md``).
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dataset
from pairrank import RESULT_CSV_HEADER, write_libsvm
from pairrank.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> argv; {train}, {test} and {out} are filled in per run, and a run
# writes {out}.csv plus, for train, {out}.bin.
RUNS = {
    "train-bbr": ["train", "bbr", "{train}", "--seed", "3",
                  "--model-out", "{out}.bin", "--csv-out", "{out}.csv"],
    "train-bbr-w-star": ["train", "bbr", "{train}", "--w-star", "0.5",
                         "--model-out", "{out}.bin", "--csv-out", "{out}.csv"],
    "train-lcbr": ["train", "lcbr", "{train}", "--pairs", "300", "--sample-ratio", "0.7",
                   "--x-star", "1", "--test", "{test}", "--seed", "9",
                   "--model-out", "{out}.bin", "--csv-out", "{out}.csv"],
    "synth-sweep": ["synth-sweep", "--out", "{out}.csv", "--k-grid", "1,2",
                    "--sigma-grid", "2.0,3.0", "--pairs-grid", "40,80", "--replicates", "2",
                    "--dim", "3", "--n1", "25", "--n0", "20", "--test-per-class", "40",
                    "--base-seed", "3", "--sgd-step-size", "0.05", "--sgd-budget", "60"],
    "skew-sweep": ["skew-sweep", "--out", "{out}.csv", "--rho-grid", "0.25,0.5",
                   "--total-n", "30", "--pairs", "50", "--replicates", "2", "--dim", "2",
                   "--sigma", "1.5", "--test-per-class", "30", "--base-seed", "4"],
    "bounds-table": ["bounds-table", "--out", "{out}.csv", "--dim", "4",
                     "--rho-grid", "0.25,0.5", "--n-grid", "100,1000",
                     "--epsilon-grid", "0.2,0.4", "--delta", "0.1", "--sigma-opnorm", "2.0"],
    "timing": ["timing", "--out", "{out}.csv", "--n1", "30", "--n0", "25", "--dim", "3",
               "--pairs-grid", "40,60", "--repeats", "2", "--base-seed", "6"],
}

_WALL = RESULT_CSV_HEADER.index("wall_time_seconds")
_EXTRA = RESULT_CSV_HEADER.index("extra")


def write_inputs(directory: Path) -> dict[str, str]:
    """The seeded sparse-format train and test files the train runs read."""
    rng = np.random.default_rng(7001)
    paths = {"train": directory / "train.svm", "test": directory / "test.svm"}
    write_libsvm(random_dataset(rng, dim=6, n1=25, n0=35, scale=3.0), paths["train"])
    write_libsvm(random_dataset(rng, dim=5, n1=15, n0=20, scale=3.0), paths["test"])
    return {role: str(path) for role, path in paths.items()}


def run(name: str, directory: Path, inputs: dict[str, str]) -> list[Path]:
    """Run one golden command into `directory`; returns the files it wrote."""
    out = str(directory / name)
    argv = [piece.format(out=out, **inputs) for piece in RUNS[name]]
    assert main(argv) == 0, f"{name} exited non-zero"
    return sorted(directory.glob(f"{name}.*"))


def _stable_cells(path: Path) -> list[list[str]]:
    """CSV cells with the wall-clock cells blanked out."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    if tuple(header) != RESULT_CSV_HEADER:
        return [header, *rows]
    stable = [header]
    for row in rows:
        row[_WALL] = "*"
        row[_EXTRA] = ";".join(
            "solve_seconds=*" if part.startswith("solve_seconds=") else part
            for part in row[_EXTRA].split(";")
        )
        stable.append(row)
    return stable


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_goldens(name, tmp_path):
    inputs = write_inputs(tmp_path)
    written = run(name, tmp_path, inputs)
    golden = sorted(GOLDEN_DIR.glob(f"{name}.*"))
    assert [p.name for p in written] == [p.name for p in golden]
    for fresh, recorded in zip(written, golden):
        if fresh.suffix == ".csv":
            assert _stable_cells(fresh) == _stable_cells(recorded), fresh.name
        else:
            assert fresh.read_bytes() == recorded.read_bytes(), fresh.name


def _keyed_cells(path: Path) -> list[dict[str, str]]:
    """Stable cells per row by column, `extra` split into `extra:key` columns."""
    header, *rows = _stable_cells(path)
    keyed = []
    for row in rows:
        cells = dict(zip(header, row))
        if tuple(header) == RESULT_CSV_HEADER:
            extra = cells.pop("extra")
            cells.update(
                (f"extra:{key}", value)
                for key, _, value in (part.partition("=") for part in extra.split(";") if part)
            )
        keyed.append(cells)
    return keyed


def _relative_change(old: str, new: str) -> float:
    try:
        before, after = float(old), float(new)
    except ValueError:
        return float("inf")
    return abs(after - before) / abs(before) if before else float("inf")


def audit(fresh: Path, recorded: Path) -> str:
    """What rewriting `recorded` with `fresh` changes, as one line.

    Model files are compared byte for byte.  CSVs are compared on their
    stable cells: the line names each column with a changed cell, how
    many of its cells changed, and the largest relative change among
    them (inf for text or for a cell that was 0).
    """
    if fresh.suffix != ".csv":
        same = fresh.read_bytes() == recorded.read_bytes()
        return f"{recorded.name}: {'identical' if same else 'bytes changed'}"
    old_rows, new_rows = _keyed_cells(recorded), _keyed_cells(fresh)
    if len(old_rows) != len(new_rows):
        return f"{recorded.name}: {len(old_rows)} -> {len(new_rows)} rows"
    changes: dict[str, list[float]] = {}
    for old, new in zip(old_rows, new_rows):
        for column in sorted(old.keys() | new.keys()):
            before, after = old.get(column, ""), new.get(column, "")
            if before != after:
                changes.setdefault(column, []).append(_relative_change(before, after))
    if not changes:
        return f"{recorded.name}: identical"
    return f"{recorded.name}: " + "; ".join(
        f"{column} {len(rel)} cells, largest relative change {max(rel):.2g}"
        for column, rel in changes.items()
    )


def test_audit_names_each_changed_column(tmp_path):
    recorded = GOLDEN_DIR / "train-bbr-w-star.csv"
    header, row = recorded.read_text(encoding="utf-8").splitlines()
    cells = row.split(",")
    phi = RESULT_CSV_HEADER.index("phi_risk")
    cells[phi] = repr(float(cells[phi]) * (1.0 + 2**-40))
    cells[_WALL] = "12.5"
    fresh = tmp_path / recorded.name
    fresh.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    assert audit(recorded, recorded) == "train-bbr-w-star.csv: identical"
    assert audit(fresh, recorded) == (
        "train-bbr-w-star.csv: phi_risk 1 cells, largest relative change 9.1e-13"
    )
    model = GOLDEN_DIR / "train-bbr-w-star.bin"
    assert audit(model, model) == "train-bbr-w-star.bin: identical"


def regenerate(names: list[str]) -> None:
    """Rewrite the golden files of `names` (all runs when empty).

    Prints the audit of every file it rewrites against its recorded
    version, so a re-capture shows exactly which cells moved.
    """
    scratch = GOLDEN_DIR / "_scratch"
    scratch.mkdir()
    try:
        inputs = write_inputs(scratch)
        for name in names or sorted(RUNS):
            for path in run(name, scratch, inputs):
                recorded = GOLDEN_DIR / path.name
                print(audit(path, recorded) if recorded.exists() else f"{path.name}: new")
                shutil.copyfile(path, recorded)
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
