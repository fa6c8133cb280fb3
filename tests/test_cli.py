"""Command-line surface: seeds, model files, subcommands, exit codes."""

import argparse
import csv
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pairrank.cli as cli
import pairrank.core as core
import pairrank.moments as moments
import pairrank.solver as solver
from conftest import A9A_GROUPS, parse_libsvm_reference, random_dataset, write_a9a_shaped
from pairrank import (
    RESULT_CSV_HEADER,
    BoundInputs,
    Dataset,
    PairRankError,
    ProblemConfig,
    RankerWeights,
    ResultRow,
    SubsampleConfig,
    UntrainableDatasetError,
    batch_excess_risk_log_tail,
    batch_moments_fast,
    evaluate_ranker,
    parse_libsvm,
    scale_to_ball,
    solve_erm,
    subsample_moments,
    subsample_ratio_split,
    write_libsvm,
)
from pairrank.core import _densify
from pairrank.io import _parse_text, csv_cells
from pairrank.cli import (
    MODEL_MAGIC,
    MODEL_VERSION,
    ROLE_PAIRS,
    ROLE_SGD,
    ROLE_SPEC,
    ROLE_SPLIT,
    ROLE_TEST,
    ROLE_TRAIN,
    derived_seed,
    load_weights,
    main,
    save_weights,
)


def _run_cli(argv, cwd):
    """Run the CLI in a fresh interpreter, so its stderr is all it printed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys; from pairrank.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _main_stderr(argv, capsys):
    """Run the CLI in-process; return its exit code and what it printed to stderr."""
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _extra_dict(cell):
    return dict(part.split("=", 1) for part in cell.split(";") if part)


@pytest.fixture()
def toy_file(tmp_path):
    rng = np.random.default_rng(440)
    data = random_dataset(rng, dim=3, n1=12, n0=10, scale=0.5)
    path = tmp_path / "toy.txt"
    write_libsvm(data, path)
    return path


class TestDerivedSeed:
    def test_deterministic_and_in_range(self):
        for base in (0, 1, 20260816):
            for role in (ROLE_SPEC, ROLE_TRAIN, ROLE_TEST, ROLE_PAIRS, ROLE_SGD, ROLE_SPLIT):
                seed = derived_seed(base, role)
                assert seed == derived_seed(base, role)
                assert 0 <= seed < 2**64

    def test_roles_and_bases_separate_streams(self):
        seeds = {
            derived_seed(base, role)
            for base in (0, 1, 2)
            for role in (ROLE_SPEC, ROLE_TRAIN, ROLE_TEST, ROLE_PAIRS, ROLE_SGD, ROLE_SPLIT)
        }
        assert len(seeds) == 18

    def test_role_paths_extend(self):
        first = derived_seed(5, ROLE_PAIRS, 0)
        second = derived_seed(5, ROLE_PAIRS, 1)
        flat = derived_seed(5, ROLE_PAIRS)
        assert len({first, second, flat}) == 3


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(441)
        weights = RankerWeights(rng.standard_normal(5) * 0.3)
        path = tmp_path / "model.bin"
        save_weights(path, weights, w_star=2.5)
        loaded, w_star = load_weights(path)
        np.testing.assert_array_equal(loaded.w, weights.w)
        assert w_star == 2.5

    def test_layout_decodes_with_plain_struct(self, tmp_path):
        weights = RankerWeights([0.25, -1.5])
        path = tmp_path / "model.bin"
        save_weights(path, weights, w_star=1.0)
        blob = path.read_bytes()
        assert len(blob) == 24 + 8 * 2
        assert blob[:8] == MODEL_MAGIC == b"PAIRRANK"
        assert struct.unpack_from("<II", blob, 8) == (MODEL_VERSION, 2) == (1, 2)
        assert struct.unpack_from("<d", blob, 16) == (1.0,)
        assert struct.unpack_from("<2d", blob, 24) == (0.25, -1.5)

    def test_corrupt_files_rejected(self, tmp_path):
        weights = RankerWeights([1.0, 2.0, 3.0])
        path = tmp_path / "model.bin"
        save_weights(path, weights, w_star=1.0)
        blob = path.read_bytes()

        bad_magic = tmp_path / "magic.bin"
        bad_magic.write_bytes(b"NOTMAGIC" + blob[8:])
        bad_version = tmp_path / "version.bin"
        bad_version.write_bytes(blob[:8] + struct.pack("<I", 9) + blob[12:])
        truncated = tmp_path / "short.bin"
        truncated.write_bytes(blob[:-4])
        tiny = tmp_path / "tiny.bin"
        tiny.write_bytes(b"PAIR")
        for bad in (bad_magic, bad_version, truncated, tiny):
            with pytest.raises(PairRankError):
                load_weights(bad)


class TestTrainCommand:
    def test_batch_train_writes_model_and_csv(self, toy_file, tmp_path, capsys):
        model = tmp_path / "m.bin"
        out = tmp_path / "m.csv"
        code = main(
            [
                "train", "bbr", str(toy_file),
                "--seed", "3",
                "--model-out", str(model),
                "--csv-out", str(out),
            ]
        )
        assert code == 0
        assert "bbr" in capsys.readouterr().out

        weights, w_star = load_weights(model)
        assert weights.dim == 3 and w_star == 1.0

        header, rows = _read_csv(out)
        assert header == list(RESULT_CSV_HEADER)
        (row,) = rows
        assert row[1] == "bbr" and row[2] == "toy.txt"
        assert row[3:7] == ["12", "10", "0", "3"]

        # Reload the model, recompute both metrics, compare bitwise.
        data = parse_libsvm(toy_file)
        report = evaluate_ranker(data, weights)
        assert float(row[7]) == report.phi_risk
        assert float(row[8]) == report.auc
        extra = _extra_dict(row[10])
        assert extra["eval_on"] == "train"
        _, diagnostics = solve_erm(batch_moments_fast(data), ProblemConfig(1.0, 1.0))
        assert float(extra["multiplier"]) == diagnostics.multiplier

    def test_subsampled_close_to_batch(self, toy_file, tmp_path):
        batch_csv = tmp_path / "b.csv"
        sub_csv = tmp_path / "s.csv"
        assert main(["train", "bbr", str(toy_file), "--csv-out", str(batch_csv)]) == 0
        assert (
            main(
                [
                    "train", "lcbr", str(toy_file),
                    "--pairs", "20000",
                    "--seed", "4",
                    "--csv-out", str(sub_csv),
                ]
            )
            == 0
        )
        _, (batch_row,) = _read_csv(batch_csv)
        _, (sub_row,) = _read_csv(sub_csv)
        assert sub_row[1] == "lcbr" and sub_row[5] == "20000"
        assert abs(float(sub_row[7]) - float(batch_row[7])) <= 0.1
        assert abs(float(sub_row[8]) - float(batch_row[8])) <= 0.1

    def test_identical_invocations_reproduce_model_bytes(self, toy_file, tmp_path):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        argv = ["train", "lcbr", str(toy_file), "--pairs", "500", "--seed", "11"]
        assert main(argv + ["--model-out", str(first)]) == 0
        assert main(argv + ["--model-out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        third = tmp_path / "c.bin"
        assert (
            main(
                [
                    "train", "lcbr", str(toy_file),
                    "--pairs", "500",
                    "--seed", "12",
                    "--model-out", str(third),
                ]
            )
            == 0
        )
        assert third.read_bytes() != first.read_bytes()

    def test_sample_ratio_shrinks_and_is_recorded(self, toy_file, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "train", "bbr", str(toy_file),
                "--sample-ratio", "0.5",
                "--seed", "6",
                "--csv-out", str(out),
            ]
        )
        assert code == 0
        _, (row,) = _read_csv(out)
        assert int(row[3]) + int(row[4]) == 11
        assert _extra_dict(row[10])["sample_ratio"] == "0.5"

    def test_held_out_evaluation(self, toy_file, tmp_path):
        rng = np.random.default_rng(442)
        test_data = random_dataset(rng, dim=3, n1=6, n0=7, scale=0.5)
        test_path = tmp_path / "held.txt"
        write_libsvm(test_data, test_path)
        out = tmp_path / "h.csv"
        code = main(
            ["train", "bbr", str(toy_file), "--test", str(test_path), "--csv-out", str(out)]
        )
        assert code == 0
        _, (row,) = _read_csv(out)
        assert _extra_dict(row[10])["eval_on"] == "test"
        assert row[3:5] == ["12", "10"]

    def test_test_file_with_unseen_features_pads_weights_with_zeros(self, toy_file, tmp_path):
        test_path = tmp_path / "wider.txt"
        test_path.write_text(
            "+1 1:0.5 5:2\n+1 2:0.25 4:-1\n-1 3:0.75 5:-1\n-1 1:-0.5\n", encoding="ascii"
        )
        model, out = tmp_path / "w.bin", tmp_path / "w.csv"
        code = main(["train", "bbr", str(toy_file), "--test", str(test_path),
                     "--model-out", str(model), "--csv-out", str(out)])
        assert code == 0
        weights, _ = load_weights(model)
        assert weights.dim == 3
        test_data = parse_libsvm(test_path)
        assert test_data.dim == 5
        report = evaluate_ranker(test_data, RankerWeights(np.r_[weights.w, 0.0, 0.0]))
        _, (row,) = _read_csv(out)
        assert (float(row[7]), float(row[8])) == (report.phi_risk, report.auc)

    def test_feature_rescaling_runs(self, toy_file, tmp_path):
        model = tmp_path / "x.bin"
        code = main(
            ["train", "bbr", str(toy_file), "--x-star", "0.5", "--model-out", str(model)]
        )
        assert code == 0
        assert model.exists()

    @staticmethod
    def _spy_training_sets(monkeypatch):
        """Record every dataset the all-pairs moment builder is given."""
        seen = []

        def spy(data):
            seen.append(data)
            return batch_moments_fast(data)

        monkeypatch.setattr(cli, "batch_moments_fast", spy)
        return seen

    @pytest.mark.parametrize("shape", ["92-ones", "gaussian"])
    def test_x_star_caps_every_training_norm(self, shape, tmp_path, monkeypatch):
        # Scaling by x_star / (largest norm) alone leaves one row at norm
        # 1 + 2.2e-16 in both files: the row of 92 ones, and one row of
        # this Gaussian draw.
        rng = np.random.default_rng(1)
        if shape == "92-ones":
            data = Dataset.from_arrays(np.ones((1, 92)), rng.uniform(0.0, 0.5, (3, 92)))
        else:
            data = random_dataset(rng, dim=5, n1=20, n0=20, scale=3.0)
        path = tmp_path / "capped.txt"
        write_libsvm(data, path)
        seen = self._spy_training_sets(monkeypatch)
        assert main(["train", "bbr", str(path), "--x-star", "1"]) == 0
        (trained,) = map(_densify, seen)
        for rows in (trained.positives, trained.negatives):
            assert np.linalg.norm(rows, axis=1).max() <= 1.0

    @pytest.mark.parametrize("flags", [[], ["--x-star", "0.5", "--sample-ratio", "0.7"]],
                             ids=["read", "split-and-scaled"])
    def test_training_set_leaves_no_writable_alias(self, flags, toy_file, monkeypatch):
        seen = self._spy_training_sets(monkeypatch)
        assert main(["train", "bbr", str(toy_file), *flags]) == 0
        (trained,) = seen
        # train reads its rows sparse: no array of either class's source is writable.
        for rows in (trained.positives, trained.negatives):
            for array in (rows.offsets, rows.indices, rows.values):
                assert not array.flags.writeable
                assert array.base is None or not array.base.flags.writeable

    def test_x_star_scales_test_set_by_the_training_factor(self, toy_file, tmp_path, monkeypatch):
        rng = np.random.default_rng(444)
        held = random_dataset(rng, dim=3, n1=6, n0=7, scale=4.0)
        held_path = tmp_path / "held.txt"
        write_libsvm(held, held_path)
        seen = self._spy_training_sets(monkeypatch)
        evaluated = []

        def evaluate_spy(data, weights):
            evaluated.append(data)
            return evaluate_ranker(data, weights)

        monkeypatch.setattr(cli, "evaluate_ranker", evaluate_spy)
        argv = ["train", "bbr", str(toy_file), "--x-star", "0.5", "--test", str(held_path)]
        assert main(argv) == 0
        (trained,), (tested,) = map(_densify, seen), map(_densify, evaluated)
        raw = parse_libsvm(toy_file)
        _, factor = scale_to_ball(raw, 0.5)
        assert factor < 1.0
        np.testing.assert_array_equal(trained.positives, raw.positives * factor)
        np.testing.assert_array_equal(trained.negatives, raw.negatives * factor)
        held_raw = parse_libsvm(held_path)
        np.testing.assert_array_equal(tested.positives, held_raw.positives * factor)
        np.testing.assert_array_equal(tested.negatives, held_raw.negatives * factor)

    def test_x_star_scales_features_whose_squares_overflow(self, tmp_path, capsys):
        # Row norms near 1e200 are finite, though their squares are not.
        path = tmp_path / "big.svm"
        path.write_text("+1 1:1e200 2:1e200\n+1 1:2e200 2:-1e200\n"
                        "-1 1:-1e200 2:1e200\n-1 1:-3e200 2:-2e200\n", encoding="ascii")
        model = tmp_path / "big.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "bbr", str(path), "--x-star", "1",
                         "--model-out", str(model)]) == 0
        assert "train_auc=1.000000" in capsys.readouterr().out
        weights, _ = load_weights(model)
        assert np.linalg.norm(weights.w) > 0.5

    def test_moments_above_half_the_float_maximum_train(self, tmp_path, capsys):
        # sigma_11 = 1.44e308 is finite, though sigma_11 + sigma_11 is not.
        path = tmp_path / "huge.svm"
        path.write_text("+1 1:1.2e154\n-1 2:1\n", encoding="ascii")
        model = tmp_path / "huge.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "bbr", str(path), "--model-out", str(model)]) == 0
        assert "train_auc=1.000000" in capsys.readouterr().out
        weights, _ = load_weights(model)
        assert np.all(np.isfinite(weights.w)) and weights.w[0] > 0.0

    def test_tiny_w_star_trains_on_the_boundary(self, toy_file, tmp_path, capsys):
        # The squares of weights near 1e-200 underflow; the solve used to
        # divide by zero here and exit 1 with a traceback.
        model = tmp_path / "tiny.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "bbr", str(toy_file), "--w-star", "1e-200",
                         "--model-out", str(model)]) == 0
        assert "constrained=True" in capsys.readouterr().out
        weights, radius = load_weights(model)
        assert radius == 1e-200
        norm = float(np.linalg.norm(np.ldexp(weights.w, 664)))
        assert abs(norm - np.ldexp(1e-200, 664)) <= 1e-12 * np.ldexp(1e-200, 664)

    def test_outputs_match_per_line_reference_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(443)
        train_path, test_path = tmp_path / "train.txt", tmp_path / "test.txt"
        write_libsvm(random_dataset(rng, dim=6, n1=25, n0=35, scale=3.0), train_path)
        write_libsvm(random_dataset(rng, dim=5, n1=15, n0=20, scale=3.0), test_path)
        wall_time = RESULT_CSV_HEADER.index("wall_time_seconds")

        def outputs(tag):
            result = {}
            for algorithm, flags in (("bbr", []), ("lcbr", ["--pairs", "300", "--sample-ratio", "0.7"])):
                model, out = tmp_path / f"{tag}-{algorithm}.bin", tmp_path / f"{tag}-{algorithm}.csv"
                argv = ["train", algorithm, str(train_path), *flags, "--test", str(test_path),
                        "--x-star", "1", "--seed", "9", "--model-out", str(model), "--csv-out", str(out)]
                assert main(argv) == 0
                header, rows = _read_csv(out)
                result[algorithm] = (model.read_bytes(), header,
                                     [row[:wall_time] + row[wall_time + 1:] for row in rows])
            return result

        def reference_dataset(source, dim_hint=None, split=None, x_star=None, factor=1.0):
            data = parse_libsvm_reference(source, dim_hint)
            if split is not None:
                data = subsample_ratio_split(data, *split)
            return (data.scaled(factor), factor) if x_star is None else scale_to_ball(data, x_star)

        vectorised = outputs("vectorised")
        # train reads both files through _read_dataset.
        monkeypatch.setattr(cli, "_read_dataset", reference_dataset)
        assert outputs("reference") == vectorised


    def test_lcbr_on_offset_features_evaluates(self, tmp_path):
        # Training sees only pair differences, where the 1e8 offset
        # cancels exactly; evaluating must not rebuild moments from the
        # raw offset rows, whose uncentered sigma is far from PSD.
        rng = np.random.default_rng(445)
        base = random_dataset(rng, dim=3, n1=12, n0=10, scale=0.5)
        path = tmp_path / "offset.txt"
        write_libsvm(Dataset.from_arrays(base.positives + 1e8, base.negatives + 1e8), path)
        out = tmp_path / "offset.csv"
        assert main(["train", "lcbr", str(path), "--pairs", "200", "--csv-out", str(out)]) == 0
        _, rows = _read_csv(out)
        (row,) = rows
        assert row[1] == "lcbr" and np.isfinite(float(row[7])) and 0.0 <= float(row[8]) <= 1.0

    def test_bbr_on_offset_features_trains(self, tmp_path):
        # The all-pairs moments come from class moments of the raw rows;
        # taken about each class mean, the 1e8 offset cannot cancel.
        rng = np.random.default_rng(446)
        base = random_dataset(rng, dim=3, n1=12, n0=10, scale=0.5)
        path = tmp_path / "offset.txt"
        write_libsvm(Dataset.from_arrays(base.positives + 1e8, base.negatives + 1e8), path)
        out = tmp_path / "offset.csv"
        assert main(["train", "bbr", str(path), "--csv-out", str(out)]) == 0
        _, rows = _read_csv(out)
        (row,) = rows
        assert row[1] == "bbr" and np.isfinite(float(row[7])) and 0.0 <= float(row[8]) <= 1.0

    @pytest.mark.parametrize("argv", [["bbr"], ["lcbr", "--pairs", "3000", "--x-star", "1"]],
                             ids=["bbr", "lcbr-x-star"])
    def test_relabelling_feature_indices_relabels_the_weights(self, argv, tmp_path):
        # d = 130 crosses the moment kernel's strips; a third of the entries
        # are absent from the file, and every column keeps one entry.  The
        # moments permute bit for bit, but the solve only to rounding times
        # sigma's condition number, so the columns share one scale (scaled
        # by 2**-8 to 2**8, sigma's condition number 1.7e10 moved w by 3e-10).
        rng = np.random.default_rng(447)
        dim = 130
        rows = rng.standard_normal((260, dim))
        rows[rng.random(rows.shape) < 1 / 3] = 0.0
        rows[0] = 1.0
        perm = rng.permutation(dim)
        weights = []
        for name, columns in (("plain", rows), ("relabelled", rows[:, perm])):
            path, model = tmp_path / f"{name}.txt", tmp_path / f"{name}.bin"
            write_libsvm(Dataset.from_arrays(columns[:110], columns[110:]), path)
            assert main(["train", argv[0], str(path), *argv[1:], "--model-out", str(model)]) == 0
            weights.append(load_weights(model)[0].w)
        plain, relabelled = weights
        assert np.max(np.abs(relabelled - plain[perm])) <= 1e-12 * np.max(np.abs(plain))


class TestTrainMatchesLibraryChain:
    """`train` holds the rows it keeps sparse and scales them in place; its model
    bytes and CSV cells (wall time aside) must be those of the dense library
    chain parse_libsvm -> subsample_ratio_split -> scale_to_ball -> moments ->
    solve_erm -> evaluate_ranker."""

    SEED = 9
    WALL_TIME = RESULT_CSV_HEADER.index("wall_time_seconds")

    @classmethod
    def _library(cls, algorithm, train_path, test_path, ratio, x_star, pairs):
        """The model bytes and CSV cells the chain gives, or the exception it raises."""
        data = parse_libsvm(train_path)
        if ratio is not None:
            data = subsample_ratio_split(data, ratio, derived_seed(cls.SEED, ROLE_SPLIT))
        factor = 1.0
        if x_star is not None:
            data, factor = scale_to_ball(data, x_star)
        if algorithm == "bbr":
            pair_moments = batch_moments_fast(data)
        else:
            config = SubsampleConfig(s=pairs, seed=derived_seed(cls.SEED, ROLE_PAIRS))
            pair_moments = subsample_moments(data, config)
        weights, diagnostics = solve_erm(pair_moments, ProblemConfig(x_star or 1.0, 1.0))
        evaluate_on, scored = data, weights
        if test_path is not None:
            evaluate_on = parse_libsvm(test_path, dim_hint=data.dim).scaled(factor)
            scored = RankerWeights(np.pad(weights.w, (0, evaluate_on.dim - data.dim)))
        report = evaluate_ranker(evaluate_on, scored)
        extra = {"eval_on": "train" if test_path is None else "test",
                 "multiplier": diagnostics.multiplier}
        if ratio is not None:
            extra["sample_ratio"] = ratio
        row = ResultRow("train", algorithm, train_path.name, data.n1, data.n0, pairs or 0,
                        cls.SEED, report.phi_risk, report.auc, 0.0, extra)
        model = (MODEL_MAGIC + struct.pack("<IId", MODEL_VERSION, weights.dim, 1.0)
                 + weights.w.astype("<f8").tobytes())
        return model, cls._cells(csv_cells(row))

    @classmethod
    def _cells(cls, row):
        return row[: cls.WALL_TIME] + row[cls.WALL_TIME + 1 :]

    @classmethod
    def _cli(cls, algorithm, train_path, test_path, ratio, x_star, pairs, tmp_path):
        model, out = tmp_path / "cli.bin", tmp_path / "cli.csv"
        argv = ["train", algorithm, str(train_path), "--seed", str(cls.SEED),
                "--model-out", str(model), "--csv-out", str(out)]
        argv += ["--pairs", str(pairs)] if pairs else []
        argv += ["--test", str(test_path)] if test_path is not None else []
        argv += ["--sample-ratio", str(ratio)] if ratio is not None else []
        argv += ["--x-star", str(x_star)] if x_star is not None else []
        assert main(argv) == 0
        _, (row,) = _read_csv(out)
        return model.read_bytes(), cls._cells(row)

    @staticmethod
    def _files(tmp_path, seed):
        rng = np.random.default_rng(seed)
        train_path, test_path = tmp_path / "train.txt", tmp_path / "test.txt"
        write_libsvm(random_dataset(rng, dim=6, n1=25, n0=35, scale=3.0), train_path)
        write_libsvm(random_dataset(rng, dim=5, n1=15, n0=20, scale=3.0), test_path)
        return train_path, test_path

    @pytest.mark.parametrize("algorithm, pairs", [("bbr", 0), ("lcbr", 500)])
    @pytest.mark.parametrize("held_out", [False, True], ids=["train-eval", "test-eval"])
    @pytest.mark.parametrize("ratio", [None, 1.0, 0.6], ids=["no-split", "ratio-1", "ratio-0.6"])
    @pytest.mark.parametrize("x_star", [100.0, 1.0], ids=["factor-1", "factor-below-1"])
    def test_same_bits(self, algorithm, pairs, held_out, ratio, x_star, tmp_path):
        train_path, test_path = self._files(tmp_path, 448)
        test_path = test_path if held_out else None
        data = parse_libsvm(train_path)
        largest = np.linalg.norm(np.vstack([data.positives, data.negatives]), axis=1).max()
        assert (largest < x_star) == (x_star == 100.0)
        case = (algorithm, train_path, test_path, ratio, x_star, pairs)
        assert self._cli(*case, tmp_path) == self._library(*case)

    @pytest.mark.parametrize("algorithm, pairs", [("bbr", 0), ("lcbr", 500)])
    def test_same_bits_when_the_first_factor_steps_one_ulp(self, algorithm, pairs, tmp_path):
        # Seed 168, found by search: x_star over the largest norm leaves a
        # row of this file above x_star, so the factor steps down one ulp.
        train_path, test_path = self._files(tmp_path, 168)
        data = parse_libsvm(train_path)
        largest = max(np.linalg.norm(data.positives, axis=1).max(),
                      np.linalg.norm(data.negatives, axis=1).max())
        _, factor = scale_to_ball(data, 1.0)
        assert factor == np.nextafter(1.0 / largest, 0.0)
        case = (algorithm, train_path, test_path, None, 1.0, pairs)
        assert self._cli(*case, tmp_path) == self._library(*case)

    @staticmethod
    def _sparse_file(path, rng, n1, n0, dim):
        """Classes interleaved; about 5 % of entries stored, and one row in ten all zero."""
        labels = rng.permutation(np.r_[np.ones(n1, dtype=bool), np.zeros(n0, dtype=bool)])
        rows = np.where(rng.random((n1 + n0, dim)) < 0.05,
                        rng.standard_normal((n1 + n0, dim)) * 3.0, 0.0)
        rows[rng.random(n1 + n0) < 0.1] = 0.0
        path.write_text("".join(
            ("+1" if label else "-1")
            + "".join(f" {k + 1}:{float(row[k])!r}" for k in np.flatnonzero(row)) + "\n"
            for label, row in zip(labels, rows)), encoding="ascii")

    @pytest.mark.parametrize("algorithm, pairs", [("bbr", 0), ("lcbr", 20_000)])
    @pytest.mark.parametrize("counts", [(5000, 300), (300, 5000)],
                             ids=["positives-large", "negatives-large"])
    @pytest.mark.parametrize("held_out", [False, True], ids=["train-eval", "test-eval"])
    def test_sparse_rows_give_the_dense_chain_bits(self, algorithm, pairs, counts, held_out,
                                                   tmp_path):
        # A class above one 4096-row block, d > 64 so the strip kernel runs,
        # all-zero rows, a test file naming 5 columns the training file
        # lacks, and for lcbr G built on either class.
        rng = np.random.default_rng(451)
        train_path, test_path = tmp_path / "train.txt", tmp_path / "test.txt"
        self._sparse_file(train_path, rng, *counts, dim=70)
        self._sparse_file(test_path, rng, 400, 500, dim=75)
        ratio = 0.9
        data = subsample_ratio_split(parse_libsvm(train_path), ratio,
                                     derived_seed(self.SEED, ROLE_SPLIT))
        assert data.dim == 70 and parse_libsvm(test_path).dim == 75
        assert max(data.n1, data.n0) > moments._BLOCK_ROWS
        assert not np.all(np.any(data.negatives, axis=1))
        if algorithm == "lcbr":
            drawn = [np.unique(idx).size for idx in moments.draw_pair_indices(
                derived_seed(self.SEED, ROLE_PAIRS), pairs, data.n1, data.n0)]
            # G is built for the class with fewer drawn rows; the other streams in blocks.
            assert (drawn[0] < drawn[1]) == (counts[0] < counts[1])
            assert max(drawn) > moments._BLOCK_ROWS
        case = (algorithm, train_path, test_path if held_out else None, ratio, 1.0, pairs)
        assert self._cli(*case, tmp_path) == self._library(*case)

    @pytest.mark.parametrize("algorithm, pairs", [("bbr", 0), ("lcbr", 300), ("lcbr", 3000)],
                             ids=["bbr", "lcbr-s-below-n", "lcbr-s-above-n"])
    @pytest.mark.parametrize("x_star", [1.0, 0.37, 1e-3])
    @pytest.mark.parametrize("dim", [1, 2, 9, 130, 700])
    def test_wide_range_sparse_rows_give_the_dense_chain_bits(self, algorithm, pairs, x_star,
                                                             dim, tmp_path):
        # Normal values times e^N(0, 3), stored -0.0 entries and all-zero
        # rows; a class over one 512-row sum chunk; d = 1, where numpy sums
        # a column pairwise, and d above 64, where the strip kernel runs.
        # lcbr draws fewer and more pairs than the 800 rows.
        rng = np.random.default_rng(452 + dim)
        n1, n0 = 560, 240
        rows = np.where(rng.random((n1 + n0, dim)) < min(1.0, 6.0 / dim + 0.05),
                        rng.standard_normal((n1 + n0, dim))
                        * np.exp(rng.normal(0.0, 3.0, (n1 + n0, dim))), 0.0)
        rows[rng.random((n1 + n0, dim)) < 0.02] = -0.0
        rows[rng.random(n1 + n0) < 0.05] = 0.0
        labels = rng.permutation(np.r_[np.ones(n1, dtype=bool), np.zeros(n0, dtype=bool)])
        train_path = tmp_path / "train.txt"
        train_path.write_text("".join(
            ("+1" if label else "-1")
            + "".join(f" {k + 1}:{float(row[k])!r}"
                      for k in np.flatnonzero((row != 0.0) | np.signbit(row))) + "\n"
            for label, row in zip(labels, rows)), encoding="ascii")
        case = (algorithm, train_path, None, None, x_star, pairs)
        assert self._cli(*case, tmp_path) == self._library(*case)

    @pytest.mark.parametrize("algorithm, pairs", [("bbr", 0), ("lcbr", 500)])
    def test_split_emptying_a_class_fails_as_the_chain_does(self, algorithm, pairs, tmp_path,
                                                          capsys):
        path = tmp_path / "five.txt"
        path.write_text("+1 1:1\n-1 1:2\n-1 1:3\n-1 2:1\n-1 2:2\n", encoding="ascii")
        with pytest.raises(UntrainableDatasetError) as raised:
            self._library(algorithm, path, None, 0.2, 1.0, pairs)
        argv = ["train", algorithm, str(path), "--sample-ratio", "0.2", "--x-star", "1",
                "--seed", str(self.SEED)] + (["--pairs", str(pairs)] if pairs else [])
        code, stderr = _main_stderr(argv, capsys)
        assert code == 2
        assert stderr.splitlines() == [f"pairrank: data error: {raised.value}"]
        assert "training needs both classes non-empty" in stderr


class TestTrainMemory:
    # train holds both files' rows sparse (int64 offsets, int32 columns and
    # float64 values: 12 bytes per stored feature, one per A9A_GROUPS group
    # and row) and never densifies more than one block of them: a moment
    # block, a 4096-row score block, or lcbr's G.  The slack, 1 MiB, covers
    # the d x d matrices, a fill block's entry indices and small arrays.
    ROWS, DIM = 32_561, 123

    @staticmethod
    def _traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def _training_file(self, tmp_path):
        """The a9a-shaped training file, its positive count and its parse peak with the text."""
        path = tmp_path / "train.svm"
        n1 = write_a9a_shaped(path, self.ROWS, np.random.default_rng(449))
        text = path.read_text(encoding="ascii")
        parse = self._traced_peak(lambda: _parse_text(text)) + len(text)
        return path, n1, parse

    def _stored(self, rows):
        return 12 * A9A_GROUPS.size * rows + 8 * rows

    def _block(self, n1, n0):
        """The largest dense block of rows train reads, at d = DIM."""
        return 8 * min(max(n1, n0), core._BLOCK_ROWS) * self.DIM

    def _peak(self, argv):
        codes = []
        peak = self._traced_peak(lambda: codes.append(main(argv)))
        assert codes == [0]
        return peak

    def test_peak_is_the_training_parse_not_a_dense_matrix(self, tmp_path):
        # The peak is the larger of: the training file's text and its parse
        # transient; the sparse rows of both files and one block.  At this
        # shape the parse is the larger.
        rows = self.ROWS
        train_path, n1, parse = self._training_file(tmp_path)
        test_path = tmp_path / "test.svm"
        write_a9a_shaped(test_path, rows // 2, np.random.default_rng(450))
        peak = self._peak(["train", "bbr", str(train_path), "--x-star", "1",
                           "--test", str(test_path)])
        stored = self._stored(rows) + self._stored(rows // 2)
        held = max(parse, stored + self._block(n1, rows - n1))
        assert held == parse
        assert peak > held
        assert peak <= held + 2**20, f"peak {peak} B above {held} B + slack"

    def test_peak_without_test_holds_the_stored_rows_and_one_block(self, tmp_path):
        # Evaluating on the training rows scores them 4096 rows at a time,
        # so no class is dense whole; the larger class dense would have set
        # the peak 24.3 MB above the stored rows.
        rows = self.ROWS
        train_path, n1, parse = self._training_file(tmp_path)
        peak = self._peak(["train", "bbr", str(train_path), "--x-star", "1"])
        held = max(parse, self._stored(rows) + self._block(n1, rows - n1))
        assert peak <= held + 2**20, f"peak {peak} B above {held} B + slack"

    def test_lcbr_peak_counts_the_column_index_at_24_bytes_an_entry(self, tmp_path):
        # lcbr's peak is G's build: the stored rows of both files, the two
        # classes' draws (8 bytes per pair each for its slots, 16 per row
        # for the drawn rows and their counts), G (at most the smaller
        # class's rows dense) and the column index over the other class's
        # drawn rows, at most 24 bytes per gathered entry.
        rows, pairs = self.ROWS, 100_000
        train_path, n1, parse = self._training_file(tmp_path)
        test_path = tmp_path / "test.svm"
        write_a9a_shaped(test_path, rows // 2, np.random.default_rng(450))
        peak = self._peak(["train", "lcbr", str(train_path), "--pairs", str(pairs),
                           "--x-star", "1", "--test", str(test_path)])
        stored = self._stored(rows) + self._stored(rows // 2)
        draws = 16 * pairs + 16 * rows
        cross = 8 * min(n1, rows - n1) * self.DIM
        index = 24 * A9A_GROUPS.size * max(n1, rows - n1)
        held = max(parse, stored + draws + cross + index)
        assert held > parse
        assert peak <= held + 2**20, f"peak {peak} B above {held} B + slack"


class TestExitCodes:
    def test_lcbr_without_pairs_is_usage_error(self, toy_file, capsys):
        assert main(["train", "lcbr", str(toy_file)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_pairs_with_bbr_is_usage_error(self, toy_file, capsys):
        assert main(["train", "bbr", str(toy_file), "--pairs", "3"]) == 1
        assert "usage error: --pairs only applies to lcbr" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["train", "bbr", str(tmp_path / "absent.txt")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_file_is_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:abc\n", encoding="ascii")
        assert main(["train", "bbr", str(path)]) == 2

    def test_non_ascii_byte_is_data_error_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "accent.txt"
        path.write_bytes(b"+1 1:1\n-1 1:2\n+1 1:\xc3\xa9\n")
        assert main(["train", "bbr", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("pairrank: data error: line 3: ")

    def test_single_class_file_is_data_error(self, tmp_path):
        path = tmp_path / "onesided.txt"
        path.write_text("+1 1:1\n+1 1:2\n", encoding="ascii")
        assert main(["train", "bbr", str(path)]) == 2

    def test_split_emptying_a_class_reports_only_the_data_error(self, tmp_path):
        path = tmp_path / "five.txt"
        path.write_text("+1 1:1\n-1 1:2\n-1 1:3\n-1 2:1\n-1 2:2\n", encoding="ascii")
        result = _run_cli(["train", "bbr", str(path), "--sample-ratio", "0.2", "--seed", "0"],
                          tmp_path)
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("pairrank: data error: training needs both classes non-empty")

    @pytest.mark.filterwarnings("default")
    def test_one_class_test_file_is_data_error_naming_it(self, toy_file, tmp_path, capsys):
        held = tmp_path / "positives.txt"
        held.write_text("+1 1:1\n+1 2:1\n", encoding="ascii")
        model = tmp_path / "model.bin"
        code, stderr = _main_stderr(["train", "bbr", str(toy_file), "--test", str(held),
                                     "--model-out", str(model)], capsys)
        assert code == 2
        (line,) = stderr.splitlines()
        assert line.startswith("pairrank: data error: --test file ")
        assert str(held) in line and "evaluation" in line and "n1=2, n0=0" in line
        assert not model.exists()

    @pytest.mark.parametrize("algorithm", ["bbr", "lcbr"])
    @pytest.mark.parametrize(
        "held_text, named",
        [("+1 1:1\n-1 1:abc\n", "line 2: "), ("+1 1:1\n+1 2:1\n", "--test file ")],
        ids=["malformed", "one-class"],
    )
    def test_bad_test_file_fails_before_any_moment_is_built(self, algorithm, held_text, named,
                                                            toy_file, tmp_path, monkeypatch,
                                                            capsys):
        held = tmp_path / "held.txt"
        held.write_text(held_text, encoding="ascii")
        calls = []

        def recorder(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called before the --test file was checked")
            return record

        for name in ("batch_moments_fast", "subsample_moments", "solve_erm"):
            monkeypatch.setattr(cli, name, recorder(name))
        flags = ["--pairs", "50"] if algorithm == "lcbr" else []
        code, stderr = _main_stderr(["train", algorithm, str(toy_file), *flags,
                                     "--test", str(held)], capsys)
        assert code == 2
        assert calls == []
        (line,) = stderr.splitlines()
        assert line.startswith(f"pairrank: data error: {named}")

    @pytest.mark.parametrize(
        "role, index, code",
        [("--test", 5001, 0), ("train", 10**15, 2)],
        ids=["wide-test-file-trains", "unallocatable-train-file"],
    )
    @pytest.mark.filterwarnings("default")
    def test_dense_storage_warning_is_one_line(self, role, index, code, toy_file, tmp_path,
                                               capsys):
        wide = tmp_path / "wide.txt"
        wide.write_text(f"+1 1:1\n-1 {index}:1\n", encoding="ascii")
        files = [str(toy_file), "--test", str(wide)] if role == "--test" else [str(wide)]
        returncode, stderr = _main_stderr(["train", "bbr", *files], capsys)
        assert returncode == code
        warning, *error = stderr.splitlines()
        assert warning == (f"pairrank: warning: densifying {index} columns; "
                           f"each row held dense takes {8 * index} bytes")
        assert len(error) == (1 if code else 0)
        assert all(line.startswith("pairrank: data error: ") for line in error)

    def test_allocation_failure_is_data_error(self, tmp_path):
        # No 64-bit address space holds a row of 10**15 doubles, whatever the
        # overcommit policy, so densifying this file always fails to allocate.
        path = tmp_path / "wide.txt"
        path.write_text(f"+1 1:1\n-1 {10**15}:1\n", encoding="ascii")
        result = _run_cli(["train", "bbr", str(path)], tmp_path)
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1].startswith("pairrank: data error: ")
        assert "Traceback" not in result.stderr

    def test_unknown_flag_is_usage_error(self, toy_file, capsys):
        assert main(["train", "bbr", str(toy_file), "--frobnicate"]) == 1
        capsys.readouterr()

    def test_naive_with_lcbr_is_usage_error(self, toy_file, capsys):
        # train has no --naive flag, so argparse refuses it like any unknown option.
        assert main(["train", "lcbr", str(toy_file), "--pairs", "10", "--naive"]) == 1
        capsys.readouterr()

    def test_bad_flag_value_is_usage_error(self, toy_file, capsys):
        assert main(["train", "lcbr", str(toy_file), "--pairs", "0"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth-sweep", "--k-grid", ","],
            ["synth-sweep", "--pairs-grid", ""],
            ["synth-sweep", "--replicates", "0"],
            ["skew-sweep", "--rho-grid", "1.0"],
            ["synth-sweep", "--sgd-budget", "10"],
            ["synth-sweep", "--replicates", "2.5"],
            ["synth-sweep", "--sigma-grid", "2,nan"],
            ["skew-sweep", "--sigma", "inf"],
            ["bounds-table", "--x-star", "abc"],
            ["train", "bbr", "unread.svm", "--sample-ratio", "1.5"],
        ],
        ids=["empty-k-grid", "empty-pairs-grid", "zero-replicates", "rho-of-one",
             "sgd-budget-without-step-size", "non-integer-count", "nan-float", "inf-float",
             "non-numeric-float", "sample-ratio-above-one"],
    )
    def test_bad_sweep_grid_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out_flag = "--csv-out" if argv[0] == "train" else "--out"
        assert main([argv[0], out_flag, str(out), *argv[1:]]) == 1
        flag = next(token for token in argv if token.startswith("--"))
        err = capsys.readouterr().err
        assert "error" in err and flag in err
        assert not out.exists()

    def test_overflowing_moments_are_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("+1 1:1e200 2:1\n-1 1:1 2:0\n-1 1:0 2:1\n", encoding="ascii")
        assert main(["train", "bbr", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", [["bbr"], ["lcbr", "--pairs", "4"]], ids=["bbr", "lcbr"])
    def test_overflow_reports_only_the_package_message(self, algorithm, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("+1 1:1e200 2:1\n-1 1:1 2:0\n-1 1:0 2:1\n", encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", *algorithm, str(path)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("pairrank: numerical failure: ")

    def test_multiplier_beyond_float_range_is_numerical_failure(self, toy_file, tmp_path, capsys):
        model = tmp_path / "m.bin"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "bbr", str(toy_file), "--w-star", "1e-320",
                         "--model-out", str(model)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("pairrank: numerical failure: the multiplier bound")
        assert not model.exists()

    @pytest.mark.parametrize("flags, calculator, named", [
        (["--epsilon-grid", "1e-160"], "min_pairs_empirical_gap", "epsilon=1e-160"),
        (["--epsilon-grid", "1e-200"], "min_pairs_empirical_gap", "epsilon=1e-200"),
        (["--x-star", "1e200"], "risk_constants", "x_star=1e+200"),
    ], ids=["pair-count-overflows", "epsilon-squared-underflows", "x-star-squared-overflows"])
    def test_bounds_outside_float_range_are_numerical_failure(self, flags, calculator, named,
                                                              tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        assert main(["bounds-table", "--out", str(out), *flags]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"pairrank: numerical failure: {calculator} ")
        assert named in line
        assert not out.exists()

    def test_diverging_sgd_is_numerical_failure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = _run_cli(["synth-sweep", "--out", str(out), "--k-grid", "1", "--sigma-grid", "2",
                           "--replicates", "1", "--n1", "40", "--n0", "40",
                           "--test-per-class", "40", "--pairs-grid", "40",
                           "--sgd-step-size", "1e308", "--sgd-budget", "100"], tmp_path)
        assert result.returncode == 3
        (line,) = result.stderr.splitlines()
        assert line.startswith("pairrank: numerical failure: pairwise SGD diverged")
        assert "step size 1e+308" in line
        assert not out.exists()

    def test_exhausted_solver_is_numerical_failure(self, toy_file, monkeypatch, capsys):
        monkeypatch.setattr(solver, "_MAX_SECULAR_ITERS", 0)
        assert main(["train", "bbr", str(toy_file), "--w-star", "0.01"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "bracket: [" in err

    def test_option_strings_per_command(self):
        (commands,) = [action for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        options = {
            name: [option for action in command._actions
                   if not isinstance(action, argparse._HelpAction)
                   for option in action.option_strings]
            for name, command in commands.choices.items()
        }
        assert options == {
            "train": ["--pairs", "--seed", "--w-star", "--x-star", "--sample-ratio", "--test",
                      "--model-out", "--csv-out"],
            "synth-sweep": ["--out", "--dim", "--w-star", "--k-grid", "--sigma-grid",
                            "--pairs-grid", "--replicates", "--n1", "--n0", "--test-per-class",
                            "--base-seed", "--sgd-step-size", "--sgd-budget"],
            "skew-sweep": ["--out", "--dim", "--w-star", "--rho-grid", "--total-n", "--pairs",
                           "--replicates", "--k", "--sigma", "--test-per-class", "--base-seed"],
            "bounds-table": ["--out", "--dim", "--w-star", "--x-star", "--rho-grid", "--n-grid",
                             "--epsilon-grid", "--delta", "--sigma-opnorm"],
            "timing": ["--out", "--dim", "--w-star", "--n1", "--n0", "--k", "--sigma",
                       "--pairs-grid", "--repeats", "--base-seed"],
        }

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "pairrank" in capsys.readouterr().out


class TestParserBuiltOnce:
    def _train(self, argv, model, capsys):
        code = main([*argv, "--model-out", str(model)])
        capsys.readouterr()
        return code, model.read_bytes()

    def test_the_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_after_errors_and_help_run_as_the_first_did(self, toy_file, tmp_path, capsys):
        lcbr = ["train", "lcbr", str(toy_file), "--pairs", "7", "--seed", "3", "--x-star", "0.5"]
        bbr = ["train", "bbr", str(toy_file)]
        first = self._train(lcbr, tmp_path / "first.bin", capsys), \
            self._train(bbr, tmp_path / "bbr-first.bin", capsys)
        assert main(["train", "bbr", str(toy_file), "--frobnicate"]) == 1
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err
        # A value the last call set is not the next call's default.
        assert main(["train", "lcbr", str(toy_file)]) == 1
        assert "usage error: lcbr requires --pairs" in capsys.readouterr().err
        for argv in (["--help"], ["train", "--help"]):
            assert main(argv) == 0
            assert "usage: pairrank" in capsys.readouterr().out
        again = self._train(lcbr, tmp_path / "again.bin", capsys), \
            self._train(bbr, tmp_path / "bbr-again.bin", capsys)
        assert first == again
        assert first[0][0] == first[1][0] == 0


class TestSynthSweep:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "synth-sweep",
                "--out", str(out),
                "--k-grid", "1",
                "--sigma-grid", "2.0",
                "--pairs-grid", "50,100",
                "--replicates", "2",
                "--dim", "3",
                "--n1", "30",
                "--n0", "25",
                "--test-per-class", "50",
                "--base-seed", "5",
            ]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert header == list(RESULT_CSV_HEADER)
        assert len(rows) == 2 * (1 + 2)
        assert [row[1] for row in rows] == ["bbr", "lcbr", "lcbr"] * 2
        assert [row[5] for row in rows] == ["0", "50", "100"] * 2

        first_batch, first_sub = rows[0], rows[1]
        assert int(first_batch[6]) == 5
        assert int(first_sub[6]) == derived_seed(5, ROLE_PAIRS, 0)
        assert int(rows[3][6]) == 6
        extra = _extra_dict(first_batch[10])
        assert extra["k"] == "1" and extra["sigma"] == "2" and extra["replicate"] == "0"
        assert 0.0 <= float(extra["optimal_phi_risk"]) <= 0.5

    def test_sgd_rows_added_when_requested(self, tmp_path):
        out = tmp_path / "sweep_sgd.csv"
        code = main(
            [
                "synth-sweep",
                "--out", str(out),
                "--k-grid", "1",
                "--sigma-grid", "2.0",
                "--pairs-grid", "50",
                "--replicates", "1",
                "--dim", "2",
                "--n1", "20",
                "--n0", "20",
                "--test-per-class", "30",
                "--sgd-step-size", "0.1",
                "--sgd-budget", "40",
            ]
        )
        assert code == 0
        _, rows = _read_csv(out)
        assert [row[1] for row in rows] == ["bbr", "lcbr", "pairwise-sgd"]
        assert rows[2][5] == "40"
        assert int(rows[2][6]) == derived_seed(0, ROLE_SGD)

    def test_sgd_budget_defaults_to_5000(self, tmp_path):
        out = tmp_path / "sweep_sgd.csv"
        assert main(["synth-sweep", "--out", str(out), "--k-grid", "1", "--sigma-grid", "2.0",
                     "--pairs-grid", "50", "--replicates", "1", "--dim", "2", "--n1", "20",
                     "--n0", "20", "--test-per-class", "30", "--sgd-step-size", "0.01"]) == 0
        _, rows = _read_csv(out)
        assert [row[1] for row in rows] == ["bbr", "lcbr", "pairwise-sgd"]
        assert rows[2][5] == "5000"


class TestSkewSweep:
    def test_row_count_and_class_sizes(self, tmp_path):
        out = tmp_path / "skew.csv"
        code = main(
            [
                "skew-sweep",
                "--out", str(out),
                "--rho-grid", "0.25,0.5",
                "--total-n", "40",
                "--pairs", "60",
                "--replicates", "2",
                "--dim", "2",
                "--sigma", "1.5",
                "--test-per-class", "30",
                "--base-seed", "7",
            ]
        )
        assert code == 0
        _, rows = _read_csv(out)
        assert len(rows) == 2 * 2 * 2
        assert [row[1] for row in rows] == ["bbr", "lcbr"] * 4
        quarter_rows = rows[:4]
        for row in quarter_rows:
            assert (int(row[3]), int(row[4])) == (10, 30)
        for row in rows[4:]:
            assert (int(row[3]), int(row[4])) == (20, 20)
        assert [int(row[6]) for row in rows[::2]] == [7, 8, 9, 10]
        assert int(rows[1][6]) == derived_seed(7, ROLE_PAIRS)
        assert _extra_dict(rows[0][10])["rho"] == "0.25"

    def test_class_sizes_add_up_to_total_n(self, tmp_path):
        out = tmp_path / "tiny.csv"
        code = main(
            [
                "skew-sweep",
                "--out", str(out),
                "--rho-grid", "0.05,0.95",
                "--total-n", "10",
                "--pairs", "20",
                "--replicates", "1",
                "--dim", "2",
                "--test-per-class", "20",
            ]
        )
        assert code == 0
        _, rows = _read_csv(out)
        assert [(int(row[3]), int(row[4])) for row in rows] == [(1, 9)] * 2 + [(9, 1)] * 2

    def test_total_n_below_two_is_usage_error(self, tmp_path, capsys):
        code = main(["skew-sweep", "--out", str(tmp_path / "one.csv"), "--total-n", "1"])
        assert code == 1
        assert "--total-n" in capsys.readouterr().err
        assert not (tmp_path / "one.csv").exists()


class TestBoundsTable:
    _ARGS = [
        "bounds-table",
        "--dim", "4",
        "--rho-grid", "0.25,0.5",
        "--n-grid", "100,1000",
        "--epsilon-grid", "0.2",
        "--delta", "0.1",
        "--sigma-opnorm", "2.0",
    ]

    def test_grid_rows_match_direct_evaluation(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(self._ARGS + ["--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert len(rows) == 4
        cells = dict(zip(header, rows[0]))
        assert cells["dim"] == "4" and cells["n"] == "100"
        expected = batch_excess_risk_log_tail(
            BoundInputs(
                dim=4, x_star=1.0, w_star=1.0, rho=0.25, n=100,
                sigma_n_opnorm=2.0, epsilon=0.2, delta=0.1,
            )
        )
        assert cells["batch_excess_risk_log_tail"] == f"{expected:.17g}"

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "b1.csv"
        second = tmp_path / "b2.csv"
        assert main(self._ARGS + ["--out", str(first)]) == 0
        assert main(self._ARGS + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestTimingCommand:
    def test_three_routes_reported(self, tmp_path):
        out = tmp_path / "timing.csv"
        code = main(
            [
                "timing",
                "--out", str(out),
                "--n1", "40",
                "--n0", "30",
                "--dim", "3",
                "--pairs-grid", "50",
                "--repeats", "1",
                "--base-seed", "2",
            ]
        )
        assert code == 0
        _, rows = _read_csv(out)
        assert [row[1] for row in rows] == ["bbr-naive", "bbr", "lcbr"]
        assert [row[5] for row in rows] == ["0", "0", "50"]
        for row in rows:
            extra = _extra_dict(row[10])
            assert float(extra["solve_seconds"]) >= 0.0
            assert extra["repeats"] == "1"

    def test_each_route_name_picks_its_own_builder(self, monkeypatch):
        data = random_dataset(np.random.default_rng(5), dim=3, n1=6, n0=5)
        cfg = ProblemConfig(x_star=1.0, w_star=1.0)
        calls = []
        for name in ("batch_moments_fast", "batch_moments_naive", "subsample_moments"):
            def spy(*args, _real=getattr(cli, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(cli, name, spy)
        for algorithm in ("bbr", "bbr-naive", "lcbr"):
            cli._fit(data, cfg, algorithm, 20, 1)
        assert calls == ["batch_moments_fast", "batch_moments_naive", "subsample_moments"]
        with pytest.raises(ValueError, match="no moment route named 'bbr-fast'"):
            cli._fit(data, cfg, "bbr-fast", 0, 1)
        assert len(calls) == 3


class TestOutDirRedirect:
    def test_relative_outputs_land_in_out_dir(self, toy_file, tmp_path, monkeypatch):
        out_dir = tmp_path / "outs"
        out_dir.mkdir()
        monkeypatch.setenv("PAIRRANK_OUT_DIR", str(out_dir))
        code = main(
            ["train", "bbr", str(toy_file), "--model-out", "m.bin", "--csv-out", "c.csv"]
        )
        assert code == 0
        assert (out_dir / "m.bin").exists()
        assert (out_dir / "c.csv").exists()

    def test_absolute_outputs_ignore_out_dir(self, toy_file, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIRRANK_OUT_DIR", str(tmp_path / "elsewhere"))
        model = tmp_path / "abs.bin"
        assert main(["train", "bbr", str(toy_file), "--model-out", str(model)]) == 0
        assert model.exists()
