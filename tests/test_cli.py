import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from psidecomp import cli
from psidecomp.cli import _check_args, _load_dataset, build_parser, main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "gen"
    code = run_cli("generate", "--model", "4", "--snr", "inf", "--seed", "11",
                   "--n", "40", "--p", "30", "--out", str(out))
    assert code == 0
    return out


class TestGenerate:
    def test_outputs_and_truth(self, generated):
        truth = json.loads((generated / "truth.json").read_text())
        assert truth["ranks"] == [4, 4, 4]
        entries = truth["structure"]["entries"]
        assert {tuple(e["blocks"]): e["rank"] for e in entries} == {
            (1, 2, 3): 2, (1,): 2, (2,): 2, (3,): 2}
        X1 = np.loadtxt(generated / "X_1.csv", delimiter=",")
        assert X1.shape == (30, 40)

    def test_deterministic_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate", "--model", "2", "--snr", "15",
                           "--seed", "3", "--n", "30", "--p", "20",
                           "--out", str(out)) == 0
        assert (a / "X_1.csv").read_bytes() == (b / "X_1.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


class TestDecompose:
    def test_round_trip_recovers_truth(self, generated, tmp_path):
        out = tmp_path / "dec"
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--out", str(out))
        assert code == 0
        structure = json.loads((out / "structure.json").read_text())
        truth = json.loads((generated / "truth.json").read_text())
        assert structure == truth["structure"]
        scores = (out / "scores.csv").read_text().strip().split("\n")
        header = scores[0].split(",")
        assert header == ["1|2|3", "1|2|3", "1", "1", "2", "2", "3", "3"]
        assert len(scores) == 1 + 40
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["angle_threshold_deg"] == pytest.approx(20.0)
        loadings_1 = (out / "loadings_1.csv").read_text().strip().split("\n")
        assert loadings_1[0].split(",") == ["1|2|3", "1|2|3", "1", "1"]

    def test_zero_threshold_gives_singletons(self, tmp_path):
        gen = tmp_path / "noisy"
        assert run_cli("generate", "--model", "4", "--snr", "15", "--seed", "5",
                       "--n", "40", "--p", "30", "--out", str(gen)) == 0
        out = tmp_path / "dec0"
        blocks = [str(gen / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "0", "--out", str(out))
        assert code == 0
        structure = json.loads((out / "structure.json").read_text())
        assert {tuple(e["blocks"]): e["rank"] for e in structure["entries"]} == {
            (1,): 4, (2,): 4, (3,): 4}

    def test_diagnostics_report_stable_interval(self, generated, tmp_path):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        intervals = {}
        for lam in ("0", "20"):
            out = tmp_path / f"dec{lam}"
            assert run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                           "--lambda-deg", lam, "--out", str(out)) == 0
            diag = json.loads((out / "diagnostics.json").read_text())
            intervals[lam] = diag["stable_interval_deg"]
        lo, hi = intervals["0"]
        assert lo is None and hi >= 0.0  # nothing accepted at 0 degrees
        lo, hi = intervals["20"]
        assert 0.0 <= lo < 20.0 and (hi is None or hi >= 20.0)

    def test_mismatched_columns_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        np.savetxt(a, np.zeros((3, 5)), delimiter=",")
        np.savetxt(b, np.zeros((3, 6)), delimiter=",")
        code = run_cli("decompose", "--blocks", str(a), str(b),
                       "--ranks", "1,1", "--lambda-deg", "5",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "matched samples required" in capsys.readouterr().err

    def test_requires_exactly_one_rank_source(self, generated, tmp_path):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("decompose", "--blocks", *blocks,
                       "--lambda-deg", "5", "--out", str(tmp_path / "o"))
        assert code == 2
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--var-prop", "0.5", "--lambda-deg", "5",
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_requires_lambda_or_tune(self, generated, tmp_path):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_var_prop_rank_rule(self, generated, tmp_path):
        out = tmp_path / "vp"
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        # noiseless rank-4 blocks: any high proportion still stops at rank 4
        code = run_cli("decompose", "--blocks", *blocks, "--var-prop", "0.999",
                       "--lambda-deg", "20", "--out", str(out))
        assert code == 0
        structure = json.loads((out / "structure.json").read_text())
        total = sum(e["rank"] * len(e["blocks"]) for e in structure["entries"])
        assert total == 12

    @pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
    def test_var_prop_one_keeps_ranks_in_range(self, tmp_path, seed):
        # the cumulative variance share must end at exactly 1, or q = 1 runs
        # past the last singular value
        gen = tmp_path / "gen"
        assert run_cli("generate", "--model", "1", "--snr", "15", "--n", "30",
                       "--p", "20", "--seed", str(seed), "--out", str(gen)) == 0
        out = tmp_path / "dec"
        blocks = [str(gen / f"X_{k}.csv") for k in (1, 2, 3)]
        assert run_cli("decompose", "--blocks", *blocks, "--var-prop", "1.0", "--center",
                       "--lambda-deg", "20", "--out", str(out)) == 0
        structure = json.loads((out / "structure.json").read_text())
        for k in (1, 2, 3):
            assert sum(e["rank"] for e in structure["entries"] if k in e["blocks"]) <= 20

    def test_ordering_file_and_centering(self, generated, tmp_path):
        ordering_file = tmp_path / "ordering.json"
        ordering_file.write_text(
            json.dumps([[1, 2, 3], [1, 2], [1, 3], [2, 3], [3], [2], [1]]))
        src = np.loadtxt(generated / "X_1.csv", delimiter=",") + 7.0  # uncentered
        shifted = tmp_path / "shifted.csv"
        np.savetxt(shifted, src, delimiter=",")
        out = tmp_path / "ord"
        blocks = [str(shifted)] + [str(generated / f"X_{k}.csv") for k in (2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--center",
                       "--ordering", str(ordering_file), "--out", str(out))
        assert code == 0
        structure = json.loads((out / "structure.json").read_text())
        truth = json.loads((generated / "truth.json").read_text())
        assert ({tuple(e["blocks"]): e["rank"] for e in structure["entries"]}
                == {tuple(e["blocks"]): e["rank"]
                    for e in truth["structure"]["entries"]})

    def test_threads_default_is_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for argv in (["tune", "--blocks", "X_1.csv", "--ranks", "4"],
                     ["simulate", "--model", "2"]):
            args = build_parser().parse_args([*argv, "--out", "o"])
            _check_args(args)
            assert args.threads == 2  # a cpuset of 2 on a 64-core host

    def test_nan_csv_exit_2_without_centering_warning(self, generated, tmp_path, capsys):
        X = np.loadtxt(generated / "X_1.csv", delimiter=",")
        X[2, 3] = np.nan
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, X, delimiter=",")
        blocks = [str(bad)] + [str(generated / f"X_{k}.csv") for k in (2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad} contains non-finite entries" in err
        assert "not centered" not in err

    def test_empty_csv_exit_2(self, generated, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("s1,s2,s3\n\n")
        for path in (empty, header_only):
            blocks = [str(path)] + [str(generated / f"X_{k}.csv") for k in (2, 3)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                               "--lambda-deg", "20", "--out", str(tmp_path / "o"))
            assert code == 2
            err = capsys.readouterr().err
            assert f"{path} contains no data" in err
            assert "matched samples" not in err

    def test_header_rows_are_accepted(self, generated, tmp_path):
        src = np.loadtxt(generated / "X_1.csv", delimiter=",")
        with_header = tmp_path / "h1.csv"
        np.savetxt(with_header, src, delimiter=",",
                   header=",".join(f"s{i}" for i in range(src.shape[1])),
                   comments="")
        out = tmp_path / "dech"
        blocks = [str(with_header)] + [str(generated / f"X_{k}.csv") for k in (2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--out", str(out))
        assert code == 0


class TestTune:
    def test_single_repetition(self, generated, tmp_path):
        out = tmp_path / "tune"
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("tune", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--grid", "0:30:5", "--reps", "1", "--seed", "2",
                       "--out", str(out))
        assert code == 0
        payload = json.loads((out / "tune.json").read_text())
        assert payload["mode_count"] == 1
        assert len(payload["lambda_hat_deg"]) == 1
        curves = (out / "curves.tsv").read_text().strip().split("\n")
        assert curves[0] == "rep\tlambda_degrees\trisk\tdissimilarity"
        assert len(curves) == 1 + 7

    def test_noiseless_mode_is_unanimous(self, generated, tmp_path):
        out = tmp_path / "tune3"
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("tune", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--grid", "2:40:2", "--reps", "3", "--seed", "0",
                       "--out", str(out))
        assert code == 0
        payload = json.loads((out / "tune.json").read_text())
        assert payload["mode_count"] == 3
        truth = json.loads((generated / "truth.json").read_text())
        assert payload["mode_structure"] == truth["structure"]

    def test_missing_rank_config_exit_2(self, generated, tmp_path):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("tune", "--blocks", *blocks, "--reps", "1",
                       "--out", str(tmp_path / "o"))
        assert code == 2

    def test_worker_pool_matches_serial(self, generated, tmp_path):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        outs = []
        for tag, threads in (("serial", "1"), ("pooled", "2")):
            out = tmp_path / tag
            code = run_cli("tune", "--blocks", *blocks, "--ranks", "4,4,4",
                           "--grid", "5:25:5", "--reps", "2", "--seed", "4",
                           "--threads", threads, "--out", str(out))
            assert code == 0
            outs.append([(out / name).read_bytes() for name in ("tune.json", "curves.tsv")])
        assert outs[0] == outs[1]


    def test_threads_below_one_exit_2(self, generated, tmp_path, capsys):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        for threads in ("0", "-1"):
            code = run_cli("tune", "--blocks", *blocks, "--ranks", "4,4,4",
                           "--grid", "5:25:5", "--reps", "2",
                           "--threads", threads, "--out", str(tmp_path / "o"))
            assert code == 2
            assert "--threads must be at least 1" in capsys.readouterr().err
        code = run_cli("simulate", "--model", "2", "--lambda-deg", "20",
                       "--n", "40", "--p", "30", "--threads", "0",
                       "--out", str(tmp_path / "s"))
        assert code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_rank_above_training_half_exit_2(self, tmp_path, capsys):
        gen = tmp_path / "small"
        assert run_cli("generate", "--model", "4", "--snr", "15", "--seed", "1",
                       "--n", "14", "--p", "30", "--out", str(gen)) == 0
        blocks = [str(gen / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("tune", "--blocks", *blocks, "--ranks", "8,8,8",
                       "--reps", "1", "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert ("block 1 has rank 8, but tuning fits on a training half of "
                "n_train = 7 of the n = 14 samples") in err


    def test_worker_pool_writes_same_curves(self, generated, tmp_path):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert run_cli("tune", "--blocks", *blocks, "--ranks", "4,4,4",
                           "--grid", "0:30:2", "--reps", "3", "--seed", "6",
                           "--threads", threads, "--out", str(out)) == 0
            outs.append((out / "curves.tsv").read_bytes())
        assert outs[0] == outs[1]
        rows = outs[0].decode().strip().split("\n")
        assert rows[0] == "rep\tlambda_degrees\trisk\tdissimilarity"
        assert len(rows) == 1 + 3 * 16
        assert [r.split("\t")[0] for r in rows[1::16]] == ["0", "1", "2"]

    @pytest.mark.parametrize("command", (["tune"], ["decompose", "--tune"]))
    def test_total_rank_above_test_half_exit_2(self, tmp_path, capsys, command):
        # n = 15 splits 8 / 7: the training fit can claim 8 score columns,
        # one more than the test half has samples.
        gen = tmp_path / "odd"
        assert run_cli("generate", "--model", "6", "--n", "15", "--p", "20",
                       "--out", str(gen)) == 0
        blocks = [str(gen / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli(*command, "--blocks", *blocks, "--ranks", "3,3,3",
                       "--center", "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert ("the training fit claims a total rank of 8, but the test half "
                "has n_test = 7 of the n = 15 samples") in err
        assert "Traceback" not in err

    def test_total_rank_above_test_half_checked_per_fit(self, tmp_path):
        # ranks summing past n_test are fine while no fit claims that many
        gen = tmp_path / "even"
        assert run_cli("generate", "--model", "6", "--n", "14", "--p", "20",
                       "--out", str(gen)) == 0
        blocks = [str(gen / f"X_{k}.csv") for k in (1, 2, 3)]
        assert run_cli("tune", "--blocks", *blocks, "--ranks", "3,3,3",
                       "--center", "--out", str(tmp_path / "o")) == 0


DATA_COMMANDS = (["decompose", "--lambda-deg", "20"], ["decompose", "--tune"], ["tune"])


class TestDegenerateBlocks:
    @pytest.mark.parametrize("command", DATA_COMMANDS)
    @pytest.mark.parametrize("value, center", ((7.7, ["--center"]), (0.0, [])))
    def test_all_zero_block_exit_2(self, generated, tmp_path, capsys, command, value,
                                   center):
        # centering rows of 7.7 leaves rounding residue near 1e-15, not zeros
        const = tmp_path / "const.csv"
        np.savetxt(const, np.full((30, 40), value), delimiter=",")
        blocks = [str(generated / "X_1.csv"), str(generated / "X_2.csv"), str(const)]
        out = tmp_path / "o"
        code = run_cli(*command, "--blocks", *blocks, "--ranks", "4,4,4", *center,
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{const} is all zeros" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", (["decompose", "--lambda-deg", "20"],
                                         ["decompose", "--tune"],
                                         ["tune", "--reps", "2", "--threads", "1"]))
    @pytest.mark.parametrize("center", ([], ["--center"]))
    def test_constant_rows_run(self, tmp_path, capsys, command, center):
        # 5 rows of 7.7 and 3 zero rows per block: zero rows after centering,
        # but the rest of each block still carries signal
        rng = np.random.default_rng(4)
        blocks = []
        for k in (1, 2, 3):
            X = rng.standard_normal((30, 40))
            rows = rng.permutation(30)
            X[rows[:5]] = 7.7
            X[rows[5:8]] = 0.0
            blocks.append(str(tmp_path / f"X_{k}.csv"))
            np.savetxt(blocks[-1], X, delimiter=",")
        code = run_cli(*command, "--blocks", *blocks, "--ranks", "3,3,3", *center,
                       "--out", str(tmp_path / "o"))
        assert code == 0
        warned = "".join(f"warning: block {k} rows are not centered "
                         "(use --center to apply row centering)\n" for k in (1, 2, 3))
        assert capsys.readouterr().err == ("" if center else warned)

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_duplicated_block_runs(self, generated, tmp_path, command):
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 1)]
        assert run_cli(*command, "--blocks", *blocks, "--ranks", "4,4,4",
                       "--out", str(tmp_path / "o")) == 0


class TestLoadDataset:
    @staticmethod
    def load_traced(tmp_path, center):
        """The dataset of 3 uncentered 300 x 200 blocks, and the bytes it keeps
        and its peak, both above what was allocated before the load."""
        rng = np.random.default_rng(8)
        paths = []
        for k in (1, 2, 3):
            paths.append(str(tmp_path / f"X_{k}.csv"))
            np.savetxt(paths[-1], rng.standard_normal((300, 200)) + 5.0, delimiter=",")
        args = argparse.Namespace(blocks=paths, center=center)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = _load_dataset(args)
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert kept >= sum(b.nbytes for b in data.blocks)
        assert peak - kept < data.blocks[0].nbytes
        return data

    def test_center_keeps_at_most_one_block_in_flight(self, tmp_path):
        data = self.load_traced(tmp_path, center=True)
        assert all(np.all(np.abs(b.mean(axis=1)) < 1e-12) for b in data.blocks)

    def test_centering_check_keeps_at_most_one_block_in_flight(self, tmp_path, capsys):
        data = self.load_traced(tmp_path, center=False)
        assert all(np.all(b.mean(axis=1) > 4.0) for b in data.blocks)
        assert capsys.readouterr().err.count("rows are not centered") == 3


class TestSimulate:
    def test_noiseless_summary(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--model", "2", "--snr", "inf",
                       "--lambda-deg", "20", "--reps", "2", "--seed", "0",
                       "--n", "40", "--p", "30", "--threads", "1",
                       "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accuracy_percent"] == 100.0
        assert summary["rse"]["mean"] <= 1e-10
        rows = (out / "results.tsv").read_text().strip().split("\n")
        assert len(rows) == 3

    def test_worker_pool_matches_serial(self, tmp_path):
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert run_cli("simulate", "--model", "3", "--n", "40", "--p", "30",
                           "--reps", "2", "--threads", threads,
                           "--out", str(out)) == 0
            rows = [line.split("\t") for line in
                    (out / "results.tsv").read_text().strip().split("\n")]
            wall = rows[0].index("wall_ms")
            tables.append([row[:wall] + row[wall + 1:] for row in rows])
        assert tables[0] == tables[1]
        assert len(tables[0]) == 3

    def test_unknown_model_exit_2(self, tmp_path):
        code = run_cli("simulate", "--model", "9", "--snr", "10",
                       "--reps", "1", "--out", str(tmp_path / "o"))
        assert code == 2

    def test_lambda_and_tune_together_exit_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--model", "2", "--lambda-deg", "20", "--tune",
                       "--n", "40", "--p", "30", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "exactly one of --lambda-deg or --tune" in capsys.readouterr().err

    def test_imbalanced_tag_accepted(self, tmp_path):
        out = tmp_path / "imb"
        code = run_cli("simulate", "--model", "joint_strong", "--snr", "inf",
                       "--lambda-deg", "20", "--reps", "1", "--seed", "1",
                       "--n", "60", "--threads", "1", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["accuracy_percent"] == 100.0


# (command and flags, message): each error needs no data block to be found
ARGUMENT_ERRORS = (
    (["tune", "--ranks", "4,4,4", "--threads", "0"], "--threads must be at least 1"),
    (["decompose", "--ranks", "4,4,4"], "exactly one of --lambda-deg or --tune is required"),
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "0:95:1"],
     "--grid values must lie in [0, 90) degrees"),
    (["decompose", "--ranks", "8,8", "--lambda-deg", "20"],
     "--ranks needs 3 comma-separated integers"),
    (["decompose", "--var-prop", "1.5", "--lambda-deg", "20"], "--var-prop must lie in (0, 1]"),
    (["decompose", "--ranks", "4,x,4", "--lambda-deg", "20"], "bad rank value 'x'"),
    (["decompose", "--ranks", "4,0,4", "--lambda-deg", "20"],
     "rank 0 out of range for block 2"),
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "0:10"],
     "--grid must be lo:hi:step in degrees"),
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "10:0:1"],
     "--grid must be increasing with positive step"),
    (["tune", "--ranks", "4,4,4", "--reps", "0"], "--reps must be at least 1"),
    (["decompose", "--ranks", "4,4,4", "--lambda-deg", "95"],
     "--lambda-deg must lie in [0, 90)"),
)

# every option of each subcommand, besides --help
OPTIONS = {
    "decompose": {"--blocks", "--ranks", "--var-prop", "--ordering", "--center",
                  "--lambda-deg", "--tune", "--grid", "--seed", "--out"},
    "tune": {"--blocks", "--ranks", "--var-prop", "--ordering", "--center",
             "--grid", "--reps", "--seed", "--threads", "--out"},
    "simulate": {"--model", "--snr", "--lambda-deg", "--tune", "--grid", "--reps",
                 "--seed", "--n", "--p", "--threads", "--out"},
    "generate": {"--model", "--snr", "--seed", "--n", "--p", "--out"},
}


class TestArguments:
    @pytest.mark.parametrize("argv, message", ARGUMENT_ERRORS)
    def test_checked_before_any_block_is_read(self, tmp_path, capsys, argv, message):
        missing = [str(tmp_path / f"missing_{k}.csv") for k in (1, 2, 3)]
        rng = np.random.default_rng(0)
        uncentered = []
        for k in (1, 2, 3):
            path = tmp_path / f"X_{k}.csv"
            np.savetxt(path, rng.standard_normal((30, 40)) + 7.0, delimiter=",")
            uncentered.append(str(path))
        out = tmp_path / "o"
        for blocks in (missing, uncentered):
            code = run_cli(argv[0], "--blocks", *blocks, *argv[1:], "--out", str(out))
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: {message}\n"
            assert not out.exists()

    def test_missing_block_exit_2(self, tmp_path, capsys):
        missing = [str(tmp_path / f"missing_{k}.csv") for k in (1, 2, 3)]
        out = tmp_path / "o"
        code = run_cli("decompose", "--blocks", *missing, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: no such file: {missing[0]}\n"
        assert not out.exists()

    def test_rank_above_block_size_exit_2(self, generated, tmp_path, capsys):
        narrow = tmp_path / "narrow.csv"
        np.savetxt(narrow, np.loadtxt(generated / "X_1.csv", delimiter=",")[:8], delimiter=",")
        blocks = [str(narrow)] + [str(generated / f"X_{k}.csv") for k in (2, 3)]
        out = tmp_path / "o"
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "9,4,4",
                       "--lambda-deg", "20", "--center", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: rank 9 out of range for block 1\n"
        assert not out.exists()

    def test_model_not_a_number_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("simulate", "--model", "abc", "--lambda-deg", "20",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: unknown model 'abc'\n"
        assert not out.exists()

    def test_numerical_failure_exit_3(self, generated, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "identify", fail)
        blocks = [str(generated / f"X_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--center", "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: SVD did not converge\n"
        assert "Traceback" not in err

    def test_too_many_blocks_exit_2(self, tmp_path, capsys):
        # the paths do not exist, so the K message shows that none was read
        missing = [str(tmp_path / f"missing_{k}.csv") for k in range(1, 14)]
        out = tmp_path / "o"
        code = run_cli("decompose", "--blocks", *missing, "--ranks", ",".join(["2"] * 13),
                       "--lambda-deg", "20", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the number of blocks K must be between 1 and 12\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", (["generate"], ["simulate", "--lambda-deg", "20"]))
    @pytest.mark.parametrize("flag", ("--p", "--n"))
    def test_size_below_one_exit_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        assert run_cli(*command, "--model", "2", flag, "0", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr", ("abc", "nan"))
    def test_snr_not_positive_number_exit_2(self, tmp_path, capsys, snr):
        out = tmp_path / "o"
        assert run_cli("generate", "--model", "2", "--snr", snr, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --snr must be positive or inf\n"
        assert not out.exists()

    def test_p_unset_means_preset_default(self, tmp_path):
        for model, p in (("2", 200), ("joint_strong", 100)):
            out = tmp_path / model
            assert run_cli("generate", "--model", model, "--n", "60", "--out", str(out)) == 0
            truth = json.loads((out / "truth.json").read_text())
            assert set(truth["block_sizes"]) == {p}

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_each_option(self, command):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "psidecomp.cli", command, "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", proc.stdout)) == (
            OPTIONS[command] | {"--help"})


class TestBlasThreads:
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("generate", "--model", "6", "--snr", "15", "--seed", "2000",
                       "--out", str(data)) == 0
        blocks = [str(data / f"X_{k}.csv") for k in (1, 2, 3)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        written = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            out = tmp_path / f"blas{threads}"
            for argv in (["tune", "--reps", "3", "--threads", "1"], ["decompose", "--tune"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "psidecomp.cli", *argv, "--blocks", *blocks,
                     "--ranks", "8,8,8", "--out", str(out / argv[0])],
                    env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            written[threads] = {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(written["1"]) == 8
        assert written["1"] == written["2"]
