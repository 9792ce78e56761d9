import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psidecomp import (
    cli,
    default_grid,
    default_ordering,
    estimate_loadings,
    extract_signal,
    identify_path,
    mode_structure,
    model_preset,
    select_lambda,
    simgen,
)
from psidecomp.cli import _check_args, _load_dataset, build_parser, main
from psidecomp.structure import structure_to_dict
from psidecomp.tuning import _curve_rows


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

    @pytest.mark.parametrize("cuts, warned", [(0.5, False), (2.0, True)])
    def test_centering_warning_at_its_cut(self, tmp_path, capsys, cuts, warned):
        # CENTERING_RTOL is 1e-8: block 1's first row has mean cuts * 1e-8 * sd,
        # every other row is centered to rounding
        rng = np.random.default_rng(5)
        blocks = []
        for k in (1, 2, 3):
            X = rng.standard_normal((10, 30))
            X -= X.mean(axis=1, keepdims=True)
            if k == 1:
                X[0] += cuts * 1e-8 * math.sqrt(np.mean(X[0] * X[0]))
            blocks.append(tmp_path / f"X_{k}.csv")
            np.savetxt(blocks[-1], X, delimiter=",")
        code = run_cli("decompose", "--blocks", *map(str, blocks), "--ranks", "2,2,2",
                       "--lambda-deg", "20", "--out", str(tmp_path / "o"))
        assert code == 0
        err = capsys.readouterr().err
        assert ("not centered" in err) == warned
        assert ("block 1 rows are not centered" in err) == warned

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


class TestDecomposeMatchesRunOnce:
    """``psi decompose`` and ``simgen.run_once`` each carry a copy of the fit
    pipeline; on a generated model's CSVs the two copies give the same fit."""

    @pytest.mark.parametrize("lambda_deg", (None, 20.0))
    @pytest.mark.parametrize("model_id, seed", ((3, 11), (3, 12), (6, 11), (6, 12)))
    def test_same_lambda_structure_and_scores(self, model_id, seed, lambda_deg,
                                              tmp_path, monkeypatch):
        model = model_preset(model_id, snr=15.0, n=80, block_size=60)
        gen, out = tmp_path / "gen", tmp_path / "dec"
        assert run_cli("generate", "--model", str(model_id), "--snr", "15", "--n", "80",
                       "--p", "60", "--seed", str(seed), "--out", str(gen)) == 0
        threshold = ["--tune"] if lambda_deg is None else ["--lambda-deg", f"{lambda_deg:g}"]
        assert run_cli("decompose", "--blocks",
                       *(str(gen / f"X_{k}.csv") for k in range(1, model.K + 1)),
                       "--ranks", ",".join(map(str, model.block_ranks())),
                       "--seed", str(seed), *threshold, "--out", str(out)) == 0

        # run_once returns metrics only, so take its fit from its loadings call
        fits = []
        def keep_fit(signals, result):
            fits.append(result)
            return estimate_loadings(signals, result)
        monkeypatch.setattr(simgen, "estimate_loadings", keep_fit)
        outcome = simgen.run_once(model, seed, angle_threshold=None if lambda_deg is None
                                  else math.radians(lambda_deg))
        (fit,) = fits

        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["angle_threshold_deg"] == outcome.lambda_deg
        assert json.loads((out / "structure.json").read_text()) == \
            structure_to_dict(fit.structure)
        scores = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(scores, fit.stacked_scores()[0])


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


    @pytest.mark.parametrize("threads", ("1", "2"))
    @pytest.mark.parametrize("model,seed,n,p", (("4", 11, 40, 30), ("6", 5, 60, 40)))
    def test_per_stage_whole_path_writes_what_identify_path_gives(
            self, tmp_path, model, seed, n, p, threads):
        # tune's whole-data path takes the per-stage schedule in stacked
        # coordinates; its files must be those of select_lambda given the
        # per-direction identify_path
        gen = tmp_path / "gen"
        assert run_cli("generate", "--model", model, "--snr", "15", "--seed", str(seed),
                       "--n", str(n), "--p", str(p), "--out", str(gen)) == 0
        blocks = [str(gen / f"X_{k}.csv") for k in (1, 2, 3)]
        ranks = json.loads((gen / "truth.json").read_text())["ranks"]
        out = tmp_path / "tune"
        assert run_cli("tune", "--blocks", *blocks, "--ranks", ",".join(map(str, ranks)),
                       "--reps", "3", "--seed", "7", "--threads", threads,
                       "--out", str(out)) == 0

        data = _load_dataset(argparse.Namespace(blocks=blocks, center=False))
        ordering, grid = default_ordering(3), default_grid()
        signals = [extract_signal(X, r, check_centering=False)
                   for X, r in zip(data.blocks, ranks)]
        whole = identify_path(signals, ordering, grid)
        results = [select_lambda(data, ranks, ordering, grid, 7 + rep, whole_path=whole)
                   for rep in range(3)]
        mode, count = mode_structure([t.decomposition_hat.structure for t in results])
        payload = {
            "repetitions": 3,
            "lambda_hat_deg": [math.degrees(t.lambda_hat) for t in results],
            "lambda_tilde_deg": [math.degrees(t.lambda_tilde) for t in results],
            "mode_structure": structure_to_dict(mode),
            "mode_count": count,
        }
        assert (out / "tune.json").read_text() == json.dumps(payload, indent=2) + "\n"
        rows = [f"{rep}\t{row}" for rep, t in enumerate(results) for row in _curve_rows(t)]
        assert (out / "curves.tsv").read_text() == "\n".join(
            ["rep\tlambda_degrees\trisk\tdissimilarity", *rows]) + "\n"

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

    @pytest.mark.parametrize("cuts, zero", [(0.5, True), (2.0, False)])
    def test_all_zero_cut_after_centering(self, generated, tmp_path, capsys, cuts, zero):
        # ZERO_RTOL is 1e-12: rows of 1 + d u, u a zero-mean sign pattern and
        # d = cuts * 1e-12, centre to +-d against a raw row max of 1 + d
        rng = np.random.default_rng(6)
        signs = np.array([rng.permutation([1.0, -1.0] * 20) for _ in range(30)])
        block = tmp_path / "near_const.csv"
        np.savetxt(block, 1.0 + cuts * 1e-12 * signs, delimiter=",", fmt="%.17g")
        blocks = [str(generated / "X_1.csv"), str(generated / "X_2.csv"), str(block)]
        code = run_cli("decompose", "--lambda-deg", "20", "--blocks", *blocks,
                       "--ranks", "4,4,4", "--center", "--out", str(tmp_path / "o"))
        assert code == (2 if zero else 0)
        assert (f"{block} is all zeros after row centering" in capsys.readouterr().err) == zero


def halves(X, top, bottom):
    """X with its first half of rows times ``top`` and the rest times ``bottom``."""
    h = X.shape[0] // 2
    return np.vstack([X[:h] * top, X[h:] * bottom])


# name: (scaling of each block, scaling of its counterpart, factor c of the
# loadings against the counterpart's)
SCALE_CASES = {
    "tiny": (lambda X: X * 1e-200, lambda X: X, 1e-200),
    "huge": (lambda X: X * 1e200, lambda X: X, 1e200),
    "split": (lambda X: halves(X, 1e150, 1e-150), lambda X: halves(X, 1.0, 0.0), 1e150),
}


class TestScaleSafety:
    """Blocks far outside the float range of their squares (ROADMAP item 15)
    give the outputs of their unscaled counterparts: every block times one
    factor, or each block's first half of rows at 1e150 and the rest at
    1e-150, whose counterpart has those rows at zero, as far below the rest
    as double precision can see. Every command exits 0, and pytest turns a
    RuntimeWarning into an error. Scaling every block by the same factor
    leaves the held-out risk unchanged, so the tuned outputs must agree too.
    The factors are not powers of two, so the numbers agree to rounding."""

    COMMANDS = {"fixed": ["decompose", "--lambda-deg", "30"], "tuned": ["decompose", "--tune"],
                "tune": ["tune", "--reps", "3", "--threads", "1"]}

    @staticmethod
    def run_all(tmp_path, name, scale):
        rng = np.random.default_rng(0)
        paths = []
        for k, p in enumerate((30, 25, 20), start=1):
            paths.append(str(tmp_path / f"{name}_{k}.csv"))
            np.savetxt(paths[-1], scale(rng.standard_normal((p, 12))), delimiter=",",
                       fmt="%.17g")
        outs = {}
        for key, command in TestScaleSafety.COMMANDS.items():
            outs[key] = tmp_path / f"{name}_{key}"
            assert run_cli(*command, "--blocks", *paths, "--ranks", "2,2,2", "--center",
                           "--out", str(outs[key])) == 0
        return outs

    @pytest.mark.parametrize("name", SCALE_CASES)
    def test_outputs_of_the_unscaled_counterpart(self, tmp_path, name):
        scale, counterpart, c = SCALE_CASES[name]
        got, want = self.run_all(tmp_path, name, scale), self.run_all(tmp_path, "ref", counterpart)

        def csv(path):
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

        for key in ("fixed", "tuned"):
            a, b = got[key], want[key]
            assert (a / "structure.json").read_text() == (b / "structure.json").read_text()
            np.testing.assert_allclose(csv(a / "scores.csv"), csv(b / "scores.csv"),
                                       rtol=0.0, atol=1e-10)
            for k in (1, 2, 3):
                L, L0 = csv(a / f"loadings_{k}.csv"), c * csv(b / f"loadings_{k}.csv")
                np.testing.assert_allclose(L, L0, rtol=0.0, atol=1e-9 * np.abs(L0).max())
            da, db = (json.loads((d / "diagnostics.json").read_text()) for d in (a, b))
            assert da["angle_threshold_deg"] == db["angle_threshold_deg"]
            ra, rb = da["acceptances"], db["acceptances"]
            assert [r["blocks"] for r in ra] == [r["blocks"] for r in rb]
            np.testing.assert_allclose([r["angles_deg"] for r in ra],
                                       [r["angles_deg"] for r in rb], atol=1e-8)
        assert (got["tune"] / "tune.json").read_text() == (want["tune"] / "tune.json").read_text()
        ca, cb = (np.loadtxt(d / "curves.tsv", skiprows=1) for d in (got["tune"], want["tune"]))
        np.testing.assert_array_equal(ca[:, [0, 1, 3]], cb[:, [0, 1, 3]])
        np.testing.assert_allclose(ca[:, 2], cb[:, 2], rtol=1e-9)

    @pytest.mark.parametrize("factor", [1e-200, 1e200])
    def test_var_prop_ranks_at_any_scale(self, tmp_path, factor):
        # the shares of s_i^2 are taken from s scaled by a power of two
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((p, 12)) for p in (30, 25, 20)]
        outs = []
        for name, c in (("ref", 1.0), ("scaled", factor)):
            paths = [str(tmp_path / f"{name}_{k}.csv") for k in (1, 2, 3)]
            for path, X in zip(paths, blocks):
                np.savetxt(path, c * X, delimiter=",", fmt="%.17g")
            outs.append(tmp_path / name)
            assert run_cli("decompose", "--lambda-deg", "30", "--var-prop", "0.5",
                           "--blocks", *paths, "--center", "--out", str(outs[-1])) == 0
        a, b = ((d / "structure.json").read_text() for d in outs)
        assert a == b

    def test_one_tiny_block_tunes(self, tmp_path, capsys):
        # One block at 1e-200 used to stop tuning with "test block with zero
        # norm"; at a fixed threshold its fit is that of the unscaled block.
        got = self.run_all(tmp_path, "one", lambda X: X * (1e-200 if X.shape[0] == 30 else 1.0))
        want = self.run_all(tmp_path, "ref", lambda X: X)
        assert "zero norm" not in capsys.readouterr().err
        a, b = got["fixed"], want["fixed"]
        assert (a / "structure.json").read_text() == (b / "structure.json").read_text()
        scores = [(d / "scores.csv").read_text().split("\n", 1) for d in (a, b)]
        assert scores[0][0] == scores[1][0]  # the index-set labels
        np.testing.assert_allclose(*(np.loadtxt(d / "scores.csv", delimiter=",", skiprows=1)
                                     for d in (a, b)), rtol=0.0, atol=1e-10)


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
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "0:89:1e-12"],
     "--grid must have at most 1,000,000 points"),
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "0:89:nan"],
     "--grid values must be finite"),
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "0:89:inf"],
     "--grid values must be finite"),
    (["tune", "--ranks", "4,4,4", "--grid", "0:inf:1"], "--grid values must be finite"),
    (["decompose", "--ranks", "4,,4,4", "--lambda-deg", "20"],
     "--ranks needs 3 comma-separated integers"),
    (["decompose", "--ranks", "4,4,4,", "--lambda-deg", "20"],
     "--ranks needs 3 comma-separated integers"),
    (["decompose", "--ranks", ",4,4,4", "--lambda-deg", "20"],
     "--ranks needs 3 comma-separated integers"),
    # int() and float() read "_" and non-ASCII digits, which psi refuses everywhere
    (["decompose", "--ranks", "1_0,4,4", "--lambda-deg", "20"], "bad rank value '1_0'"),
    (["decompose", "--ranks", "4,4,4", "--lambda-deg", "2_0"],
     "--lambda-deg must be a number, not '2_0'"),
    (["decompose", "--ranks", "4,4,4", "--lambda-deg", "\u0662\u0660"],
     "--lambda-deg must be a number, not '\u0662\u0660'"),
    (["decompose", "--ranks", "4,4,4", "--lambda-deg", "20", "--seed", "\u0663"],
     "--seed must be an integer, not '\u0663'"),
    (["decompose", "--var-prop", "0_5", "--lambda-deg", "20"],
     "--var-prop must be a number, not '0_5'"),
    (["decompose", "--ranks", "4,4,4", "--tune", "--grid", "0:8_9:1"],
     "--grid must be lo:hi:step in degrees"),
    (["tune", "--ranks", "4,4,4", "--reps", "\u0662"], "--reps must be an integer, not '\u0662'"),
    (["tune", "--ranks", "4,4,4", "--threads", "\u0661"],
     "--threads must be an integer, not '\u0661'"),
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

    @pytest.mark.parametrize("argv", (
        ["decompose", "--blocks", "missing_1.csv", "--ranks", "4", "--lambda-deg", "20"],
        ["tune", "--blocks", "missing_1.csv", "missing_2.csv", "--ranks", "4,4"],
        ["simulate", "--model", "2", "--lambda-deg", "20", "--n", "40", "--p", "30"],
        ["generate", "--model", "2", "--n", "40", "--p", "30"]))
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        # the block paths do not exist, so the message shows that none was read
        out = tmp_path / "o"
        assert run_cli(*argv, "--seed", "-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer\n"
        assert not out.exists()

    def test_p_unset_means_preset_default(self, tmp_path):
        for model, p in (("2", 200), ("joint_strong", 100)):
            out = tmp_path / model
            assert run_cli("generate", "--model", model, "--n", "60", "--out", str(out)) == 0
            truth = json.loads((out / "truth.json").read_text())
            assert set(truth["block_sizes"]) == {p}

    def test_grid_cap_counts_the_points_np_arange_returns(self):
        # (9.99999 + 0.000005) / 0.00001 rounds up to 1,000,000 points, 10 to 1,000,001
        assert cli._parse_grid("0:9.99999:0.00001").size == cli.MAX_GRID_POINTS
        with pytest.raises(cli.ConfigError, match="at most 1,000,000 points"):
            cli._parse_grid("0:10:0.00001")

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


# Option values as text: numbers, the edge cases nan, inf, 1e-12, 1e308, 1_0
# and non-ASCII digits, and any short text.
EDGE_TEXT = st.sampled_from(("nan", "inf", "-inf", "1e-12", "1e308", "1_0", "\u0661",
                             "\uff11", "\u0663.\u0665", ""))
INT_TEXT = st.one_of(st.integers(-3, 10**6).map(str), EDGE_TEXT, st.text(max_size=8))
FLOAT_TEXT = st.one_of(st.floats().map(repr), EDGE_TEXT, st.text(max_size=8))
OPTION_TEXT = {
    "--grid": st.tuples(*[st.sampled_from(("0", "1", "89")) | EDGE_TEXT | FLOAT_TEXT] * 3
                        ).map(":".join),
    "--ranks": st.lists(st.just("4") | EDGE_TEXT | INT_TEXT, min_size=3,
                        max_size=3).map(",".join),
    "--var-prop": FLOAT_TEXT,
    "--lambda-deg": FLOAT_TEXT,
    "--seed": INT_TEXT,
    "--reps": INT_TEXT,
    "--threads": INT_TEXT,
}
# options that pass every check, so that a run stops at the first missing block
VALID_OPTIONS = {
    "decompose": {"--ranks": "4,4,4", "--lambda-deg": "20", "--grid": "0:89:1", "--seed": "3"},
    "tune": {"--ranks": "4,4,4", "--grid": "0:89:1", "--seed": "3", "--reps": "2",
             "--threads": "1"},
}


# simulate and generate options that pass every check
MODEL_OPTIONS = {
    "generate": {"--model": "2", "--snr": "15", "--seed": "3", "--n": "40", "--p": "30"},
    "simulate": {"--model": "2", "--snr": "15", "--seed": "3", "--n": "40", "--p": "30",
                 "--lambda-deg": "20", "--grid": "0:89:1", "--reps": "1", "--threads": "1"},
}
# zeros of decimal scripts: Arabic-Indic, Extended Arabic-Indic, Devanagari, fullwidth
DIGIT_ZEROS = (0x0660, 0x06F0, 0x0966, 0xFF10)
# numbers that int() and float() read and psi refuses: an "_" between digits, or
# digits of another script
REFUSED_NUMBER = st.one_of(
    st.integers(10, 10**4).map(str).map(lambda d: f"{d[0]}_{d[1:]}"),
    st.tuples(st.integers(0, 10**4).map(str), st.sampled_from(DIGIT_ZEROS)).map(
        lambda t: "".join(chr(t[1] + int(d)) for d in t[0])))


def has_refused_digit(text: str) -> bool:
    return any(c == "_" or (c.isdigit() and not c.isascii()) for c in text)


@pytest.fixture(scope="module")
def missing_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("front_door")


class TestFrontDoor:
    # The block paths do not exist, so no example reads a block, starts a pool
    # or fits. simulate and generate read no block and would run, so only the
    # second property takes them, and it always gives one number refused text.
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(sorted(VALID_OPTIONS)), data=st.data())
    def test_any_option_values_exit_2(self, missing_dir, command, data):
        options = dict(VALID_OPTIONS[command])
        # change some options of a valid command line: set any value, or drop them
        for flag in data.draw(st.sets(st.sampled_from(sorted({*options, "--var-prop"})),
                                      min_size=1), label="changed"):
            options[flag] = data.draw(st.none() | OPTION_TEXT[flag], label=flag)
        argv = [command, "--blocks", *(str(missing_dir / f"X_{k}.csv") for k in (1, 2, 3)),
                "--out", str(missing_dir / "o")]
        argv += [f"{flag}={value}" for flag, value in options.items() if value is not None]
        if command == "decompose" and options["--lambda-deg"] is None:
            argv.append("--tune")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the value
                code = exc.code
        assert code == 2
        assert not (missing_dir / "o").exists()
        # a number with "_" or a non-ASCII digit is refused before any block is looked for
        if any(map(has_refused_digit, filter(None, options.values()))):
            assert err.getvalue().startswith("error: ")
            assert "no such file" not in err.getvalue()
            assert any(flag in err.getvalue() for flag in options) or "rank" in err.getvalue()

    # A number written with "_" or non-ASCII digits in at least one option, and
    # valid values in the rest: each run stops at that option before any work.
    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(sorted(MODEL_OPTIONS)), data=st.data())
    def test_number_text_refused_before_any_work(self, missing_dir, command, data):
        options = dict(MODEL_OPTIONS[command])
        refused = {flag: data.draw(REFUSED_NUMBER, label=flag) for flag in data.draw(
            st.sets(st.sampled_from(sorted(options)), min_size=1), label="refused")}
        if "--grid" in refused:
            parts = ["0", "89", "1"]
            parts[data.draw(st.integers(0, 2), label="grid part")] = refused["--grid"]
            refused["--grid"] = ":".join(parts)
        options.update(refused)
        out = missing_dir / "o"
        argv = [command, *(f"{flag}={value}" for flag, value in options.items()),
                "--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 2
        assert not out.exists()
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
        assert any(flag in err.getvalue() or repr(text) in err.getvalue()
                   for flag, text in refused.items())


class TestOutOfMemory:
    # A 1 GB address space makes the first large allocation fail before any
    # of it is touched: at 3 GB the simulate run filled 1.5 GB first.
    LIMIT = 2**30

    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "2", "--n", "1000000000000"],
        ["simulate", "--model", "2", "--p", "100000000", "--reps", "1", "--lambda-deg", "20"],
    ])
    def test_allocation_failure_exits_2_with_one_line(self, argv, tmp_path):
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT))

        # one BLAS thread keeps the library's own reservations small
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "psidecomp.cli", *argv,
                               "--out", str(tmp_path / "out")],
                              preexec_fn=limit_memory, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: not enough memory: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


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


class TestCsvInput:
    def test_bom_and_header_copies_read_as_the_plain_csvs(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("generate", "--model", "6", "--snr", "15", "--seed", "2000",
                       "--out", str(data)) == 0
        written = {}
        # a spreadsheet "CSV UTF-8" export starts with a byte-order mark
        for tag, prefix in (("plain", ""), ("bom", "\ufeff"), ("header", "s1,s2\n"),
                            ("bom_header", "\ufeffs1,s2\n")):
            blocks = []
            for k in (1, 2, 3):
                blocks.append(tmp_path / tag / f"X_{k}.csv")
                blocks[-1].parent.mkdir(exist_ok=True)
                blocks[-1].write_text(prefix + (data / f"X_{k}.csv").read_text(),
                                      encoding="utf-8")
            out = tmp_path / f"out_{tag}"
            assert run_cli("decompose", "--blocks", *map(str, blocks), "--ranks", "8,8,8",
                           "--lambda-deg", "20", "--out", str(out)) == 0
            written[tag] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(written["plain"]) == 6
        for tag in ("bom", "header", "bom_header"):
            assert written[tag] == written["plain"], tag

    @pytest.mark.parametrize("text", ("1,x,3\n4,5,6\n",     # a typo in row 1
                                      "1,2,3\n4,5\n",       # a ragged row
                                      "1,2,3\n4,y,6\n"))    # a bad cell
    def test_malformed_csv_exit_2_names_the_file(self, generated, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        blocks = [str(generated / "X_1.csv"), str(bad), str(generated / "X_3.csv")]
        code = run_cli("decompose", "--blocks", *blocks, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize("text, reason", (
        # file lines count from 1, with the header, blank and comment lines
        ("1,2,3\n4,5,6\n7,x,9\n", "line 3, column 2: could not convert string 'x' to float64"),
        ("1,2,3\n4,5,6\n7,9\n", "line 3: the number of columns changed from 3 (line 1) to 2"),
        ("a,b,c\n1,2,3\n4,5,6\n7,x,9\n",
         "line 4, column 2: could not convert string 'x' to float64"),
        ("a,b,c\n1,2,3\n4,5,6\n7,9\n",
         "line 4: the number of columns changed from 3 (line 2) to 2"),
        ("1,2,3\n\n4,5,6\n# note\n7, y ,9\n",
         "line 5, column 2: could not convert string 'y' to float64"),
        ("1,2,3\n\n4,5,6\n  \n7,8,9\n",
         "line 4: the number of columns changed from 3 (line 1) to 1"),
        ("\ufeffa,b\n1,2\n3,4,\n", "line 3: the number of columns changed from 2 (line 2) to 3"),
        ("1,2,\n", "line 1, column 3: could not convert string '' to float64"),
        # float() reads underscores, loadtxt does not
        ("a,b\n1,2\n3,4_5\n", "line 3, column 2: could not convert string '4_5' to float64"),
        # so row 1 is data, not a header, and it is located rather than dropped
        ("1_000,2_000\n3,4\n",
         "line 1, column 1: could not convert string '1_000' to float64"),
    ))
    def test_parse_error_names_the_file_line(self, tmp_path, text, reason):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(cli.ConfigError) as err:
            cli._read_csv_matrix(str(bad))
        assert str(err.value) == f"{bad}: {reason}"

    @pytest.mark.parametrize("cell", (
        "1_0", "1_000.5", "1e1_0", "\u0661", "\uff11", "\u0663.\u0665", "\U0001d7d3",
        "\xb2", " 5 ", "\xa05", "5\u3000", "\x1c5", "\x855", "inf", "-nan", "1e5", ".5",
        "0x10", "1d5", "+-1", "x"))
    def test_a_cell_is_located_exactly_when_loadtxt_refuses_it(self, tmp_path, cell):
        try:
            np.loadtxt([cell], delimiter=",")
            refused = False
        except ValueError:
            refused = True
        bad = tmp_path / "cell.csv"
        bad.write_text(f"1,2\n{cell},3\n", encoding="utf-8")
        if refused:
            with pytest.raises(cli.ConfigError) as err:
                cli._read_csv_matrix(str(bad))
            assert str(err.value) == (f"{bad}: line 2, column 1: could not convert "
                                      f"string {cell.strip()!r} to float64")
        else:
            assert cli._read_csv_matrix(str(bad)).shape == (2, 2)

    def test_unlocated_parse_error_keeps_loadtxt_message(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n1_0,3\n")
        with pytest.raises(cli.ConfigError) as err:
            cli._read_csv_matrix(str(bad))
        assert str(err.value) == (
            f"{bad}: line 2, column 1: could not convert string '1_0' to float64")
        # a failure that the second pass cannot place keeps loadtxt's own message
        monkeypatch.setattr(cli, "_bad_line", lambda fh, header: None)
        with pytest.raises(cli.ConfigError) as err:
            cli._read_csv_matrix(str(bad))
        assert str(err.value).startswith(f"{bad}: could not convert string '1_0'")


class TestOrderingFile:
    @pytest.mark.parametrize("text", (
        "5", "[null]",
        "[[1, 2, 3], [1, 2], [1, 3], [2, 3], [1], [2], [3.7]]",
        "[[1, 2, 3], [1, 2], [1, 3], [2, 3], [true], [2], [3]]"))
    def test_not_a_list_of_integer_lists_exit_2(self, tmp_path, capsys, text):
        ordering = tmp_path / "ordering.json"
        ordering.write_text(text)
        # the block paths do not exist, so the file is refused before any is read
        missing = [str(tmp_path / f"missing_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("decompose", "--blocks", *missing, "--ranks", "4,4,4",
                       "--lambda-deg", "20", "--ordering", str(ordering),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --ordering {ordering}: not a JSON list of lists of integers\n")

    def test_malformed_json_exit_2_names_the_file(self, tmp_path, capsys):
        ordering = tmp_path / "ordering.json"
        ordering.write_text("[[1, 2")
        missing = [str(tmp_path / f"missing_{k}.csv") for k in (1, 2, 3)]
        code = run_cli("tune", "--blocks", *missing, "--ranks", "4,4,4",
                       "--ordering", str(ordering), "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --ordering {ordering}: ")
