import json

import numpy as np
import pytest

from psidecomp.cli import main


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

    def test_threads_env_fallback(self, monkeypatch):
        from psidecomp.cli import _threads

        class Args:
            threads = None

        monkeypatch.setenv("PSI_THREADS", "3")
        assert _threads(Args()) == 3
        monkeypatch.setenv("PSI_THREADS", "bogus")
        from psidecomp.cli import ConfigError
        with pytest.raises(ConfigError):
            _threads(Args())

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
            outs.append((out / "tune.json").read_bytes())
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
