"""The benchmark's workloads.

Each drives psidecomp only through its public functions and the ``psi`` CLI
entry point, on 3 blocks x 200 variables x 200 samples at snr 15, in one
closed loop: one client, and the next call starts when the previous returns.
Every output is summarised and compared with ``reference.json``, recorded by
``record_reference.py``.

Inputs come from fixed seed pools so that a recorded reference exists for
each of them; the run's ``--seed`` picks where in the pool a run starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from psidecomp import cli, simgen, structure

SNR = 15.0
MODELS = (1, 2, 3, 4, 5, 6)
FIT_SEEDS = tuple(range(1000, 1016))   # simulate_tuned: per model
DATA_SEEDS = tuple(range(2000, 2008))  # model-6 datasets of the CLI workloads
DATA_MODEL = 6
WARMUP_SEED = 999                      # outside both pools
SKETCH_SEED = 7

FLOAT_RTOL = {"rse": 1e-7, "theta_U": 1e-7, "theta_W": 1e-7}
ANGLE_ATOL = 1e-9      # degrees, for grid thresholds
SKETCH_RTOL, SKETCH_ATOL = 1e-7, 1e-9


@dataclass(frozen=True)
class Size:
    p: int = 200      # variables per block
    n: int = 200      # samples
    reps: int = 4     # tune repetitions: ~2 s invocations, ~18 per 40-s run


FULL = Size()


@dataclass(frozen=True)
class Op:
    kind: str         # "fit", "decompose", "tune1" or "tune2"
    key: str          # reference key of its input
    model: int = DATA_MODEL
    seed: int = 0


def sketch(W: np.ndarray) -> list:
    """Two fixed random projections of a score matrix, W^T G."""
    G = np.random.default_rng(SKETCH_SEED).standard_normal((W.shape[0], 2))
    return (W.T @ G).ravel().tolist()


def compare(summary: dict, ref: dict | None) -> list[str]:
    """Mismatches between an output summary and its reference.

    Keys the summary lacks are not compared (an untraced fit cannot see
    lambda_tilde or the scores); keys the reference lacks are mismatches.
    """
    if ref is None:
        return ["no reference for this input"]
    bad = []
    for key, got in summary.items():
        if key not in ref:
            bad.append(f"{key}: no reference")
            continue
        want = ref[key]
        if key in FLOAT_RTOL:
            ok = math.isclose(got, want, rel_tol=FLOAT_RTOL[key], abs_tol=1e-12)
        elif key.endswith("_deg"):
            ok = abs(got - want) <= ANGLE_ATOL
        elif key.endswith("sketch"):
            ok = len(got) == len(want) and np.allclose(got, want, rtol=SKETCH_RTOL,
                                                       atol=SKETCH_ATOL)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad


class Workload:
    name = ""
    layer_kind = None         # op kind whose traced spans give the layer numbers
    pool_kind = None          # op kind whose traced pool wait is reported

    def __init__(self, seed: int, workdir: str, size: Size = FULL):
        self.seed = seed
        self.workdir = workdir
        self.size = size

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, traced: bool) -> list[Op]:
        """The next round of operations; a run measures whole rounds."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def summary(self, op: Op, out, captured) -> dict:
        raise NotImplementedError

    def accurate(self, op: Op, out) -> bool:
        raise NotImplementedError

    def check(self, op: Op, out, captured, reference: dict) -> list[str]:
        return compare(self.summary(op, out, captured),
                       reference.get(self.name, {}).get(op.key))


class SimulateTuned(Workload):
    """Tuned fits of all six models in rotation through ``run_repetitions``."""

    name = "simulate_tuned"

    def setup(self):
        self.rounds = 0
        self.models = {m: simgen.model_preset(m, snr=SNR, n=self.size.n,
                                              block_size=self.size.p) for m in MODELS}
        simgen.run_repetitions(self.models[2], 1, WARMUP_SEED, threads=1)

    def round(self, traced):
        seed = FIT_SEEDS[(self.seed + self.rounds) % len(FIT_SEEDS)]
        self.rounds += 1
        return [Op("fit", f"{m}:{seed}", m, seed) for m in MODELS]

    def run(self, op):
        (outcome,) = simgen.run_repetitions(self.models[op.model], 1, op.seed, threads=1)
        return outcome

    def summary(self, op, out, captured):
        s = {"accuracy": out.accuracy, "lambda_hat_deg": out.lambda_deg,
             "rse": out.rse, "theta_U": out.theta_U, "theta_W": out.theta_W}
        tuned = [r for name, r in captured if name == "tuning.select_lambda"]
        if tuned:
            t = tuned[-1]
            s["lambda_tilde_deg"] = math.degrees(t.lambda_tilde)
            s["structure"] = structure.structure_to_dict(t.decomposition_hat.structure)
            s["score_sketch"] = sketch(t.decomposition_hat.stacked_scores()[0])
        return s

    def accurate(self, op, out):
        return bool(out.accuracy)


class CliWorkload(Workload):
    """``psi`` invocations on model-6 CSVs written by ``psi generate`` in set-up."""

    def setup(self):
        self.data_seed = DATA_SEEDS[self.seed % len(DATA_SEEDS)]
        self.indir = os.path.join(self.workdir, "in")
        self.outdir = os.path.join(self.workdir, "out")
        self._main(["generate", "--model", str(DATA_MODEL), "--snr", f"{SNR:g}",
                    "--seed", str(self.data_seed), "--n", str(self.size.n),
                    "--p", str(self.size.p), "--out", self.indir])
        self.blocks = [os.path.join(self.indir, f"X_{k}.csv") for k in (1, 2, 3)]
        with open(os.path.join(self.indir, "truth.json")) as fh:
            truth = json.load(fh)
        self.truth = structure.structure_from_dict(truth["structure"])
        self.ranks = ",".join(str(r) for r in truth["ranks"])  # 8,8,8 for model 6
        self._main(self._decompose_argv())  # warm-up: the first call loads BLAS

    def _main(self, argv):
        # The CLI warns on stderr that generated rows are not centered.
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"psi {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return rc

    def _decompose_argv(self):
        return ["decompose", "--blocks", *self.blocks, "--ranks", self.ranks,
                "--lambda-deg", "20", "--out", self.outdir]

    def _tune_argv(self, threads):
        return ["tune", "--blocks", *self.blocks, "--ranks", self.ranks,
                "--reps", str(self.size.reps), "--threads", str(threads),
                "--out", self.outdir]

    def _op(self, kind):
        return Op(kind, str(self.data_seed), DATA_MODEL, self.data_seed)

    def _read_json(self, name):
        with open(os.path.join(self.outdir, name)) as fh:
            return json.load(fh)


class DecomposeFixed(CliWorkload):
    """``psi decompose`` at a fixed threshold: CSV I/O, one SVD per block, one identify."""

    name = "decompose_fixed"

    def round(self, traced):
        return [self._op("decompose")]

    def run(self, op):
        return self._main(self._decompose_argv())

    def summary(self, op, out, captured):
        with open(os.path.join(self.outdir, "structure.json")) as fh:
            structure_text = fh.read()
        with open(os.path.join(self.outdir, "scores.csv")) as fh:
            header = fh.readline().strip()
        W = np.loadtxt(os.path.join(self.outdir, "scores.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
        return {"structure_json": structure_text, "scores_header": header,
                "scores_shape": list(W.shape), "scores_sketch": sketch(W)}

    def accurate(self, op, out):
        found = structure.structure_from_dict(self._read_json("structure.json"))
        return structure.structures_equal(found, self.truth)


class Tune(CliWorkload):
    """``psi tune --reps 4``: select_lambda per repetition, serially or in a process pool.

    Untraced runs time the serial invocation (``--threads 1``), the
    single-threaded baseline of the problem. Pooled invocations
    (``--threads 2``) are too unsteady to gate on a 2-core host: two workers
    with a full OpenBLAS pool each contend, and single calls took up to four
    times the median. The traced run alternates both, which gives the pool
    wait and ``cli.pool_speedup``.
    """

    name = "tune"
    layer_kind = "tune1"
    pool_kind = "tune2"

    def round(self, traced):
        # Traced: worker-side spans come from the serial invocation and only
        # the parent-side pool wait from the pooled one, whatever the start method.
        return [self._op("tune1"), self._op("tune2")] if traced else [self._op("tune1")]

    def run(self, op):
        return self._main(self._tune_argv(int(op.kind[-1])))

    def summary(self, op, out, captured):
        return {"tune_json": self._read_json("tune.json")}

    def accurate(self, op, out):
        mode = self._read_json("tune.json")["mode_structure"]
        return structure.structures_equal(structure.structure_from_dict(mode), self.truth)


WORKLOADS = {w.name: w for w in (SimulateTuned, DecomposeFixed, Tune)}

