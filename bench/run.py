"""psidecomp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload simulate_tuned --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
nothing patched. With ``--trace 1`` every operation runs twice, untraced and
then traced, and the run reports the per-layer metrics and the tracing
overhead. Every output is checked against ``bench/reference.json``. The last
line of standard output is the JSON result; a copy, with the environment, the
raw samples and any failures, goes to ``.bench_work/results/``, and the spans
of a traced run to ``.bench_work/traces/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 5
SELF_SUM_TOL_S = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_LOOPS = 150_000
NOMINAL_PROBE_S = 0.010  # the probe's time on an uncontended core of the 2-core test VM


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    On a shared host the speed of a core changes by up to 2x within a minute.
    Timings are reported scaled to the probe's nominal time, measured just
    before and just after each timed call. The loop uses no numpy, so a change
    to the library or to its BLAS threads cannot move it.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    return NOMINAL_PROBE_S / (0.5 * (before + after))


def import_library():
    """Import psidecomp from this checkout's src/ and return the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import psidecomp
    if not Path(psidecomp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"psidecomp came from {psidecomp.__file__}, not {ROOT / 'src'}")
    return time.perf_counter() - t0


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v) for v in THREAD_VARS},  # None when unset
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of a child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(values):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With fewer than eleven samples no such percentile exists and the maximum
    is reported as the 100th.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Run:
    """Measures one workload for a number of seconds in a closed loop."""

    def __init__(self, workload, reference, tracer=None):
        self.wl = workload
        self.reference = reference
        self.tracer = tracer
        self.untraced = {}     # op kind -> seconds per successful untraced op
        self.scaled = {}       # the same, scaled to the nominal host speed
        self.probes = []       # seconds per host-speed probe
        self.pairs = []        # (untraced, traced) seconds of the same op
        self.traced_ops = {}   # op kind -> traced op ids
        self.accurate = []
        self.attempted = 0
        self.failures = []

    def _call(self, op, op_id, traced):
        if not traced:
            t0 = time.perf_counter()
            out = self.wl.run(op)
            return out, time.perf_counter() - t0, []
        self.tracer.install()
        try:
            with self.tracer.operation(op_id):
                t0 = time.perf_counter()
                out = self.wl.run(op)
                dt = time.perf_counter() - t0
        finally:
            self.tracer.uninstall()
        captured = [(name, r) for _, name, r in self.tracer.captured]
        self.tracer.captured.clear()
        return out, dt, captured

    def _attempt(self, op, op_id, traced):
        """Seconds the call took, or None when it raised.

        A call that returns a wrong output is timed and counted as failed.
        """
        self.attempted += 1
        try:
            out, dt, captured = self._call(op, op_id, traced)
        except Exception as exc:  # a failing call is counted and the run goes on
            self._fail(op, traced, [f"{type(exc).__name__}: {exc}"])
            return None
        try:
            bad = self.wl.check(op, out, captured, self.reference)
            self.accurate.append(self.wl.accurate(op, out))
        except (OSError, ValueError, KeyError) as exc:  # missing or unreadable output
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self._fail(op, traced, bad)
        return dt

    def _fail(self, op, traced, why):
        self.failures.append({"op": op.kind, "key": op.key, "traced": traced,
                              "mismatch": why[:3]})

    def measure(self, seconds: float) -> None:
        """Whole rounds, until another round would pass ``seconds``."""
        start = time.perf_counter()
        last = 0.0
        op_id = 0
        self.probes.append(probe())
        while True:
            elapsed = time.perf_counter() - start
            if op_id and elapsed + last > seconds:
                break
            r0 = time.perf_counter()
            for op in self.wl.round(self.tracer is not None):
                op_id += 1
                dt = self._attempt(op, op_id, traced=False)
                dt_traced = None
                if self.tracer is not None:
                    dt_traced = self._attempt(op, op_id, traced=True)
                self.probes.append(probe())
                if dt is not None:
                    self.untraced.setdefault(op.kind, []).append(dt)
                    self.scaled.setdefault(op.kind, []).append(
                        dt * host_scale(*self.probes[-2:]))
                if dt is not None and dt_traced is not None:
                    self.pairs.append((dt, dt_traced))
                    self.traced_ops.setdefault(op.kind, []).append(op_id)
            last = time.perf_counter() - r0


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """Metrics from host-scaled times; the unscaled ones go into the details."""
    times = [t for ts in run.scaled.values() for t in ts]
    raw = [t for ts in run.untraced.values() for t in ts]
    p_tail, pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "accuracy_pct": (100.0 * sum(run.accurate) / max(len(run.accurate), 1), "%"),
    }
    # The tail is reported, not gated: a tune run completes about 16
    # invocations, so its highest percentile with ten samples beyond is below
    # the median, and every metric must be reported on every workload.
    return metrics, {"samples": len(times), "op_ms_tail": 1e3 * p_tail,
                     "tail_percentile": pct,
                     "unscaled": {"ops_per_s": len(raw) / sum(raw),
                                  "op_ms_p50": 1e3 * statistics.median(raw),
                                  "op_ms_tail": 1e3 * tail(raw)[0]}}


LAYER_UNITS = (("ms", "ms"), ("pct", "%"), ("calls", "count"), ("accepted", "count"),
               ("ratio", "ratio"), ("bytes_read", "B"), ("bytes_written", "B"),
               ("speedup", "x"))


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


def per_layer(run: Run) -> tuple[dict, dict]:
    import tracing
    wl, spans = run.wl, run.tracer.spans
    kind = wl.layer_kind or next(iter(run.traced_ops))
    values = tracing.layer_metrics(spans, run.traced_ops.get(kind, []),
                                   run.traced_ops.get(wl.pool_kind, []))
    if wl.pool_kind:
        values["cli.pool_speedup"] = (statistics.median(run.scaled["tune1"])
                                      / statistics.median(run.scaled["tune2"]))
    else:
        values["cli.pool_speedup"] = 0.0
    untraced = sum(u for u, _ in run.pairs)
    values["trace.overhead_pct"] = 100.0 * (sum(t for _, t in run.pairs) / untraced - 1.0)
    metrics = {name: (v, layer_unit(name)) for name, v in values.items()}
    return metrics, {"self_sum_gap_s": tracing.self_sum_gap(spans), "traced_ops": len(run.pairs)}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size=None, reference=None, workdir: Path | None = None):
    """Set up, measure and check one run; returns (result, details)."""
    import_s = import_library()
    import tracing
    import workloads

    if reference is None:
        with open(BENCH / "reference.json") as fh:
            reference = json.load(fh)
    workdir = workdir or ROOT / ".bench_work" / f"tmp-{workload}-{os.getpid()}"
    cls = workloads.WORKLOADS[workload]
    try:
        probes = [probe()]
        setups, scaled = [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            wl = cls(seed, str(workdir), size or workloads.FULL)
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            probes.append(probe())
            scaled.append(setups[-1] * host_scale(*probes[-2:]))
        setup_s = import_s * host_scale(probes[0], probes[0]) + statistics.median(scaled)

        tracer = tracing.Tracer(capture=("tuning.select_lambda",)) if trace else None
        run = Run(wl, reference, tracer)
        run.measure(seconds)
        if not run.untraced or (trace and not run.pairs):
            raise RuntimeError(f"every operation raised: {run.failures[:3]}")
        if trace:
            metrics, details = per_layer(run)
            trace_ok = details["self_sum_gap_s"] <= SELF_SUM_TOL_S
        else:
            metrics, details = end_to_end(run, setup_s)
            trace_ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(
        workload=workload, seed=seed, seconds=seconds, trace=int(trace),
        setup_runs_s=setups, import_s=import_s, env=environment(seed),
        probe_s=probes + run.probes,
        samples_s=run.untraced, scaled_samples_s=run.scaled,
        failures=run.failures[:20],
    )
    result = {
        "correct": not run.failures and trace_ok,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        details["spans"] = tracer.spans_json()
    return result, details


def _write(kind: str, name: str, payload) -> Path:
    path = ROOT / ".bench_work" / kind / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate_tuned", "decompose_fixed", "tune"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run_benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}-{os.getpid()}"
    spans = details.pop("spans", None)
    if spans is not None:
        details["trace_file"] = str(_write("traces", stem + ".json", spans).relative_to(ROOT))
    path = _write("results", stem + ".json", {"result": result, **details})
    for f in details["failures"][:5]:
        print(f"FAILED {f}")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"op_ms_tail (not gated) {details['op_ms_tail']:.6g} ms: "
              f"p{details['tail_percentile']:.1f} of {details['samples']} samples")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
