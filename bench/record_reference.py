"""Record bench/reference.json: the outputs of every input in the seed pools.

    python3 bench/record_reference.py

Run it at the commit whose outputs are the reference; every benchmark run
compares its outputs with this file. Fits are recorded traced, so that the
reference also holds lambda_tilde, the structure and a sketch of the scores.
The serial and pooled ``psi tune`` must give the same tune.json before it is
recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import tracing


def record(size, fit_seeds, data_indices, workdir: Path) -> dict:
    import workloads
    tracer = tracing.Tracer(capture=("tuning.select_lambda",))
    ref = {"simulate_tuned": {}, "decompose_fixed": {}, "tune": {}}

    sim = workloads.SimulateTuned(0, str(workdir), size)
    sim.setup()
    for seed in fit_seeds:
        for m in workloads.MODELS:
            op = workloads.Op("fit", f"{m}:{seed}", m, seed)
            tracer.install()
            try:
                with tracer.operation(0):
                    out = sim.run(op)
            finally:
                tracer.uninstall()
            captured = [(name, r) for _, name, r in tracer.captured]
            tracer.captured.clear()
            tracer.spans.clear()
            ref["simulate_tuned"][op.key] = sim.summary(op, out, captured)

    for i in data_indices:
        dec = workloads.DecomposeFixed(i, str(workdir), size)
        dec.setup()
        (op,) = dec.round(traced=False)
        ref["decompose_fixed"][op.key] = dec.summary(op, dec.run(op), [])
        tune = workloads.Tune(i, str(workdir), size)
        tune.setup()
        serial, pooled = [tune.summary(op, tune.run(op), []) for op in tune.round(traced=True)]
        if serial != pooled:
            raise RuntimeError(f"data seed {op.key}: tune.json differs between "
                               "--threads 1 and --threads 2")
        ref["tune"][op.key] = serial
    shutil.rmtree(workdir, ignore_errors=True)
    return ref


def main() -> int:
    run.import_library()
    import workloads
    ref = record(workloads.FULL, workloads.FIT_SEEDS, range(len(workloads.DATA_SEEDS)),
                 run.ROOT / ".bench_work" / "tmp-record")
    ref["recorded_at_commit"] = run.git_commit(run.ROOT)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
