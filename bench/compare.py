"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by bench/run.py (its
``.bench_work/results/``). For every workload and metric the script prints
each side's median and quartiles over the runs, the change in the median, how
many seeds the change won, and, for end-to-end metrics, the verdict against
the bound in BENCHMARK.json. It warns when the two sides ran with a different
environment (cores, BLAS thread settings, numpy, BLAS or Python), because then
the numbers do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ENV_KEYS = ("nproc", "cpus_usable", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS", "numpy", "blas", "python")


def load(directory: Path):
    """{(workload, trace): {metric: {seed: value}}}, and the environments seen."""
    runs = defaultdict(lambda: defaultdict(dict))
    envs = []
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        envs.append({k: rec["env"].get(k) for k in ENV_KEYS})
        for name, m in rec["result"]["metrics"].items():
            runs[(rec["workload"], rec["trace"])][name][rec["seed"]] = m["value"]
    return runs, envs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def env_warnings(envs_a, envs_b) -> list[str]:
    out = []
    for key in ENV_KEYS:
        seen = {json.dumps(e[key], sort_keys=True) for e in envs_a + envs_b}
        if len(seen) > 1:
            out.append(f"WARNING: results differ in {key}: {', '.join(sorted(seen))}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    parent, envs_p = load(args.parent)
    change, envs_c = load(args.change)
    for line in env_warnings(envs_p, envs_c):
        print(line)
    regressions = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"\n{workload} ({'per-layer, traced' if trace else 'end-to-end'})")
        print(f"  {'metric':34s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}"
              f" {'delta':>8s} {'wins':>6s}  verdict")
        for name in sorted(set(parent[key]) & set(change[key])):
            a, b = parent[key][name], change[key][name]
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            base = qa[1]
            worse = sign * (qb[1] - base) / abs(base) if base else 0.0
            seeds = sorted(set(a) & set(b))
            wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
            verdict = ""
            if name in bound:
                spread = (qa[2] - qa[0]) / abs(base) if base else 0.0
                if worse > bound[name]:
                    verdict = "REGRESSION"
                    regressions += 1
                elif spread > bound[name] and not all(
                        sign * (y - x) < 0 for x in a.values() for y in b.values()):
                    verdict = "unresolved (spread above bound)"
                else:
                    verdict = "within bound"
            print(f"  {name:34s} {_fmt(qa):>32s} {_fmt(qb):>32s} {100 * -worse:+7.1f}%"
                  f" {wins:>3d}/{len(seeds):<2d}  {verdict}")
    print(f"\n{regressions} end-to-end regression(s); delta is the change's gain "
          "(+ is better); wins count the seeds run on both sides.")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
