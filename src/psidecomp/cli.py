# Command-line front end: decompose | tune | simulate | generate.
# CSV blocks are variables x samples; angles are degrees on the command line
# and radians internally. Exit codes: 0 ok, 2 config/validation, 3 numerical.

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .core import (
    MultiBlockDataset,
    extract_signal,
    identify,
    identify_path,
    is_row_centered,
    row_center,
)
from .loading import estimate_loadings
from .simgen import (
    _pool_map,
    generate,
    imbalanced_preset,
    model_preset,
    outcomes_tsv,
    run_repetitions,
    summary_json,
)
from .structure import (
    default_ordering,
    ordering_from_lists,
    structure_to_dict,
)
from .tuning import _curve_rows, default_grid, mode_structure, select_lambda
from .subspace import NothingToPeel


class ConfigError(ValueError):
    pass


def _read_csv_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline()
        fields = [f.strip() for f in first.strip().split(",") if f.strip() != ""]
        skip = 0
        try:
            [float(f) for f in fields]
        except ValueError:
            skip = 1
        first_is_data = bool(fields) and not skip
        # on a file without data rows loadtxt only warns
        if not first_is_data and not any(line.strip() for line in fh):
            raise ConfigError(f"{path} contains no data")
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    return data


def _write_csv_matrix(path: str, M: np.ndarray, header: str | None = None) -> None:
    np.savetxt(path, M, delimiter=",", fmt="%.17g",
               header=header or "", comments="")


def _parse_ranks(text: str, K: int) -> list[int]:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != K:
        raise ConfigError(f"--ranks needs {K} comma-separated integers")
    ranks = []
    for p in parts:
        try:
            ranks.append(int(p))
        except ValueError:
            raise ConfigError(f"bad rank value {p!r}")
    return ranks


def _ranks_from_proportion(blocks, q: float) -> list[int]:
    if not 0.0 < q <= 1.0:
        raise ConfigError("--var-prop must lie in (0, 1]")
    ranks = []
    for X in blocks:
        s = np.linalg.svd(X, compute_uv=False)
        power = s * s
        cum = np.cumsum(power)
        # dividing by cum[-1], the total in the same rounding, ends the shares
        # at exactly 1, so q = 1 never runs past the last singular value
        ranks.append(int(np.searchsorted(cum / cum[-1], q) + 1))
    return ranks


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError("--grid must be lo:hi:step in degrees")
    if step <= 0 or hi < lo:
        raise ConfigError("--grid must be increasing with positive step")
    degs = np.arange(lo, hi + step / 2, step)
    grid = np.deg2rad(degs)
    if grid.size == 0 or grid[0] < 0 or grid[-1] >= np.pi / 2:
        raise ConfigError("--grid values must lie in [0, 90) degrees")
    return grid


def _load_ordering(spec_text: str, K: int):
    if spec_text == "default":
        return default_ordering(K)
    with open(spec_text) as fh:
        lists = json.load(fh)
    return ordering_from_lists(lists, K)


def _threads(args) -> int:
    threads = getattr(args, "threads", None)
    if threads is not None:
        if threads < 1:
            raise ConfigError("--threads must be at least 1")
        return threads
    env = os.environ.get("PSI_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError("PSI_THREADS must be an integer")
        if threads < 1:
            raise ConfigError("PSI_THREADS must be at least 1")
        return threads
    return os.cpu_count() or 1


def _load_dataset(args) -> MultiBlockDataset:
    blocks = []
    for path in args.blocks:
        if not os.path.exists(path):
            raise ConfigError(f"no such file: {path}")
        X = _read_csv_matrix(path)
        if not np.all(np.isfinite(X)):
            raise ConfigError(f"{path} contains non-finite entries")
        blocks.append(X)
    widths = {b.shape[1] for b in blocks}
    if len(widths) != 1:
        raise ConfigError("matched samples required")
    if args.center:
        centered = [row_center(b) for b in blocks]
    else:
        centered = blocks
        for i, b in enumerate(blocks):
            if not is_row_centered(b):
                print(f"warning: block {i + 1} rows are not centered "
                      "(use --center to apply row centering)", file=sys.stderr)
    for path, raw, b in zip(args.blocks, blocks, centered):
        # centering a constant row leaves rounding residue, not exact zeros
        if np.all(np.abs(b) <= 1e-12 * np.abs(raw).max(axis=1, keepdims=True)):
            after = " after row centering" if args.center else ""
            raise ConfigError(f"{path} is all zeros{after}")
    return MultiBlockDataset(tuple(centered))


def _resolve_ranks(args, data: MultiBlockDataset) -> list[int]:
    if (args.ranks is None) == (args.var_prop is None):
        raise ConfigError("exactly one of --ranks or --var-prop is required")
    if args.ranks is not None:
        ranks = _parse_ranks(args.ranks, data.K)
    else:
        ranks = _ranks_from_proportion(data.blocks, args.var_prop)
    for k, (r, X) in enumerate(zip(ranks, data.blocks), start=1):
        if not 1 <= r <= min(X.shape):
            raise ConfigError(f"rank {r} out of range for block {k}")
    return ranks


def _angles_config(args):
    has_lambda = args.lambda_deg is not None
    if has_lambda == bool(args.tune):
        raise ConfigError("exactly one of --lambda-deg or --tune is required")
    if has_lambda:
        lam = math.radians(args.lambda_deg)
        if not 0.0 <= lam < math.pi / 2:
            raise ConfigError("--lambda-deg must lie in [0, 90)")
        return lam
    return None


def _diagnostics_payload(result) -> dict:
    lo, hi = result.stable_interval
    return {
        "angle_threshold_deg": math.degrees(result.angle_threshold),
        # the structure is the same for every threshold in (lo, hi]
        "stable_interval_deg": [math.degrees(lo) if lo >= 0 else None,
                                math.degrees(hi) if math.isfinite(hi) else None],
        "acceptances": [
            {
                "blocks": list(rec.index_set.members),
                "angles_deg": [math.degrees(a) for a in rec.angles],
                "degenerate": rec.degenerate,
            }
            for rec in result.diagnostics
        ],
        "degenerate_stage_count": sum(1 for r in result.diagnostics if r.degenerate),
    }


def cmd_decompose(args) -> int:
    data = _load_dataset(args)
    ranks = _resolve_ranks(args, data)
    ordering = _load_ordering(args.ordering, data.K)
    lam = _angles_config(args)
    grid = _parse_grid(args.grid) if args.grid else default_grid()
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(data.blocks, ranks)]
    if lam is None:
        tuned = select_lambda(data, ranks, ordering, grid, args.seed,
                              whole_path=identify_path(signals, ordering, grid))
        result = tuned.decomposition_hat
    else:
        result = identify(signals, ordering, lam)
    loads = estimate_loadings(signals, result)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "structure.json"), "w") as fh:
        json.dump(structure_to_dict(result.structure), fh, indent=2)
        fh.write("\n")
    W, labels = result.stacked_scores()
    _write_csv_matrix(os.path.join(args.out, "scores.csv"), W,
                      header=",".join(s.label() for s in labels))
    for k in range(1, data.K + 1):
        cols, names = [], []
        for subset, r in result.structure.entries:
            if r > 0 and k in subset and (k, subset) in loads.blocks:
                U = loads.blocks[(k, subset)]
                cols.append(U)
                names.extend([subset.label()] * U.shape[1])
        mat = np.hstack(cols) if cols else np.zeros((data.blocks[k - 1].shape[0], 0))
        _write_csv_matrix(os.path.join(args.out, f"loadings_{k}.csv"), mat,
                          header=",".join(names))
    with open(os.path.join(args.out, "diagnostics.json"), "w") as fh:
        json.dump(_diagnostics_payload(result), fh, indent=2)
        fh.write("\n")
    return 0


def cmd_tune(args) -> int:
    if args.reps < 1:
        raise ConfigError("--reps must be at least 1")
    data = _load_dataset(args)
    ranks = _resolve_ranks(args, data)
    ordering = _load_ordering(args.ordering, data.K)
    grid = _parse_grid(args.grid) if args.grid else default_grid()
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(data.blocks, ranks)]

    # the whole-data path does not depend on the split, so every repetition shares it
    whole_path = identify_path(signals, ordering, grid)
    jobs = [(data, ranks, ordering, grid, args.seed + rep, whole_path)
            for rep in range(args.reps)]
    results = _pool_map(select_lambda, jobs, _threads(args))
    structures = [t.decomposition_hat.structure for t in results]
    mode, count = mode_structure(structures)

    os.makedirs(args.out, exist_ok=True)
    payload = {
        "repetitions": args.reps,
        "lambda_hat_deg": [math.degrees(t.lambda_hat) for t in results],
        "lambda_tilde_deg": [math.degrees(t.lambda_tilde) for t in results],
        "mode_structure": structure_to_dict(mode),
        "mode_count": count,
    }
    with open(os.path.join(args.out, "tune.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    lines = ["rep\tlambda_degrees\trisk\tdissimilarity"]
    lines += [f"{rep}\t{row}" for rep, tuned in enumerate(results)
              for row in _curve_rows(tuned)]
    with open(os.path.join(args.out, "curves.tsv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _resolve_model(args):
    model_arg = args.model
    snr = math.inf if args.snr.lower() in ("inf", "infinity") else float(args.snr)
    if snr <= 0:
        raise ConfigError("--snr must be positive or inf")
    if model_arg in ("joint_strong", "individual_strong"):
        return imbalanced_preset(model_arg, snr=snr, n=args.n,
                                 block_size=args.p if args.p else 100)
    try:
        model_id = int(model_arg)
    except ValueError:
        raise ConfigError(f"unknown model {model_arg!r}")
    return model_preset(model_id, snr=snr, n=args.n,
                        block_size=args.p if args.p else 200)


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise ConfigError("--reps must be at least 1")
    model = _resolve_model(args)
    lam = _angles_config(args)
    grid = _parse_grid(args.grid) if args.grid else None
    outcomes = run_repetitions(model, args.reps, args.seed,
                               angle_threshold=lam, grid=grid,
                               threads=_threads(args))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.tsv"), "w") as fh:
        fh.write(outcomes_tsv(outcomes))
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(summary_json(outcomes) + "\n")
    return 0


def cmd_generate(args) -> int:
    model = _resolve_model(args)
    truth = generate(model, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for k, X in enumerate(truth.blocks, start=1):
        _write_csv_matrix(os.path.join(args.out, f"X_{k}.csv"), X)
    payload = {
        "model": model.name,
        "snr": "inf" if math.isinf(model.snr) else model.snr,
        "seed": args.seed,
        "n": model.n,
        "block_sizes": list(model.block_sizes),
        "ranks": list(model.block_ranks()),
        "structure": structure_to_dict(model.structure),
    }
    with open(os.path.join(args.out, "truth.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def _add_data_args(p):
    p.add_argument("--blocks", nargs="+", required=True, help="CSV files, one per block")
    p.add_argument("--ranks", help="comma-separated signal ranks, one per block")
    p.add_argument("--var-prop", type=float,
                   help="pick the smallest ranks reaching this variance proportion")
    p.add_argument("--ordering", default="default",
                   help="'default' or a JSON file with a list of index-sets")
    p.add_argument("--center", action="store_true", help="apply row centering")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psi",
        description="Partially-joint decomposition of matched multi-block data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose blocks at a fixed or tuned threshold")
    _add_data_args(p)
    p.add_argument("--lambda-deg", type=float, help="angle threshold in degrees")
    p.add_argument("--tune", action="store_true", help="select the threshold by data splitting")
    p.add_argument("--grid", help="threshold grid lo:hi:step in degrees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tune", help="repeat threshold selection and report the mode structure")
    _add_data_args(p)
    p.add_argument("--grid", help="threshold grid lo:hi:step in degrees")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="run the benchmark pipeline on synthetic data")
    p.add_argument("--model", required=True,
                   help="1..6 or joint_strong | individual_strong")
    p.add_argument("--snr", default="inf", help="signal-to-noise ratio or 'inf'")
    p.add_argument("--lambda-deg", type=float)
    p.add_argument("--tune", action="store_true")
    p.add_argument("--grid", help="threshold grid lo:hi:step in degrees")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--p", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="write synthetic blocks and their ground truth")
    p.add_argument("--model", required=True)
    p.add_argument("--snr", default="inf")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--p", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "simulate" and args.lambda_deg is None:
        # tuning is the default pipeline when no fixed threshold is given
        args.tune = True
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, NothingToPeel) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
