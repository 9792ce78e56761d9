# Command-line front end: decompose | tune | simulate | generate.
# CSV blocks are variables x samples; angles are degrees on the command line
# and radians internally. Exit codes: 0 ok, 2 config/validation, 3 numerical.

from __future__ import annotations

import argparse
import functools
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
)
from .loading import estimate_loadings
from .simgen import (
    _pool_map,
    _usable_cores,
    generate,
    imbalanced_preset,
    model_preset,
    outcomes_tsv,
    run_repetitions,
    summarize,
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


def _write_json(out: str, name: str, payload) -> None:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_ranks(text: str, K: int) -> list[int]:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != K:
        raise ConfigError(f"--ranks needs {K} comma-separated integers")
    ranks = []
    for k, p in enumerate(parts, start=1):
        try:
            ranks.append(int(p))
        except ValueError:
            raise ConfigError(f"bad rank value {p!r}")
        if ranks[-1] < 1:
            raise ConfigError(f"rank {ranks[-1]} out of range for block {k}")
    return ranks


def _ranks_from_proportion(blocks, q: float) -> list[int]:
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


def _resolve_model(args):
    for flag, value in (("--n", args.n), ("--p", args.p)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be at least 1")
    try:
        snr = float(args.snr)  # also parses "inf" and "infinity", in any case
    except ValueError:
        snr = math.nan
    if not snr > 0:
        raise ConfigError("--snr must be positive or inf")
    if args.model in ("joint_strong", "individual_strong"):
        return imbalanced_preset(args.model, snr=snr, n=args.n,
                                 block_size=100 if args.p is None else args.p)
    try:
        model_id = int(args.model)
    except ValueError:
        raise ConfigError(f"unknown model {args.model!r}")
    return model_preset(model_id, snr=snr, n=args.n,
                        block_size=200 if args.p is None else args.p)


def _check_args(args) -> None:
    """Check every argument that needs no data block, before any is read, and
    store the resolved values on ``args``: ``lam`` (radians; None tunes),
    ``grid``, ``threads``, ``ranks`` (None for --var-prop), ``ordering``, ``model``."""
    if getattr(args, "reps", 1) < 1:
        raise ConfigError("--reps must be at least 1")
    if hasattr(args, "tune"):
        # simulate tunes unless a fixed threshold is given
        tune = args.tune or (args.command == "simulate" and args.lambda_deg is None)
        if (args.lambda_deg is not None) == tune:
            raise ConfigError("exactly one of --lambda-deg or --tune is required")
        args.lam = None if tune else math.radians(args.lambda_deg)
        if not (tune or 0.0 <= args.lam < math.pi / 2):
            raise ConfigError("--lambda-deg must lie in [0, 90)")
    if hasattr(args, "grid"):
        args.grid = _parse_grid(args.grid) if args.grid else default_grid()
    if hasattr(args, "threads"):
        if args.threads is None:
            args.threads = _usable_cores()
        elif args.threads < 1:
            raise ConfigError("--threads must be at least 1")
    if hasattr(args, "blocks"):
        if (args.ranks is None) == (args.var_prop is None):
            raise ConfigError("exactly one of --ranks or --var-prop is required")
        if args.ranks is not None:
            args.ranks = _parse_ranks(args.ranks, len(args.blocks))
        elif not 0.0 < args.var_prop <= 1.0:
            raise ConfigError("--var-prop must lie in (0, 1]")
        args.ordering = _load_ordering(args.ordering, len(args.blocks))
    if hasattr(args, "model"):
        args.model = _resolve_model(args)


def _row_absmax(X: np.ndarray) -> np.ndarray:
    """max_j |X_ij| per row, without a p x n temporary."""
    return np.maximum(X.max(axis=1), -X.min(axis=1))


def _load_dataset(args) -> MultiBlockDataset:
    blocks, scales = [], []
    for path in args.blocks:
        if not os.path.exists(path):
            raise ConfigError(f"no such file: {path}")
        X = _read_csv_matrix(path)
        if not np.all(np.isfinite(X)):
            raise ConfigError(f"{path} contains non-finite entries")
        # Centered in place, so no raw block outlives its own step; only its
        # row scale is kept, for the all-zero check below.
        scales.append(_row_absmax(X))
        if args.center:
            X -= X.mean(axis=1, keepdims=True)
        blocks.append(X)
    widths = {b.shape[1] for b in blocks}
    if len(widths) != 1:
        raise ConfigError("matched samples required")
    if not args.center:
        for i, b in enumerate(blocks):
            if not is_row_centered(b):
                print(f"warning: block {i + 1} rows are not centered "
                      "(use --center to apply row centering)", file=sys.stderr)
    for path, scale, b in zip(args.blocks, scales, blocks):
        # centering a constant row leaves rounding residue, not exact zeros
        if np.all(_row_absmax(b) <= 1e-12 * scale):
            after = " after row centering" if args.center else ""
            raise ConfigError(f"{path} is all zeros{after}")
    return MultiBlockDataset(tuple(blocks))


def _load_signals(args):
    """The dataset, its signal ranks and one signal estimate per block."""
    data = _load_dataset(args)
    ranks = args.ranks or _ranks_from_proportion(data.blocks, args.var_prop)
    for k, (r, X) in enumerate(zip(ranks, data.blocks), start=1):
        if r > min(X.shape):
            raise ConfigError(f"rank {r} out of range for block {k}")
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(data.blocks, ranks)]
    return data, ranks, signals


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
    data, ranks, signals = _load_signals(args)
    if args.lam is None:
        tuned = select_lambda(data, ranks, args.ordering, args.grid, args.seed,
                              whole_path=identify_path(signals, args.ordering, args.grid))
        result = tuned.decomposition_hat
    else:
        result = identify(signals, args.ordering, args.lam)
    loads = estimate_loadings(signals, result)

    os.makedirs(args.out, exist_ok=True)
    _write_json(args.out, "structure.json", structure_to_dict(result.structure))
    W, labels = result.stacked_scores()
    _write_csv_matrix(os.path.join(args.out, "scores.csv"), W,
                      header=",".join(s.label() for s in labels))
    for k in range(1, data.K + 1):
        _, labels = result.stacked_scores(k)
        _write_csv_matrix(os.path.join(args.out, f"loadings_{k}.csv"),
                          loads.aligned(k, labels), header=",".join(s.label() for s in labels))
    _write_json(args.out, "diagnostics.json", _diagnostics_payload(result))
    return 0


def cmd_tune(args) -> int:
    data, ranks, signals = _load_signals(args)
    # the whole-data path does not depend on the split, so every repetition shares it
    whole_path = identify_path(signals, args.ordering, args.grid)
    # the shared arguments reach each worker once; a job sends only its seed
    tune = functools.partial(select_lambda, data, ranks, args.ordering, args.grid,
                             whole_path=whole_path)
    results = _pool_map(tune, [args.seed + rep for rep in range(args.reps)], args.threads)
    mode, count = mode_structure([t.decomposition_hat.structure for t in results])

    os.makedirs(args.out, exist_ok=True)
    _write_json(args.out, "tune.json", {
        "repetitions": args.reps,
        "lambda_hat_deg": [math.degrees(t.lambda_hat) for t in results],
        "lambda_tilde_deg": [math.degrees(t.lambda_tilde) for t in results],
        "mode_structure": structure_to_dict(mode),
        "mode_count": count,
    })
    lines = ["rep\tlambda_degrees\trisk\tdissimilarity"]
    lines += [f"{rep}\t{row}" for rep, tuned in enumerate(results)
              for row in _curve_rows(tuned)]
    with open(os.path.join(args.out, "curves.tsv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    outcomes = run_repetitions(args.model, args.reps, args.seed,
                               angle_threshold=args.lam, grid=args.grid,
                               threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.tsv"), "w") as fh:
        fh.write(outcomes_tsv(outcomes))
    _write_json(args.out, "summary.json", summarize(outcomes))
    return 0


def cmd_generate(args) -> int:
    model = args.model
    truth = generate(model, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for k, X in enumerate(truth.blocks, start=1):
        _write_csv_matrix(os.path.join(args.out, f"X_{k}.csv"), X)
    _write_json(args.out, "truth.json", {
        "model": model.name,
        "snr": "inf" if math.isinf(model.snr) else model.snr,
        "seed": args.seed,
        "n": model.n,
        "block_sizes": list(model.block_sizes),
        "ranks": list(model.block_ranks()),
        "structure": structure_to_dict(model.structure),
    })
    return 0


# Option groups; each subcommand takes the groups listed for it in build_parser.
_OPTION_GROUPS = {
    "data": (
        ("--blocks", dict(nargs="+", required=True, help="CSV files, one per block")),
        ("--ranks", dict(help="comma-separated signal ranks, one per block")),
        ("--var-prop", dict(type=float, help="pick the smallest ranks reaching "
                                             "this variance proportion")),
        ("--ordering", dict(default="default",
                            help="'default' or a JSON file with a list of index-sets")),
        ("--center", dict(action="store_true", help="apply row centering")),
    ),
    "model": (
        ("--model", dict(required=True, help="1..6 or joint_strong | individual_strong")),
        ("--snr", dict(default="inf", help="signal-to-noise ratio or 'inf'")),
        ("--n", dict(type=int, default=200, help="samples")),
        ("--p", dict(type=int, help="variables per block (default: the preset's)")),
    ),
    "threshold": (
        ("--lambda-deg", dict(type=float, help="angle threshold in degrees")),
        ("--tune", dict(action="store_true", help="select the threshold by data splitting")),
    ),
    "grid": (("--grid", dict(help="threshold grid lo:hi:step in degrees")),),
    "reps": (("--reps", dict(type=int, default=1)),),
    "threads": (("--threads", dict(type=int, help="processes (default: the usable cores)")),),
    "run": (("--seed", dict(type=int, default=0)), ("--out", dict(required=True))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psi",
        description="Partially-joint decomposition of matched multi-block data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, groups in (
        ("decompose", cmd_decompose, "decompose blocks at a fixed or tuned threshold",
         ("data", "threshold", "grid", "run")),
        ("tune", cmd_tune, "repeat threshold selection and report the mode structure",
         ("data", "grid", "reps", "threads", "run")),
        ("simulate", cmd_simulate, "run the benchmark pipeline on synthetic data",
         ("model", "threshold", "grid", "reps", "threads", "run")),
        ("generate", cmd_generate, "write synthetic blocks and their ground truth",
         ("model", "run")),
    ):
        p = sub.add_parser(name, help=help_text)
        for group in groups:
            for flag, kwargs in _OPTION_GROUPS[group]:
                p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
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
