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
from .subspace import _scale_shift
from .tuning import _curve_rows, _stacked_path, default_grid, mode_structure, select_lambda


# A tuned fit sweeps every grid point: psi decompose --tune on three 40 x 60
# model-6 blocks took 0.63 s and 276 MB at 890,001 points (step 0.0001 degrees).
MAX_GRID_POINTS = 1_000_000
# A block whose entries are all at most this times their row's raw max after
# centering is all zeros: centering a constant row leaves rounding residue.
ZERO_RTOL = 1e-12


class ConfigError(ValueError):
    pass


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _float(text: str, kind: type = float):
    """text as a kind (float or int), or None when it is not a number by the
    one rule for every number psi reads, from an option or a CSV cell: after
    strip(), it is ASCII, has no "_", and kind() reads it. "inf" and "nan" are
    numbers here, so each caller checks the range."""
    text = text.strip()
    try:
        return kind(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


def _int(text: str) -> int | None:
    """text as an int, or None, by the rule of _float."""
    return _float(text, int)


def _bad_line(fh, header: bool) -> str | None:
    """Where np.loadtxt failed and why: the first data line, numbered from 1
    over the whole file with its header and blank lines, that has a field
    that is not a number or another field count than the first data line;
    None when no line has either."""
    fh.seek(0)
    first = None
    for number, line in enumerate(fh, start=1):
        # loadtxt drops a comment after "#", then skips the line if nothing is left
        text = line.rstrip("\r\n").split("#", 1)[0]
        if not text or (header and number == 1):
            continue
        fields = text.split(",")
        first = first or (number, len(fields))
        if len(fields) != first[1]:
            return (f"line {number}: the number of columns changed from {first[1]} "
                    f"(line {first[0]}) to {len(fields)}")
        for column, field in enumerate(fields, start=1):
            cell = field.strip()
            if _float(cell) is None:
                return (f"line {number}, column {column}: could not convert string "
                        f"{cell!r} to float64")
    return None


def _read_csv_matrix(path: str) -> np.ndarray:
    # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports start with
    with open(path, encoding="utf-8-sig") as fh:
        try:
            # The header test alone reads fields with float(), which also takes
            # "1_000" and non-ASCII digits: a row 1 of such cells is data, and
            # exits 2 naming line 1, rather than a header that is dropped.
            numeric = [_is_number(f) for f in fh.readline().split(",") if f.strip()]
            if any(numeric) and not all(numeric):
                raise ValueError("row 1 mixes numbers and text")
            # on a file without data rows loadtxt only warns
            if any(numeric) or any(line.strip() for line in fh):
                fh.seek(0)
                # row 1 is a header when it has fields and none is a number
                header = bool(numeric) and not any(numeric)
                try:
                    return np.loadtxt(fh, delimiter=",", skiprows=int(header), ndmin=2)
                except ValueError as exc:
                    # loadtxt numbers its rows two ways, neither counting the header
                    raise ValueError(_bad_line(fh, header) or exc) from None
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path} contains no data")


def _write_csv_matrix(path: str, M: np.ndarray, header: str | None = None) -> None:
    np.savetxt(path, M, delimiter=",", fmt="%.17g",
               header=header or "", comments="")


def _write_json(out: str, name: str, payload) -> None:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _parse_ranks(text: str, K: int) -> list[int]:
    parts = text.split(",")
    if len(parts) != K:
        raise ConfigError(f"--ranks needs {K} comma-separated integers")
    ranks = [_int(p) for p in parts]
    for k, (p, rank) in enumerate(zip(parts, ranks), start=1):
        if rank is None:
            raise ConfigError(f"bad rank value {p!r}")
        if rank < 1:
            raise ConfigError(f"rank {rank} out of range for block {k}")
    return ranks


def _ranks_from_proportion(blocks, q: float) -> list[int]:
    ranks = []
    for X in blocks:
        s = np.linalg.svd(X, compute_uv=False)
        s = np.ldexp(s, _scale_shift(s))  # so that s * s stays in the float range
        power = s * s
        cum = np.cumsum(power)
        # dividing by cum[-1], the total in the same rounding, ends the shares
        # at exactly 1, so q = 1 never runs past the last singular value
        ranks.append(int(np.searchsorted(cum / cum[-1], q) + 1))
    return ranks


def _parse_grid(text: str) -> np.ndarray:
    values = [_float(x) for x in text.split(":")]
    if len(values) != 3 or None in values:
        raise ConfigError("--grid must be lo:hi:step in degrees")
    lo, hi, step = values
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError("--grid values must be finite")
    if step <= 0 or hi < lo:
        raise ConfigError("--grid must be increasing with positive step")
    # np.arange returns ceil((stop - start) / step) points; count them before asking
    if (hi + step / 2 - lo) / step > MAX_GRID_POINTS:
        raise ConfigError(f"--grid must have at most {MAX_GRID_POINTS:,} points")
    degs = np.arange(lo, hi + step / 2, step)
    grid = np.deg2rad(degs)
    if grid.size == 0 or grid[0] < 0 or grid[-1] >= np.pi / 2:
        raise ConfigError("--grid values must lie in [0, 90) degrees")
    return grid


def _load_ordering(spec_text: str, K: int):
    if spec_text == "default":
        return default_ordering(K)
    try:
        with open(spec_text) as fh:
            lists = json.load(fh)
        # type() rather than isinstance: True is an int, and IndexSet would take it as 1
        if not (type(lists) is list and all(
                type(s) is list and all(type(m) is int for m in s) for s in lists)):
            raise ValueError("not a JSON list of lists of integers")
        return ordering_from_lists(lists, K)
    except ValueError as exc:
        raise ConfigError(f"--ordering {spec_text}: {exc}") from None


def _resolve_model(args):
    # only the options given reach the preset, which holds the defaults
    given = {key: value for key, value in (("n", args.n), ("block_size", args.p),
                                           ("snr", args.snr)) if value is not None}
    if "snr" in given:
        given["snr"] = _float(given["snr"])  # also reads "inf" and "infinity", in any case
        if given["snr"] is None or not given["snr"] > 0:
            raise ConfigError("--snr must be positive or inf")
    if args.model in ("joint_strong", "individual_strong"):
        return imbalanced_preset(args.model, **given)
    model_id = _int(args.model)
    if model_id is None:
        raise ConfigError(f"unknown model {args.model!r}")
    return model_preset(model_id, **given)


# Each option that holds a number, by its argparse dest: its parser, the test
# of its range, and the rule a value out of range breaks.
_NUMBER_OPTIONS = {
    "seed": (_int, lambda v: v >= 0, "be a non-negative integer"),
    "reps": (_int, lambda v: v >= 1, "be at least 1"),
    "threads": (_int, lambda v: v >= 1, "be at least 1"),
    "n": (_int, lambda v: v >= 1, "be at least 1"),
    "p": (_int, lambda v: v >= 1, "be at least 1"),
    "lambda_deg": (_float, lambda v: 0.0 <= math.radians(v) < math.pi / 2, "lie in [0, 90)"),
    "var_prop": (_float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
}


def _check_args(args) -> None:
    """Check every argument that needs no data block, before any is read, and
    store the resolved values on ``args``: the numbers of _NUMBER_OPTIONS,
    ``lam`` (radians; None tunes), ``grid``, ``threads``, ``ranks`` (None for
    --var-prop), ``ordering``, ``model``."""
    for dest, (parse, in_range, rule) in _NUMBER_OPTIONS.items():
        text, flag = getattr(args, dest, None), "--" + dest.replace("_", "-")
        if text is not None:
            value = parse(text)
            if value is None:
                kind = "an integer" if parse is _int else "a number"
                raise ConfigError(f"{flag} must be {kind}, not {text!r}")
            if not in_range(value):
                raise ConfigError(f"{flag} must {rule}")
            setattr(args, dest, value)
    if hasattr(args, "tune"):
        # simulate tunes unless a fixed threshold is given
        tune = args.tune or (args.command == "simulate" and args.lambda_deg is None)
        if (args.lambda_deg is not None) == tune:
            raise ConfigError("exactly one of --lambda-deg or --tune is required")
        args.lam = None if tune else math.radians(args.lambda_deg)
    if hasattr(args, "grid"):
        args.grid = _parse_grid(args.grid) if args.grid else default_grid()
    if hasattr(args, "threads") and args.threads is None:
        args.threads = _usable_cores()
    if hasattr(args, "blocks"):
        if (args.ranks is None) == (args.var_prop is None):
            raise ConfigError("exactly one of --ranks or --var-prop is required")
        if args.ranks is not None:
            args.ranks = _parse_ranks(args.ranks, len(args.blocks))
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
    data = MultiBlockDataset(tuple(blocks))  # raises "matched samples required"
    if not args.center:
        for i, b in enumerate(data.blocks):
            if not is_row_centered(b):
                print(f"warning: block {i + 1} rows are not centered "
                      "(use --center to apply row centering)", file=sys.stderr)
    for path, scale, b in zip(args.blocks, scales, data.blocks):
        if np.all(_row_absmax(b) <= ZERO_RTOL * scale):
            after = " after row centering" if args.center else ""
            raise ConfigError(f"{path} is all zeros{after}")
    return data


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
                              whole_signals=signals)
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
    # The whole-data path does not depend on the split, so every repetition
    # shares it. tune writes only structures, so it never reads decomposition_hat.
    whole_path = _stacked_path(signals, args.ordering, args.grid)
    # the shared arguments reach each worker once; a job sends only its seed
    tune = functools.partial(select_lambda, data, ranks, args.ordering, args.grid,
                             whole_path=whole_path, whole_signals=signals)
    results = _pool_map(tune, [args.seed + rep for rep in range(args.reps)], args.threads)
    mode, count = mode_structure([t.structure_hat for t in results])

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
        ("--var-prop", dict(help="pick the smallest ranks reaching "
                                             "this variance proportion")),
        ("--ordering", dict(default="default",
                            help="'default' or a JSON file with a list of index-sets")),
        ("--center", dict(action="store_true", help="apply row centering")),
    ),
    "model": (
        ("--model", dict(required=True, help="1..6 or joint_strong | individual_strong")),
        ("--snr", dict(help="signal-to-noise ratio or 'inf' (default: the preset's)")),
        ("--n", dict(help="samples (default: the preset's)")),
        ("--p", dict(help="variables per block (default: the preset's)")),
    ),
    "threshold": (
        ("--lambda-deg", dict(help="angle threshold in degrees")),
        ("--tune", dict(action="store_true", help="select the threshold by data splitting")),
    ),
    "grid": (("--grid", dict(help="threshold grid lo:hi:step in degrees")),),
    "reps": (("--reps", dict(default="1")),),
    "threads": (("--threads", dict(help="processes (default: the usable cores)")),),
    "run": (("--seed", dict(default="0")), ("--out", dict(required=True))),
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
    except np.linalg.LinAlgError as exc:  # a ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes such as --n and --p have no upper bound
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
