"""Outside-in tracing of psidecomp for the benchmark.

``Tracer.install`` wraps every public function of the library's modules at
each module that binds it by name: ``identify`` is bound separately in
``core``, ``tuning``, ``simgen`` and ``cli`` (they do ``from .core import
identify``), so a call is seen whichever module it goes through. The process
pool that ``cli`` imports from ``concurrent.futures`` is wrapped the same way,
as the parent-side ``pool.wait`` span. Spans are kept in memory and turned
into per-layer numbers at the end. Nothing is patched before ``install`` and
``uninstall`` restores every binding, so an untraced run executes the
library's own functions.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("subspace", "structure", "core", "loading", "tuning", "simgen", "cli")
PACKAGE = "psidecomp"

# Function spans whose calls and inclusive time are reported per operation.
COUNTED = (
    "core.identify", "core.extract_signal",
    "loading.estimate_loadings", "loading.stacked_loadings", "loading.reconstruct",
    "tuning.select_lambda", "tuning.test_scores", "tuning.empirical_risk",
    "structure.dissimilarity", "subspace.orthonormalize", "subspace.principal_angle",
)
TIMED = ("simgen.generate", "simgen.metric_rse", "simgen.metric_angles")


@dataclass
class Span:
    sid: int
    name: str            # "<layer>.<function>", e.g. "core.identify"
    parent: int | None
    op: int              # id of the fit or invocation the span belongs to
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _identify_attrs(a, result):
    signals = a["signals"]
    W, _ = result.stacked_scores()
    ranks = [r for _, r in result.structure.entries]
    return {
        "n": signals[0].score_basis.n,
        "in_key": _digest(*(s.score_basis.columns for s in signals), [a["angle_threshold"]]),
        "out_key": _digest(ranks, W),
        "accepted": len(result.diagnostics),
    }


def _csv_bytes(a, result):
    argv = list(a["argv"] or [])
    blocks, out = [], None
    for i, tok in enumerate(argv):
        if tok == "--blocks":
            for f in argv[i + 1:]:
                if f.startswith("--"):
                    break
                blocks.append(f)
        elif tok == "--out" and i + 1 < len(argv):
            out = argv[i + 1]
    written = 0
    if out and os.path.isdir(out):
        written = sum(e.stat().st_size for e in os.scandir(out) if e.name.endswith(".csv"))
    return {"csv_read": sum(os.path.getsize(f) for f in blocks if os.path.exists(f)),
            "csv_written": written}


# Per-function attributes recorded after the call. "n" is the sample count,
# which places a call under select_lambda in its training stage (the half
# split, n < data.n) or its whole-data stage (n == data.n).
ATTRS = {
    "core.identify": _identify_attrs,
    "core.extract_signal": lambda a, r: {"n": a["X"].shape[1]},
    "loading.estimate_loadings": lambda a, r: {"n": a["signals"][0].zhat.shape[1]},
    "loading.stacked_loadings": lambda a, r: {"n": next(iter(a["result"].scores.values())).n},
    "tuning.test_scores": lambda a, r: {"n": a["X_test"].shape[1]},
    "tuning.empirical_risk": lambda a, r: {"n": a["W_test"].shape[0]},
    "tuning.select_lambda": lambda a, r: {"n": a["data"].n},
    "cli.main": _csv_bytes,
}


class Tracer:
    """Records spans of library calls made inside ``operation`` blocks."""

    def __init__(self, capture=()):
        self.spans: list[Span] = []
        self.captured: list[tuple[int, str, object]] = []  # (op, name, return value)
        self.capture = frozenset(capture)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._op: int | None = None

    # -- recording -----------------------------------------------------------

    def _recording(self) -> bool:
        # Forked pool workers inherit the wrappers; only the parent records.
        return self._op is not None and os.getpid() == self._pid

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int):
        """Root span ``bench.op`` of one fit or invocation."""
        self._op = op
        root = self._open("bench.op")
        try:
            yield root
        finally:
            self._close(root)
            self._op = None

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        capture = name in self.capture
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs or capture:
                # The bookkeeping gets a span of its own, so that it is not
                # charged to the library.
                hook = tracer._open("trace.hook")
                if attrs:
                    span.attrs.update(attrs(sig.bind(*args, **kwargs).arguments, result))
                if capture:
                    tracer.captured.append((tracer._op, name, result))
                tracer._close(hook)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        wrappers[id(concurrent.futures.ProcessPoolExecutor)] = self._pool_class()
        # Reading the pool class above also binds it in concurrent.futures,
        # where ``cli.cmd_tune`` looks it up at call time.
        for mod in [sys.modules[PACKAGE], concurrent.futures, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _pool_class(self):
        tracer = self
        base = concurrent.futures.ProcessPoolExecutor

        class TracedPool(base):
            """The parent's wait on the pool, from creation to shutdown."""

            def __init__(self, *args, **kwargs):
                self._span = tracer._open("pool.wait") if tracer._recording() else None
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._span is not None:
                        tracer._close(self._span)

        return TracedPool

    def spans_json(self) -> list:
        return [[s.sid, s.name, s.parent, s.op, s.start, s.end, s.attrs] for s in self.spans]


# -- arithmetic on spans -----------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(i for i in intervals if i[1] > i[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.sid: s.duration - _covered((max(c.start, s.start), min(c.end, s.end))
                                     for c in children[s.sid])
        for s in spans
    }


def self_sum_gap(spans) -> float:
    """Largest |sum of self times - root duration| over the operations, in seconds.

    Zero (to rounding) when every span lies inside its parent and siblings do
    not overlap, i.e. when no time is counted twice.
    """
    selfs = self_times(spans)
    by_op = defaultdict(float)
    roots = {}
    for s in spans:
        by_op[s.op] += selfs[s.sid]
        if s.parent is None:
            roots[s.op] = s.duration
    return max((abs(by_op[op] - d) for op, d in roots.items()), default=0.0)


def _stage(span, parent) -> str:
    # Calls under select_lambda on fewer samples than the data belong to the
    # training stage; dissimilarity and whole-data calls to the whole stage.
    n = span.attrs.get("n")
    return "train" if n is not None and n < parent.attrs.get("n", 0) else "whole"


def layer_metrics(spans, ops, pool_ops=()) -> dict:
    """Per-operation means of the per-layer metrics over the spans of ``ops``.

    ``pool_ops`` are operations whose pool wait is reported (their other spans
    are parent-side only and are not used). Layers that the operations do not
    run report 0.
    """
    ops, pool_ops = set(ops), set(pool_ops)
    mine = [s for s in spans if s.op in ops]
    by_id = {s.sid: s for s in mine}
    nops = max(len(ops), 1)
    selfs = self_times(mine)
    out = {}

    calls, dur = defaultdict(int), defaultdict(float)
    layer_self = defaultdict(float)
    for s in mine:
        calls[s.name] += 1
        dur[s.name] += s.duration
        layer_self[s.layer] += selfs[s.sid]
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name] / nops
        out[f"{name}.ms"] = 1e3 * dur[name] / nops
    for name in TIMED:
        out[f"{name}.ms"] = 1e3 * dur[name] / nops
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / nops
    out["simgen.run_once.self_ms"] = 1e3 * sum(
        selfs[s.sid] for s in mine if s.name == "simgen.run_once") / nops
    out["trace.hook_ms"] = 1e3 * layer_self["trace"] / nops
    op_ms = 1e3 * dur["bench.op"] / nops
    out["bench.op_ms"] = op_ms
    program_ms = op_ms - out["trace.hook_ms"]  # the tracer's own bookkeeping excluded
    out["core.identify.share_pct"] = (
        100.0 * out["core.identify.ms"] / program_ms if program_ms else 0.0)

    identifies = [s for s in mine if s.name == "core.identify"]
    out["core.identify.accepted"] = (
        sum(s.attrs["accepted"] for s in identifies) / len(identifies) if identifies else 0.0)

    stage_ms = defaultdict(float)
    results, inputs = defaultdict(set), defaultdict(set)
    whole_calls = 0
    for s in mine:
        parent = by_id.get(s.parent)
        if s.name == "trace.hook":
            continue
        if parent is None or parent.name != "tuning.select_lambda":
            if s.name == "core.identify":
                results[("call", s.sid)].add(s.attrs["out_key"])
            continue
        stage = _stage(s, parent)
        stage_ms[stage] += s.duration
        if s.name == "core.identify":
            results[(parent.sid, stage)].add(s.attrs["out_key"])
            if stage == "whole":
                inputs[s.op].add(s.attrs["in_key"])
                whole_calls += 1
    out["tuning.stage_train.ms"] = 1e3 * stage_ms["train"] / nops
    out["tuning.stage_whole.ms"] = 1e3 * stage_ms["whole"] / nops
    distinct = sum(len(v) for v in results.values())
    out["tuning.sweep_useful_ratio"] = distinct / len(identifies) if identifies else 0.0
    out["tuning.whole_stage_repeat_ratio"] = (
        sum(len(v) for v in inputs.values()) / whole_calls if whole_calls else 0.0)

    mains = [s for s in mine if s.name == "cli.main"]
    out["cli.csv_bytes_read"] = sum(s.attrs.get("csv_read", 0) for s in mains) / nops
    out["cli.csv_bytes_written"] = sum(s.attrs.get("csv_written", 0) for s in mains) / nops
    waits = [s.duration for s in spans if s.op in pool_ops and s.name == "pool.wait"]
    out["cli.pool_wait_ms"] = 1e3 * sum(waits) / len(pool_ops) if pool_ops else 0.0
    return out
