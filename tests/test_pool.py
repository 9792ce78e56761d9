# The worker pool of simgen._pool_map: loaded only when it runs, sized to the
# jobs, and giving each worker its share of the cores as OpenBLAS threads.
# No test here starts more than 2 worker processes.

import concurrent.futures
import ctypes
import functools
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psidecomp import simgen
from psidecomp.cli import main
from psidecomp.simgen import _pool_map, _usable_cores

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _blas_get_threads():
    """The get-threads function of the first loaded OpenBLAS that has one, or None."""
    try:
        with open("/proc/self/maps") as fh:
            maps = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    for path in sorted({f[5].strip() for f in maps
                        if len(f) == 6 and "openblas" in f[5].lower()}):
        lib = ctypes.CDLL(path)
        for name in BLAS_GET_THREADS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def blas_threads_in_worker(_):
    return os.getpid(), _blas_get_threads()()


def square(x):
    return x * x


class Recorder:
    """Stands in for ProcessPoolExecutor: records its arguments, runs the
    initializer inline, as a worker does, and records the per-job arguments
    that map would send."""

    built = []
    sent = []

    def __init__(self, max_workers, initializer, initargs):
        Recorder.built.append((max_workers, initializer, initargs))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        Recorder.sent = [list(it) for it in iterables]
        return map(fn, *Recorder.sent)


@pytest.fixture()
def recorder(monkeypatch):
    """The recorded pools; the inline initializer leaves this process's BLAS
    and worker function as they were."""
    Recorder.built, Recorder.sent = [], []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(simgen, "_set_blas_threads", lambda count: None)
    monkeypatch.setattr(simgen, "_worker_fn", None)
    return Recorder.built


def test_import_leaves_the_pool_unloaded():
    code = ("import sys, psidecomp, psidecomp.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("threads,n_jobs", [(2, 2), (2, 5), (8, 3), (3, 8)])
def test_pool_is_sized_to_the_jobs(recorder, threads, n_jobs):
    assert _pool_map(square, list(range(n_jobs)), threads) == [i * i for i in range(n_jobs)]
    workers = min(threads, n_jobs)
    assert recorder == [(workers, simgen._start_worker,
                         (max(1, _usable_cores() // workers), square))]


@pytest.mark.parametrize("threads,n_jobs", [(1, 5), (4, 1), (4, 0)])
def test_one_worker_runs_serially(recorder, threads, n_jobs):
    assert _pool_map(square, list(range(n_jobs)), threads) == [i * i for i in range(n_jobs)]
    assert recorder == []


def test_blas_share_divides_the_usable_cores(recorder, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5, 6})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _pool_map(square, [2] * 5, 2)
    _pool_map(square, [2] * 9, 8)
    assert [initargs for _, _, initargs in recorder] == [(3, square), (1, square)]


def test_usable_cores_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _usable_cores() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _usable_cores() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cores() == 1


@pytest.fixture()
def get_threads():
    fn = _blas_get_threads()
    if fn is None:
        pytest.skip("no loaded OpenBLAS exports a get-threads symbol")
    return fn


def test_workers_get_their_share_of_blas_threads(get_threads, monkeypatch):
    for var in simgen._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = get_threads()
    out = _pool_map(blas_threads_in_worker, list(range(4)), 2)
    assert {count for _, count in out} == {max(1, _usable_cores() // 2)}
    assert len({pid for pid, _ in out} - {os.getpid()}) in (1, 2)
    assert get_threads() == before  # the parent keeps its own count


def test_user_blas_threads_are_kept(get_threads, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(get_threads()))
    out = _pool_map(blas_threads_in_worker, list(range(2)), 2)
    assert [count for _, count in out] == [get_threads()] * 2


def test_missing_symbol_leaves_blas_alone(get_threads, monkeypatch):
    for var in simgen._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(simgen, "_BLAS_SET_THREADS", ("no_such_set_threads",))
    before = get_threads()
    simgen._set_blas_threads(before + 1)
    assert get_threads() == before


def test_unopenable_blas_handle_leaves_blas_alone(get_threads, monkeypatch):
    for var in simgen._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)

    def refuse(path):
        raise OSError(f"cannot open {path}")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    before = get_threads()
    simgen._set_blas_threads(before + 1)
    assert get_threads() == before


def test_tune_two_workers_write_the_serial_bytes(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--model", "6", "--snr", "15", "--seed", "2000",
                 "--n", "120", "--p", "80", "--out", str(data)]) == 0
    blocks = [str(data / f"X_{k}.csv") for k in (1, 2, 3)]
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "psidecomp.cli", "tune", "--blocks", *blocks,
             "--ranks", "8,8,8", "--reps", "3", "--seed", "5",
             "--threads", threads, "--out", str(out)],
            env=_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        written[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written["1"]) == ["curves.tsv", "tune.json"]
    assert written["1"] == written["2"]


class RefusesPickling:
    """A shared argument that a job's pickle would fail on."""

    def __reduce__(self):
        raise TypeError("shared arguments were pickled")


def scale_by(shared, factor, x):
    assert isinstance(shared, RefusesPickling)
    return factor * x


def test_shared_arguments_go_through_the_initializer(recorder):
    fn = functools.partial(scale_by, RefusesPickling(), 3)
    assert _pool_map(fn, list(range(5)), 2) == [3 * i for i in range(5)]
    assert recorder == [(2, simgen._start_worker, (max(1, _usable_cores() // 2), fn))]
    assert Recorder.sent == [[0, 1, 2, 3, 4]]  # each job sends only its own argument


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only the fork start method hands the initializer over unpickled")
def test_forked_workers_get_the_shared_arguments_unpickled():
    fn = functools.partial(scale_by, RefusesPickling(), 2)
    assert _pool_map(fn, list(range(4)), 2) == [0, 2, 4, 6]
    assert simgen._worker_fn is None  # nothing stays behind in the parent


def test_serial_path_calls_the_partial_directly(recorder):
    fn = functools.partial(scale_by, RefusesPickling(), 5)
    assert _pool_map(fn, [1, 2], 1) == [5, 10]
    assert recorder == [] and simgen._worker_fn is None
