# Synthetic multi-block data generation with a known partially-joint
# structure, the six benchmark models, two imbalanced-strength presets, and
# the evaluation metrics (structure accuracy, relative squared error, mean
# principal angles of loadings and scores).

from __future__ import annotations

import ctypes
import functools
import math
import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MultiBlockDataset, extract_signal, identify
from .loading import LoadingSet, estimate_loadings
from .structure import (
    IndexOrdering,
    IndexSet,
    PartialJointStructure,
    default_ordering,
    structures_equal,
)
from .subspace import OrthonormalBasis, orthonormalize, principal_angle, UnitDirection
from .tuning import default_grid, select_lambda

# A block's estimated loading span keeps the directions whose singular value
# exceeds this fraction of the largest.
LOADING_RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class SimulationModel:
    """Block sizes, per-component signal variances, and noise level.

    An index-set's rank is the number of its variances (0 when it has none),
    and K is the number of blocks; the structure is read from both.
    """

    name: str
    n: int
    block_sizes: tuple[int, ...]
    signal_variances: dict    # IndexSet -> tuple of r variances
    snr: float                # math.inf encodes the noiseless regime

    def __post_init__(self):
        if not (self.snr > 0):
            raise ValueError("snr must be positive (math.inf for noiseless)")
        for subset in self.signal_variances:
            if not (isinstance(subset, IndexSet) and subset.members[-1] <= self.K):
                raise ValueError(f"variances given for {subset}, "
                                 f"which is not an index-set over blocks 1..{self.K}")
        self.structure  # built now, so a K outside 1..MAX_BLOCKS is refused here too

    @property
    def K(self) -> int:
        return len(self.block_sizes)

    @property
    def ordering(self) -> IndexOrdering:
        return default_ordering(self.K)

    @functools.cached_property
    def structure(self) -> PartialJointStructure:
        return PartialJointStructure(
            tuple((s, len(self.signal_variances.get(s, ()))) for s in self.ordering), self.K)

    def block_ranks(self) -> tuple[int, ...]:
        return tuple(self.structure.block_rank(k) for k in range(1, self.K + 1))


def _model(name, variances, *, n, p, snr):
    K = max(map(max, variances))  # the largest block index in any index-set
    return SimulationModel(
        name=name, n=n, block_sizes=(p,) * K,
        signal_variances={IndexSet(m): tuple(v) for m, v in variances.items()}, snr=snr)


def model_preset(model_id: int, snr: float = math.inf,
                 n: int = 200, block_size: int = 200) -> SimulationModel:
    """The six benchmark models (K = 3, every active index-set of rank 2)."""
    presets = {
        1: ("individuals", {(1,): (1.4, 0.8), (2,): (1.3, 0.7), (3,): (1.2, 0.6)}),
        2: ("fully-joint", {(1, 2, 3): (1.0, 0.9)}),
        3: ("circular partially-joint",
            {(1, 2): (1.4, 0.8), (1, 3): (1.3, 0.7), (2, 3): (1.2, 0.6)}),
        4: ("fully-joint plus individuals",
            {(1, 2, 3): (1.5, 0.8), (1,): (1.4, 0.7), (2,): (1.3, 0.6),
             (3,): (1.2, 0.5)}),
        5: ("fully-joint plus partially-joint",
            {(1, 2, 3): (1.5, 0.8), (1, 2): (1.4, 0.7), (1, 3): (1.3, 0.6),
             (2, 3): (1.2, 0.5)}),
        6: ("all combinations",
            {(1, 2, 3): (1.8, 0.8), (1, 2): (1.7, 0.7), (1, 3): (1.6, 0.6),
             (2, 3): (1.5, 0.5), (1,): (1.4, 0.4), (2,): (1.3, 0.3),
             (3,): (1.2, 0.2)}),
    }
    if model_id not in presets:
        raise ValueError(f"unknown model id {model_id}")
    name, variances = presets[model_id]
    return _model(f"model{model_id} ({name})", variances, n=n, p=block_size, snr=snr)


def imbalanced_preset(which: str, snr: float = math.inf,
                      n: int = 200, block_size: int = 100) -> SimulationModel:
    """Rank-10 joint plus three rank-10 individuals with a ~100x strength gap.

    Variance ladders are linear between the documented endpoints:
    strong individuals run 15..6.9, 14.7..6.6, 14.4..6.3; the joint ladder
    runs 15..5.5; the weak side is the strong side divided by 100.
    """
    joint_strong = np.linspace(15.0, 5.5, 10)
    ind_strong = [np.linspace(15.0, 6.9, 10), np.linspace(14.7, 6.6, 10),
                  np.linspace(14.4, 6.3, 10)]
    if which == "joint_strong":
        joint = joint_strong
        individuals = [v / 100.0 for v in ind_strong]
    elif which == "individual_strong":
        joint = joint_strong / 100.0
        individuals = ind_strong
    else:
        raise ValueError(f"unknown imbalanced preset {which!r}")
    variances = {(1, 2, 3): joint, (1,): individuals[0], (2,): individuals[1],
                 (3,): individuals[2]}
    return _model(f"imbalanced ({which})", variances, n=n, p=block_size, snr=snr)


@dataclass(eq=False)
class GroundTruth:
    model: SimulationModel
    seed: int
    scores: dict       # IndexSet -> n x r orthonormal score block
    loadings: dict     # (k, IndexSet) -> p_k x r loading block
    signals: list      # Z_k, p_k x n
    blocks: list       # X_k = Z_k + E_k

    def dataset(self) -> MultiBlockDataset:
        return MultiBlockDataset(tuple(self.blocks))


def generate(model: SimulationModel, seed: int, joint_orthonormal: bool = True,
             loading_seed: int | None = None) -> GroundTruth:
    """Draw one synthetic dataset.

    Scores come from standard-normal matrices; by default one stacked draw is
    orthonormalized and sliced per index-set so that all score blocks are
    mutually orthogonal, while ``joint_orthonormal=False`` orthonormalizes
    each block on its own (random cross-set angles). Loading entries are
    N(0, sigma^2) with the per-component variances; noise entries are
    N(0, 1/snr), omitted entirely when snr is infinite. ``loading_seed``
    lets a repetition runner hold the loadings fixed while scores and noise
    are resampled per repetition; by default it follows ``seed``.
    """
    active = [(s, r) for s, r in model.structure.entries if r > 0]
    r_total = sum(r for _, r in active)
    for k in range(1, model.K + 1):
        budget = min(model.n, model.block_sizes[k - 1])
        if model.structure.block_rank(k) > budget:
            raise ValueError(f"rank budget exceeded for block {k}")
    if joint_orthonormal and r_total > model.n:
        raise ValueError("rank budget exceeded: jointly orthonormal scores need "
                         f"total rank {r_total} <= n = {model.n}")

    rng = np.random.default_rng(seed)
    # salted stream so loadings held fixed across repetitions never replay the
    # score/noise stream of the repetition whose seed coincides
    rng_load = rng if loading_seed is None else np.random.default_rng([int(loading_seed), 0xA11CE])

    raw = rng.standard_normal((model.n, r_total))
    cuts = np.cumsum([r for _, r in active])[:-1]
    parts = [raw] if joint_orthonormal else np.split(raw, cuts, axis=1)
    stacked = np.hstack([orthonormalize(part).columns for part in parts])
    scores, loadings = {}, {}
    for (subset, r), W in zip(active, np.split(stacked, cuts, axis=1)):
        scores[subset] = W
        sigmas = np.sqrt(np.array(model.signal_variances[subset], dtype=float))
        for k in subset.members:
            p_k = model.block_sizes[k - 1]
            loadings[(k, subset)] = rng_load.standard_normal((p_k, r)) * sigmas

    signals = []
    for k in range(1, model.K + 1):
        Z = np.zeros((model.block_sizes[k - 1], model.n))
        for subset, r in active:
            if k in subset:
                Z += loadings[(k, subset)] @ scores[subset].T
        signals.append(Z)

    blocks = []
    if math.isinf(model.snr):
        blocks = [Z.copy() for Z in signals]
    else:
        sigma = math.sqrt(1.0 / model.snr)
        for Z in signals:
            # in place, and bit for bit Z + sigma * E: no p x n temporaries
            E = rng.standard_normal(Z.shape)
            E *= sigma
            E += Z
            blocks.append(E)

    return GroundTruth(model=model, seed=int(seed), scores=scores,
                       loadings=loadings, signals=signals, blocks=blocks)


# ---------------------------------------------------------------------------
# Evaluation metrics
# ---------------------------------------------------------------------------

def metric_accuracy(est: PartialJointStructure, truth: PartialJointStructure) -> int:
    """1 when the estimated structure equals the truth as binary multisets."""
    if est.K != truth.K:
        raise ValueError("structures disagree on K")
    return int(structures_equal(est, truth))


def metric_rse(truth: GroundTruth, loadings: LoadingSet, result) -> float:
    """Mean over blocks of ||Z_k - reconstruction||_F^2 / ||Z_k||_F^2.

    The reconstruction U W^T is not formed: with U = U_(k) (p_k x r) and
    W = W_(k) (n x r), ||Z - U W^T||^2 = ||Z||^2 - 2 <Z W, U> + <U^T U, W^T W>.
    """
    K = truth.model.K
    total = 0.0
    for k in range(1, K + 1):
        Z = truth.signals[k - 1]
        denom = float(np.vdot(Z, Z))
        if denom == 0.0:
            raise ValueError(f"true signal block {k} is zero")
        W, labels = result.stacked_scores(k)
        U = loadings.aligned(k, labels)
        resid = denom - 2.0 * float(np.vdot(Z @ W, U)) + float(np.vdot(U.T @ U, W.T @ W))
        # an exact fit leaves rounding of either sign
        total += max(resid, 0.0) / denom
    return total / K


def metric_angles(truth: GroundTruth, loadings: LoadingSet, result) -> tuple[float, float]:
    """Mean principal angles (degrees) of true loading and score columns.

    Every true loading column is compared with the column space of the
    estimated concatenated loadings of its block; every true score column is
    compared with the span of all estimated scores, orthonormal as ``identify``
    returns them. Empty estimates count as 90 degrees.
    """
    est_loading_spans = {
        k: orthonormalize(loadings.aligned(k, result.stacked_scores(k)[1]), LOADING_RANK_RTOL)
        for k in range(1, truth.model.K + 1)}
    est_score_span = OrthonormalBasis(result.stacked_scores()[0])

    def angle(v, span):
        return principal_angle(UnitDirection(v), span) if span.r else np.pi / 2

    u_angles = [angle(u, est_loading_spans[k])
                for (k, _), U in truth.loadings.items() for u in U.T]
    w_angles = [angle(w, est_score_span) for W in truth.scores.values() for w in W.T]
    return (float(np.degrees(np.mean(u_angles))),
            float(np.degrees(np.mean(w_angles))))


# ---------------------------------------------------------------------------
# Repetition runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepetitionOutcome:
    model: str
    snr: float
    seed: int
    accuracy: int
    rse: float
    theta_U: float
    theta_W: float
    wall_ms: float
    lambda_deg: float


def run_once(model: SimulationModel, seed: int, angle_threshold: float | None = None,
             grid: Sequence[float] | None = None,
             loading_seed: int | None = None) -> RepetitionOutcome:
    """Generate one dataset, fit the full pipeline, and score it against truth.

    With ``angle_threshold`` given the threshold is fixed; otherwise it is
    selected by data splitting over ``grid`` (default 0..89 degrees).
    """
    truth = generate(model, seed, loading_seed=loading_seed)
    data = truth.dataset()
    ranks = model.block_ranks()
    t0 = time.perf_counter()
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(data.blocks, ranks)]
    if angle_threshold is not None:
        result = identify(signals, model.ordering, angle_threshold)
    else:
        grid = default_grid() if grid is None else grid
        tuned = select_lambda(data, ranks, model.ordering, grid, seed, whole_signals=signals)
        result = tuned.decomposition_hat
    loads = estimate_loadings(signals, result)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    acc = metric_accuracy(result.structure, model.structure)
    rse = metric_rse(truth, loads, result)
    theta_u, theta_w = metric_angles(truth, loads, result)
    return RepetitionOutcome(
        model=model.name, snr=model.snr, seed=int(seed), accuracy=acc,
        rse=rse, theta_U=theta_u, theta_W=theta_w, wall_ms=wall_ms,
        lambda_deg=float(np.degrees(result.angle_threshold)),
    )


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, which also reflects a
    container's cpuset, where the platform has one; else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# numpy's wheels bundle a renamed OpenBLAS; system builds keep the plain names
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _set_blas_threads(count: int) -> None:
    """Give numpy's OpenBLAS ``count`` threads.

    The set-threads symbol is looked up through a handle on numpy's own
    linear-algebra extension, which reaches the OpenBLAS that it links. Does
    nothing when the user chose a count through the environment, or when that
    BLAS exports no set-threads symbol (another BLAS); never raises.
    """
    if any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        return
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return
    for name in _BLAS_SET_THREADS:
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = [ctypes.c_int], None
            fn(count)
            return


def _pool_map(fn, args, threads: int) -> list:
    """[fn(a) for a in args], in a pool of min(threads, len(args)) processes
    when that is more than one; results keep the order of ``args``.

    ``fn`` goes to each worker once, through the initializer, which the fork
    start method hands over without pickling, so what it binds (a
    ``functools.partial``'s arguments) is shared and a job sends only its own
    argument. Each worker also gets an equal share of the usable cores as
    OpenBLAS threads, so the workers do not oversubscribe them. The pool is
    imported here, so a process that never forks one does not load
    ``multiprocessing``.
    """
    workers = min(threads, len(args))
    if workers <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(max(1, _usable_cores() // workers), fn)) as pool:
        return list(pool.map(_call_shared, args))


_worker_fn = None  # set only in a pool worker, by _start_worker


def _start_worker(blas_threads: int, fn) -> None:
    global _worker_fn
    _set_blas_threads(blas_threads)
    _worker_fn = fn


def _call_shared(arg):
    return _worker_fn(arg)


def run_repetitions(model: SimulationModel, repetitions: int, seed: int,
                    angle_threshold: float | None = None,
                    grid: Sequence[float] | None = None,
                    threads: int = 1) -> list[RepetitionOutcome]:
    """Seed-indexed repetitions seed, seed+1, ...; loadings stay fixed at ``seed``."""
    fit = functools.partial(run_once, model, angle_threshold=angle_threshold,
                            grid=grid, loading_seed=seed)
    return _pool_map(fit, [seed + rep for rep in range(repetitions)], threads)


def outcomes_tsv(outcomes: Sequence[RepetitionOutcome]) -> str:
    lines = ["model\tsnr\tseed\taccuracy\trse\ttheta_U\ttheta_W\twall_ms"]
    for o in outcomes:
        snr = "inf" if math.isinf(o.snr) else f"{o.snr:g}"
        lines.append(
            f"{o.model}\t{snr}\t{o.seed}\t{o.accuracy}\t{o.rse:.12g}"
            f"\t{o.theta_U:.6f}\t{o.theta_W:.6f}\t{o.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def summarize(outcomes: Sequence[RepetitionOutcome]) -> dict:
    """Mean/sd cells for the metric table plus the accuracy percentage."""
    def cell(values):
        arr = np.array(values, dtype=float)
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        return {"mean": float(arr.mean()), "sd": sd}

    return {
        "model": outcomes[0].model,
        "snr": "inf" if math.isinf(outcomes[0].snr) else outcomes[0].snr,
        "repetitions": len(outcomes),
        "accuracy_percent": 100.0 * float(np.mean([o.accuracy for o in outcomes])),
        "rse": cell([o.rse for o in outcomes]),
        "theta_U": cell([o.theta_U for o in outcomes]),
        "theta_W": cell([o.theta_W for o in outcomes]),
        "wall_ms": cell([o.wall_ms for o in outcomes]),
    }

