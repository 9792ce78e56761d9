# Data-splitting selection of the angle threshold: fit on a random half,
# score the held-out half through an orthogonal-Procrustes step, minimize the
# empirical risk over the threshold grid, then pick the whole-data threshold
# whose structure is closest to the chosen training structure.

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# identify is still bound here: the benchmark's tracer and its tests look it
# up in every module that imports it by name.
from .core import MultiBlockDataset, extract_signal, identify, identify_path  # noqa: F401
from .loading import estimate_loadings, stacked_loadings
from .structure import (
    IndexOrdering,
    PartialJointStructure,
    dissimilarity,
    to_binary_multiset,
)

DEFAULT_GRID_DEG = tuple(range(0, 90))  # 0..89 degrees; pi/2 itself is excluded


def default_grid() -> np.ndarray:
    """Threshold grid of 0,1,...,89 degrees, in radians."""
    return np.deg2rad(np.array(DEFAULT_GRID_DEG, dtype=float))


@dataclass(frozen=True)
class SplitPlan:
    """Random half split of the n samples; train takes the extra one for odd n."""

    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int


def split(n: int, seed: int) -> SplitPlan:
    if n < 4:
        raise ValueError("need at least 4 samples to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = (n + 1) // 2
    train = tuple(sorted(int(i) for i in perm[:n_train]))
    test = tuple(sorted(int(i) for i in perm[n_train:]))
    return SplitPlan(train=train, test=test, seed=int(seed))


def test_scores(X_test: np.ndarray, U_train: np.ndarray):
    """Orthonormal test-score matrix via the orthogonal Procrustes solution.

    Minimizes ||X_test - U_train W^T||_F over W with W^T W = I: with the SVD
    X_test^T U_train = P S Q^T the minimizer is W = P Q^T. Returns
    (W, degenerate) where the flag marks a rank-deficient cross product.
    """
    X_test = np.asarray(X_test, dtype=float)
    U_train = np.asarray(U_train, dtype=float)
    if X_test.shape[0] != U_train.shape[0]:
        raise ValueError("X_test and U_train must share the stacked row dimension")
    r = U_train.shape[1]
    n_test = X_test.shape[1]
    if r > min(X_test.shape[0], n_test):
        raise ValueError("more score columns than rows or samples")
    if r == 0:
        return np.zeros((n_test, 0)), False
    M = X_test.T @ U_train
    P, s, Qt = np.linalg.svd(M, full_matrices=False)
    degenerate = bool(s[0] <= 0.0 or s[-1] <= 1e-12 * s[0])
    return P @ Qt, degenerate


def empirical_risk(test_blocks: Sequence[np.ndarray],
                   loading_blocks: Sequence[np.ndarray],
                   W_test: np.ndarray) -> float:
    """Sum over blocks of ||X_k - U_(k) W^T||_F^2 / ||X_k||_F^2 on the test half."""
    if len(test_blocks) != len(loading_blocks):
        raise ValueError("one loading block per test block required")
    total = 0.0
    for X, U in zip(test_blocks, loading_blocks):
        denom = float(np.sum(X * X))
        if denom == 0.0:
            raise ValueError("test block with zero norm; drop it before tuning")
        resid = X - U @ W_test.T
        total += float(np.sum(resid * resid)) / denom
    return total


@dataclass(eq=False)
class TuningResult:
    lambda_tilde: float                     # train/test risk minimizer (radians)
    structure_train: PartialJointStructure  # training structure at lambda_tilde
    lambda_hat: float                       # whole-data structure match (radians)
    risk_curve: tuple                       # ((lambda, risk), ...)
    dissimilarity_curve: tuple              # ((lambda, d), ...)
    decomposition_hat: object = None        # whole-data result at lambda_hat


def select_lambda(data: MultiBlockDataset, ranks: Sequence[int],
                  ordering: IndexOrdering, grid: Sequence[float], seed: int,
                  whole_signals=None) -> TuningResult:
    """Two-stage threshold selection on one random data split.

    Stage one minimizes the held-out reconstruction risk over the grid; stage
    two re-identifies on the whole data and picks the threshold whose
    structure is closest (in the squared-Hamming dissimilarity) to the
    training structure at the risk minimizer. Ties go to the smallest
    threshold. Deterministic given (data, ranks, ordering, grid, seed).
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("threshold grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 0 or grid[-1] >= np.pi / 2:
        raise ValueError("grid values must lie in [0, pi/2)")
    K = data.K
    if len(ranks) != K:
        raise ValueError(f"expected {K} ranks, got {len(ranks)}")

    plan = split(data.n, seed)
    n_train = len(plan.train)
    for k, r in enumerate(ranks, start=1):
        if r > n_train:
            raise ValueError(
                f"block {k} has rank {r}, but tuning fits on a training half of "
                f"n_train = {n_train} of the n = {data.n} samples; lower the rank "
                f"to at most {n_train}")
    tr = list(plan.train)
    te = list(plan.test)
    train_blocks = [X[:, tr] for X in data.blocks]
    test_blocks = [X[:, te] for X in data.blocks]
    X_test_stacked = np.vstack(test_blocks)
    offsets = np.concatenate([[0], np.cumsum([b.shape[0] for b in test_blocks])])

    train_signals = [extract_signal(B, r, check_centering=False)
                     for B, r in zip(train_blocks, ranks)]

    # identify is piecewise constant in the threshold, so the loadings and the
    # held-out risk are computed once per interval of the path.
    risks, train_structures = [], []
    for i0, i1, res in identify_path(train_signals, ordering, grid):
        loads = estimate_loadings(train_signals, res)
        U_stacked = stacked_loadings(loads, res)
        W_test, _ = test_scores(X_test_stacked, U_stacked)
        U_rows = [U_stacked[offsets[k]:offsets[k + 1]] for k in range(K)]
        risks += [empirical_risk(test_blocks, U_rows, W_test)] * (i1 - i0)
        train_structures += [res.structure] * (i1 - i0)
    risk_curve = [(float(lam), risk) for lam, risk in zip(grid, risks)]

    i_tilde = int(np.argmin(risks))  # first minimum = smallest lambda on ties
    lambda_tilde = float(grid[i_tilde])
    structure_train = train_structures[i_tilde]

    if whole_signals is None:
        whole_signals = [extract_signal(X, r, check_centering=False)
                         for X, r in zip(data.blocks, ranks)]
    dists, whole_results = [], []
    for i0, i1, res in identify_path(whole_signals, ordering, grid):
        dists += [dissimilarity(structure_train, res.structure)] * (i1 - i0)
        whole_results += [res] * (i1 - i0)
    dissim_curve = [(float(lam), d) for lam, d in zip(grid, dists)]
    i_hat = int(np.argmin(dists))
    lambda_hat = float(grid[i_hat])

    return TuningResult(
        lambda_tilde=lambda_tilde,
        structure_train=structure_train,
        lambda_hat=lambda_hat,
        risk_curve=tuple(risk_curve),
        dissimilarity_curve=tuple(dissim_curve),
        decomposition_hat=replace(whole_results[i_hat], angle_threshold=lambda_hat),
    )


def mode_structure(structures: Sequence[PartialJointStructure]):
    """Most frequent structure by binary-multiset equality; ties keep the first seen."""
    if not structures:
        raise ValueError("no structures to aggregate")
    keys = [tuple(sorted(to_binary_multiset(s).items())) for s in structures]
    counts = Counter(keys)
    best_key = None
    best_count = -1
    for key in keys:  # first-seen order
        if counts[key] > best_count:
            best_key, best_count = key, counts[key]
    winner = structures[keys.index(best_key)]
    return winner, best_count


def write_curves_tsv(result: TuningResult, path) -> None:
    """TSV with columns lambda_degrees, risk, dissimilarity."""
    lines = ["lambda_degrees\trisk\tdissimilarity"]
    dissim = {lam: d for lam, d in result.dissimilarity_curve}
    for lam, risk in result.risk_curve:
        d = dissim.get(lam, "")
        lines.append(f"{np.rad2deg(lam):.6g}\t{risk:.12g}\t{d}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
