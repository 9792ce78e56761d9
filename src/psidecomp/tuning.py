# Data-splitting selection of the angle threshold: fit on a random half,
# score the held-out half through an orthogonal-Procrustes step, minimize the
# empirical risk over the threshold grid, then pick the whole-data threshold
# whose structure is closest to the chosen training structure. The risk is
# computed from r-sized pieces (see select_lambda).

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import DecompositionResult, MultiBlockDataset, _path, extract_signal, identify
from .structure import IndexOrdering, PartialJointStructure, dissimilarity
from .subspace import SCALE_EXP_BAND, OrthonormalBasis, _max_exponent, _scale_shift

DEFAULT_GRID_DEG = tuple(range(0, 90))  # 0..89 degrees; pi/2 itself is excluded
# Below this eigenvalue ratio the risk's r x r Gram loses accuracy (an SVD instead)
RISK_EIGH_RTOL = 1e-4
# test_scores flags X_test^T U_train as rank-deficient at s_min <= rtol * s_max
DEGENERATE_RTOL = 1e-12


def default_grid() -> np.ndarray:
    """Threshold grid of 0,1,...,89 degrees, in radians."""
    return np.deg2rad(np.array(DEFAULT_GRID_DEG, dtype=float))


@dataclass(frozen=True)
class SplitPlan:
    """Random half split of the n samples; train takes the extra one for odd n."""

    train: tuple[int, ...]
    test: tuple[int, ...]


def split(n: int, seed: int) -> SplitPlan:
    if n < 4:
        raise ValueError("need at least 4 samples to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = (n + 1) // 2
    train = tuple(sorted(int(i) for i in perm[:n_train]))
    test = tuple(sorted(int(i) for i in perm[n_train:]))
    return SplitPlan(train, test)


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
    degenerate = bool(s[0] <= 0.0 or s[-1] <= DEGENERATE_RTOL * s[0])
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


def _heldout_pieces(test_blocks, train_signals: Sequence) -> tuple:
    """(V, R, S, rows, denoms) for ``_heldout_risk``, computed once per split.

    Block k's training score basis V_k and factor L_k = X_train,k V_k give
    A_k = X_test,k^T L_k (n_test x r_k) and S_k = L_k^T L_k. Over the
    R0 = sum_k r_k columns, V = [V_1 ... V_K], S is block-diagonal in the
    S_k, and of the thin QR [A_1 ... A_K] = Q R only R is kept. ``rows``
    maps each of the R0 columns to its block (0-based) and ``denoms`` holds
    ||X_test,k||^2. ``test_blocks`` may be a generator: each block is
    dropped once its piece is formed.
    """
    V, A, S, denoms = [], [], [], []
    for X_test, sig in zip(test_blocks, train_signals):
        if not X_test.any():
            raise ValueError("test block with zero norm; drop it before tuning")
        denom = float(np.sum(X_test * X_test))
        L = sig.factor
        V.append(sig.score_basis.columns)
        A.append(X_test.T @ L)
        S.append(L.T @ L)
        denoms.append(denom)
    rows = np.repeat(np.arange(len(V)), [v.shape[1] for v in V])
    S_diag = np.zeros((rows.size, rows.size))
    for k, S_k in enumerate(S):
        S_diag[np.ix_(rows == k, rows == k)] = S_k
    return np.hstack(V), np.linalg.qr(np.hstack(A), mode="r"), S_diag, rows, np.array(denoms)


def _stacked_coordinates(signals: Sequence) -> tuple:
    """(signals, T): the signals in the coordinates of the thin QR [V_1 ...
    V_K] = Q0 T of their bases, where block k's basis is T_k = Q0^T V_k with
    R0 = sum_k r_k rows (n if fewer), and V^T W = T^T W' for scores W = Q0 W'
    on the T_k. Q0 keeps every angle, so a path there gates as in sample space."""
    rows = np.repeat(np.arange(len(signals)), [sig.rank for sig in signals])
    T = np.linalg.qr(np.hstack([sig.score_basis.columns for sig in signals]), mode="r")
    return [replace(sig, score_basis=OrthonormalBasis(T[:, rows == k]))
            for k, sig in enumerate(signals)], T


def _stacked_path(signals: Sequence, ordering: IndexOrdering, grid) -> list:
    """The per-stage path of ``signals`` in their stacked coordinates: the
    intervals and structures of ``identify_path``, with no columns to read."""
    return _path(_stacked_coordinates(signals)[0], ordering, grid, per_stage=True)


def _heldout_risk(pieces: tuple, result) -> float:
    """``empirical_risk`` of ``result``'s loadings and Procrustes test scores.

    The r-space form of estimate_loadings -> stacked_loadings -> test_scores
    -> empirical_risk (see ``select_lambda``), equal to it up to rounding,
    for ``pieces`` in ``result``'s coordinates (``_stacked_coordinates``).
    With C = [C_1; ...; C_K], X_test^T U = [A_1 ... A_K] C = Q (R C), so
    W_test = Q polar(R C) and <A_k C_k, W_test> = <C_k, (R^T polar(R C))_k>,
    with polar(R C) = R C E L^(-1/2) E^T for the r x r eigh (R C)^T R C =
    E L E^T, or from the SVD of R C when L spans 1 / RISK_EIGH_RTOL or more.
    polar(R C) does not depend on the scale of R C, so outside the exponent
    band R C is scaled by a power of two before its Gram is formed.
    """
    V, R, S, rows, denoms = pieces
    W, labels = result.stacked_scores()
    inside = np.array([[k in s for s in labels] for k in range(1, denoms.size + 1)],
                      dtype=float)
    C = (V.T @ W) * inside[rows]
    RC = R @ C
    if shift := _scale_shift(RC):
        RC = np.ldexp(RC, shift)
    lam, E = np.linalg.eigh(RC.T @ RC)
    if lam[0] > RISK_EIGH_RTOL * lam[-1]:
        pulled = (R.T @ RC) @ ((E / np.sqrt(lam)) @ E.T)
    else:
        P, _, Qt = np.linalg.svd(RC, full_matrices=False)
        pulled = R.T @ (P @ Qt)
    # per column of V: its part of -2 <A_k C_k, W_test> + <C_k, S_k C_k>
    terms = np.sum(C * (S @ C - 2.0 * pulled), axis=1)
    return float(np.sum((denoms + np.bincount(rows, terms, denoms.size)) / denoms))


@dataclass(frozen=True, eq=False)
class TuningResult:
    """``select_lambda``'s curves and choices. ``decomposition_hat`` runs
    ``identify`` at ``lambda_hat`` on the whole-data signals when first read."""

    structure_train: PartialJointStructure  # training structure at lambda_tilde
    risk_curve: tuple                       # ((lambda, risk), ...)
    dissimilarity_curve: tuple              # ((lambda, d), ...)
    lambda_hat: float                       # whole-data structure match (radians)
    structure_hat: PartialJointStructure    # whole-data structure at lambda_hat
    whole_signals: tuple                    # whole-data signal estimates
    ordering: IndexOrdering

    @property
    def lambda_tilde(self) -> float:
        """Held-out risk minimizer (radians); the smallest lambda on ties."""
        lams, risks = zip(*self.risk_curve)
        return lams[int(np.argmin(risks))]

    @cached_property
    def decomposition_hat(self) -> DecompositionResult:
        """The whole-data result at lambda_hat."""
        return identify(self.whole_signals, self.ordering, self.lambda_hat)


def select_lambda(data: MultiBlockDataset, ranks: Sequence[int],
                  ordering: IndexOrdering, grid: Sequence[float], seed: int,
                  whole_path=None, whole_signals=None) -> TuningResult:
    """Two-stage threshold selection on one random data split.

    Stage one minimizes the held-out reconstruction risk over the grid; stage
    two re-identifies on the whole data and picks the threshold whose
    structure is closest (in the squared-Hamming dissimilarity) to the
    training structure at the risk minimizer. Ties go to the smallest
    threshold. Deterministic given (data, ranks, ordering, grid, seed).

    The risk is ``empirical_risk`` of the training loadings and Procrustes
    test scores, in r-dimensional space. Block k's loadings are L_k C_k, with
    the factor L_k = X_train,k V_k of its training basis V_k and C_k = V_k^T
    W_(k), where W_(k) zeroes the training scores of index-sets without k.
    So X_test^T U = sum_k A_k C_k with A_k = X_test,k^T L_k, and as W_test
    has orthonormal columns, ||X_test,k - L_k C_k W_test^T||^2 = ||X_test,k||^2
    - 2 <A_k C_k, W_test> + <C_k, L_k^T L_k C_k>. A_k and L_k^T L_k are
    formed once per split: no interval of the path builds a p-sized matrix.

    Both paths run on ``_resume``'s per-stage schedule, one SVD per pair
    stage and one projection per stage and block, and in the R0 = sum_k r_k
    coordinates of their stacked bases (``_stacked_coordinates``), not in
    sample space. Only their structures, and the training risks, are read.
    The columns of ``decomposition_hat`` come from one per-direction
    ``identify`` at lambda_hat, run when it is first read (ROADMAP item 3).

    ``whole_signals`` are the whole data's signals at ``ranks``, computed
    here when None. ``whole_path`` is their path over ``grid``, of either
    schedule (``_stacked_path`` or ``identify_path``). It depends on neither
    the split nor the seed, so a caller that tunes one dataset several times
    computes it once and passes it in; when it is None it is computed here.
    A path over another grid raises ValueError.
    """
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0:
        raise ValueError("threshold grid is empty")
    if len(ranks) != data.K:
        raise ValueError(f"expected {data.K} ranks, got {len(ranks)}")

    plan = split(data.n, seed)
    n_train = len(plan.train)
    for k, r in enumerate(ranks, start=1):
        if r > n_train:
            raise ValueError(
                f"block {k} has rank {r}, but tuning fits on a training half of "
                f"n_train = {n_train} of the n = {data.n} samples; lower the rank "
                f"to at most {n_train}")
    tr, te = list(plan.train), list(plan.test)
    # When a block lies outside the exponent band, every block's copies are
    # scaled by one power of two, which centres the blocks' exponents: the
    # risk weighs blocks by their norms, so they must keep their ratios.
    exps = [_max_exponent(X) for X in data.blocks]
    shift = 0 if max(map(abs, exps)) <= SCALE_EXP_BAND else -((max(exps) + min(exps)) // 2)

    def scaled_cols(X, cols):
        part = X[:, cols]
        return np.ldexp(part, shift, out=part) if shift else part

    # Each block's training and test copies are made one at a time and dropped
    # once used: the training signal keeps only its p x r factor.
    train_signals = [extract_signal(scaled_cols(X, tr), r, check_centering=False)
                     for X, r in zip(data.blocks, ranks)]
    coords, T = _stacked_coordinates(train_signals)
    # When no one power of two brings every block into range, a test block's
    # squares overflow or underflow here: refuse, rather than risk 0/0 or inf.
    with np.errstate(all="ignore"):
        pieces = (T, *_heldout_pieces((scaled_cols(X, te) for X in data.blocks),
                                      train_signals)[1:])
    if not all(np.isfinite(a).all() for a in pieces[1:]) or pieces[4].min() < np.finfo(float).tiny:
        raise ValueError("the blocks' scales are too far apart for one split: a held-out "
                         "piece leaves the float range; rescale the blocks to similar "
                         "norms and tune again")

    # identify is piecewise constant in the threshold, so the held-out risk is
    # computed once per interval of the path.
    risks, train_structures = [], []
    for i0, i1, res in _path(coords, ordering, grid, per_stage=True):
        r_total = res.structure.total_rank()
        if r_total > len(te):
            raise ValueError(
                f"the training fit claims a total rank of {r_total}, but "
                f"the test half has n_test = {len(te)} of the n = {data.n} samples; "
                f"lower the ranks so that they sum to at most {len(te)}")
        risks += [_heldout_risk(pieces, res)] * (i1 - i0)
        train_structures += [res.structure] * (i1 - i0)
    structure_train = train_structures[int(np.argmin(risks))]

    if whole_signals is None:
        whole_signals = [extract_signal(X, r, check_centering=False)
                         for X, r in zip(data.blocks, ranks)]
    if whole_path is None:
        whole_path = _stacked_path(whole_signals, ordering, grid)
    dists, whole_structures = [], []
    for i0, i1, res in whole_path:
        if i0 != len(dists) or not i0 < i1 <= grid.size or res.angle_threshold != grid[i0]:
            raise ValueError("whole_path must be identify_path over this grid")
        dists += [dissimilarity(structure_train, res.structure)] * (i1 - i0)
        whole_structures += [res.structure] * (i1 - i0)
    if len(dists) != grid.size:
        raise ValueError("whole_path must be identify_path over this grid")
    i_hat = int(np.argmin(dists))

    return TuningResult(
        structure_train=structure_train,
        risk_curve=tuple((float(lam), risk) for lam, risk in zip(grid, risks)),
        dissimilarity_curve=tuple((float(lam), d) for lam, d in zip(grid, dists)),
        lambda_hat=float(grid[i_hat]), structure_hat=whole_structures[i_hat],
        whole_signals=tuple(whole_signals), ordering=ordering,
    )


def mode_structure(structures: Sequence[PartialJointStructure]):
    """Most frequent structure by binary-multiset equality; ties keep the first seen."""
    if not structures:
        raise ValueError("no structures to aggregate")
    keys = [tuple(sorted(s._multiset.items())) for s in structures]
    # a Counter keeps first-seen order, and most_common keeps it among ties
    (best_key, best_count), = Counter(keys).most_common(1)
    return structures[keys.index(best_key)], best_count


def _curve_rows(result: TuningResult) -> list[str]:
    """One ``lambda_degrees<TAB>risk<TAB>dissimilarity`` line per grid point."""
    return [f"{np.rad2deg(lam):.6g}\t{risk:.12g}\t{d}"
            for (lam, risk), (_, d) in zip(result.risk_curve, result.dissimilarity_curve)]


def write_curves_tsv(result: TuningResult, path) -> None:
    """TSV with columns lambda_degrees, risk, dissimilarity."""
    lines = ["lambda_degrees\trisk\tdissimilarity", *_curve_rows(result)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
