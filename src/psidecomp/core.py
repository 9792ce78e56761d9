# Sequential identification of partially-joint score subspaces from per-block
# signal score subspaces, plus exact-basis diagnostics for the uniqueness
# conditions (relative independence / relative orthogonality / absolute
# orthogonality).

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .structure import IndexOrdering, IndexSet, PartialJointStructure
from .subspace import (
    OrthonormalBasis,
    _fix_sign,
    _flag_mean_refined,
    orthonormalize,
)

CENTERING_RTOL = 1e-8       # |row mean| <= rtol * row sd, else a warning
INTERSECTION_COS_TOL = 1e-9  # cos > 1 - tol marks a shared direction
ORTHO_CHECK_TOL = 1e-8       # max |cosine| for "orthogonal" verdicts


@dataclass(frozen=True, eq=False)
class MultiBlockDataset:
    """K row-centered data blocks (p_k x n) over the same n matched samples."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        if not blocks:
            raise ValueError("at least one data block is required")
        n = blocks[0].shape[1]
        for i, b in enumerate(blocks):
            if b.ndim != 2:
                raise ValueError(f"block {i + 1} is not a matrix")
            if b.shape[1] != n:
                raise ValueError("matched samples required")
            if not np.all(np.isfinite(b)):
                raise ValueError(f"block {i + 1} contains non-finite entries")
        object.__setattr__(self, "blocks", blocks)

    @property
    def K(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return self.blocks[0].shape[1]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)


@dataclass(frozen=True, eq=False)
class SignalEstimate:
    """Best rank-r approximation of a data block and its score subspace basis."""

    zhat: np.ndarray            # p_k x n, rank r
    score_basis: OrthonormalBasis  # n x r right singular vectors
    rank: int


def is_row_centered(X: np.ndarray, rtol: float = CENTERING_RTOL) -> bool:
    means = X.mean(axis=1)
    sds = X.std(axis=1)
    return bool(np.all(np.abs(means) <= rtol * np.maximum(sds, 0.0)))


def row_center(X: np.ndarray) -> np.ndarray:
    return X - X.mean(axis=1, keepdims=True)


def extract_signal(X: np.ndarray, rank: int, check_centering: bool = True) -> SignalEstimate:
    """Rank-r signal estimate of one block via truncated SVD.

    The score basis holds the top right singular vectors (sample-space
    directions), sign-fixed. Rows are expected to be centered; a violation
    triggers a warning, not an error.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("block must be a p x n matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("block contains non-finite entries")
    p, n = X.shape
    if not 1 <= rank <= min(p, n):
        raise ValueError(f"rank {rank} outside [1, {min(p, n)}]")
    if check_centering and not is_row_centered(X):
        warnings.warn("block rows are not centered; results assume row-centered data")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    zhat = (U[:, :rank] * s[:rank]) @ Vt[:rank]
    basis = np.column_stack([_fix_sign(v) for v in Vt[:rank]])
    return SignalEstimate(zhat=zhat, score_basis=OrthonormalBasis(basis), rank=rank)


@dataclass(frozen=True)
class AcceptanceRecord:
    """One accepted direction at a multi-block stage."""

    index_set: IndexSet
    angles: tuple[float, ...]  # radians, aligned with index_set.members
    degenerate: bool           # flag-mean top singular value was (near-)tied


@dataclass(eq=False)
class DecompositionResult:
    """Estimated partially-joint structure and per-index-set score bases."""

    structure: PartialJointStructure
    scores: dict
    angle_threshold: float
    ordering: IndexOrdering
    diagnostics: tuple[AcceptanceRecord, ...] = field(default_factory=tuple)
    # (lo, hi) in radians: identify returns this same result for every
    # threshold in (lo, hi]. lo is the largest max-angle among accepted
    # candidates (-1 if none), hi the smallest among rejected ones (inf if none).
    stable_interval: tuple[float, float] = (-1.0, np.inf)

    def stacked_scores(self):
        """(n x r_total score matrix, per-column index-set labels)."""
        n = next(iter(self.scores.values())).n
        cols, labels = [], []
        for subset, _ in self.structure.entries:
            basis = self.scores[subset]
            for j in range(basis.r):
                cols.append(basis.columns[:, j])
                labels.append(subset)
        if not cols:
            return np.zeros((n, 0)), []
        return np.column_stack(cols), labels


def _angles_to(blocks, w) -> list[float]:
    out = []
    for cols in blocks:
        c = cols.T @ w
        s2 = min(max(1.0 - float(c @ c), 0.0), 1.0)
        out.append(float(np.arcsin(np.sqrt(s2))))
    return out


def _deflate_cols(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    c = cols.T @ w
    Q, _ = np.linalg.qr((c / np.linalg.norm(c)).reshape(-1, 1), mode="complete")
    return cols @ Q[:, 1:]


def _project_out(cols: np.ndarray, w: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    # Image of span(cols) under the projection onto the complement of w.
    # The smallest singular value equals sin(angle(w, span)); a genuinely
    # contained direction is removed, otherwise the subspace only tilts.
    if cols.shape[1] == 0:
        return cols
    proj = cols - np.outer(w, w @ cols)
    U, s, _ = np.linalg.svd(proj, full_matrices=False)
    return U[:, s > atol]


def identify(
    signals: Sequence[SignalEstimate],
    ordering: IndexOrdering,
    angle_threshold: float,
) -> DecompositionResult:
    """Identify partially-joint score subspaces across the data blocks.

    Working copies of the per-block score bases are carried across all
    stages. For every index-set, in the given order, one-dimensional flag
    means over the participating working bases are proposed while every
    participant still has positive dimension; a candidate is accepted when
    its principal angle to each participating subspace is strictly below
    ``angle_threshold``. Each accepted direction is peeled from every
    participating basis, and every other working basis is projected onto its
    orthogonal complement, so the collected directions stay mutually
    orthogonal across all index-sets. A singleton stage claims whatever is
    left of its block's basis verbatim.

    Every gate compares a candidate's largest angle with the threshold, so
    the result is the same for every threshold in ``stable_interval``.
    """
    if not 0.0 <= angle_threshold < np.pi / 2:
        raise ValueError("angle threshold must lie in [0, pi/2)")
    K = ordering.K
    if len(signals) != K:
        raise ValueError(f"ordering expects {K} blocks, got {len(signals)}")
    n = signals[0].score_basis.n
    for sig in signals:
        if sig.score_basis.n != n:
            raise ValueError("all blocks must share the sample dimension n")

    work = [np.array(sig.score_basis.columns) for sig in signals]
    scores: dict = {}
    entries = []
    records = []
    lo, hi = -1.0, np.inf

    for subset in ordering:
        idx = [m - 1 for m in subset.members]
        claimed: list[np.ndarray] = []
        if len(idx) == 1:
            k = idx[0]
            claimed = [work[k][:, j] for j in range(work[k].shape[1])]
            work[k] = np.zeros((n, 0))
        else:
            while all(work[i].shape[1] > 0 for i in idx):
                w, degenerate = _flag_mean_refined([work[i] for i in idx])
                angles = _angles_to([work[i] for i in idx], w)
                worst = max(angles)
                if not all(a < angle_threshold for a in angles):
                    hi = min(hi, worst)
                    break
                if any(np.linalg.norm(work[i].T @ w) <= 1e-12 for i in idx):
                    # Nothing to peel: the stage ends as a failed gate would,
                    # whatever the threshold, so neither bound moves.
                    break
                lo = max(lo, worst)
                for i in idx:
                    work[i] = _deflate_cols(work[i], w)
                claimed.append(w)
                records.append(AcceptanceRecord(subset, tuple(angles), degenerate))
        for w in claimed:
            for other in range(K):
                if other not in idx:
                    work[other] = _project_out(work[other], w)
        mat = np.column_stack(claimed) if claimed else np.zeros((n, 0))
        scores[subset] = OrthonormalBasis(mat)
        entries.append((subset, mat.shape[1]))

    structure = PartialJointStructure(tuple(entries), K)
    return DecompositionResult(structure, scores, float(angle_threshold), ordering,
                               tuple(records), (float(lo), float(hi)))


def identify_path(
    signals: Sequence[SignalEstimate],
    ordering: IndexOrdering,
    grid: Sequence[float],
) -> list[tuple[int, int, DecompositionResult]]:
    """``identify`` over an increasing threshold grid, once per distinct result.

    Returns ``(i_start, i_end, result)`` triples that cover the grid in order:
    ``result`` is ``identify`` at ``grid[i_start]`` and equals it at every
    ``grid[i]`` with ``i_start <= i < i_end``. After each call the path jumps
    to the first grid point above the result's ``stable_interval``.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    path = []
    i = 0
    while i < grid.size:
        result = identify(signals, ordering, grid[i])
        j = int(np.searchsorted(grid, result.stable_interval[1], side="right"))
        path.append((i, j, result))
        i = j
    return path


# ---------------------------------------------------------------------------
# Uniqueness diagnostics on exact (noiseless) score subspaces
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UniquenessReport:
    relative_independence: bool
    relative_orthogonality: bool
    absolute_orthogonality: bool
    layer_independence: dict          # layer size -> bool
    failure: tuple | None             # (layer, IndexSet, witness direction)
    layer_subspaces: dict             # layer size -> OrthonormalBasis of [I_l]
    complement_bases: dict            # IndexSet -> OrthonormalBasis of [J_i]


def _pair_intersection(A: np.ndarray, B: np.ndarray, cos_tol: float) -> np.ndarray:
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    U, s, _ = np.linalg.svd(A.T @ B)
    shared = U[:, s > 1.0 - cos_tol]
    if shared.shape[1] == 0:
        return np.zeros((A.shape[0], 0))
    return orthonormalize(A @ shared, 1e-8).columns


def _intersection(blocks, members, cos_tol) -> np.ndarray:
    cols = blocks[members[0] - 1]
    for m in members[1:]:
        cols = _pair_intersection(cols, blocks[m - 1], cos_tol)
        if cols.shape[1] == 0:
            break
    return cols


def _span_sum(parts, n) -> np.ndarray:
    nonzero = [p for p in parts if p.shape[1] > 0]
    if not nonzero:
        return np.zeros((n, 0))
    return orthonormalize(np.hstack(nonzero), 1e-8).columns


def _complement_image(cols: np.ndarray, Q: np.ndarray) -> np.ndarray:
    if cols.shape[1] == 0:
        return cols
    if Q.shape[1] == 0:
        return cols
    proj = cols - Q @ (Q.T @ cols)
    U, s, _ = np.linalg.svd(proj, full_matrices=False)
    return U[:, s > 1e-8]


def _max_cosine(A: np.ndarray, B: np.ndarray) -> float:
    if A.shape[1] == 0 or B.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(A.T @ B, compute_uv=False)[0])


def _uniqueness_report(exact_bases, ordering: IndexOrdering, tol: float) -> UniquenessReport:
    blocks = [b.columns if isinstance(b, OrthonormalBasis) else np.asarray(b, float)
              for b in exact_bases]
    K = ordering.K
    if len(blocks) != K:
        raise ValueError(f"expected {K} bases, got {len(blocks)}")
    n = blocks[0].shape[0]

    inter = {s: _intersection(blocks, s.members, tol) for s in ordering}

    rel_indep = True
    rel_orth = True
    rule5_holds = True
    layer_indep: dict = {}
    layer_subspaces: dict = {}
    complement_bases: dict = {}
    failure = None

    for layer in range(1, K):
        I_l = _span_sum([inter[s] for s in ordering if len(s) > layer], n)
        layer_subspaces[layer] = OrthonormalBasis(I_l)
        level_sets = [s for s in ordering if len(s) == layer]
        deflated = {s: _complement_image(inter[s], I_l) for s in level_sets}
        layer_ok = True
        for s in level_sets:
            D = deflated[s]
            others = _span_sum([deflated[t] for t in level_sets if t != s], n)
            if D.shape[1] and others.shape[1]:
                top = _max_cosine(D, others)
                if top > 1.0 - tol:
                    layer_ok = False
                    if failure is None:
                        U, sv, _ = np.linalg.svd(D.T @ others)
                        witness = _fix_sign(D @ U[:, 0])
                        failure = (layer, s, witness)
                if top > ORTHO_CHECK_TOL:
                    rel_orth = False
            # per-index complement [J_i]: larger sets whose pattern overlaps s
            J = _span_sum(
                [inter[t] for t in ordering if len(t) > layer and t.intersects(s)], n
            )
            complement_bases[s] = OrthonormalBasis(J)
            lhs = D
            rhs = _complement_image(inter[s], J)
            diff = lhs @ lhs.T - rhs @ rhs.T
            if np.linalg.norm(diff) > ORTHO_CHECK_TOL:
                rule5_holds = False
        layer_indep[layer] = layer_ok
        rel_indep = rel_indep and layer_ok

    return UniquenessReport(
        relative_independence=rel_indep,
        relative_orthogonality=rel_orth,
        absolute_orthogonality=rel_orth and rule5_holds,
        layer_independence=layer_indep,
        failure=failure,
        layer_subspaces=layer_subspaces,
        complement_bases=complement_bases,
    )


def check_relative_independence(exact_bases, ordering: IndexOrdering,
                                tol: float = INTERSECTION_COS_TOL) -> UniquenessReport:
    """Layer-wise linear-independence check of the deflated intersection subspaces."""
    return _uniqueness_report(exact_bases, ordering, tol)


def check_absolute_orthogonality(exact_bases, ordering: IndexOrdering,
                                 tol: float = INTERSECTION_COS_TOL) -> UniquenessReport:
    """Relative orthogonality plus the per-index projector equality."""
    return _uniqueness_report(exact_bases, ordering, tol)
