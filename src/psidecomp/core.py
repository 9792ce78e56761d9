# Sequential identification of partially-joint score subspaces from per-block
# signal score subspaces, plus exact-basis diagnostics for the uniqueness
# conditions (relative independence / relative orthogonality / absolute
# orthogonality).

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .structure import IndexOrdering, IndexSet, PartialJointStructure
from .subspace import (
    COMPLEMENT_TOL,
    PEEL_TOL,
    OrthonormalBasis,
    _complement,
    _deflate_cols,
    _fix_sign,
    _flag_mean_refined,
    _pair_stage,
    _pair_svd,
    _scale_shift,
    _sine,
    _top_right_vectors,
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
        for i, b in enumerate(blocks):
            if b.ndim != 2:
                raise ValueError(f"block {i + 1} is not a matrix")
            # block 1 has passed the check above by now
            if b.shape[1] != blocks[0].shape[1]:
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
    """Best rank-r approximation of a data block, kept as two factors.

    The estimate is Zhat_k = (X_k V_k) V_k^T for the n x r score basis V_k.
    Only the p_k x r product X_k V_k is stored: the loadings and the held-out
    risk need nothing else, so a block costs (p_k + n) r numbers here rather
    than p_k n. ``zhat`` rebuilds the p_k x n matrix on each access.
    """

    factor: np.ndarray             # p_k x r, X_k V_k
    score_basis: OrthonormalBasis  # n x r right singular vectors V_k

    @property
    def rank(self) -> int:
        return self.score_basis.r

    @property
    def zhat(self) -> np.ndarray:
        return self.factor @ self.score_basis.columns.T


def is_row_centered(X: np.ndarray) -> bool:
    # |mean| <= rtol * sd, squared, with the row sums of squares taken
    # without a p x n temporary inside the exponent band
    if shift := _scale_shift(X):
        X = np.ldexp(X, shift)
    means = X.mean(axis=1)
    sq_means = means * means
    var = np.einsum("ij,ij->i", X, X) / X.shape[1] - sq_means
    return bool(np.all(sq_means <= CENTERING_RTOL ** 2 * var))


def row_center(X: np.ndarray) -> np.ndarray:
    return X - X.mean(axis=1, keepdims=True)


def extract_signal(X: np.ndarray, rank: int, check_centering: bool = True) -> SignalEstimate:
    """Rank-r signal estimate of one block via truncated SVD.

    The score basis holds the top right singular vectors (sample-space
    directions), sign-fixed, taken from the top eigenvectors of the Gram
    matrix on the block's smaller side; the estimate is X projected onto
    them, kept as the factor X V. Rows are expected to be centered; a
    violation triggers a warning, not an error.
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
    V = _top_right_vectors(X, rank)
    basis = OrthonormalBasis(np.column_stack([_fix_sign(v) for v in V.T]))
    return SignalEstimate(factor=X @ basis.columns, score_basis=basis)


@dataclass(frozen=True)
class AcceptanceRecord:
    """One accepted direction at a multi-block stage."""

    index_set: IndexSet
    angles: tuple[float, ...]  # radians, aligned with index_set.members
    degenerate: bool           # flag-mean top singular value was (near-)tied


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Estimated partially-joint structure and per-index-set score bases."""

    scores: dict  # IndexSet -> OrthonormalBasis
    angle_threshold: float
    ordering: IndexOrdering
    diagnostics: tuple[AcceptanceRecord, ...] = field(default_factory=tuple)
    # (lo, hi) in radians: identify returns this same result for every
    # threshold in (lo, hi]. lo is the largest max-angle among accepted
    # candidates (-1 if none), hi the smallest among rejected ones (inf if none).
    stable_interval: tuple[float, float] = (-1.0, np.inf)

    @cached_property
    def structure(self) -> PartialJointStructure:
        """(index-set, rank of its score basis) for each scored set, in ordering order."""
        return PartialJointStructure(
            tuple((s, self.scores[s].r) for s in self.ordering if s in self.scores),
            self.ordering.K)

    def stacked_scores(self, block: int | None = None):
        """(n x r score matrix, per-column index-set labels).

        The column layout of scores and loadings: the bases of the
        positive-rank index-sets in ordering order, all of them, or only those
        containing ``block`` (W_(k) for block k = ``block``).
        """
        n = next(iter(self.scores.values())).n
        sets = [s for s, r in self.structure.entries
                if r > 0 and (block is None or block in s)]
        labels = [s for s in sets for _ in range(self.scores[s].r)]
        return np.hstack([np.zeros((n, 0))] + [self.scores[s].columns for s in sets]), labels


@dataclass(frozen=True, eq=False)
class _Checkpoint:
    """The state of an ``identify`` run just before one of its gates.

    ``stage`` indexes the ordering; ``work``, ``claimed``, ``finished``
    ((index-set, basis) per finished stage) and ``records`` are copies taken
    at the gate. ``stop`` is the largest angle of the candidate rejected
    there, -inf at the start of a run. ``gate`` is that candidate as (w,
    degenerate, angles, c), with c the participants' coefficients B_i^T w, so a
    resume decides it again without recomputing its flag mean. A pair stage's
    gate is kept at the stage start with ``gate`` None and the stage's SVD in
    ``svd`` (``_pair_svd``), so a resume reads its candidates from there.
    """

    stage: int
    work: tuple
    claimed: tuple
    finished: tuple
    records: tuple
    gate: tuple | None = None
    stop: float = -math.inf
    svd: tuple | None = None


def _resume(signals, ordering: IndexOrdering, angle_threshold: float, cp: _Checkpoint,
            per_stage: bool = False):
    """Run ``identify`` from checkpoint ``cp`` on.

    Returns the scores, the accepted records and the checkpoints of the gates
    this run rejected, in order. They equal those of ``identify`` from the
    start whenever every gate before ``cp`` decides the same way at
    ``angle_threshold``.

    An untied two-block stage takes all its candidates from one SVD
    (``_pair_svd``, then ``_pair_stage``) and keeps a rejected gate's
    checkpoint, with that SVD, at the stage start: a resume there takes no
    SVD again, and a tie it finds runs the flag-mean loop from the stage
    start's bases. ``per_stage`` keeps the bases the SVD leaves and projects
    the other blocks off a stage's claimed directions at once; without it,
    each direction is peeled from the stage start's bases and projected off
    in turn. The spans agree up to rounding, but a singleton stage's columns
    do not (ROADMAP item 3), so only fits whose columns no one reads set it.
    """
    K = ordering.K
    n = signals[0].score_basis.n
    work = list(cp.work)
    finished = list(cp.finished)
    records = list(cp.records)
    gate = cp.gate
    rejected = []

    for stage in range(cp.stage, len(ordering)):
        subset = ordering.sets[stage]
        idx = [m - 1 for m in subset.members]
        claimed = list(cp.claimed) if stage == cp.stage else []
        svd = cp.svd if stage == cp.stage else None
        if len(idx) == 1:
            # The block's leftover basis is claimed as it stands.
            mat, work[idx[0]] = work[idx[0]], np.zeros((n, 0))
            claimed = mat.T
        elif len(idx) == 2 and gate is None and (pair := _pair_stage(
                svd := svd or _pair_svd(work[idx[0]], work[idx[1]]), angle_threshold)):
            mat, angles, *left, stop = pair
            if stop is not None:
                rejected.append(_Checkpoint(stage, tuple(work), (), tuple(finished),
                                            tuple(records), stop=stop, svd=svd))
            claimed = mat.T
            if per_stage:
                work[idx[0]], work[idx[1]] = left
            else:
                for w in claimed:
                    for i in idx:
                        work[i] = _deflate_cols(work[i], w)
            records += [AcceptanceRecord(subset, (a, a), False) for a in angles]
        else:
            while all(work[i].shape[1] > 0 for i in idx):
                if gate is None:
                    w, degenerate = _flag_mean_refined([work[i] for i in idx])
                    # B_i^T w, formed once: for the angle, the peel test and the deflation.
                    c = [work[i].T @ w for i in idx]
                    angles = tuple(np.arcsin([_sine(work[i], w, ci)
                                              for i, ci in zip(idx, c)]).tolist())
                else:
                    (w, degenerate, angles, c), gate = gate, None
                if not all(a < angle_threshold for a in angles):
                    rejected.append(_Checkpoint(
                        stage, tuple(work), tuple(claimed), tuple(finished),
                        tuple(records), (w, degenerate, angles, c), max(angles)))
                    break
                if any(math.sqrt(ci @ ci) <= PEEL_TOL for ci in c):
                    # Nothing to peel: the stage ends as a failed gate would,
                    # whatever the threshold, so no checkpoint is kept.
                    break
                for i, ci in zip(idx, c):
                    work[i] = _deflate_cols(work[i], w, ci)
                claimed.append(w)
                records.append(AcceptanceRecord(subset, angles, degenerate))
            mat = np.column_stack(claimed) if claimed else np.zeros((n, 0))

        def claimed_so_far():  # only called when a complement needs a second pass
            return np.hstack([basis.columns for _, basis in finished] + [mat])

        for Q in [mat] if per_stage else [w[:, None] for w in claimed]:
            for other in range(K):
                if other not in idx:
                    work[other] = _complement(work[other], Q, claimed_so_far)
        finished.append((subset, OrthonormalBasis._trusted(mat)))
    return dict(finished), tuple(records), rejected


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
    ``identify`` is ``identify_path`` at this one threshold.
    """
    if not 0.0 <= angle_threshold < np.pi / 2:
        raise ValueError("angle threshold must lie in [0, pi/2)")
    return identify_path(signals, ordering, [angle_threshold])[0][2]


def identify_path(
    signals: Sequence[SignalEstimate],
    ordering: IndexOrdering,
    grid: Sequence[float],
) -> list[tuple[int, int, DecompositionResult]]:
    """``identify`` over an increasing threshold grid, once per distinct result.

    Returns ``(i_start, i_end, result)`` triples that cover the grid in order:
    ``result`` is ``identify`` at ``grid[i_start]`` and equals it at every
    ``grid[i]`` with ``i_start <= i < i_end``. After each result the path
    jumps to the first grid point above its ``stable_interval``.

    A larger threshold can only turn a rejected gate into an accepted one, so
    a run at the next grid point repeats the last run up to the first
    rejected gate whose largest angle is now below the threshold. The path
    resumes there from the checkpoint the last run saved, in the manner of a
    homotopy path followed from breakpoint to breakpoint (LARS, Efron et al.
    2004). The gates rejected before it have angles at or above the new
    threshold, so they stay rejected: their checkpoints are kept and those of
    the resumed run are appended to them.
    """
    return _path(signals, ordering, grid, per_stage=False)


def _path(signals, ordering: IndexOrdering, grid, per_stage: bool):
    """``identify_path``, with ``_resume``'s ``per_stage`` schedule when set."""
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if not np.all((grid >= 0.0) & (grid < np.pi / 2)):
        raise ValueError("grid values must lie in [0, pi/2)")
    if len(signals) != ordering.K:
        raise ValueError(f"ordering expects {ordering.K} blocks, got {len(signals)}")
    n = signals[0].score_basis.n
    if any(sig.score_basis.n != n for sig in signals):
        raise ValueError("all blocks must share the sample dimension n")
    work = tuple(np.array(sig.score_basis.columns) for sig in signals)
    path = []
    saved = [_Checkpoint(0, work, (), (), ())]
    i = 0
    while i < grid.size:
        k = next(k for k, cp in enumerate(saved) if cp.stop < grid[i])
        scores, records, rejected = _resume(signals, ordering, grid[i], saved[k],
                                            per_stage)
        saved = saved[:k] + rejected
        # the result's bounds: its accepted gates and the rejected ones kept
        lo = max((max(rec.angles) for rec in records), default=-1.0)
        hi = min((cp.stop for cp in saved), default=np.inf)
        result = DecompositionResult(scores, float(grid[i]), ordering, records,
                                     (float(lo), float(hi)))
        j = int(np.searchsorted(grid, hi, side="right"))
        path.append((i, j, result))
        i = j
    return path


# ---------------------------------------------------------------------------
# Uniqueness diagnostics on exact (noiseless) score subspaces
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UniquenessReport:
    relative_orthogonality: bool
    absolute_orthogonality: bool
    layer_independence: dict          # layer size -> bool
    failure: tuple | None             # (layer, IndexSet, witness direction)
    layer_subspaces: dict             # layer size -> OrthonormalBasis of [I_l]
    complement_bases: dict            # IndexSet -> OrthonormalBasis of [J_i]

    @property
    def relative_independence(self) -> bool:
        return all(self.layer_independence.values())


def _intersection(blocks, members, cos_tol) -> np.ndarray:
    cols = blocks[members[0] - 1]
    for m in members[1:]:  # the principal vectors of cols at cosines above 1 - cos_tol
        U, _, sig, _ = _pair_svd(cols, blocks[m - 1])
        cols = orthonormalize(U[:, :np.count_nonzero(sig > 1.0 - cos_tol)], COMPLEMENT_TOL).columns
    return cols


def _span_sum(parts, n) -> np.ndarray:
    return orthonormalize(np.hstack([np.zeros((n, 0)), *parts]), COMPLEMENT_TOL).columns


def check_relative_independence(exact_bases, ordering: IndexOrdering,
                                tol: float = INTERSECTION_COS_TOL) -> UniquenessReport:
    """Every uniqueness condition of the exact score subspaces, in one report;
    ``check_absolute_orthogonality`` is this same function."""
    blocks = [b.columns if isinstance(b, OrthonormalBasis) else np.asarray(b, float)
              for b in exact_bases]
    K = ordering.K
    if len(blocks) != K:
        raise ValueError(f"expected {K} bases, got {len(blocks)}")
    n = blocks[0].shape[0]

    inter = {s: _intersection(blocks, s.members, tol) for s in ordering}

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
        deflated = {s: _complement(inter[s], I_l) for s in level_sets}
        layer_ok = True
        for s in level_sets:
            D = deflated[s]
            others = _span_sum([deflated[t] for t in level_sets if t != s], n)
            if D.shape[1] and others.shape[1]:
                U, _, sig, _ = _pair_svd(D, others)
                top = float(sig[0])
                if top > 1.0 - tol:
                    layer_ok = False
                    if failure is None:
                        failure = (layer, s, _fix_sign(U[:, 0]))
                if top > ORTHO_CHECK_TOL:
                    rel_orth = False
            # per-index complement [J_i]: larger sets whose pattern overlaps s
            J = _span_sum(
                [inter[t] for t in ordering if len(t) > layer and t.intersects(s)], n
            )
            complement_bases[s] = OrthonormalBasis(J)
            rhs = _complement(inter[s], J)
            diff = D @ D.T - rhs @ rhs.T
            if np.linalg.norm(diff) > ORTHO_CHECK_TOL:
                rule5_holds = False
        layer_indep[layer] = layer_ok

    return UniquenessReport(
        relative_orthogonality=rel_orth,
        absolute_orthogonality=rel_orth and rule5_holds,
        layer_independence=layer_indep,
        failure=failure,
        layer_subspaces=layer_subspaces,
        complement_bases=complement_bases,
    )


check_absolute_orthogonality = check_relative_independence
