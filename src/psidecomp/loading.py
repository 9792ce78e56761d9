# Block-sparse least-squares loadings: per block k, regress the signal
# estimate on the concatenation of the score bases whose index-set contains
# k, then split the solution back into per-index-set loading blocks.

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DecompositionResult, SignalEstimate
from .structure import IndexSet

_GRAM_ATOL = 1e-8  # max |W_(k)^T W_(k) - I| entry that estimate_loadings accepts


@dataclass(eq=False)
class LoadingSet:
    """Loading blocks keyed by (block index, index-set); zero blocks implied."""

    blocks: dict  # (k, IndexSet) -> p_k x r array
    block_sizes: tuple[int, ...]

    @property
    def K(self) -> int:
        return len(self.block_sizes)

    def block(self, k: int, subset: IndexSet) -> np.ndarray | None:
        return self.blocks.get((k, subset))


def _score_concat(result: DecompositionResult, k: int):
    """Scores for index-sets containing block k, in ordering order."""
    cols, subsets = [], []
    for subset, r in result.structure.entries:
        if r > 0 and k in subset:
            cols.append(result.scores[subset].columns)
            subsets.append(subset)
    return cols, subsets


def estimate_loadings(signals: Sequence[SignalEstimate],
                      result: DecompositionResult) -> LoadingSet:
    """Solve min ||Zhat_k - U_(k) W_(k)^T||_F per block under the block sparsity.

    W_(k) concatenates the estimated score bases of the index-sets containing
    k. Precondition: W_(k) has orthonormal columns, which ``identify``
    guarantees (its stacked scores are orthonormal to about 1e-10). Then
    W_(k)^T W_(k) = I and the least-squares solution is U_(k) = Zhat_k W_(k).
    Raises ValueError when an entry of W_(k)^T W_(k) - I exceeds 1e-8 in
    magnitude.
    """
    K = result.ordering.K
    if len(signals) != K:
        raise ValueError(f"expected {K} signal estimates, got {len(signals)}")
    blocks = {}
    for k in range(1, K + 1):
        cols, subsets = _score_concat(result, k)
        if not cols:
            continue
        W = np.hstack(cols)
        if np.max(np.abs(W.T @ W - np.eye(W.shape[1]))) > _GRAM_ATOL:
            raise ValueError(
                f"the score bases of the index-sets containing block {k} are not "
                f"orthonormal together; estimate_loadings needs W_(k)^T W_(k) = I")
        U_k = signals[k - 1].zhat @ W
        offset = 0
        for subset, part in zip(subsets, cols):
            r = part.shape[1]
            blocks[(k, subset)] = U_k[:, offset:offset + r]
            offset += r
    sizes = tuple(sig.zhat.shape[0] for sig in signals)
    return LoadingSet(blocks=blocks, block_sizes=sizes)


def reconstruct(loadings: LoadingSet, result: DecompositionResult, k: int) -> np.ndarray:
    """Sum of U_(k),i W_i^T over the index-sets containing block k."""
    if not 1 <= k <= loadings.K:
        raise ValueError(f"unknown block index {k}")
    n = next(iter(result.scores.values())).n
    out = np.zeros((loadings.block_sizes[k - 1], n))
    for subset, r in result.structure.entries:
        if r == 0 or k not in subset:
            continue
        U = loadings.blocks.get((k, subset))
        if U is not None:
            out += U @ result.scores[subset].columns.T
    return out


def stacked_loadings(loadings: LoadingSet, result: DecompositionResult) -> np.ndarray:
    """p x r_total loading matrix aligned with DecompositionResult.stacked_scores.

    Rows are the blocks stacked in order; columns follow the ordering of the
    index-sets, with zero blocks wherever k is not a member.
    """
    K = loadings.K
    sizes = loadings.block_sizes
    p = int(sum(sizes))
    r_total = result.structure.total_rank()
    out = np.zeros((p, r_total))
    col = 0
    for subset, r in result.structure.entries:
        if r == 0:
            continue
        row = 0
        for k in range(1, K + 1):
            pk = sizes[k - 1]
            if k in subset:
                U = loadings.blocks.get((k, subset))
                if U is not None:
                    out[row:row + pk, col:col + r] = U
            row += pk
        col += r
    return out
