# Block-sparse least-squares loadings: per block k, regress the signal
# estimate (held as the factors X_k V_k and V_k) on W_(k), the score bases of
# the index-sets containing k laid out by DecompositionResult.stacked_scores(k),
# then split the solution back into per-index-set loading blocks.

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .core import DecompositionResult, SignalEstimate

_GRAM_ATOL = 1e-8  # max |W_(k)^T W_(k) - I| entry that estimate_loadings accepts


@dataclass(eq=False)
class LoadingSet:
    """Loading blocks keyed by (block index, index-set); zero blocks implied."""

    blocks: dict  # (k, IndexSet) -> p_k x r array
    block_sizes: tuple[int, ...]

    @property
    def K(self) -> int:
        return len(self.block_sizes)

    def aligned(self, k: int, labels) -> np.ndarray:
        """Block k's loadings as a p_k x len(labels) matrix, column j for the
        index-set labels[j] (the layout of DecompositionResult.stacked_scores);
        zero columns for a set that lacks block k or a loading block for it."""
        pk = self.block_sizes[k - 1]
        parts = [np.zeros((pk, 0))]
        for subset, run in groupby(labels):
            U = self.blocks.get((k, subset)) if k in subset else None
            parts.append(np.zeros((pk, len(list(run)))) if U is None else U)
        return np.hstack(parts)


def estimate_loadings(signals: Sequence[SignalEstimate],
                      result: DecompositionResult) -> LoadingSet:
    """Solve min ||Zhat_k - U_(k) W_(k)^T||_F per block under the block sparsity.

    W_(k) concatenates the estimated score bases of the index-sets containing
    k (``result.stacked_scores(k)``). Precondition: W_(k) has orthonormal
    columns, which ``identify`` guarantees (its stacked scores are orthonormal
    to about 1e-10). Then W_(k)^T W_(k) = I and the least-squares solution is
    U_(k) = Zhat_k W_(k), computed from the signal's factors as
    (X_k V_k)(V_k^T W_(k)) without forming Zhat_k. Raises ValueError when an
    entry of W_(k)^T W_(k) - I exceeds 1e-8 in magnitude.
    """
    K = result.ordering.K
    if len(signals) != K:
        raise ValueError(f"expected {K} signal estimates, got {len(signals)}")
    blocks = {}
    for k in range(1, K + 1):
        W, labels = result.stacked_scores(k)
        if np.max(np.abs(W.T @ W - np.eye(W.shape[1])), initial=0.0) > _GRAM_ATOL:
            raise ValueError(
                f"the score bases of the index-sets containing block {k} are not "
                f"orthonormal together; estimate_loadings needs W_(k)^T W_(k) = I")
        sig = signals[k - 1]
        U_k = sig.factor @ (sig.score_basis.columns.T @ W)
        for subset in dict.fromkeys(labels):
            blocks[(k, subset)] = U_k[:, [s == subset for s in labels]]
    sizes = tuple(sig.factor.shape[0] for sig in signals)
    return LoadingSet(blocks=blocks, block_sizes=sizes)


def reconstruct(loadings: LoadingSet, result: DecompositionResult, k: int) -> np.ndarray:
    """U_(k) W_(k)^T: the sum of U_(k),i W_i^T over the index-sets containing block k."""
    if not 1 <= k <= loadings.K:
        raise ValueError(f"unknown block index {k}")
    W, labels = result.stacked_scores(k)
    return loadings.aligned(k, labels) @ W.T


def stacked_loadings(loadings: LoadingSet, result: DecompositionResult) -> np.ndarray:
    """p x r_total loading matrix aligned with DecompositionResult.stacked_scores.

    Rows are the blocks stacked in order; columns follow the ordering of the
    index-sets, with zero blocks wherever k is not a member.
    """
    _, labels = result.stacked_scores()
    return np.vstack([loadings.aligned(k, labels) for k in range(1, loadings.K + 1)])
