import math

import numpy as np
import pytest

from psidecomp import (
    DecompositionResult,
    IndexSet,
    OrthonormalBasis,
    default_ordering,
    estimate_loadings,
    extract_signal,
    generate,
    identify,
    model_preset,
    reconstruct,
    stacked_loadings,
)

from cases import assert_rejects, independent_bases, signals_of_bases


def fitted_pipeline(model_id, seed, lam_deg=20.0, snr=math.inf):
    model = model_preset(model_id, snr=snr, n=60, block_size=50)
    truth = generate(model, seed)
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(truth.blocks, model.block_ranks())]
    result = identify(signals, model.ordering, np.deg2rad(lam_deg))
    loads = estimate_loadings(signals, result)
    return model, truth, signals, result, loads


class TestEstimateLoadings:
    def test_orthonormal_scores_reduce_to_projection(self):
        model, truth, signals, result, loads = fitted_pipeline(5, seed=1)
        for k in range(1, 4):
            cols = [result.scores[s].columns
                    for s, r in result.structure.entries if r > 0 and k in s]
            W = np.hstack(cols)
            direct = signals[k - 1].zhat @ W
            stacked = np.hstack(
                [loads.blocks[(k, s)] for s, r in result.structure.entries
                 if r > 0 and k in s])
            assert np.allclose(stacked, direct, atol=1e-8)

    def test_noiseless_reconstruction_matches_signal(self):
        model, truth, signals, result, loads = fitted_pipeline(2, seed=3)
        for k in range(1, 4):
            assert np.max(np.abs(reconstruct(loads, result, k) - truth.signals[k - 1])) < 1e-8

    def test_residual_orthogonal_to_scores(self):
        model, truth, signals, result, loads = fitted_pipeline(3, seed=5, snr=10.0)
        for k in range(1, 4):
            cols = [result.scores[s].columns
                    for s, r in result.structure.entries if r > 0 and k in s]
            W = np.hstack(cols)
            resid = signals[k - 1].zhat - reconstruct(loads, result, k)
            assert np.max(np.abs(resid @ W)) < 1e-8

    def test_least_squares_stationarity(self):
        model, truth, signals, result, loads = fitted_pipeline(4, seed=7, snr=15.0)
        rng = np.random.default_rng(0)
        k = 1
        W = np.hstack([result.scores[s].columns
                       for s, r in result.structure.entries if r > 0 and k in s])
        U = np.hstack([loads.blocks[(k, s)]
                       for s, r in result.structure.entries if r > 0 and k in s])
        Z = signals[k - 1].zhat
        base = float(np.sum((Z - U @ W.T) ** 2))
        for _ in range(5):
            D = rng.standard_normal(U.shape)
            D /= np.linalg.norm(D)
            for eps in (1e-4, -1e-4):
                perturbed = float(np.sum((Z - (U + eps * D) @ W.T) ** 2))
                assert perturbed >= base - 1e-8

    def test_blocks_only_for_member_sets(self):
        model, truth, signals, result, loads = fitted_pipeline(1, seed=9)
        for (k, subset) in loads.blocks:
            assert k in subset
            assert result.structure.rank_of(subset) > 0

    def test_non_orthonormal_scores_rejected(self):
        # the bases of {1,2} and {1} are unit vectors 45 degrees apart, so
        # W_(1)^T W_(1) has off-diagonal 1/sqrt(2); block 2 sees only e1
        e1 = np.array([[1.0], [0.0], [0.0], [0.0], [0.0]])
        tilted = np.array([[1.0], [1.0], [0.0], [0.0], [0.0]]) / math.sqrt(2.0)
        ordering = default_ordering(2)
        scores = {IndexSet.of(1, 2): OrthonormalBasis(e1),
                  IndexSet.of(1): OrthonormalBasis(tilted)}
        result = DecompositionResult(scores, 0.1, ordering)
        rng = np.random.default_rng(0)
        signals = [extract_signal(rng.standard_normal((4, 5)), r, check_centering=False)
                   for r in (2, 1)]
        with pytest.raises(ValueError, match="block 1 are not orthonormal"):
            estimate_loadings(signals, result)

    @pytest.mark.parametrize("cosine, accepted", [(0.5e-8, True), (2e-8, False)])
    def test_gram_check_at_its_tolerance(self, cosine, accepted):
        # _GRAM_ATOL is 1e-8: one-column bases of {1,2} and {1} at this cosine
        # give W_(1)^T W_(1) - I the off-diagonal entry cosine, and 0 elsewhere
        e1 = np.eye(5)[:, :1]
        leaning = np.array([[cosine], [math.sqrt(1.0 - cosine * cosine)], [0.0], [0.0], [0.0]])
        scores = {IndexSet.of(1, 2): OrthonormalBasis(e1),
                  IndexSet.of(1): OrthonormalBasis(leaning)}
        result = DecompositionResult(scores, 0.1, default_ordering(2))
        W = result.stacked_scores(1)[0]
        assert np.array_equal(np.abs(W.T @ W - np.eye(2)), [[0.0, cosine], [cosine, 0.0]])
        signals = signals_of_bases([OrthonormalBasis(np.eye(5)[:, :2]), OrthonormalBasis(e1)])
        if accepted:
            assert estimate_loadings(signals, result).blocks[(1, IndexSet.of(1))].shape == (2, 1)
        else:
            with pytest.raises(ValueError, match="block 1 are not orthonormal together"):
                estimate_loadings(signals, result)

    def test_signal_count_other_than_K_rejected(self):
        signals = signals_of_bases(independent_bases())
        result = identify(signals, default_ordering(3), 1e-6)
        assert_rejects(lambda: estimate_loadings(signals[:2], result),
                       ValueError, "expected 3 signal estimates, got 2")


class TestReconstruct:
    def test_zero_structure_gives_zero_matrix(self):
        model, truth, signals, result, loads = fitted_pipeline(1, seed=11)
        # block 1 has no sets containing block 1 beyond its singleton; fake an
        # empty loading set to exercise the zero path
        empty = type(loads)(blocks={}, block_sizes=loads.block_sizes)
        out = reconstruct(empty, result, 1)
        assert out.shape == truth.signals[0].shape
        assert np.all(out == 0.0)

    def test_single_fully_joint_set_is_projection(self):
        model, truth, signals, result, loads = fitted_pipeline(2, seed=13)
        W = result.scores[IndexSet.of(1, 2, 3)].columns
        for k in range(1, 4):
            expected = signals[k - 1].zhat @ W @ W.T
            assert np.allclose(reconstruct(loads, result, k), expected, atol=1e-8)

    def test_noiseless_partially_joint_model(self):
        model, truth, signals, result, loads = fitted_pipeline(5, seed=15)
        for k in range(1, 4):
            Z = truth.signals[k - 1]
            err = np.sum((Z - reconstruct(loads, result, k)) ** 2) / np.sum(Z ** 2)
            assert err <= 1e-10

    def test_unknown_block_rejected(self):
        model, truth, signals, result, loads = fitted_pipeline(1, seed=17)
        with pytest.raises(ValueError):
            reconstruct(loads, result, 4)


class TestStackedLoadings:
    def test_zero_blocks_outside_membership(self):
        model, truth, signals, result, loads = fitted_pipeline(3, seed=19)
        stacked = stacked_loadings(loads, result)
        sizes = loads.block_sizes
        offs = np.concatenate([[0], np.cumsum(sizes)])
        col = 0
        for subset, r in result.structure.entries:
            if r == 0:
                continue
            for k in range(1, 4):
                rows = stacked[offs[k - 1]:offs[k], col:col + r]
                if k not in subset:
                    assert np.all(rows == 0.0)
            col += r

    def test_missing_loading_block_gives_zero_columns(self):
        model, truth, signals, result, loads = fitted_pipeline(3, seed=19)
        _, labels = result.stacked_scores(1)
        kept = {key: U for key, U in loads.blocks.items() if key[1] != labels[0]}
        U = type(loads)(blocks=kept, block_sizes=loads.block_sizes).aligned(1, labels)
        missing = np.array([s == labels[0] for s in labels])
        assert np.all(U[:, missing] == 0.0)
        assert np.array_equal(U[:, ~missing], loads.aligned(1, labels)[:, ~missing])

    def test_columns_align_with_stacked_scores(self):
        model, truth, signals, result, loads = fitted_pipeline(5, seed=21)
        U = stacked_loadings(loads, result)
        W, labels = result.stacked_scores()
        assert U.shape[1] == W.shape[1] == len(labels)
        Z_stack = np.vstack([s.zhat for s in signals])
        assert np.allclose(U @ W.T, Z_stack, atol=1e-8)
