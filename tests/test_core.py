import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psidecomp import (
    DecompositionResult,
    IndexSet,
    OrthonormalBasis,
    SignalEstimate,
    check_absolute_orthogonality,
    check_relative_independence,
    default_ordering,
    estimate_loadings,
    extract_signal,
    generate,
    identify,
    identify_path,
    model_preset,
    ordering_from_lists,
    orthonormalize,
    row_center,
)
from psidecomp.core import MultiBlockDataset, _path, is_row_centered
from psidecomp.subspace import ORTHONORMAL_TOL

from cases import (
    absolutely_orthogonal_bases,
    assert_rejects,
    dependent_bases,
    independent_bases,
    non_absolutely_orthogonal_bases,
    random_shared_signals,
    signals_of_bases,
)


def rank_map(result):
    return {s.members: r for s, r in result.structure.entries}


class TestExtractSignal:
    def test_exact_low_rank_block_is_reproduced(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 40))
        Z -= Z.mean(axis=1, keepdims=True)
        est = extract_signal(Z, 3)
        assert np.max(np.abs(est.zhat - Z)) < 1e-10

    def test_eckart_young_on_diagonal(self):
        X = np.zeros((4, 4))
        X[0, 0], X[1, 1], X[2, 2] = 3.0, 2.0, 1.0
        est = extract_signal(X, 2, check_centering=False)
        expected = np.zeros((4, 4))
        expected[0, 0], expected[1, 1] = 3.0, 2.0
        assert np.allclose(est.zhat, expected, atol=1e-12)

    def test_residual_matches_full_svd_oracle(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((50, 40))
        X -= X.mean(axis=1, keepdims=True)
        est = extract_signal(X, 5)
        resid = float(np.sum((X - est.zhat) ** 2))
        s = np.linalg.svd(X, compute_uv=False)
        expected = float(np.sum(s[5:] ** 2))
        assert resid == pytest.approx(expected, rel=1e-8)

    def test_rank_bounds(self):
        X = np.zeros((4, 6))
        with pytest.raises(ValueError):
            extract_signal(X, 0)
        with pytest.raises(ValueError):
            extract_signal(X, 5)

    def test_non_finite_rejected(self):
        X = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            extract_signal(X, 1)

    def test_uncentered_rows_warn(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((10, 30)) + 5.0
        with pytest.warns(UserWarning):
            extract_signal(X, 2)

    def test_score_basis_spans_row_space(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((20, 25))
        X -= X.mean(axis=1, keepdims=True)
        est = extract_signal(X, 4)
        P = est.score_basis.projector()
        assert np.allclose(est.zhat @ P, est.zhat, atol=1e-10)


class TestRowCenter:
    def test_rows_are_centered_and_the_input_kept(self):
        rng = np.random.default_rng(23)
        # rows of very different scales and offsets
        X = rng.standard_normal((6, 50)) * np.logspace(-3, 3, 6)[:, None] \
            + rng.uniform(-1e3, 1e3, (6, 1))
        before = X.copy()
        C = row_center(X)
        scale = np.max(np.abs(X), axis=1)
        assert np.all(np.abs(C.mean(axis=1)) <= 1e-15 * scale)
        assert is_row_centered(C)
        assert not is_row_centered(X)
        np.testing.assert_array_equal(X, before)


class TestMultiBlockDataset:
    def test_matched_columns_required(self):
        with pytest.raises(ValueError, match="matched samples required"):
            MultiBlockDataset((np.zeros((3, 5)), np.zeros((4, 6))))

    def test_properties(self):
        data = MultiBlockDataset((np.zeros((3, 5)), np.zeros((4, 5))))
        assert data.K == 2 and data.n == 5 and data.block_sizes == (3, 4)

    @pytest.mark.parametrize("blocks, k", (
        ((np.zeros(5),), 1),
        ((np.float64(1.0), np.zeros((3, 5))), 1),
        ((np.zeros((3, 5)), np.zeros(5)), 2),
    ))
    def test_block_that_is_not_a_matrix_rejected(self, blocks, k):
        with pytest.raises(ValueError, match=f"block {k} is not a matrix"):
            MultiBlockDataset(blocks)


class TestIdentify:
    def test_shared_axis_fixture_structure(self):
        res = identify(signals_of_bases(independent_bases()),
                       default_ordering(3), 1e-6)
        assert rank_map(res) == {(1, 2, 3): 1, (1, 2): 0, (1, 3): 0,
                                 (2, 3): 0, (1,): 1, (2,): 1, (3,): 1}
        W = res.scores[IndexSet.of(1, 2, 3)].columns
        assert np.allclose(np.abs(W[:, 0]), [1, 0, 0, 0], atol=1e-9)

    def test_zero_threshold_keeps_everything_individual(self):
        rng = np.random.default_rng(23)
        blocks = [rng.standard_normal((20, 30)) for _ in range(3)]
        signals = [extract_signal(B - B.mean(axis=1, keepdims=True), r)
                   for B, r in zip(blocks, (2, 3, 4))]
        res = identify(signals, default_ordering(3), 0.0)
        ranks = rank_map(res)
        assert ranks[(1,)] == 2 and ranks[(2,)] == 3 and ranks[(3,)] == 4
        assert all(ranks[m] == 0 for m in [(1, 2, 3), (1, 2), (1, 3), (2, 3)])

    def test_degenerate_fixture_depends_on_singleton_order(self):
        sigs = signals_of_bases(dependent_bases())
        res_default = identify(sigs, default_ordering(3), 1e-6)
        assert rank_map(res_default) == {(1, 2, 3): 1, (1, 2): 0, (1, 3): 0,
                                         (2, 3): 0, (1,): 1, (2,): 1, (3,): 1}
        alt = ordering_from_lists(
            [[1, 2, 3], [1, 2], [1, 3], [2, 3], [3], [2], [1]], 3)
        res_alt = identify(sigs, alt, 1e-6)
        ranks = rank_map(res_alt)
        assert ranks[(3,)] == 2 and ranks[(2,)] == 1 and ranks[(1,)] == 0

    def test_rank_profile_invariant_for_independent_fixture(self):
        sigs = signals_of_bases(independent_bases())
        alt = ordering_from_lists(
            [[1, 2, 3], [1, 2], [1, 3], [2, 3], [2], [1], [3]], 3)
        ranks_a = rank_map(identify(sigs, default_ordering(3), 1e-6))
        ranks_b = rank_map(identify(sigs, alt, 1e-6))
        assert ranks_a == ranks_b

    def test_threshold_domain(self):
        sigs = signals_of_bases(independent_bases())
        for bad in (-0.1, np.pi / 2, 2.0):
            with pytest.raises(ValueError):
                identify(sigs, default_ordering(3), bad)

    def test_overlapping_scores_are_orthogonal(self):
        rng = np.random.default_rng(29)
        shared = rng.standard_normal((40, 2))
        blocks = []
        for k in range(3):
            own = rng.standard_normal((40, 2))
            U = rng.standard_normal((25, 4))
            Z = U @ np.hstack([shared, own]).T
            blocks.append(Z + 0.05 * rng.standard_normal((25, 40)))
        signals = [extract_signal(B - B.mean(axis=1, keepdims=True), 4,
                                  check_centering=False) for B in blocks]
        res = identify(signals, default_ordering(3), np.deg2rad(25))
        subsets = [s for s, r in res.structure.entries if r > 0]
        for i, a in enumerate(subsets):
            for b in subsets[i + 1:]:
                if set(a.members) & set(b.members):
                    cross = res.scores[a].columns.T @ res.scores[b].columns
                    assert np.max(np.abs(cross)) <= 1e-8

    def test_rank_conservation_on_generic_data(self):
        rng = np.random.default_rng(31)
        blocks = [rng.standard_normal((15, 25)) for _ in range(3)]
        ranks_in = (3, 4, 2)
        signals = [extract_signal(B - B.mean(axis=1, keepdims=True), r,
                                  check_centering=False)
                   for B, r in zip(blocks, ranks_in)]
        res = identify(signals, default_ordering(3), np.deg2rad(20))
        for k in range(1, 4):
            assert res.structure.block_rank(k) == ranks_in[k - 1]

    def test_gate_monotone_in_threshold(self):
        # one genuinely shared direction at a known small angle
        rng = np.random.default_rng(37)
        n = 30
        shared = rng.standard_normal(n)
        shared /= np.linalg.norm(shared)
        tilt = rng.standard_normal(n)
        tilt -= (tilt @ shared) * shared
        tilt /= np.linalg.norm(tilt)
        angle = np.deg2rad(8.0)
        v1 = np.cos(angle / 2) * shared + np.sin(angle / 2) * tilt
        v2 = np.cos(angle / 2) * shared - np.sin(angle / 2) * tilt
        sigs = [SignalEstimate(np.zeros((2, 1)), OrthonormalBasis(v.reshape(-1, 1)))
                for v in (v1, v2)]
        accepted = []
        for lam_deg in (1.0, 3.0, 4.5, 6.0, 20.0):
            res = identify(sigs, default_ordering(2), np.deg2rad(lam_deg))
            accepted.append(rank_map(res)[(1, 2)])
        assert accepted == sorted(accepted)
        assert accepted[0] == 0 and accepted[-1] == 1

    def test_acceptance_angles_recorded(self):
        sigs = signals_of_bases(independent_bases())
        res = identify(sigs, default_ordering(3), np.deg2rad(5))
        assert len(res.diagnostics) == 1
        rec = res.diagnostics[0]
        assert rec.index_set.members == (1, 2, 3)
        assert max(rec.angles) < np.deg2rad(5)

    @pytest.mark.parametrize("seed", (5, 1000))
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_noiseless_recovery_at_tiny_threshold(self, model_id, seed):
        # Directions shared exactly must read as angle 0, not as the ~1e-8
        # that sqrt(1 - ||B^T w||^2) leaves after cancellation.
        model = model_preset(model_id)
        truth = generate(model, seed)
        signals = [extract_signal(X, r, check_centering=False)
                   for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(signals, model.ordering, 1e-9)
        assert res.structure.entries == model.structure.entries

    def test_noiseless_acceptance_angles_vanish(self):
        model = model_preset(6)
        truth = generate(model, 5)
        signals = [extract_signal(X, r, check_centering=False)
                   for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(signals, model.ordering, np.deg2rad(20))
        assert res.structure.entries == model.structure.entries
        angles = [a for rec in res.diagnostics for a in rec.angles]
        # two directions of {1,2,3} at 3 angles each, two of each pair at 2
        assert len(angles) == 2 * 3 + 3 * 2 * 2
        assert max(angles) <= 1e-12

    def test_sample_dimension_mismatch_rejected(self):
        a = SignalEstimate(np.zeros((2, 1)), OrthonormalBasis(np.eye(4)[:, :1]))
        b = SignalEstimate(np.zeros((2, 1)), OrthonormalBasis(np.eye(5)[:, :1]))
        with pytest.raises(ValueError):
            identify([a, b], default_ordering(2), 0.1)

    def test_block_count_must_match_ordering(self):
        sigs = signals_of_bases(independent_bases())
        with pytest.raises(ValueError):
            identify(sigs[:2], default_ordering(3), 0.1)


def orthonormality_loss(W):
    return np.max(np.abs(W.T @ W - np.eye(W.shape[1])), initial=0.0)


class TestIdentifyProperties:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 4), n=st.integers(6, 14),
           noise=st.sampled_from([0.0, 0.01, 0.1]), lam=st.floats(0.0, 1.5))
    # ranks 3,3,3,2 in n = 6: a shared direction leaves a 1.5e-10 residue
    @example(seed=9, K=4, n=6, noise=0.0, lam=0.0)
    # a flag mean whose V = X^T U / s was 1e-10 off orthonormal read 1.06e-10 here
    @example(seed=4088216822, K=3, n=11, noise=0.01, lam=0.0)
    # a complement keeps a direction at singular value 3.7e-5 and amplifies
    # an earlier 5.8e-14 residue to 4.9e-9 without a second projection pass;
    # the next two read 3.1e-10 and 7.3e-10 without it
    @example(seed=2511405506, K=4, n=14, noise=0.01, lam=0.0)
    @example(seed=3398671625, K=2, n=9, noise=0.1, lam=0.0)
    @example(seed=1577048326, K=4, n=9, noise=0.01, lam=0.0)
    def test_invariants_on_random_blocks(self, seed, K, n, noise, lam):
        signals, ranks = random_shared_signals(seed, K, n, noise)
        res = identify(signals, default_ordering(K), lam)
        assert orthonormality_loss(res.stacked_scores()[0]) <= 1e-10
        for k in range(1, K + 1):
            assert res.structure.block_rank(k) <= ranks[k - 1]
        angles = [a for rec in res.diagnostics for a in rec.angles]
        assert all(a < lam for a in angles)
        assert res.stable_interval[0] == max(
            (max(rec.angles) for rec in res.diagnostics), default=-1.0)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 4), n=st.integers(6, 14),
           noise=st.sampled_from([0.01, 0.1]), lam=st.floats(0.0, 1.5))
    def test_block_ranks_are_kept_in_general_position(self, seed, K, n, noise, lam):
        # noisy bases with room for all of them: no complement projection drops
        # a dimension. Centered rows put every basis in the n - 1 dimensions
        # orthogonal to the all-ones vector, so the room is n - 1, not n.
        signals, ranks = random_shared_signals(seed, K, n, noise)
        assume(sum(ranks) <= n - 1)
        res = identify(signals, default_ordering(K), lam)
        assert [res.structure.block_rank(k) for k in range(1, K + 1)] == ranks

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 4), n=st.integers(6, 14),
           noise=st.sampled_from([0.0, 0.01, 0.1]), step=st.floats(0.005, 0.2))
    def test_resumed_path_equals_fresh_runs(self, seed, K, n, noise, step):
        signals, _ = random_shared_signals(seed, K, n, noise)
        ordering = default_ordering(K)
        grid = np.arange(0.0, 1.5, step)
        for i0, i1, res in identify_path(signals, ordering, grid):
            for lam in (grid[i0], grid[i1 - 1]):
                fresh = identify(signals, ordering, lam)
                assert res.structure.entries == fresh.structure.entries
                assert res.stacked_scores()[0].tobytes() == fresh.stacked_scores()[0].tobytes()
                assert res.diagnostics == fresh.diagnostics
                assert res.stable_interval == fresh.stable_interval

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 4), n=st.integers(6, 14),
           noise=st.sampled_from([0.0, 0.01, 0.1]), step=st.floats(0.005, 0.2))
    # a complement keeps a direction at singular value 1.8e-5: without its
    # second projection pass the projectors of the two schedules were 2.8e-9 apart
    @example(seed=2511405506, K=4, n=14, noise=0.01, step=0.18330961139924526)
    def test_per_stage_schedule_gives_the_same_spans(self, seed, K, n, noise, step):
        # select_lambda's training path projects the other blocks off a
        # stage's claimed directions at once; the public path does it one
        # direction at a time. Only rounding may tell them apart: the
        # projectors agree to 1e-9.
        signals, _ = random_shared_signals(seed, K, n, noise)
        ordering = default_ordering(K)
        grid = np.arange(0.0, 1.5, step)
        new = _path(signals, ordering, grid, per_stage=True)
        old = identify_path(signals, ordering, grid)
        assert [(i0, i1, res.structure.entries) for i0, i1, res in new] == \
            [(i0, i1, res.structure.entries) for i0, i1, res in old]
        for (_, _, a), (_, _, b) in zip(new, old):
            for x, y in zip(a.stable_interval, b.stable_interval):
                assert x == y or abs(x - y) <= 1e-12
            for s, basis in a.scores.items():
                P, Q = basis.columns, b.scores[s].columns
                assert np.max(np.abs(P @ P.T - Q @ Q.T), initial=0.0) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 4), n=st.integers(6, 14),
           noise=st.sampled_from([0.0, 0.01, 0.1]), step=st.floats(0.005, 0.2),
           per_stage=st.booleans())
    # the inputs pinned above for orthonormality, on both schedules
    @example(seed=9, K=4, n=6, noise=0.0, step=0.05, per_stage=False)
    @example(seed=9, K=4, n=6, noise=0.0, step=0.05, per_stage=True)
    @example(seed=4088216822, K=3, n=11, noise=0.01, step=0.05, per_stage=True)
    @example(seed=2511405506, K=4, n=14, noise=0.01, step=0.18330961139924526,
             per_stage=False)
    @example(seed=2511405506, K=4, n=14, noise=0.01, step=0.18330961139924526,
             per_stage=True)
    @example(seed=1577048326, K=4, n=9, noise=0.01, step=0.05, per_stage=False)
    def test_finished_bases_are_orthonormal_and_read_only(self, seed, K, n, noise, step,
                                                          per_stage):
        # A path wraps each finished stage's columns as its kernels return
        # them, with neither a copy nor a check of B^T B: they must pass that
        # check as they stand.
        signals, _ = random_shared_signals(seed, K, n, noise)
        ordering = default_ordering(K)
        grid = np.arange(0.0, 1.5, step)
        path = (_path(signals, ordering, grid, per_stage=True) if per_stage
                else identify_path(signals, ordering, grid))
        for _, _, res in path:
            for basis in res.scores.values():
                assert orthonormality_loss(basis.columns) <= ORTHONORMAL_TOL
                assert not basis.columns.flags.writeable


def benchmark_fit(model_id, seed, transform=lambda k, X: X, lam=np.deg2rad(20)):
    """identify at ``lam`` on a model (snr 15, n 120, p 80) whose blocks pass
    through ``transform(k, X)``; returns (signals, result)."""
    model = model_preset(model_id, snr=15.0, n=120, block_size=80)
    blocks = generate(model, seed).blocks
    signals = [extract_signal(transform(k, X), r, check_centering=False)
               for k, (X, r) in enumerate(zip(blocks, model.block_ranks()), start=1)]
    return signals, identify(signals, model.ordering, lam)


class TestIdentifyInvariances:
    """Symmetries of the data that identify must respect, on the benchmark
    models. Only spans are compared under a permutation: the columns of a
    singleton basis are not canonical (ROADMAP item 3)."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_scaling_a_block_by_a_power_of_two(self, model_id, seed):
        # 2^j is exact in floating point, so every Gram and projection of the
        # scaled block is the old one times a power of two
        signals, base = benchmark_fit(model_id, seed)
        loads = estimate_loadings(signals, base).blocks
        for block in (1, 2, 3):
            for j in (-7, -1, 3, 9):
                scaled_signals, res = benchmark_fit(
                    model_id, seed, lambda k, X: X * 2.0**j if k == block else X)
                assert res.structure.entries == base.structure.entries
                assert res.stacked_scores()[0].tobytes() == base.stacked_scores()[0].tobytes()
                assert res.diagnostics == base.diagnostics
                assert res.stable_interval == base.stable_interval
                scaled = estimate_loadings(scaled_signals, res).blocks
                assert scaled.keys() == loads.keys()
                for (k, subset), U in loads.items():
                    want = U * 2.0**j if k == block else U
                    assert scaled[(k, subset)].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_permuting_samples_permutes_the_projectors(self, model_id, seed):
        lam = np.deg2rad(20)
        perm = np.random.default_rng(seed).permutation(120)
        _, base = benchmark_fit(model_id, seed, lam=lam)
        lo, hi = base.stable_interval
        if min(lam - lo, hi - lam) < 1e-6:
            pytest.skip("the threshold is within rounding of a structure change")
        _, res = benchmark_fit(model_id, seed, lambda k, X: X[:, perm], lam=lam)
        assert res.structure.entries == base.structure.entries
        assert res.scores.keys() == base.scores.keys()
        for subset, B in base.scores.items():
            P = (B.columns @ B.columns.T)[np.ix_(perm, perm)]
            C = res.scores[subset].columns
            assert np.max(np.abs(C @ C.T - P), initial=0.0) <= 1e-10

    @pytest.mark.parametrize("block", (1, 2, 3))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_rotating_a_blocks_variables_keeps_the_projectors(self, model_id, seed, block):
        # X_k -> O X_k leaves the row space of X_k, and so every score
        # subspace, as it was
        lam = np.deg2rad(20)
        O, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((80, 80)))
        _, base = benchmark_fit(model_id, seed, lam=lam)
        lo, hi = base.stable_interval
        if min(lam - lo, hi - lam) < 1e-6:
            pytest.skip("the threshold is within rounding of a structure change")
        _, res = benchmark_fit(model_id, seed, lambda k, X: O @ X if k == block else X,
                               lam=lam)
        assert res.structure.entries == base.structure.entries
        assert res.scores.keys() == base.scores.keys()
        for subset, B in base.scores.items():
            C = res.scores[subset].columns
            assert np.max(np.abs(C @ C.T - B.columns @ B.columns.T), initial=0.0) <= 1e-10


class TestStackedScores:
    def test_block_columns_follow_the_ordering(self):
        model = model_preset(6, snr=15.0, n=40, block_size=30)
        truth = generate(model, 3)
        signals = [extract_signal(X, r, check_centering=False)
                   for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(signals, model.ordering, np.deg2rad(40.0))
        for block in (None, 1, 2, 3):
            members = [s for s in model.ordering if res.structure.rank_of(s) > 0
                       and (block is None or block in s)]
            W, labels = res.stacked_scores(block)
            assert labels == [s for s in members for _ in range(res.scores[s].r)]
            assert W.tobytes() == np.hstack([res.scores[s].columns for s in members]).tobytes()

    def test_block_without_positive_rank_set_is_empty(self):
        scores = {IndexSet.of(1, 2): OrthonormalBasis(np.zeros((5, 0))),
                  IndexSet.of(1): OrthonormalBasis(np.eye(5)[:, :1]),
                  IndexSet.of(2): OrthonormalBasis(np.zeros((5, 0)))}
        res = DecompositionResult(scores, 0.1, default_ordering(2))
        W, labels = res.stacked_scores(2)
        assert W.shape == (5, 0) and labels == []
        W, labels = res.stacked_scores()
        assert W.shape == (5, 1) and labels == [IndexSet.of(1)]

    def test_structure_is_read_from_the_scores(self):
        # A structure stored beside the scores could give {1} rank 0 next to a
        # rank-1 {1} basis, and the layout would drop that column.
        scores = {IndexSet.of(1, 2): OrthonormalBasis(np.eye(5)[:, :1]),
                  IndexSet.of(1): OrthonormalBasis(np.eye(5)[:, 1:2]),
                  IndexSet.of(2): OrthonormalBasis(np.zeros((5, 0)))}
        res = DecompositionResult(scores, 0.1, default_ordering(2))
        W, labels = res.stacked_scores()
        assert W.shape == (5, 2) and labels == [IndexSet.of(1, 2), IndexSet.of(1)]
        assert res.structure.total_rank() == 2


class TestUniquenessChecks:
    def test_independent_fixture(self):
        rep = check_relative_independence(independent_bases(), default_ordering(3))
        assert rep.relative_independence

    def test_dependent_fixture_with_witness(self):
        rep = check_relative_independence(dependent_bases(), default_ordering(3))
        assert not rep.relative_independence
        layer, subset, witness = rep.failure
        assert layer == 1
        # the witness is a genuine shared direction of the deflated subspaces
        assert subset.members == (1,)
        assert np.allclose(np.abs(witness), [0, 1, 0, 0], atol=1e-9)

    def test_orthogonal_individuals_are_independent(self):
        e = np.eye(6)
        bases = [OrthonormalBasis(e[:, :2]), OrthonormalBasis(e[:, 2:4]),
                 OrthonormalBasis(e[:, 4:6])]
        rep = check_relative_independence(bases, default_ordering(3))
        assert rep.relative_independence and rep.relative_orthogonality

    def test_absolutely_orthogonal_fixture(self):
        rep = check_absolute_orthogonality(absolutely_orthogonal_bases(),
                                           default_ordering(4))
        assert rep.absolute_orthogonality
        assert rep.relative_orthogonality and rep.relative_independence
        # layer subspace for size-1 sets is the single shared pair direction
        I1 = rep.layer_subspaces[1]
        s2 = 1 / np.sqrt(2)
        assert I1.r == 1
        assert np.allclose(np.abs(I1.columns[:, 0]), [s2, s2, 0, 0, 0, 0], atol=1e-9)
        # per-index complements are retained for every size-1 index-set
        assert rep.complement_bases[IndexSet.of(3)].r == 1
        assert rep.complement_bases[IndexSet.of(1)].r == 0

    def test_non_absolutely_orthogonal_fixture(self):
        rep = check_absolute_orthogonality(non_absolutely_orthogonal_bases(),
                                           default_ordering(4))
        assert not rep.absolute_orthogonality
        assert rep.relative_independence

    def test_single_block_trivially_absolute(self):
        basis = OrthonormalBasis(np.eye(3)[:, :2])
        rep = check_absolute_orthogonality([basis], default_ordering(1))
        assert rep.absolute_orthogonality

    def test_unequal_ranks_share_one_pair_direction(self):
        # ranks 3, 2, 1: the {1,2} intersection pairs a larger basis with a smaller one
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((7, 5)))[0]
        cols = [q[:, [0, 1, 2]], q[:, [0, 3]], q[:, [4]]]
        # mix each block's columns, so the shared direction is no column of its basis
        bases = [OrthonormalBasis(c @ np.linalg.qr(rng.standard_normal((c.shape[1],) * 2))[0])
                 for c in cols]
        rep = check_relative_independence(bases, default_ordering(3))
        assert rep.relative_independence and rep.layer_independence == {1: True, 2: True}
        assert rep.relative_orthogonality and rep.absolute_orthogonality
        assert rep.failure is None
        shared = rep.layer_subspaces[1]  # the span of the {1,2} intersection
        assert shared.r == 1
        assert abs(shared.columns[:, 0] @ q[:, 0]) > 1 - 1e-12
        assert rep.layer_subspaces[2].r == 0
        assert rep.complement_bases[IndexSet.of(1)].r == 1
        assert rep.complement_bases[IndexSet.of(3)].r == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           atoms=st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                   min_size=1, max_size=4), min_size=2, max_size=4))
    def test_verdicts_do_not_depend_on_block_labels(self, seed, atoms):
        # Block k spans its atoms: (a, a) is the pool direction q_a, planted in
        # every block that draws it, and (a, b) the mixture q_a + q_b.
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((8, 6)))[0]
        bases = [orthonormalize(np.column_stack([q[:, a] + (a != b) * q[:, b]
                                                 for a, b in block]), 1e-8)
                 for block in atoms]
        K = len(bases)
        ordering = default_ordering(K)
        perm = rng.permutation(K)  # new block i + 1 is old block perm[i] + 1
        label = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
        relabelled = ordering_from_lists([[label[m] for m in s] for s in ordering], K)
        rep = check_relative_independence(bases, ordering)
        other = check_relative_independence([bases[i] for i in perm], relabelled)
        for verdict in ("relative_independence", "relative_orthogonality",
                        "absolute_orthogonality", "layer_independence"):
            assert getattr(rep, verdict) == getattr(other, verdict), verdict

    def test_implication_chain(self):
        for bases, K in [(independent_bases(), 3), (dependent_bases(), 3),
                         (absolutely_orthogonal_bases(), 4),
                         (non_absolutely_orthogonal_bases(), 4)]:
            rep = check_absolute_orthogonality(bases, default_ordering(K))
            if rep.absolute_orthogonality:
                assert rep.relative_orthogonality
            if rep.relative_orthogonality:
                assert rep.relative_independence


@pytest.mark.parametrize("call, error, message", (
    pytest.param(lambda: MultiBlockDataset(()),
                 ValueError, "at least one data block is required", id="no-blocks"),
    pytest.param(lambda: MultiBlockDataset((np.array([[np.nan, 1.0]]),)),
                 ValueError, "block 1 contains non-finite entries", id="nan-entry"),
    pytest.param(lambda: extract_signal(np.ones(3), 1),
                 ValueError, "block must be a p x n matrix", id="signal-of-a-vector"),
    pytest.param(lambda: check_relative_independence(independent_bases()[:2],
                                                     default_ordering(3)),
                 ValueError, "expected 3 bases, got 2", id="bases-short-of-K"),
))
def test_input_check_rejects(call, error, message):
    assert_rejects(call, error, message)
