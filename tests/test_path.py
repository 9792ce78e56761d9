"""The threshold path must reproduce per-grid-point identification exactly.

``identify_path`` calls ``identify`` once per interval of thresholds over
which the result cannot change. Every gate compares a candidate's largest
angle with the threshold, so the result is constant on ``stable_interval``.
These tests compare the path, and ``select_lambda`` built on it, with
brute-force sweeps that call ``identify`` at every grid point.
"""

import math

import numpy as np
import pytest

from psidecomp import (
    default_grid,
    dissimilarity,
    empirical_risk,
    estimate_loadings,
    extract_signal,
    generate,
    identify,
    identify_path,
    model_preset,
    select_lambda,
    split,
    stacked_loadings,
)
from psidecomp import test_scores as procrustes_scores

SEEDS = (1000, 1001, 1002)


def whole_signals(model, seed):
    truth = generate(model, seed)
    return [extract_signal(X, r, check_centering=False)
            for X, r in zip(truth.blocks, model.block_ranks())]


def assert_same_result(a, b):
    assert a.structure.entries == b.structure.entries
    Wa, la = a.stacked_scores()
    Wb, lb = b.stacked_scores()
    assert la == lb
    assert Wa.tobytes() == Wb.tobytes()
    assert a.diagnostics == b.diagnostics
    assert a.stable_interval == b.stable_interval


def assert_path_matches_grid(signals, ordering, grid):
    path = identify_path(signals, ordering, grid)
    assert path[0][0] == 0 and path[-1][1] == len(grid)
    for (_, end, _), (start, _, _) in zip(path, path[1:]):
        assert end == start
    for i0, i1, res in path:
        assert res.angle_threshold == grid[i0]
        for i in range(i0, i1):
            assert_same_result(res, identify(signals, ordering, grid[i]))
    return path


class TestIdentifyPath:
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_models_at_snr_15(self, model_id):
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        grid = default_grid()
        for seed in SEEDS:
            path = assert_path_matches_grid(whole_signals(model, seed), model.ordering, grid)
            assert len(path) < len(grid)

    def test_noiseless(self):
        model = model_preset(4, snr=math.inf, n=60, block_size=50)
        assert_path_matches_grid(whole_signals(model, 3), model.ordering, default_grid())

    def test_identical_blocks_flag_mean_tie(self):
        model = model_preset(1, snr=15.0, n=60, block_size=50)
        truth = generate(model, 4)
        X = truth.blocks[0]
        signals = [extract_signal(B, 2, check_centering=False)
                   for B in (X, X.copy(), truth.blocks[2])]
        path = assert_path_matches_grid(signals, model.ordering, default_grid())
        # at any positive threshold the duplicated pair is one tied stage
        records = [rec for _, _, res in path for rec in res.diagnostics]
        assert any(rec.degenerate for rec in records)

    def test_non_default_grid(self):
        grid = np.deg2rad(np.arange(5.0, 40.0 + 0.25, 0.5))
        model = model_preset(6, snr=15.0, n=120, block_size=80)
        assert_path_matches_grid(whole_signals(model, 1001), model.ordering, grid)

    def test_single_point_and_validation(self):
        model = model_preset(2, snr=15.0, n=60, block_size=50)
        signals = whole_signals(model, 0)
        path = identify_path(signals, model.ordering, [0.2])
        assert [(i0, i1) for i0, i1, _ in path] == [(0, 1)]
        with pytest.raises(ValueError):
            identify_path(signals, model.ordering, [0.3, 0.2])


class TestStableInterval:
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_result_constant_on_interval(self, model_id):
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        rng = np.random.default_rng(model_id)
        for seed in SEEDS:
            signals = whole_signals(model, seed)
            for lam in np.deg2rad([0.0, 10.0, 25.0, 45.0]):
                lo, hi = identify(signals, model.ordering, lam).stable_interval
                assert lo < lam <= hi
                first = np.nextafter(max(lo, 0.0), np.inf) if lo >= 0 else 0.0
                ref = identify(signals, model.ordering, first)
                top = min(hi, np.nextafter(np.pi / 2, 0.0))
                for probe in [top, *rng.uniform(first, top, size=3)]:
                    assert_same_result(identify(signals, model.ordering, probe), ref)

    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_result_changes_just_above_hi(self, model_id):
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        checked = 0
        for seed in SEEDS:
            signals = whole_signals(model, seed)
            for lam in np.deg2rad([0.0, 10.0, 25.0, 45.0]):
                res = identify(signals, model.ordering, lam)
                hi = res.stable_interval[1]
                above = np.nextafter(hi, np.inf)
                if not above < np.pi / 2:
                    continue
                nxt = identify(signals, model.ordering, above)
                assert nxt.structure.entries != res.structure.entries
                checked += 1
        assert checked > 0

    def test_nothing_accepted_and_nothing_rejected(self):
        model = model_preset(2, snr=math.inf, n=60, block_size=50)
        signals = whole_signals(model, 5)
        lo, hi = identify(signals, model.ordering, 0.0).stable_interval
        assert lo == -1.0 and 0.0 <= hi
        # noiseless fully-joint data: every candidate is accepted at 45 degrees
        # until the bases run out, so no gate fails
        res = identify(signals, model.ordering, np.deg2rad(45.0))
        assert res.stable_interval[1] == math.inf
        assert 0.0 <= res.stable_interval[0] < 1e-6


def brute_force_select_lambda(data, ranks, ordering, grid, seed):
    """select_lambda as a per-grid-point sweep, for comparison."""
    plan = split(data.n, seed)
    train = [X[:, list(plan.train)] for X in data.blocks]
    test = [X[:, list(plan.test)] for X in data.blocks]
    train_signals = [extract_signal(B, r, check_centering=False)
                     for B, r in zip(train, ranks)]
    offsets = np.concatenate([[0], np.cumsum([b.shape[0] for b in test])])
    risks, train_structures = [], []
    for lam in grid:
        res = identify(train_signals, ordering, lam)
        U = stacked_loadings(estimate_loadings(train_signals, res), res)
        W, _ = procrustes_scores(np.vstack(test), U)
        rows = [U[offsets[k]:offsets[k + 1]] for k in range(data.K)]
        risks.append(empirical_risk(test, rows, W))
        train_structures.append(res.structure)
    i_tilde = int(np.argmin(risks))
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(data.blocks, ranks)]
    whole = [identify(signals, ordering, lam) for lam in grid]
    dists = [dissimilarity(train_structures[i_tilde], res.structure) for res in whole]
    i_hat = int(np.argmin(dists))
    return risks, dists, i_tilde, i_hat, whole[i_hat]


class TestSelectLambdaOnPath:
    @pytest.mark.parametrize("model_id,seed", [(1, 1000), (3, 1001), (5, 1002), (6, 1000)])
    def test_matches_brute_force(self, model_id, seed):
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        data = generate(model, seed).dataset()
        grid = default_grid()
        got = select_lambda(data, model.block_ranks(), model.ordering, grid, seed)
        risks, dists, i_tilde, i_hat, res_hat = brute_force_select_lambda(
            data, model.block_ranks(), model.ordering, grid, seed)
        assert got.risk_curve == tuple(zip(map(float, grid), risks))
        assert got.dissimilarity_curve == tuple(zip(map(float, grid), dists))
        assert got.lambda_tilde == float(grid[i_tilde])
        assert got.lambda_hat == float(grid[i_hat])
        assert got.decomposition_hat.angle_threshold == got.lambda_hat
        assert_same_result(got.decomposition_hat, res_hat)
