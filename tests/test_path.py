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
    IndexSet,
    OrthonormalBasis,
    default_grid,
    default_ordering,
    dissimilarity,
    extract_signal,
    generate,
    identify,
    identify_path,
    model_preset,
    orthonormalize,
    select_lambda,
    split,
)
from psidecomp import core
from psidecomp.subspace import PEEL_TOL
from psidecomp.tuning import _heldout_pieces, _heldout_risk, _stacked_coordinates, _stacked_path

from cases import signals_of_bases, split_halves

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


class TestPathRecords:
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_structure_lists_every_scored_set_in_ordering_order(self, model_id):
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        for seed in SEEDS:
            truth = generate(model, seed)
            for cols in (slice(None), list(split(model.n, seed).train)):
                signals = [extract_signal(X[:, cols], r, check_centering=False)
                           for X, r in zip(truth.blocks, model.block_ranks())]
                for _, _, res in identify_path(signals, model.ordering, default_grid()):
                    assert list(res.scores) == list(model.ordering)
                    assert res.structure.entries == tuple(
                        (s, res.scores[s].r) for s in model.ordering)


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


def brute_force_select_lambda(data, ranks, ordering, grid, seed, per_stage=True):
    """select_lambda as a per-grid-point sweep, for comparison.

    Each training fit is the private path at a one-point grid with
    ``per_stage`` set as select_lambda sets it, in the coordinates of the
    stacked training bases that select_lambda fits in; the whole-data fits
    are ``identify``, which keeps the per-direction schedule.
    """
    train, test = split_halves(data, seed)
    train_signals = [extract_signal(B, r, check_centering=False)
                     for B, r in zip(train, ranks)]
    # The held-out risk of one training result is select_lambda's own
    # function; tests/test_tuning.py pins it to the p-space helpers.
    coords, T = _stacked_coordinates(train_signals)
    pieces = (T, *_heldout_pieces(test, train_signals)[1:])
    risks, train_structures = [], []
    for lam in grid:
        res = core._path(coords, ordering, [lam], per_stage)[0][2]
        risks.append(_heldout_risk(pieces, res))
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

    @pytest.mark.parametrize("model_id,seed", [(1, 1000), (3, 1001), (5, 1002), (6, 1000)])
    def test_training_schedules_agree(self, model_id, seed):
        # The training path projects once per stage; the per-direction
        # schedule, which identify keeps, picks the same training
        # structures and lambda_tilde, and its risks differ by rounding only.
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        data = generate(model, seed).dataset()
        args = (data, model.block_ranks(), model.ordering, default_grid(), seed)
        risks, _, i_tilde, _, _ = brute_force_select_lambda(*args, per_stage=True)
        old_risks, _, old_tilde, _, _ = brute_force_select_lambda(*args, per_stage=False)
        assert i_tilde == old_tilde
        np.testing.assert_allclose(risks, old_risks, rtol=1e-12, atol=0.0)
        plan = split(data.n, seed)
        signals = [extract_signal(X[:, list(plan.train)], r, check_centering=False)
                   for X, r in zip(data.blocks, model.block_ranks())]
        structures = [[(i0, i1, res.structure.entries)
                       for i0, i1, res in core._path(signals, model.ordering, default_grid(), flag)]
                      for flag in (True, False)]
        assert structures[0] == structures[1]


def assert_per_stage_path_matches(signals, ordering, grid):
    """The per-stage path has identify_path's intervals, and its structures."""
    got = core._path(signals, ordering, grid, per_stage=True)
    want = identify_path(signals, ordering, grid)
    assert ([(i0, i1, res.structure.entries) for i0, i1, res in got]
            == [(i0, i1, res.structure.entries) for i0, i1, res in want])
    return got


def count_flag_means(monkeypatch):
    calls = []
    flag_mean = core._flag_mean_refined

    def counted(blocks):
        calls.append(len(blocks))
        return flag_mean(blocks)

    monkeypatch.setattr(core, "_flag_mean_refined", counted)
    return calls


class TestPairStage:
    """Both schedules take each two-block stage from one SVD of the pair's
    cross Gram, unless a candidate its gates read is tied."""

    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_noiseless_whole_data_paths(self, model_id):
        # Exactly shared subspaces tie the pair stages. The tie route puts a
        # flag mean inside one block, at angles (0, 90) degrees, where the
        # bisector of the pair would sit at 45.
        model = model_preset(model_id, snr=math.inf)
        for seed in (1000, 1001, 1002, 1003):
            assert_per_stage_path_matches(whole_signals(model, seed), model.ordering,
                                          default_grid())

    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_stacked_whole_data_paths(self, model_id):
        # Tuning's whole-data paths run per-stage in the coordinates of the
        # stacked bases; their intervals and structures are identify_path's.
        grid = default_grid()
        for snr in (15.0, 5.0, 3.0, math.inf):
            model = model_preset(model_id, snr=snr)
            for seed in range(1000, 1016):
                signals = whole_signals(model, seed)
                got = _stacked_path(signals, model.ordering, grid)
                want = identify_path(signals, model.ordering, grid)
                assert ([(i0, i1, res.structure.entries) for i0, i1, res in got]
                        == [(i0, i1, res.structure.entries) for i0, i1, res in want]), (snr, seed)

    def test_untied_pair_stage_takes_no_flag_mean(self, monkeypatch):
        # bisector angles are at most 45 degrees, so the grid accepts all three
        rng = np.random.default_rng(11)
        signals = signals_of_bases([orthonormalize(rng.standard_normal((20, 3)))
                                    for _ in range(2)])
        ordering, grid = default_ordering(2), default_grid()
        calls = count_flag_means(monkeypatch)
        got = assert_per_stage_path_matches(signals, ordering, grid)
        # neither the per-stage path nor identify_path takes a flag mean
        assert calls == []
        assert dict(got[-1][2].structure.entries)[IndexSet((1, 2))] == 3

    def test_identical_blocks_take_the_tie_route(self, monkeypatch):
        # the data of TestIdentifyPath::test_identical_blocks_flag_mean_tie
        model = model_preset(1, snr=15.0, n=60, block_size=50)
        truth = generate(model, 4)
        X = truth.blocks[0]
        signals = [extract_signal(B, 2, check_centering=False)
                   for B in (X, X.copy(), truth.blocks[2])]
        calls = count_flag_means(monkeypatch)
        path = assert_per_stage_path_matches(signals, model.ordering, default_grid())
        assert 2 in calls
        records = [rec for _, _, res in path for rec in res.diagnostics]
        assert any(rec.degenerate for rec in records)

    def test_stacked_coordinates_wider_than_the_training_half(self):
        # n_train = 10 < R0 = 24: the coordinates are those of R^10
        model = model_preset(6, snr=15.0, n=20, block_size=30)
        data, ranks, grid = generate(model, 1000).dataset(), model.block_ranks(), default_grid()
        got = select_lambda(data, ranks, model.ordering, grid, 1000)
        train, test = split_halves(data, 1000)
        signals = [extract_signal(B, r, check_centering=False) for B, r in zip(train, ranks)]
        pieces = _heldout_pieces(test, signals)
        assert _stacked_coordinates(signals)[1].shape == (10, 24)
        risks, structures = [], []
        for i0, i1, res in core._path(signals, model.ordering, grid, per_stage=True):
            risks += [_heldout_risk(pieces, res)] * (i1 - i0)
            structures += [res.structure.entries] * (i1 - i0)
        np.testing.assert_allclose([r for _, r in got.risk_curve], risks, rtol=1e-12, atol=0.0)
        assert got.lambda_tilde == grid[int(np.argmin(risks))]
        assert got.structure_train.entries == structures[int(np.argmin(risks))]


@pytest.mark.parametrize("seed", SEEDS)
def test_training_path_projects_once_per_stage(monkeypatch, seed):
    # On select_lambda's training path every stage that claims directions
    # projects each other block off them with one _complement; one call per
    # claimed direction made 153-222 calls per path here.
    model = model_preset(6, snr=15.0)
    data = generate(model, seed).dataset()
    grid = default_grid()
    whole = identify_path(whole_signals(model, seed), model.ordering, grid)
    calls, bound = [], []
    complement, resume = core._complement, core._resume

    def counted_complement(cols, Q, claimed=None):
        calls.append(cols.shape[1] > 0 and Q.shape[1] > 0)
        return complement(cols, Q, claimed)

    def bounded_resume(signals, ordering, lam, cp, per_stage=False):
        out = resume(signals, ordering, lam, cp, per_stage)
        claiming = [s for s in ordering.sets[cp.stage:] if out[0][s].r > 0]
        bound.append(len(claiming) * (ordering.K - 1))
        return out

    monkeypatch.setattr(core, "_complement", counted_complement)
    monkeypatch.setattr(core, "_resume", bounded_resume)
    select_lambda(data, model.block_ranks(), model.ordering, grid, seed, whole_path=whole)
    assert 0 < sum(calls) <= sum(bound)


def test_accepted_candidate_with_nothing_to_peel_ends_the_stage():
    # A candidate orthogonal to a participant (||B_i^T w|| <= PEEL_TOL) has a
    # sine that rounds to 1, or to 1 - ulp when ||w|| is an ulp short of 1, so
    # it passes its gate only for a threshold within 1.5e-8 rad of pi/2, far
    # above the default grid's 89 degrees. A checkpoint hands _resume such a
    # candidate directly.
    eye = np.eye(6)
    B1, B2, w = eye[:, :2], eye[:, 2:4], eye[:, 4]
    angle = float(np.arcsin(np.nextafter(1.0, 0.0)))
    lam = np.nextafter(np.pi / 2, 0.0)
    assert angle < lam
    c = (B1.T @ w, B2.T @ w)
    assert max(np.linalg.norm(ci) for ci in c) <= PEEL_TOL
    cp = core._Checkpoint(0, (B1, B2), (), (), (), gate=(w, False, (angle, angle), c),
                          stop=angle)
    signals = signals_of_bases([OrthonormalBasis(B1), OrthonormalBasis(B2)])
    scores, records, rejected = core._resume(signals, default_ordering(2), lam, cp)
    # the stage ends as a failed gate would, but keeps no checkpoint
    assert records == () and rejected == []
    assert scores[IndexSet((1, 2))].r == 0
    # both bases reach their singleton stages unpeeled
    np.testing.assert_array_equal(scores[IndexSet((1,))].columns, B1)
    P2 = scores[IndexSet((2,))].projector()
    assert np.max(np.abs(P2 - B2 @ B2.T)) <= 1e-15
    assert all(np.all(np.isfinite(b.columns)) for b in scores.values())
