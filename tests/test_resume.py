"""The threshold path resumes each run from the previous one's checkpoint.

``identify_path`` restarts nothing: a run at the next grid point resumes at
the first saved gate that the larger threshold flips. These tests check that
a whole-data path handed to ``select_lambda`` gives the same tuning as the
path it builds itself, that the resumed path computes fewer flag means than
one fresh ``identify`` per interval, that a pair stage's SVD is taken once
per visit from its stage start and never on a resume, that a tuned fit
sweeps no per-direction path, and that the path keeps every input check of
``identify``.
"""

import numpy as np
import pytest

from psidecomp import (
    cli,
    core,
    default_grid,
    extract_signal,
    generate,
    identify,
    identify_path,
    model_preset,
    run_once,
    select_lambda,
    simgen,
    tuning,
)

SEEDS = (1000, 1001, 1002)


def small_model(model_id):
    return model_preset(model_id, snr=15.0, n=120, block_size=80)


def signals_of(truth, ranks):
    return [extract_signal(X, r, check_centering=False) for X, r in zip(truth.blocks, ranks)]


@pytest.mark.parametrize("model_id", range(1, 7))
def test_given_whole_path_matches_computed(model_id):
    model = small_model(model_id)
    ranks, grid = model.block_ranks(), default_grid()
    for seed in SEEDS:
        truth = generate(model, seed)
        data = truth.dataset()
        path = identify_path(signals_of(truth, ranks), model.ordering, grid)
        given = select_lambda(data, ranks, model.ordering, grid, seed, whole_path=path)
        built = select_lambda(data, ranks, model.ordering, grid, seed)
        assert given.risk_curve == built.risk_curve
        assert given.dissimilarity_curve == built.dissimilarity_curve
        assert given.lambda_tilde == built.lambda_tilde
        assert given.lambda_hat == built.lambda_hat
        assert given.structure_train.entries == built.structure_train.entries
        hat_given, hat_built = given.decomposition_hat, built.decomposition_hat
        assert hat_given.structure.entries == hat_built.structure.entries
        assert hat_given.angle_threshold == hat_built.angle_threshold
        assert (hat_given.stacked_scores()[0].tobytes()
                == hat_built.stacked_scores()[0].tobytes())


def test_whole_path_on_another_grid_is_rejected():
    # Read by index on the 1-degree grid, the 5-degree path gave lambda_hat 4
    # degrees (19 is right) and 18 dissimilarities instead of 90; the reverse
    # pairing indexed past the end of the grid. A path cut short is no better.
    model = small_model(6)
    truth = generate(model, 1000)
    data, ranks = truth.dataset(), model.block_ranks()
    signals = signals_of(truth, ranks)
    fine = default_grid()
    coarse = np.deg2rad(np.arange(0.0, 90.0, 5.0))
    fine_path = identify_path(signals, model.ordering, fine)
    for grid, path in ((fine, identify_path(signals, model.ordering, coarse)),
                       (coarse, fine_path), (fine, fine_path[:-1])):
        with pytest.raises(ValueError, match="whole_path"):
            select_lambda(data, ranks, model.ordering, grid, 1000, whole_path=path)
    tuned = select_lambda(data, ranks, model.ordering, fine, 1000)
    assert np.rad2deg(tuned.lambda_hat) == pytest.approx(19.0)
    assert len(tuned.dissimilarity_curve) == fine.size


def test_resume_computes_fewer_flag_means(monkeypatch):
    calls = [0]
    flag_mean = core._flag_mean_refined

    def counted(*args, **kwargs):
        calls[0] += 1
        return flag_mean(*args, **kwargs)

    monkeypatch.setattr(core, "_flag_mean_refined", counted)
    model = small_model(6)
    grid = default_grid()
    for seed in SEEDS:
        signals = signals_of(generate(model, seed), model.block_ranks())
        calls[0] = 0
        path = identify_path(signals, model.ordering, grid)
        resumed = calls[0]
        calls[0] = 0
        for i0, _, _ in path:
            identify(signals, model.ordering, grid[i0])
        restarted = calls[0]
        assert len(path) > 1
        assert resumed < restarted, (seed, resumed, restarted)


@pytest.mark.parametrize("per_stage", [True, False])
def test_pair_stage_takes_one_svd_per_visit_from_its_start(monkeypatch, per_stage):
    # A run that enters a two-block stage at its start takes the stage's SVD
    # once; a run resumed at a rejected pair gate reads the SVD the gate kept.
    model = model_preset(6, snr=15.0)
    svds, resumes = [0], []
    pair_svd, resume = core._pair_svd, core._resume

    def counted_svd(B1, B2):
        svds[0] += 1
        return pair_svd(B1, B2)

    def counted_resume(signals, ordering, lam, cp, per_stage=False):
        before = svds[0]
        out = resume(signals, ordering, lam, cp, per_stage)
        pairs = sum(len(s) == 2 for s in ordering.sets[cp.stage:])
        at_gate = len(ordering.sets[cp.stage]) == 2 and (cp.svd or cp.gate) is not None
        assert svds[0] - before == pairs - at_gate
        resumes.append(cp.svd is not None)
        return out

    monkeypatch.setattr(core, "_pair_svd", counted_svd)
    monkeypatch.setattr(core, "_resume", counted_resume)
    for seed in SEEDS:
        core._path(signals_of(generate(model, seed), model.block_ranks()), model.ordering,
                   default_grid(), per_stage)
    assert any(resumes)  # some runs resumed at a pair gate


def count_work(monkeypatch):
    """Record (per_stage, grid size) of every path and count identify calls."""
    paths, identifies = [], [0]
    path, identify_ = core._path, core.identify

    def counted_path(signals, ordering, grid, per_stage):
        paths.append((per_stage, len(grid)))
        return path(signals, ordering, grid, per_stage)

    def counted_identify(*args):
        identifies[0] += 1
        return identify_(*args)

    monkeypatch.setattr(core, "_path", counted_path)
    monkeypatch.setattr(tuning, "_path", counted_path)
    for module in (core, tuning, simgen, cli):
        monkeypatch.setattr(module, "identify", counted_identify)
    return paths, identifies


def test_tuned_run_once_sweeps_no_per_direction_path(monkeypatch):
    # both sweeps are per-stage; the one per-direction path is identify's, at lambda_hat
    paths, identifies = count_work(monkeypatch)
    grid = default_grid()
    run_once(small_model(6), 1000, grid=grid)
    assert identifies == [1]
    assert sorted(paths) == [(False, 1), (True, grid.size), (True, grid.size)]


def test_tune_runs_no_identify_and_one_whole_path(monkeypatch, tmp_path):
    gen = tmp_path / "gen"
    assert cli.main(["generate", "--model", "6", "--snr", "15", "--seed", "3", "--n", "60",
                     "--p", "40", "--out", str(gen)]) == 0
    paths, identifies = count_work(monkeypatch)
    assert cli.main(["tune", "--blocks", *(str(gen / f"X_{k}.csv") for k in (1, 2, 3)),
                     "--ranks", "8,8,8", "--reps", "3", "--threads", "1",
                     "--out", str(tmp_path / "out")]) == 0
    # three training paths and one shared whole-data path, all per-stage
    assert identifies == [0]
    assert paths == [(True, 90)] * 4


class TestPathChecks:
    @pytest.fixture(scope="class")
    def setup(self):
        model = small_model(1)
        return model, signals_of(generate(model, 0), model.block_ranks())

    @pytest.mark.parametrize("grid", ([0.1, 1.0, np.pi / 2], [-0.1, 0.2], [0.1, np.nan]))
    def test_grid_outside_threshold_range(self, setup, grid):
        # checked up front: a path whose last interval is unbounded never
        # reaches the bad grid point
        model, signals = setup
        with pytest.raises(ValueError, match=r"\[0, pi/2\)"):
            identify_path(signals, model.ordering, grid)

    def test_block_count_must_match_ordering(self, setup):
        model, signals = setup
        with pytest.raises(ValueError, match="ordering expects 3 blocks"):
            identify_path(signals[:2], model.ordering, [0.1, 0.2])

    def test_sample_dimension_must_match(self, setup):
        model, signals = setup
        other = small_model(1)
        short = extract_signal(generate(other, 0).blocks[2][:, :100], 2,
                               check_centering=False)
        with pytest.raises(ValueError, match="sample dimension"):
            identify_path([*signals[:2], short], model.ordering, [0.1, 0.2])
