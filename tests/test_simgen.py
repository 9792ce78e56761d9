import math

import numpy as np
import pytest

from psidecomp import (
    IndexSet,
    SimulationModel,
    estimate_loadings,
    extract_signal,
    generate,
    identify,
    imbalanced_preset,
    metric_accuracy,
    metric_angles,
    metric_rse,
    model_preset,
    run_once,
    structures_equal,
)
from psidecomp.simgen import outcomes_tsv, run_repetitions, summarize
from psidecomp.structure import PartialJointStructure

from cases import assert_rejects, make_structure


class TestPresets:
    def test_model_structures(self):
        expected = {
            1: {(1,): 2, (2,): 2, (3,): 2},
            2: {(1, 2, 3): 2},
            3: {(1, 2): 2, (1, 3): 2, (2, 3): 2},
            4: {(1, 2, 3): 2, (1,): 2, (2,): 2, (3,): 2},
            5: {(1, 2, 3): 2, (1, 2): 2, (1, 3): 2, (2, 3): 2},
            6: {(1, 2, 3): 2, (1, 2): 2, (1, 3): 2, (2, 3): 2,
                (1,): 2, (2,): 2, (3,): 2},
        }
        for mid, ranks in expected.items():
            model = model_preset(mid)
            assert structures_equal(model.structure, make_structure(3, ranks))

    def test_model_variances(self):
        m3 = model_preset(3)
        assert m3.signal_variances[IndexSet.of(1, 2)] == (1.4, 0.8)
        assert m3.signal_variances[IndexSet.of(1, 3)] == (1.3, 0.7)
        assert m3.signal_variances[IndexSet.of(2, 3)] == (1.2, 0.6)
        m2 = model_preset(2)
        assert m2.signal_variances[IndexSet.of(1, 2, 3)] == (1.0, 0.9)
        m1 = model_preset(1)
        assert m1.signal_variances[IndexSet.of(1,)] == (1.4, 0.8)
        m6 = model_preset(6)
        assert len([r for _, r in m6.structure.entries if r == 2]) == 7

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            model_preset(7)

    def test_imbalanced_presets(self):
        strong = imbalanced_preset("joint_strong")
        weak = imbalanced_preset("individual_strong")
        joint = IndexSet.of(1, 2, 3)
        first = IndexSet.of(1)
        assert strong.signal_variances[joint][0] == pytest.approx(15.0)
        assert strong.signal_variances[first][0] == pytest.approx(0.150)
        assert weak.signal_variances[joint][0] == pytest.approx(0.15)
        assert weak.signal_variances[first][0] == pytest.approx(15.0)
        for model in (strong, weak):
            assert model.structure.total_rank() == 40
            assert model.block_sizes == (100, 100, 100)

    def test_imbalanced_ladders_mirror(self):
        strong = imbalanced_preset("joint_strong")
        weak = imbalanced_preset("individual_strong")
        ind2 = IndexSet.of(2)
        assert strong.signal_variances[ind2] == pytest.approx(
            tuple(v / 100 for v in weak.signal_variances[ind2]))
        assert weak.signal_variances[ind2] == pytest.approx(
            tuple(np.linspace(14.7, 6.6, 10)))

    def test_unknown_imbalanced_tag(self):
        with pytest.raises(ValueError):
            imbalanced_preset("both_strong")


class TestSimulationModel:
    """A model's ranks are the lengths of its variance tuples, and K is the
    number of its block sizes."""

    def test_variance_key_outside_the_blocks_rejected(self):
        for key in (IndexSet.of(1, 4), (1, 2)):
            with pytest.raises(ValueError, match="not an index-set over blocks 1..3"):
                SimulationModel(name="m", n=20, block_sizes=(10, 10, 10),
                                signal_variances={key: (1.0,)}, snr=math.inf)

    def test_more_blocks_in_the_variances_than_sizes_rejected(self):
        m4 = model_preset(4)
        with pytest.raises(ValueError, match=r"\{1,2,3\}, which is not an index-set"):
            SimulationModel(name="m", n=200, block_sizes=(40, 40),
                            signal_variances=m4.signal_variances, snr=math.inf)

    @pytest.mark.parametrize("K", (0, 13))
    def test_block_count_outside_1_to_12_rejected(self, K):
        with pytest.raises(ValueError, match="K must be between 1 and 12"):
            SimulationModel(name="m", n=20, block_sizes=(10,) * K,
                            signal_variances={IndexSet.of(1): (1.0,)} if K else {},
                            snr=math.inf)

    def test_empty_variance_tuple_is_rank_zero(self):
        model = SimulationModel(
            name="m", n=20, block_sizes=(10, 10, 10),
            signal_variances={IndexSet.of(1, 2): (), IndexSet.of(3): (1.0, 0.5)},
            snr=math.inf)
        assert model.structure.rank_of(IndexSet.of(1, 2)) == 0
        assert model.structure.rank_of(IndexSet.of(3)) == 2
        assert model.block_ranks() == (0, 0, 2)
        assert model.K == 3 and model.ordering.K == 3


class TestGenerate:
    def test_noiseless_blocks_equal_signals(self):
        model = model_preset(4, snr=math.inf, n=40, block_size=30)
        truth = generate(model, seed=0)
        for X, Z in zip(truth.blocks, truth.signals):
            assert np.array_equal(X, Z)

    def test_fully_joint_signal_rank(self):
        model = model_preset(2, snr=5.0, n=50, block_size=40)
        truth = generate(model, seed=1)
        for Z in truth.signals:
            assert np.linalg.matrix_rank(Z, tol=1e-8) == 2

    def test_bit_identical_given_seed(self):
        model = model_preset(5, snr=10.0, n=30, block_size=25)
        a = generate(model, seed=7)
        b = generate(model, seed=7)
        for Xa, Xb in zip(a.blocks, b.blocks):
            assert np.array_equal(Xa, Xb)

    def test_loading_seed_fixes_loadings_only(self):
        model = model_preset(2, snr=10.0, n=30, block_size=25)
        a = generate(model, seed=1, loading_seed=99)
        b = generate(model, seed=2, loading_seed=99)
        key = (1, IndexSet.of(1, 2, 3))
        assert np.array_equal(a.loadings[key], b.loadings[key])
        assert not np.array_equal(a.scores[IndexSet.of(1, 2, 3)],
                                  b.scores[IndexSet.of(1, 2, 3)])

    def test_monte_carlo_entry_variance(self):
        model = model_preset(1, snr=math.inf, n=50, block_size=20)
        acc = 0.0
        reps = 200
        for seed in range(reps):
            truth = generate(model, seed)
            acc += float(np.mean(truth.signals[0] ** 2))
        observed = acc / reps
        expected = (1.4 + 0.8) / model.n
        assert observed == pytest.approx(expected, rel=0.10)

    def test_rank_budget_guard(self):
        model = model_preset(6, snr=math.inf, n=7, block_size=7)
        with pytest.raises(ValueError):
            generate(model, seed=0)

    def test_joint_orthonormal_needs_total_rank_within_n(self):
        # per-block budgets hold (rank 2 each) but the stacked draw cannot
        # carry 6 mutually orthogonal columns in a 5-dimensional sample space
        model = model_preset(1, snr=math.inf, n=5, block_size=10)
        with pytest.raises(ValueError):
            generate(model, seed=0)
        truth = generate(model, seed=0, joint_orthonormal=False)
        assert all(Z.shape == (10, 5) for Z in truth.signals)

    def test_score_blocks_orthonormal_and_mutually_orthogonal(self):
        model = model_preset(5, snr=math.inf, n=40, block_size=40)
        truth = generate(model, seed=3)
        stacked = np.hstack([truth.scores[s] for s, r in model.structure.entries if r > 0])
        assert np.max(np.abs(stacked.T @ stacked - np.eye(stacked.shape[1]))) < 1e-10

    def test_per_set_generation_leaves_cross_angles_random(self):
        model = model_preset(3, snr=math.inf, n=40, block_size=40)
        truth = generate(model, seed=4, joint_orthonormal=False)
        a = truth.scores[IndexSet.of(1, 2)]
        b = truth.scores[IndexSet.of(1, 3)]
        assert np.max(np.abs(a.T @ a - np.eye(2))) < 1e-10
        assert np.max(np.abs(a.T @ b)) > 1e-6


class TestMetrics:
    def test_accuracy_exact_match(self):
        s = make_structure(3, {(1, 2): 1})
        assert metric_accuracy(s, s) == 1

    def test_accuracy_extra_individual(self):
        truth = make_structure(3, {(1, 2): 1})
        est = make_structure(3, {(1, 2): 1, (3,): 1})
        assert metric_accuracy(est, truth) == 0

    def test_accuracy_ignores_entry_order(self):
        a = make_structure(3, {(1, 2): 1, (3,): 2})
        entries = tuple(reversed(a.entries))
        b = PartialJointStructure(entries, 3)
        assert metric_accuracy(a, b) == 1

    def test_rse_perfect_and_zero(self):
        model = model_preset(2, snr=math.inf, n=40, block_size=30)
        truth = generate(model, seed=5)
        sigs = [extract_signal(X, r, check_centering=False)
                for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(sigs, model.ordering, np.deg2rad(20))
        loads = estimate_loadings(sigs, res)
        assert metric_rse(truth, loads, res) <= 1e-10
        empty = type(loads)(blocks={}, block_sizes=loads.block_sizes)
        assert metric_rse(truth, empty, res) == pytest.approx(1.0)

    def test_angles_perfect_and_orthogonal(self):
        model = model_preset(2, snr=math.inf, n=40, block_size=30)
        truth = generate(model, seed=6)
        sigs = [extract_signal(X, r, check_centering=False)
                for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(sigs, model.ordering, np.deg2rad(20))
        loads = estimate_loadings(sigs, res)
        theta_u, theta_w = metric_angles(truth, loads, res)
        assert theta_u == pytest.approx(0.0, abs=1e-6)
        assert theta_w == pytest.approx(0.0, abs=1e-6)
        empty = type(loads)(blocks={}, block_sizes=loads.block_sizes)
        theta_u_empty, _ = metric_angles(truth, empty, res)
        assert theta_u_empty == pytest.approx(90.0)

    def test_rse_rejects_zero_true_signal(self):
        model = model_preset(1, snr=math.inf, n=30, block_size=20)
        truth = generate(model, seed=8)
        sigs = [extract_signal(X, r, check_centering=False)
                for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(sigs, model.ordering, np.deg2rad(10))
        loads = estimate_loadings(sigs, res)
        truth.signals[1] = np.zeros_like(truth.signals[1])
        with pytest.raises(ValueError):
            metric_rse(truth, loads, res)

    def test_rse_invariant_under_score_rebasing(self):
        model = model_preset(3, snr=10.0, n=40, block_size=30)
        truth = generate(model, seed=7)
        sigs = [extract_signal(X, r, check_centering=False)
                for X, r in zip(truth.blocks, model.block_ranks())]
        res = identify(sigs, model.ordering, np.deg2rad(25))
        loads = estimate_loadings(sigs, res)
        base = metric_rse(truth, loads, res)
        rng = np.random.default_rng(0)
        from psidecomp import OrthonormalBasis
        new_scores = dict(res.scores)
        new_blocks = dict(loads.blocks)
        for subset, r in res.structure.entries:
            if r == 0:
                continue
            R = np.linalg.qr(rng.standard_normal((r, r)))[0]
            new_scores[subset] = OrthonormalBasis(res.scores[subset].columns @ R)
            for k in subset.members:
                if (k, subset) in new_blocks:
                    new_blocks[(k, subset)] = loads.blocks[(k, subset)] @ R
        res2 = type(res)(new_scores, res.angle_threshold, res.ordering, res.diagnostics)
        loads2 = type(loads)(blocks=new_blocks, block_sizes=loads.block_sizes)
        assert metric_rse(truth, loads2, res2) == pytest.approx(base, rel=1e-10)


class TestRunners:
    def test_noiseless_pipeline_exact(self):
        model = model_preset(3, snr=math.inf, n=60, block_size=50)
        out = run_once(model, seed=0, angle_threshold=np.deg2rad(20))
        assert out.accuracy == 1
        assert out.rse <= 1e-10

    def test_repetition_seeds_are_sequential(self):
        model = model_preset(1, snr=math.inf, n=40, block_size=30)
        outs = run_repetitions(model, repetitions=3, seed=10,
                               angle_threshold=np.deg2rad(15))
        assert [o.seed for o in outs] == [10, 11, 12]

    def test_tsv_and_summary(self):
        model = model_preset(2, snr=math.inf, n=40, block_size=30)
        outs = run_repetitions(model, repetitions=2, seed=0,
                               angle_threshold=np.deg2rad(15))
        text = outcomes_tsv(outs)
        header, *rows = text.strip().split("\n")
        assert header.split("\t") == ["model", "snr", "seed", "accuracy",
                                      "rse", "theta_U", "theta_W", "wall_ms"]
        assert len(rows) == 2
        summary = summarize(outs)
        assert summary["accuracy_percent"] == 100.0
        assert summary["repetitions"] == 2

    def test_worker_pool_matches_serial(self):
        model = model_preset(1, snr=math.inf, n=40, block_size=30)
        serial = run_repetitions(model, 3, seed=5, angle_threshold=np.deg2rad(10),
                                 threads=1)
        pooled = run_repetitions(model, 3, seed=5, angle_threshold=np.deg2rad(10),
                                 threads=2)
        assert [o.seed for o in pooled] == [o.seed for o in serial]
        assert [o.rse for o in pooled] == pytest.approx([o.rse for o in serial])


@pytest.mark.parametrize("call, error, message", (
    pytest.param(lambda: SimulationModel(name="m", n=20, block_sizes=(10,),
                                         signal_variances={}, snr=0.0),
                 ValueError, "snr must be positive (math.inf for noiseless)", id="zero-snr"),
    pytest.param(lambda: metric_accuracy(make_structure(2, {}), make_structure(3, {})),
                 ValueError, "structures disagree on K", id="accuracy-across-K"),
))
def test_input_check_rejects(call, error, message):
    assert_rejects(call, error, message)
