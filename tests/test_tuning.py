import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from psidecomp import (
    DecompositionResult,
    IndexSet,
    MultiBlockDataset,
    OrthonormalBasis,
    default_grid,
    default_ordering,
    empirical_risk,
    estimate_loadings,
    extract_signal,
    generate,
    identify_path,
    mode_structure,
    model_preset,
    select_lambda,
    split,
    stacked_loadings,
    structures_equal,
    write_curves_tsv,
)
from psidecomp import structure
from psidecomp import test_scores as procrustes_scores
from psidecomp.tuning import _heldout_pieces, _heldout_risk

from cases import assert_rejects, make_structure, split_halves


class TestSplit:
    def test_even_split(self):
        plan = split(10, seed=0)
        assert len(plan.train) == 5 and len(plan.test) == 5

    def test_odd_split_train_gets_extra(self):
        plan = split(11, seed=0)
        assert len(plan.train) == 6 and len(plan.test) == 5

    def test_partition(self):
        plan = split(23, seed=4)
        assert sorted(plan.train + plan.test) == list(range(23))
        assert not set(plan.train) & set(plan.test)

    def test_deterministic(self):
        assert split(40, seed=9) == split(40, seed=9)
        assert split(40, seed=9) != split(40, seed=10)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(3, seed=0)


class TestTestScores:
    def test_rank_zero_gives_no_columns(self):
        W, degenerate = procrustes_scores(np.ones((5, 3)), np.zeros((5, 0)))
        assert W.shape == (3, 0) and not degenerate

    def test_exact_fit_objective_zero(self):
        rng = np.random.default_rng(1)
        U = rng.standard_normal((30, 4))
        W0 = np.linalg.qr(rng.standard_normal((20, 4)))[0]
        X = U @ W0.T
        W, degenerate = procrustes_scores(X, U)
        assert not degenerate
        assert np.sum((X - U @ W.T) ** 2) == pytest.approx(0.0, abs=1e-16)

    def test_single_column_closed_form(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((15, 1))
        X = rng.standard_normal((15, 12))
        W, _ = procrustes_scores(X, U)
        v = X.T @ U[:, 0]
        assert np.allclose(W[:, 0], v / np.linalg.norm(v), atol=1e-12)

    def test_objective_matches_polar_decomposition_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.standard_normal((30, 20))
            U = rng.standard_normal((30, 4))
            W, _ = procrustes_scores(X, U)
            ours = float(np.sum((X - U @ W.T) ** 2))
            # oracle: unitary polar factor of X^T U solves the same problem
            W_oracle, _ = scipy.linalg.polar(X.T @ U)
            best = float(np.sum((X - U @ W_oracle.T) ** 2))
            assert ours == pytest.approx(best, abs=1e-9 * max(1.0, best))

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(4)
        W, _ = procrustes_scores(rng.standard_normal((25, 18)), rng.standard_normal((25, 5)))
        assert np.max(np.abs(W.T @ W - np.eye(5))) < 1e-10

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(5)
        U = rng.standard_normal((20, 3))
        U[:, 2] = 0.0
        X = rng.standard_normal((20, 10))
        W, degenerate = procrustes_scores(X, U)
        assert degenerate
        assert W.shape == (10, 3)
        assert np.max(np.abs(W.T @ W - np.eye(3))) < 1e-10

    def test_permutation_invariance_of_risk(self):
        rng = np.random.default_rng(6)
        X = [rng.standard_normal((8, 12)) for _ in range(2)]
        U = [rng.standard_normal((8, 3)) for _ in range(2)]
        W, _ = procrustes_scores(np.vstack(X), np.vstack(U))
        base = empirical_risk(X, U, W)
        perm = rng.permutation(12)
        shuffled = empirical_risk([x[:, perm] for x in X], U, W[perm])
        assert shuffled == pytest.approx(base, rel=1e-12)


class TestEmpiricalRisk:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(7)
        U = [rng.standard_normal((10, 2)) for _ in range(3)]
        W = np.linalg.qr(rng.standard_normal((14, 2)))[0]
        X = [u @ W.T for u in U]
        assert empirical_risk(X, U, W) == pytest.approx(0.0, abs=1e-20)

    def test_zero_loadings_scores_k(self):
        rng = np.random.default_rng(8)
        X = [rng.standard_normal((6, 9)) for _ in range(3)]
        U = [np.zeros((6, 2)) for _ in range(3)]
        W = np.linalg.qr(rng.standard_normal((9, 2)))[0]
        assert empirical_risk(X, U, W) == pytest.approx(3.0)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(9)
        X = [rng.standard_normal((7, 11)) for _ in range(3)]
        U = [rng.standard_normal((7, 4)) for _ in range(3)]
        W = np.linalg.qr(rng.standard_normal((11, 4)))[0]
        total = 0.0
        for Xk, Uk in zip(X, U):
            num = den = 0.0
            for i in range(7):
                for j in range(11):
                    pred = sum(Uk[i, c] * W[j, c] for c in range(4))
                    num += (Xk[i, j] - pred) ** 2
                    den += Xk[i, j] ** 2
            total += num / den
        assert empirical_risk(X, U, W) == pytest.approx(total, rel=1e-10)

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError):
            empirical_risk([np.zeros((3, 4))], [np.zeros((3, 1))], np.zeros((4, 1)))


def p_space_risk(train_signals, test_blocks, result):
    """The held-out risk through p x r loadings and the stacked test half."""
    U = stacked_loadings(estimate_loadings(train_signals, result), result)
    W, _ = procrustes_scores(np.vstack(test_blocks), U)
    offsets = np.cumsum([0] + [X.shape[0] for X in test_blocks])
    rows = [U[offsets[k]:offsets[k + 1]] for k in range(len(test_blocks))]
    return empirical_risk(test_blocks, rows, W)


class TestHeldOutRisk:
    @pytest.mark.parametrize("seed", (1000, 1001, 1002))
    @pytest.mark.parametrize("model_id", range(1, 7))
    def test_matches_p_space_oracle(self, model_id, seed):
        model = model_preset(model_id, snr=15.0, n=120, block_size=80)
        data = generate(model, seed).dataset()
        train, test = split_halves(data, seed)
        signals = [extract_signal(B, r, check_centering=False)
                   for B, r in zip(train, model.block_ranks())]
        pieces = _heldout_pieces(test, signals)
        path = identify_path(signals, model.ordering, default_grid())
        assert len(path) > 1
        for _, _, res in path:
            assert _heldout_risk(pieces, res) == pytest.approx(
                p_space_risk(signals, test, res), rel=1e-12)


# RISK_EIGH_RTOL's value, written out: the inputs below must not move with it.
RISK_CUT = 1e-4


class TestRiskEighCut:
    """The held-out risk takes the polar factor of R C from the eigh of its
    r x r Gram when the Gram's eigenvalues lie more than RISK_CUT apart in
    ratio, and from an SVD of R C at or below that."""

    @pytest.mark.parametrize("delta, svd_calls", [(0.5, 1), (2.0, 0)])
    def test_route_flips_at_the_cut(self, monkeypatch, delta, svd_calls):
        # Two singleton sets in R^2 with V = I, so C = I and R C = R = D O
        # for D = diag(1, s), s^2 = delta * RISK_CUT: polar(R C) = O, and
        # block k's term is S_kk - 2 (O^T D O)_kk.
        s, t = math.sqrt(delta * RISK_CUT), 0.3
        O = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        D = np.diag([1.0, s])
        S, denoms = np.diag([2.0, 3.0]), np.array([4.0, 5.0])
        pieces = (np.eye(2), D @ O, S, np.array([0, 1]), denoms)
        eye = np.eye(2)
        result = DecompositionResult(
            {IndexSet((1, 2)): OrthonormalBasis(eye[:, :0]),
             IndexSet((1,)): OrthonormalBasis(eye[:, :1]),
             IndexSet((2,)): OrthonormalBasis(eye[:, 1:])}, 0.1, default_ordering(2))
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        risk = _heldout_risk(pieces, result)
        assert len(calls) == svd_calls
        pulled = np.diag(O.T @ D @ O)
        want = np.sum((denoms + np.diag(S) - 2.0 * pulled) / denoms)
        assert risk == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSelectLambda:
    def test_zero_test_block_rejected(self):
        # block 2 is nonzero on the training half, so only the risk sees it
        model = model_preset(6, snr=15.0, n=40, block_size=20)
        data = generate(model, seed=3).dataset()
        test = list(split(data.n, seed=3).test)
        blocks = [X.copy() for X in data.blocks]
        blocks[1][:, test] = 0.0
        assert np.any(blocks[1] != 0.0)
        with pytest.raises(ValueError, match="test block with zero norm"):
            select_lambda(MultiBlockDataset(tuple(blocks)), model.block_ranks(),
                          model.ordering, default_grid(), seed=3)

    def test_singleton_grid(self):
        model = model_preset(2, snr=20.0, n=40, block_size=30)
        truth = generate(model, seed=0)
        lam = np.deg2rad(12.0)
        res = select_lambda(truth.dataset(), model.block_ranks(), model.ordering,
                            [lam], seed=0)
        assert res.lambda_tilde == pytest.approx(lam)
        assert res.lambda_hat == pytest.approx(lam)

    def test_noiseless_dissimilarity_curve_has_zero_plateau(self):
        model = model_preset(5, snr=math.inf, n=60, block_size=50)
        truth = generate(model, seed=2)
        res = select_lambda(truth.dataset(), model.block_ranks(), model.ordering,
                            default_grid(), seed=2)
        zeros = [lam for lam, d in res.dissimilarity_curve if d == 0]
        assert len(zeros) >= 2
        assert structures_equal(res.decomposition_hat.structure, model.structure)

    def test_risk_at_zero_equals_individual_model_risk(self):
        # at lambda = 0 no gate passes, so the training fit is all-individual:
        # refit that model with numpy alone, without identify or estimate_loadings
        for model_id, seed in ((2, 5), (6, 3), (3, 11)):
            model = model_preset(model_id, snr=10.0, n=50, block_size=40)
            data = generate(model, seed=seed).dataset()
            res = select_lambda(data, model.block_ranks(), model.ordering,
                                np.deg2rad([0.0, 30.0]), seed=seed)
            lam0, risk0 = res.risk_curve[0]
            assert lam0 == 0.0

            train, test = split_halves(data, seed)
            loadings, claimed = [None] * data.K, np.zeros((train[0].shape[1], 0))
            for (k,) in (s.members for s in model.ordering if len(s) == 1):
                r = model.block_ranks()[k - 1]
                V = np.linalg.svd(train[k - 1])[2][:r].T
                Zhat = train[k - 1] @ V @ V.T
                U, s, _ = np.linalg.svd(V - claimed @ (claimed.T @ V),
                                        full_matrices=False)
                W_k = U[:, s > 1e-8]
                loadings[k - 1] = Zhat @ W_k
                claimed = np.hstack([claimed, W_k])
            U_stack = scipy.linalg.block_diag(*loadings)
            W_test, _ = procrustes_scores(np.vstack(test), U_stack)
            rows = np.cumsum([0] + [X.shape[0] for X in test])
            expected = empirical_risk(
                test, [U_stack[a:b] for a, b in zip(rows[:-1], rows[1:])], W_test)
            assert risk0 == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("model_id", [3, 6])
    def test_each_structure_builds_its_multiset_once(self, monkeypatch, model_id):
        # dissimilarity and mode_structure read the binary multiset each
        # structure builds once: the training structure's, and one per
        # whole-path interval
        model = model_preset(model_id, snr=15.0, n=60, block_size=40)
        data = generate(model, seed=4).dataset()
        signals = [extract_signal(X, r, check_centering=False)
                   for X, r in zip(data.blocks, model.block_ranks())]
        whole = identify_path(signals, model.ordering, default_grid())
        assert len(whole) > 1
        calls = []
        real = structure.to_binary_multiset
        monkeypatch.setattr(structure, "to_binary_multiset",
                            lambda s: calls.append(s) or real(s))
        results = []
        for seed, most in ((4, 1 + len(whole)), (5, 1)):  # the second reuses the path's
            calls.clear()
            results.append(select_lambda(data, model.block_ranks(), model.ordering,
                                         default_grid(), seed=seed, whole_path=whole))
            assert 0 < len(calls) <= most
        # mode_structure reads the same cache: the structures above build
        # nothing more, and a new one builds once however often it is listed
        calls.clear()
        mode_structure([t.structure_train for t in results]
                       + [res.structure for _, _, res in whole])
        assert calls == []
        fresh = make_structure(3, {(1, 2): 1})
        mode_structure([fresh, fresh, *[t.structure_train for t in results]])
        mode_structure([fresh])
        assert calls == [fresh]

    def test_pickled_result_gives_the_same_decomposition_hat(self):
        # psi tune --threads 2 returns its results through pickle;
        # decomposition_hat runs identify on the whole-data signals it carries
        model = model_preset(6, snr=15.0, n=60, block_size=40)
        data = generate(model, seed=4).dataset()
        serial = select_lambda(data, model.block_ranks(), model.ordering, default_grid(), 4)
        copy = pickle.loads(pickle.dumps(serial))
        assert "decomposition_hat" not in copy.__dict__
        a, b = serial.decomposition_hat, copy.decomposition_hat
        assert a.structure.entries == b.structure.entries == copy.structure_hat.entries
        assert a.angle_threshold == b.angle_threshold == copy.lambda_hat
        assert a.stable_interval == b.stable_interval and a.diagnostics == b.diagnostics
        assert a.stacked_scores()[0].tobytes() == b.stacked_scores()[0].tobytes()

    def test_deterministic(self):
        model = model_preset(3, snr=15.0, n=50, block_size=40)
        truth = generate(model, seed=8)
        grid = np.deg2rad(np.arange(0.0, 40.0, 5.0))
        a = select_lambda(truth.dataset(), model.block_ranks(), model.ordering, grid, seed=1)
        b = select_lambda(truth.dataset(), model.block_ranks(), model.ordering, grid, seed=1)
        assert a.lambda_hat == b.lambda_hat
        assert a.risk_curve == b.risk_curve

    def test_grid_validation(self):
        model = model_preset(1, snr=10.0, n=40, block_size=30)
        truth = generate(model, seed=0)
        data, ranks = truth.dataset(), model.block_ranks()
        with pytest.raises(ValueError):
            select_lambda(data, ranks, model.ordering, [], seed=0)
        with pytest.raises(ValueError):
            select_lambda(data, ranks, model.ordering, [0.3, 0.2], seed=0)
        with pytest.raises(ValueError):
            select_lambda(data, ranks, model.ordering, [0.3, np.pi / 2], seed=0)

    def test_curves_tsv_format(self, tmp_path):
        model = model_preset(2, snr=15.0, n=40, block_size=30)
        truth = generate(model, seed=3)
        grid = np.deg2rad([0.0, 10.0, 20.0])
        res = select_lambda(truth.dataset(), model.block_ranks(), model.ordering,
                            grid, seed=3)
        path = tmp_path / "curves.tsv"
        write_curves_tsv(res, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda_degrees\trisk\tdissimilarity"
        assert len(lines) == 4
        assert lines[1].startswith("0\t")


class TestModeStructure:
    def test_all_identical(self):
        s = make_structure(2, {(1, 2): 1})
        winner, count = mode_structure([s, s, s])
        assert count == 3 and structures_equal(winner, s)

    def test_majority(self):
        a = make_structure(2, {(1, 2): 1})
        b = make_structure(2, {(1,): 1})
        winner, count = mode_structure([a, a, b])
        assert count == 2 and structures_equal(winner, a)

    def test_tie_keeps_first_seen(self):
        a = make_structure(2, {(1, 2): 1})
        b = make_structure(2, {(1,): 1})
        winner, count = mode_structure([b, a, a, b])
        assert count == 2 and structures_equal(winner, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mode_structure([])


@pytest.mark.parametrize("call, error, message", (
    pytest.param(lambda: procrustes_scores(np.ones((5, 3)), np.ones((4, 1))),
                 ValueError, "X_test and U_train must share the stacked row dimension",
                 id="scores-row-mismatch"),
    pytest.param(lambda: procrustes_scores(np.ones((5, 1)), np.eye(5)[:, :2]),
                 ValueError, "more score columns than rows or samples",
                 id="scores-r-above-samples"),
    pytest.param(lambda: empirical_risk([np.ones((2, 3))], [], np.ones((3, 1))),
                 ValueError, "one loading block per test block required",
                 id="risk-without-loadings"),
    pytest.param(lambda: select_lambda(
                     generate(model_preset(6, snr=15.0, n=20, block_size=10), seed=0).dataset(),
                     (2, 2), default_ordering(3), default_grid(), seed=0),
                 ValueError, "expected 3 ranks, got 2", id="ranks-short-of-K"),
))
def test_input_check_rejects(call, error, message):
    assert_rejects(call, error, message)
