# Acceptance suite: one test per criterion, each printing a PASS/FAIL line
# with the measured quantities (run pytest with -s to see every line).

import math
import time

import numpy as np
import pytest
import scipy.linalg

from psidecomp import (
    IndexSet,
    OrthonormalBasis,
    check_absolute_orthogonality,
    check_relative_independence,
    default_grid,
    default_ordering,
    deflate,
    dissimilarity,
    estimate_loadings,
    extract_signal,
    flag_mean_direction,
    generate,
    identify,
    model_preset,
    ordering_from_lists,
    principal_angle,
    select_lambda,
    structures_equal,
)
from psidecomp import test_scores as procrustes_scores
from psidecomp.simgen import run_repetitions

from cases import (
    absolutely_orthogonal_bases,
    dependent_bases,
    independent_bases,
    make_structure,
    non_absolutely_orthogonal_bases,
    signals_of_bases,
)


def report(criterion, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {criterion}: {detail}", flush=True)
    return ok


# ---------------------------------------------------------------------------
# shared heavy batches (25 tuned repetitions per model, default grid)
# ---------------------------------------------------------------------------

SEEDS = {1: 2025100, 2: 2025200, 3: 2025300, 5: 2025500, 6: 2025600}
REPS = 25


@pytest.fixture(scope="session")
def tuned_main_batches():
    batches = {}
    t0 = time.perf_counter()
    for mid in (1, 2, 3):
        model = model_preset(mid, snr=15.0)
        batches[mid] = run_repetitions(model, REPS, seed=SEEDS[mid], threads=1)
    batches["elapsed_s"] = time.perf_counter() - t0
    return batches


@pytest.fixture(scope="session")
def tuned_complex_batches():
    batches = {}
    for mid in (5, 6):
        model = model_preset(mid, snr=15.0)
        batches[mid] = run_repetitions(model, REPS, seed=SEEDS[mid], threads=1)
    return batches


def test_criterion_1_geometry_fixture():
    c30, s30 = np.cos(np.pi / 6), np.sin(np.pi / 6)
    V1 = OrthonormalBasis(np.array([[c30], [0.0], [s30]]))
    V2 = OrthonormalBasis(np.eye(3)[:, :2])

    def run():
        w = flag_mean_direction([V1, V2])
        a1 = principal_angle(w, V1)
        a2 = principal_angle(w, V2)
        left = deflate(V2, w)
        return w, a1, a2, left

    run()  # warm-up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        w, a1, a2, left = run()
        best = min(best, time.perf_counter() - t0)

    expected = np.array([np.cos(np.pi / 12), 0.0, np.sin(np.pi / 12)])
    ok_mean = bool(np.max(np.abs(w.vector - expected)) <= 1e-10)
    ok_angles = abs(a1 - np.pi / 12) <= 1e-10 and abs(a2 - np.pi / 12) <= 1e-10
    ok_deflate = left.r == 1 and np.max(np.abs(np.abs(left.columns[:, 0]) - [0, 1, 0])) <= 1e-10
    ok_time = best < 1e-3
    ok = report(1, ok_mean and ok_angles and ok_deflate and ok_time,
                f"mean err {np.max(np.abs(w.vector - expected)):.1e}, "
                f"angles {np.degrees(a1):.6f}/{np.degrees(a2):.6f} deg, "
                f"deflated to remaining axis: {ok_deflate}, {best * 1e6:.0f} us")
    assert ok


def test_criterion_2_dissimilarity_fixture():
    a = make_structure(3, {(1, 2, 3): 1, (1, 2): 1})
    b = make_structure(3, {(1, 2, 3): 2, (2, 3): 1})
    worked = dissimilarity(a, b)
    identical = dissimilarity(a, a)
    rng = np.random.default_rng(20252)
    symmetric = True
    for _ in range(1000):
        K = int(rng.integers(2, 6))
        ra = {s.members: int(rng.integers(0, 3)) for s in default_ordering(K)}
        rb = {s.members: int(rng.integers(0, 3)) for s in default_ordering(K)}
        x, y = make_structure(K, ra), make_structure(K, rb)
        if dissimilarity(x, y) != dissimilarity(y, x):
            symmetric = False
            break
    ok = report(2, worked == 6 and identical == 0 and symmetric,
                f"worked pair {worked} (want 6), identical {identical}, "
                f"symmetry on 1000 random pairs: {symmetric}")
    assert ok


def test_criterion_3_uniqueness_fixtures():
    indep = check_relative_independence(independent_bases(), default_ordering(3))
    dep = check_relative_independence(dependent_bases(), default_ordering(3))
    ok_classify = indep.relative_independence and not dep.relative_independence

    # rank profiles of the independent fixture agree across the two printed
    # same-size singleton permutations
    ord_a = default_ordering(3)
    ord_b = ordering_from_lists(
        [[1, 2, 3], [1, 2], [1, 3], [2, 3], [2], [1], [3]], 3)
    prof_a = {s.members: r for s, r in
              identify(signals_of_bases(independent_bases()), ord_a, 1e-6).structure.entries}
    prof_b = {s.members: r for s, r in
              identify(signals_of_bases(independent_bases()), ord_b, 1e-6).structure.entries}
    ok_profiles = prof_a == prof_b

    # degenerate fixture reproduces both printed structures
    res_1 = identify(signals_of_bases(dependent_bases()), ord_a, 1e-6)
    want_1 = make_structure(3, {(1, 2, 3): 1, (1,): 1, (2,): 1, (3,): 1})
    ord_c = ordering_from_lists(
        [[1, 2, 3], [1, 2], [1, 3], [2, 3], [3], [2], [1]], 3)
    res_2 = identify(signals_of_bases(dependent_bases()), ord_c, 1e-6)
    want_2 = make_structure(3, {(1, 2, 3): 1, (2,): 1, (3,): 2})
    ok_structures = (structures_equal(res_1.structure, want_1)
                     and structures_equal(res_2.structure, want_2)
                     and res_2.structure.rank_of(IndexSet.of(3)) == 2
                     and res_2.structure.rank_of(IndexSet.of(1)) == 0)

    abs_ok = check_absolute_orthogonality(absolutely_orthogonal_bases(),
                                          default_ordering(4))
    abs_no = check_absolute_orthogonality(non_absolutely_orthogonal_bases(),
                                          default_ordering(4))
    ok_absolute = abs_ok.absolute_orthogonality and not abs_no.absolute_orthogonality

    ok = report(3, ok_classify and ok_profiles and ok_structures and ok_absolute,
                f"independence T/F: {indep.relative_independence}/"
                f"{dep.relative_independence}, profiles agree: {ok_profiles}, "
                f"degenerate structures reproduced: {ok_structures}, "
                f"absolute T/F: {abs_ok.absolute_orthogonality}/"
                f"{abs_no.absolute_orthogonality}")
    assert ok


def test_criterion_4_noiseless_exact_recovery():
    t0 = time.perf_counter()
    failures = []
    for mid in range(1, 7):
        model = model_preset(mid, snr=math.inf)
        for seed in range(10):
            truth = generate(model, 42_000 + seed)
            signals = [extract_signal(X, r, check_centering=False)
                       for X, r in zip(truth.blocks, model.block_ranks())]
            for lam_deg in (5.0, 20.0, 40.0):
                result = identify(signals, model.ordering, np.deg2rad(lam_deg))
                loads = estimate_loadings(signals, result)
                from psidecomp import metric_accuracy, metric_rse
                acc = metric_accuracy(result.structure, model.structure)
                rse = metric_rse(truth, loads, result)
                # overlapping score blocks must have orthogonal bases
                active = [s for s, r in result.structure.entries if r > 0]
                cross = 0.0
                for i, sa in enumerate(active):
                    for sb in active[i + 1:]:
                        if set(sa.members) & set(sb.members):
                            c = result.scores[sa].columns.T @ result.scores[sb].columns
                            cross = max(cross, float(np.max(np.abs(c))))
                # score-subspace reconstruction per block
                proj_err = 0.0
                for k in range(1, 4):
                    true_cols = [truth.scores[s] for s, r in model.structure.entries
                                 if r > 0 and k in s]
                    Vk = np.hstack(true_cols)
                    est_cols = [result.scores[s].columns
                                for s, r in result.structure.entries
                                if r > 0 and k in s]
                    Wk = np.hstack(est_cols) if est_cols else np.zeros((model.n, 0))
                    diff = Wk @ Wk.T - Vk @ Vk.T
                    proj_err = max(proj_err, float(np.linalg.norm(diff)))
                if not (acc == 1 and rse <= 1e-10 and cross <= 1e-8
                        and proj_err <= 1e-8):
                    failures.append((mid, seed, lam_deg, acc, rse, cross, proj_err))
    elapsed = time.perf_counter() - t0
    ok = report(4, not failures and elapsed < 60.0,
                f"6 models x 10 seeds x 3 thresholds, failures: {len(failures)}, "
                f"{elapsed:.1f} s")
    assert ok


def test_criterion_5_structure_recovery_and_loading_angle(tuned_main_batches):
    accs = {mid: 100.0 * np.mean([o.accuracy for o in tuned_main_batches[mid]])
            for mid in (1, 2, 3)}
    theta_u_1 = float(np.mean([o.theta_U for o in tuned_main_batches[1]]))
    elapsed = tuned_main_batches["elapsed_s"]
    ok = report("5 (accuracy + loading angle)",
                all(a >= 90.0 for a in accs.values())
                and 14.5 <= theta_u_1 <= 17.5 and elapsed < 900.0,
                f"accuracy m1/m2/m3 = {accs[1]:.0f}/{accs[2]:.0f}/{accs[3]:.0f} % "
                f"(want >= 90), theta_U(m1) = {theta_u_1:.2f} deg "
                f"(want [14.5, 17.5]), {elapsed:.0f} s")
    assert ok


def test_criterion_5_rse_windows(tuned_main_batches):
    """Mean reconstruction error windows for the three benchmark models.

    The windowed targets presume roughly doubled score-side squared error
    relative to what the implemented reconstruction yields on this generator
    (truncating each block to its rank-2 SVD already floors model 1 at 0.157
    on these inputs); the windows are asserted verbatim regardless.

    The red is not a matter of the noise level. A scan of snr on models 1-3
    (the first 10 of this test's 25 tuned repetitions per model, BLAS at 1
    thread):

        snr    RSE m1  RSE m2  RSE m3  theta_U(m1)
        15     0.159   0.103   0.111   16.0 deg
        12     0.204   0.131   0.141   17.9 deg
        10.5   0.237   0.151   0.164   19.2 deg
        7.5    0.352   0.220   0.266   23.0 deg

    At snr 10.5 all three RSE windows hold, but theta_U(m1) leaves criterion
    5's window [14.5, 17.5]; at snr 12 model 1's RSE is below 0.21 and
    theta_U(m1) above 17.5. No snr meets both halves of criterion 5 on this
    generator, so the windows presume another RSE definition or other
    generator scales, not another snr.
    """
    windows = {1: (0.21, 0.27), 2: (0.10, 0.16), 3: (0.13, 0.19)}
    rses = {mid: float(np.mean([o.rse for o in tuned_main_batches[mid]]))
            for mid in (1, 2, 3)}
    ok_each = {mid: windows[mid][0] <= rses[mid] <= windows[mid][1]
               for mid in (1, 2, 3)}
    ok = report("5 (RSE windows)", all(ok_each.values()),
                f"rse m1 = {rses[1]:.3f} (want [0.21, 0.27]), "
                f"m2 = {rses[2]:.3f} (want [0.10, 0.16]), "
                f"m3 = {rses[3]:.3f} (want [0.13, 0.19])")
    assert ok


def test_criterion_6_complex_models(tuned_complex_batches):
    acc5 = 100.0 * np.mean([o.accuracy for o in tuned_complex_batches[5]])
    acc6 = 100.0 * np.mean([o.accuracy for o in tuned_complex_batches[6]])
    ok = report(6, acc5 >= 90.0 and acc6 >= 85.0,
                f"accuracy m5 = {acc5:.0f} % (want >= 90), "
                f"m6 = {acc6:.0f} % (want >= 85)")
    assert ok


def test_criterion_7_low_snr_degradation(tuned_main_batches):
    model = model_preset(2, snr=5.0)
    low = run_repetitions(model, REPS, seed=SEEDS[2], threads=1)
    acc_low = 100.0 * np.mean([o.accuracy for o in low])
    acc_high = 100.0 * np.mean([o.accuracy for o in tuned_main_batches[2]])
    ok = report(7, acc_low < acc_high,
                f"model 2 accuracy {acc_high:.0f} % at snr 15 vs "
                f"{acc_low:.0f} % at snr 5 over {REPS} paired seeds")
    assert ok


def test_criterion_8_dissimilarity_curve_reaches_zero():
    model = model_preset(2, snr=10.0)
    hits = 0
    runs = 20
    for rep in range(runs):
        truth = generate(model, 2025800 + rep, loading_seed=2025800)
        tuned = select_lambda(truth.dataset(), model.block_ranks(),
                              model.ordering, default_grid(), seed=2025800 + rep)
        d = np.array([v for _, v in tuned.dissimilarity_curve])
        zero = d == 0
        # a nonempty interval: at least two adjacent grid points at zero
        if np.any(zero[:-1] & zero[1:]):
            hits += 1
    ok = report(8, hits >= 0.8 * runs,
                f"zero plateau in {hits}/{runs} runs (want >= {int(0.8 * runs)})")
    assert ok


def test_criterion_9_procrustes_oracle():
    rng = np.random.default_rng(20259)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(10, 40))
        n = int(rng.integers(8, 30))
        r = int(rng.integers(1, min(p, n)))
        X = rng.standard_normal((p, n))
        U = rng.standard_normal((p, r))
        W, _ = procrustes_scores(X, U)
        ours = float(np.sum((X - U @ W.T) ** 2))
        W_oracle, _ = scipy.linalg.polar(X.T @ U)
        best = float(np.sum((X - U @ W_oracle.T) ** 2))
        worst = max(worst, abs(ours - best))
    ok = report(9, worst <= 1e-9,
                f"max objective gap vs polar-decomposition oracle {worst:.2e} "
                f"over 100 instances")
    assert ok


def test_criterion_10_single_run_wall_time():
    model = model_preset(6, snr=15.0)
    truth = generate(model, 77)
    t0 = time.perf_counter()
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(truth.blocks, model.block_ranks())]
    result = identify(signals, model.ordering, np.deg2rad(20))
    estimate_loadings(signals, result)
    elapsed = time.perf_counter() - t0
    ok = report(10, elapsed < 10.0,
                f"model 6 identify + loadings in {elapsed * 1000:.0f} ms "
                f"(budget 10 s, single-threaded)")
    assert ok
