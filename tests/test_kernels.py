"""Gram-side kernels of subspace.py against dense LAPACK oracles.

extract_signal takes its score basis from the top eigenvectors of the Gram
matrix on the block's smaller side, found by Chebyshev-filtered subspace
iteration with a full eigh as fallback; a flag mean comes from one full eigh
of the m x m Gram matrix of the stacked bases, which decides the tie and gives
the direction, and an untied two-block stage of identify takes all its flag
means from one SVD of the pair's cross Gram; deflation writes its Householder
reflector in closed form. Each is checked here against the full SVD, eigh or
QR it replaces. A gate of identify forms each participant's coefficients
B_i^T w once; its angles and deflations must equal the public kernels' bit
for bit.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psidecomp import (
    IndexSet,
    core,
    default_ordering,
    deflate,
    extract_signal,
    flag_mean_direction,
    identify,
    principal_angle,
    sine_distance,
    subspace,
)
from psidecomp.simgen import generate, model_preset, run_once
from psidecomp.subspace import (
    CHEB_DEGREE,
    CHEB_MIN_N,
    CHEB_SEED,
    TIE_RTOL,
    OrthonormalBasis,
    UnitDirection,
    _complement,
    _deflate_cols,
    _fix_sign,
    _flag_mean_refined,
    _pair_stage,
    _pair_svd,
    _right_vectors,
    _scale_shift,
    _sine,
    _top_eigvecs,
    orthonormalize,
)
from psidecomp.tuning import split

from cases import signals_of_bases

SETTINGS = settings(max_examples=60, deadline=None)

# (p, n) shapes: tall (n < p), square and wide (n > p). The smaller side is
# either below 64, where a full eigh runs, or 64-120, where small ranks reach
# the partial eigensolver.
shapes = st.sampled_from(["tall", "square", "wide"]).flatmap(
    lambda kind: st.tuples(st.one_of(st.integers(2, 30), st.integers(64, 120)),
                           st.integers(0, 40)).map(
        lambda t: {"tall": (t[0] + t[1], t[0]),
                   "square": (t[0], t[0]),
                   "wide": (t[0], t[0] + t[1])}[kind]))


@contextmanager
def full_eigh_sizes():
    """Record the order of every np.linalg.eigh call made inside the block."""
    sizes = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", counted)
        yield sizes


@contextmanager
def svd_shapes():
    """Record the shape of every np.linalg.svd input inside the block."""
    shapes = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", counted)
        yield shapes


def assert_orthonormal(V, atol=1e-10):
    assert np.all(np.isfinite(V))
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1])), initial=0.0) <= atol


class TestExtractSignalAgainstSvd:
    @SETTINGS
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_projector_and_residual_match_svd(self, shape, seed, data):
        p, n = shape
        # small ranks too, so that large blocks reach the partial eigensolver
        rank = data.draw(st.one_of(st.integers(1, min(p, n)), st.integers(1, min(p, n, 10))))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-3, 3)
        _, s, Vt = np.linalg.svd(X, full_matrices=False)
        est = extract_signal(X, rank, check_centering=False)
        V = est.score_basis.columns
        assert_orthonormal(V)
        resid = float(np.sum((X - est.zhat) ** 2))
        assert resid == pytest.approx(float(np.sum(s[rank:] ** 2)),
                                      rel=1e-8, abs=1e-24 * s[0] ** 2)
        gap = s[rank - 1] - (s[rank] if rank < s.size else 0.0)
        assume(gap >= 1e-3 * s[0])
        P_oracle = Vt[:rank].T @ Vt[:rank]
        assert np.max(np.abs(V @ V.T - P_oracle)) <= 1e-9

    @SETTINGS
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rank_deficient_blocks_give_orthonormal_finite_bases(self, shape, seed, data):
        p, n = shape
        true_rank = data.draw(st.integers(0, min(p, n) - 1))
        rank = data.draw(st.integers(max(true_rank, 1), min(p, n)))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((p, true_rank)) @ rng.standard_normal((true_rank, n))
        zero_rows = data.draw(st.integers(0, p - 1))
        X[rng.permutation(p)[:zero_rows]] = 0.0
        est = extract_signal(X, rank, check_centering=False)
        assert_orthonormal(est.score_basis.columns)
        assert np.all(np.isfinite(est.zhat))
        scale = max(float(np.max(np.abs(X))), 1.0)
        assert np.max(np.abs(est.zhat - X)) <= 1e-10 * scale

    def test_requested_rank_above_numerical_rank_on_a_wide_block(self):
        X = np.zeros((3, 10))
        X[0] = [1.0] * 5 + [-1.0] * 5
        est = extract_signal(X, 2)
        V = est.score_basis.columns
        assert_orthonormal(V, atol=1e-14)
        assert np.allclose(np.abs(V[:, 0]), np.full(10, 10 ** -0.5), atol=1e-14)
        assert np.max(np.abs(est.zhat - X)) <= 1e-14

    def test_score_basis_is_sign_fixed(self):
        rng = np.random.default_rng(5)
        for shape in ((40, 25), (25, 40)):
            V = extract_signal(rng.standard_normal(shape), 4,
                               check_centering=False).score_basis.columns
            for v in V.T:
                assert np.array_equal(v, _fix_sign(v))


def planted_gram(rng, n, k, gap, scale):
    """Q diag(lam) Q^T with lam_k / lam_{k+1} = gap: the top k eigenvalues in
    [gap, 3 gap], the other n - k in [0, 1] with 1 among them."""
    top = gap * (1.0 + 2.0 * rng.random(k))
    top[0] = gap
    rest = rng.random(n - k)
    rest[0] = 1.0
    return spectral_gram(rng, scale * np.concatenate([top, rest]))


def spectral_gram(rng, lam):
    """A symmetric matrix with eigenvalues lam and random eigenvectors."""
    Q = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))[0]
    G = (Q * lam) @ Q.T
    return (G + G.T) / 2.0


def assert_matches_eigh(G, k, theta, U):
    vals, vecs = np.linalg.eigh(G)
    top = vecs[:, ::-1][:, :k]
    assert U.shape == (G.shape[0], k)
    assert_orthonormal(U)
    assert np.max(np.abs(U @ U.T - top @ top.T)) <= 1e-10
    assert np.allclose(theta, vals[::-1][:k], rtol=1e-10, atol=0.0)


class TestPartialEigensolver:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 250), k=st.integers(1, 12),
           gap=st.floats(1.05, 3.0), log_scale=st.floats(-3.0, 3.0))
    def test_matches_eigh_on_planted_spectra(self, seed, n, k, gap, log_scale):
        assume(k < n)
        G = planted_gram(np.random.default_rng(seed), n, k, gap, 10.0 ** log_scale)
        theta, U = _top_eigvecs(G, k)
        assert_matches_eigh(G, k, theta, U)

    def test_planted_spectra_take_the_partial_path(self):
        # without this, an eigensolver that always falls back passes the test above
        rng = np.random.default_rng(7)
        for n, k, gap in ((64, 1, 1.05), (100, 4, 1.2), (200, 8, 1.4), (250, 12, 3.0)):
            G = planted_gram(rng, n, k, gap, 1e3)
            with full_eigh_sizes() as sizes:
                theta, U = _top_eigvecs(G, k)
            assert sizes and n not in sizes
            assert_matches_eigh(G, k, theta, U)

    @pytest.mark.parametrize("rank", [5, 6, 8])
    def test_exact_rank_gram_keeps_its_ritz_pairs(self, rank):
        # rank k < r <= m (k = 4, block size 8): the first Rayleigh-Ritz step
        # holds range(G), so its residuals pass at once and the gap at k
        # vouches for the pairs
        rng = np.random.default_rng(11)
        n, k = 120, 4
        A = rng.standard_normal((n, rank))
        G = A @ A.T
        with full_eigh_sizes() as sizes:
            theta, U = _top_eigvecs(G, k)
        assert sizes and n not in sizes
        assert_matches_eigh(G, k, theta, U)

    def test_noiseless_tuned_fit_runs_no_large_eigh(self):
        # every Gram of an exact-rank fit, whole data and training halves,
        # keeps its Ritz pairs
        with full_eigh_sizes() as sizes:
            outcome = run_once(model_preset(6), 1000)
        assert sizes and max(sizes) < CHEB_MIN_N
        assert outcome.accuracy == 1

    @pytest.mark.parametrize("case", ["rank_below_k", "zero", "tied", "block_not_below_n"])
    def test_falls_back_to_full_eigh(self, case):
        rng = np.random.default_rng(11)
        n, k = 120, 4
        if case == "rank_below_k":  # rank 3: theta_k = theta_{k+1} = 0, no gap
            A = rng.standard_normal((n, 3))
            G = A @ A.T
        elif case == "zero":
            G = np.zeros((n, n))
        elif case == "tied":  # lam_k = lam_{k+1}, the rest far below
            G = spectral_gram(rng, np.concatenate([[3.0, 2.5, 2.0, 1.0, 1.0],
                                                   0.3 * rng.random(n - 5)]))
        else:  # block size 24 >= n
            n, k = 20, 12
            G = planted_gram(rng, n, k, 2.0, 1.0)
        assert n >= CHEB_MIN_N or case == "block_not_below_n"
        with full_eigh_sizes() as sizes:
            theta, U = _top_eigvecs(G, k)
        assert sizes[-1] == n
        vals, vecs = np.linalg.eigh(G)
        assert np.array_equal(theta, vals[::-1][:k])
        assert np.array_equal(U, vecs[:, ::-1][:, :k])
        assert_orthonormal(U)

    @pytest.mark.parametrize("n", [100, 200])
    def test_gapless_spectrum_falls_back_within_one_sweep(self, n):
        # lam_8 / lam_9 = 1.005 and a flat tail: the filter would need about
        # 25 sweeps, which the first Ritz values already show
        rng = np.random.default_rng(13)
        k = 8
        tail = (1.0 - 1e-3 * rng.random(n - k)) / 1.005
        G = spectral_gram(rng, np.concatenate([np.linspace(3.0, 2.0, k - 1), [1.0], tail]))
        sweeps = []
        real = subspace._chebyshev_filter
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subspace, "_chebyshev_filter",
                       lambda *args: sweeps.append(1) or real(*args))
            with full_eigh_sizes() as sizes:
                theta, U = _top_eigvecs(G, k)
        assert len(sweeps) <= 1
        assert sizes[-1] == n
        assert_matches_eigh(G, k, theta, U)

    @pytest.mark.parametrize("view", ["whole", "half", "half transposed"])
    def test_model_6_signals_use_no_full_eigh(self, view):
        # 200 x 200 blocks, their 200 x 100 training halves, and those halves
        # transposed to 100 x 200, which take the wide side's X^T u / s map
        model = model_preset(6, snr=15, n=200, block_size=200)
        blocks = generate(model, 2000).blocks
        if view != "whole":
            train = list(split(200, 0).train)
            blocks = [X[:, train] for X in blocks]
        if view == "half transposed":
            blocks = [X.T for X in blocks]
        for X, r in zip(blocks, model.block_ranks()):
            with full_eigh_sizes() as sizes:
                V = extract_signal(X, r, check_centering=False).score_basis.columns
            assert sizes and min(X.shape) not in sizes
            Vt = np.linalg.svd(X, full_matrices=False)[2][:r]
            assert np.max(np.abs(V @ V.T - Vt.T @ Vt)) <= 1e-10


def chebyshev_expression(G, Y, GY, b, a0):
    """_chebyshev_filter's recurrence written as expressions, with a new
    array for every step."""
    e = c = b / 2.0
    sigma = e / (a0 - c)
    tau = 2.0 / sigma
    prev, cur = Y, (GY - c * Y) * (sigma / e)
    for _ in range(1, CHEB_DEGREE):
        sigma_next = 1.0 / (tau - sigma)
        nxt = (G @ cur - c * cur) * (2.0 * sigma_next / e) - (sigma * sigma_next) * prev
        prev, cur, sigma = cur, nxt, sigma_next
    return cur


class TestEigensolverBuffers:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(64, 200), m=st.integers(6, 16))
    def test_in_place_filter_is_bit_equal_to_the_expression_form(self, seed, n, m):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n // 2))
        G = A @ A.T
        Y = np.linalg.qr(rng.standard_normal((n, m)))[0]
        GY = G @ Y
        theta = np.linalg.eigvalsh(Y.T @ GY)  # ascending: the Ritz values b, a0
        inputs = [a.tobytes() for a in (G, Y, GY)]
        got = subspace._chebyshev_filter(G, Y, GY, theta[0], theta[-1])
        assert got.tobytes() == chebyshev_expression(G, Y, GY, theta[0], theta[-1]).tobytes()
        assert [a.tobytes() for a in (G, Y, GY)] == inputs

    def test_start_block_is_drawn_once_and_read_only(self):
        block = subspace._start_block(100, 8)
        assert subspace._start_block(100, 8) is block
        assert not block.flags.writeable
        fresh = np.random.default_rng(CHEB_SEED).standard_normal((100, 8))
        assert block.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            block[0, 0] = 0.0


def qr_deflation(cols, w):
    c = cols.T @ w
    Q, _ = np.linalg.qr((c / np.linalg.norm(c)).reshape(-1, 1), mode="complete")
    return cols @ Q[:, 1:]


class TestClosedFormDeflation:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 6), extra=st.integers(0, 8))
    def test_matches_complete_qr(self, seed, r, extra):
        rng = np.random.default_rng(seed)
        cols = orthonormalize(rng.standard_normal((r + extra + 1, r))).columns
        w = rng.standard_normal(cols.shape[0])
        assume(np.linalg.norm(cols.T @ w) > 1e-6)
        out = _deflate_cols(cols, w)
        assert out.shape == (cols.shape[0], r - 1)
        assert np.max(np.abs(out - qr_deflation(cols, w)), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("c", [
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 0.6, -0.8],
        [0.0, 0.0, 2.0],
        [1e-300, 1.0, 0.0],
        [-3.0, 4.0, 0.0],
        [5.0],
        [-5.0],
    ])
    def test_edge_coefficients(self, c):
        c = np.array(c)
        rng = np.random.default_rng(43)
        cols = orthonormalize(rng.standard_normal((7, c.size))).columns
        w = cols @ c + 0.3 * (np.eye(7)[:, 6] - cols @ cols[6])  # off-span part
        out = _deflate_cols(cols, w)
        assert np.max(np.abs(out - qr_deflation(cols, w)), initial=0.0) <= 1e-14
        assert_orthonormal(out, atol=1e-14)
        assert np.max(np.abs(out.T @ w), initial=0.0) <= 1e-14


def two_eigh_flag_mean(blocks):
    """Reference flag mean that solves the m x m Gram of H = hstack(blocks)
    twice: once for the singular values that decide the tie, and once more
    for the top tied vectors, mapped to H u / s with a QR where that division
    is not orthonormal to 1e-14. The tie refinement is the library's."""
    H = np.hstack(blocks)
    s = np.sqrt(np.maximum(np.linalg.eigh(H.T @ H)[0][::-1], 0.0))
    tied = int(np.sum(s >= s[0] * (1.0 - TIE_RTOL)))
    U = np.linalg.eigh(H.T @ H)[1][:, ::-1][:, :tied]
    T = H @ U / s[:tied]
    if np.max(np.abs(T.T @ T - np.eye(tied))) > 1e-14:
        T = np.linalg.qr(H @ U)[0]
    for cols in blocks:
        if T.shape[1] == 1:
            break
        G = T.T @ cols
        vals, vecs = np.linalg.eigh(G @ G.T)
        T = T @ vecs[:, vals >= vals[-1] - 1e-9]
    return _fix_sign(T[:, 0]), tied > 1


def tied_blocks(rng, n, shared, extras):
    """Bases that all contain one shared subspace of dimension ``shared``
    (plus ``extras[i]`` random directions each), so the top singular value of
    their stack is repeated ``shared`` times; with shared = 1 and no extras,
    mutually orthogonal lines, whose tie the refinement must break."""
    if shared == 1 and not any(extras):
        Q = orthonormalize(rng.standard_normal((n, len(extras)))).columns
        return [Q[:, i:i + 1] for i in range(len(extras))]
    S = orthonormalize(rng.standard_normal((n, shared))).columns
    return [orthonormalize(np.hstack([S, rng.standard_normal((n, e))])).columns
            for e in extras]


class TestGramFlagMean:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 200),
           ranks=st.lists(st.integers(1, 8), min_size=2, max_size=4))
    def test_matches_svd_top_vector(self, seed, n, ranks):
        assume(max(ranks) <= n)
        rng = np.random.default_rng(seed)
        blocks = [orthonormalize(rng.standard_normal((n, r))).columns for r in ranks]
        U, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
        assume(s.size == 1 or s[1] < s[0] * (1 - 1e-3))
        w, degenerate = _flag_mean_refined(blocks)
        assert not degenerate
        oracle = _fix_sign(U[:, 0])
        assert np.max(np.abs(w - oracle)) <= 1e-9
        public = flag_mean_direction([OrthonormalBasis(b) for b in blocks]).vector
        assert np.max(np.abs(public - oracle)) <= 1e-9

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 200),
           shared=st.integers(1, 3), extras=st.lists(st.integers(0, 4), min_size=2, max_size=3))
    def test_tie_branch_matches_two_eigh_route(self, seed, n, shared, extras):
        assume(shared + max(extras) <= n)
        blocks = tied_blocks(np.random.default_rng(seed), n, shared, extras)
        w, degenerate = _flag_mean_refined(blocks)
        oracle, oracle_degenerate = two_eigh_flag_mean(blocks)
        assert degenerate == oracle_degenerate
        assert np.max(np.abs(w - oracle)) <= 1e-12
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12

    def test_tied_inputs_take_the_tie_branch_with_one_eigh(self):
        rng = np.random.default_rng(5)
        for shared, extras in [(2, [2, 3]), (3, [0, 4, 1]), (2, [1, 1, 1])]:
            blocks = tied_blocks(rng, 60, shared, extras)
            m = sum(b.shape[1] for b in blocks)
            with full_eigh_sizes() as sizes:
                w, degenerate = _flag_mean_refined(blocks)
            assert degenerate
            # one eigh of the m x m Gram, then the refinement's shared x shared ones
            assert sizes[0] == m
            assert all(k == shared for k in sizes[1:])
            assert all(_sine(b, w, b.T @ w) <= 1e-12 for b in blocks)  # w is shared


def planted_pair(rng, n, r1, r2, sig):
    """Bases of ranks r1 and r2 in R^n (n >= r1 + r2) whose cross Gram has
    singular values sig (descending, min(r1, r2) of them), each turned by a
    random rotation of its columns, and their flag mean (p_1 + q_1) / ||.||
    from the planted first pair of principal vectors."""
    Q = np.linalg.qr(rng.standard_normal((n, r1 + r2)))[0]
    c = np.zeros(r2)
    c[:len(sig)] = sig
    P = np.zeros((n, r2))
    P[:, :len(sig)] = Q[:, :len(sig)]
    V = P * c + Q[:, r1:] * np.sqrt(1.0 - c * c)  # B2's principal vectors
    B1 = Q[:, :r1] @ np.linalg.qr(rng.standard_normal((r1, r1)))[0]
    B2 = V @ np.linalg.qr(rng.standard_normal((r2, r2)))[0]
    w = Q[:, 0] + V[:, 0]
    return B1, B2, _fix_sign(w / np.linalg.norm(w))


def pair_eigenvalue_gap(r1, r2, sig):
    """The top eigenvalue of H^T H, H = [B1 B2], less the next one: the
    eigenvalues are 1 +- sig and 1 repeated |r1 - r2| times."""
    rest = [1.0 + s for s in sig[1:]] + [1.0 - sig[0]] + [1.0] * (r1 != r2)
    return 1.0 + sig[0] - max(rest)


class TestPairFlagMean:
    """The flag mean of two blocks is the planted bisector of their first
    principal pair, and an untied pair stage of identify takes it from one
    SVD of the cross Gram B1^T B2, with no flag mean."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r1=st.integers(1, 6), r2=st.integers(1, 6),
           extra=st.integers(0, 40), kind=st.sampled_from(["generic", "near_orthogonal", "tied"]),
           data=st.data())
    def test_matches_two_eigh_route(self, seed, r1, r2, extra, kind, data):
        rng = np.random.default_rng(seed)
        k = min(r1, r2)
        top = data.draw({"generic": st.floats(0.05, 1.0),
                         "near_orthogonal": st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e),
                         "tied": st.floats(0.0, 1.0)}[kind])
        sig = np.concatenate([[top], top * np.sort(rng.uniform(0.0, 1.0 - 1e-3, k - 1))[::-1]])
        if kind == "tied":  # a repeated top value, or orthogonal lines at k = 1
            sig[:2] = top if k > 1 else 1e-8 * top
        gap = pair_eigenvalue_gap(r1, r2, sig)
        # keep away from the tie cut, where the two routes' roundings may differ
        cut = 1.0 - math.sqrt((1.0 + sig[0] - gap) / (1.0 + sig[0]))
        assume(abs(cut - TIE_RTOL) > 1e-9)
        B1, B2, planted = planted_pair(rng, r1 + r2 + extra, r1, r2, sig)
        w, degenerate = _flag_mean_refined([B1, B2])
        oracle, oracle_degenerate = two_eigh_flag_mean([B1, B2])
        assert degenerate == oracle_degenerate == (cut < TIE_RTOL)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-14
        if degenerate:  # the full Gram's route, unchanged
            assert np.max(np.abs(w - oracle)) <= 1e-12
        else:  # both carry the rounding of a top eigenvector, 1e-16 / gap
            tol = 1e-13 + 1e-15 / gap
            assert np.max(np.abs(w - oracle)) <= tol
            assert np.max(np.abs(w - planted)) <= tol
            assert np.array_equal(w, _fix_sign(w))

    @pytest.mark.parametrize("r1, r2", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 2), (8, 8)])
    def test_untied_pair_runs_one_small_eigh(self, r1, r2):
        # the pair stage's SVD of B1^T B2, smaller rank first, is the only
        # decomposition: no eigh and no flag mean runs
        rng = np.random.default_rng(17)
        blocks = [orthonormalize(rng.standard_normal((40, r))).columns for r in (r1, r2)]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            real = core._flag_mean_refined
            mp.setattr(core, "_flag_mean_refined", lambda *a: calls.append(a) or real(*a))
            with full_eigh_sizes() as sizes, svd_shapes() as shapes:
                result = identify(signals_of_bases([OrthonormalBasis(b) for b in blocks]),
                                  default_ordering(2), 1.5)
        assert shapes == [(min(r1, r2), max(r1, r2))] and calls == [] and sizes == []
        assert not any(rec.degenerate for rec in result.diagnostics)
        oracle, _ = two_eigh_flag_mean(blocks)
        w = result.scores[IndexSet((1, 2))].columns[:, 0]
        assert np.max(np.abs(w - oracle)) <= 1e-12


# TIE_RTOL's value, written out: the inputs below must not move with it.
TIE_CUT = 1e-6


def near_tie(rng, blocks, delta):
    """Bases whose stack H has s_2 / s_1 = 1 - delta * TIE_CUT: two of ranks
    2 and 2, or 1 and 2 (the cross-Gram route), or three lines (the full
    Gram's route)."""
    ratio = (1.0 - delta * TIE_CUT) ** 2  # of the top two eigenvalues of H^T H
    if blocks == (2, 2):  # eigenvalues 1 + sig_1 and 1 + sig_2
        return list(planted_pair(rng, 8, 2, 2, [0.5, 1.5 * ratio - 1.0])[:2])
    # lines at cosine a and one orthogonal to both: eigenvalues 1 + a and 1
    a = 1.0 / ratio - 1.0
    Q = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    lines = [Q[:, :1], a * Q[:, :1] + math.sqrt(1.0 - a * a) * Q[:, 1:2], Q[:, 2:]]
    return [lines[0], np.hstack(lines[1:])] if blocks == (1, 2) else lines


class TestTieCut:
    """The top two singular values of the stack just inside TIE_RTOL of each
    other tie, and just outside they do not, for the flag mean and for a
    pair stage of identify."""

    @pytest.mark.parametrize("blocks", [(2, 2), (1, 2), (1, 1, 1)])
    @pytest.mark.parametrize("delta, tied", [(0.5, True), (1.5, False)])
    def test_degenerate_flips_at_the_cut(self, blocks, delta, tied):
        inputs = near_tie(np.random.default_rng(23), blocks, delta)
        assert [b.shape[1] for b in inputs] == list(blocks)
        s = np.linalg.svd(np.hstack(inputs), compute_uv=False)
        assert s[1] / s[0] == pytest.approx(1.0 - delta * TIE_CUT, abs=1e-3 * TIE_CUT)
        with full_eigh_sizes() as sizes:
            degenerate = _flag_mean_refined(inputs)[1]
        assert degenerate == tied
        assert sizes[0] == sum(blocks)  # one eigh of the full Gram settles it
        if len(blocks) == 2:  # a tied pair stage falls back to the flag mean
            assert (_pair_stage(_pair_svd(*inputs), 1.5) is None) == tied


# TIE_REFINE_ATOL's value, written out: the inputs below must not move with it.
REFINE_CUT = 1e-9


class TestTieRefineCut:
    """A tied flag mean keeps, against each block in turn, the tied
    directions whose squared cosine to it is within REFINE_CUT of the best."""

    @pytest.mark.parametrize("delta, kept_both", [(0.5, True), (2.0, False)])
    def test_narrowing_at_the_cut(self, delta, kept_both):
        # B_1 = [e1, c e2 + s e3] and B_2 = [e1, c e2 - s e3], s^2 = delta *
        # REFINE_CUT: the stack's top two singular values 2 and 2 c^2 tie, and
        # span(e1, e2) has squared cosines 1 and c^2 to each block. Narrowed,
        # the flag mean is e1; kept whole, it is the last eigenvector of the
        # refinement, e2.
        s = math.sqrt(delta * REFINE_CUT)
        c = math.sqrt(1.0 - s * s)
        eye = np.eye(5)
        blocks = [np.column_stack([eye[0], c * eye[1] + sign * s * eye[2]]) for sign in (1, -1)]
        w, degenerate = _flag_mean_refined(blocks)
        assert degenerate
        np.testing.assert_allclose(np.abs(w), eye[1] if kept_both else eye[0], atol=1e-6)


# CHEB_GAP_RTOL's, CHEB_NULL_RTOL's and CHEB_RES_RTOL's values, written out:
# the inputs below must not move with them.
GAP_CUT, NULL_CUT, RES_CUT = 1e-3, 1e-12, 1e-13


def first_ritz_values(G, k):
    """The Ritz values of _top_eigvecs's first Rayleigh-Ritz step, descending."""
    m = k + max(k, 4)
    Y = np.linalg.qr(G @ subspace._start_block(G.shape[0], m))[0]
    return np.linalg.eigvalsh(Y.T @ G @ Y)[::-1]


def first_residual(G, k):
    """max ||G y - theta y|| / theta_1 over the wanted Ritz pairs of
    _top_eigvecs's first Rayleigh-Ritz step."""
    m = k + max(k, 4)
    Y = np.linalg.qr(G @ subspace._start_block(G.shape[0], m))[0]
    theta, Z = np.linalg.eigh(Y.T @ G @ Y)
    Y = Y @ Z[:, ::-1][:, :k]
    R = G @ Y - Y * theta[::-1][:k]
    return math.sqrt(np.max(np.sum(R * R, axis=0))) / theta[-1]


class TestEigensolverCuts:
    """A converged block is kept only with a gap at k above GAP_CUT * theta_1,
    and an unconverged one is filtered only with theta_m above NULL_CUT *
    theta_1; just across either cut a full eigh runs."""

    @pytest.mark.parametrize("delta, falls_back", [(0.5, True), (2.0, False)])
    def test_gap_at_k(self, delta, falls_back):
        # theta_k - theta_{k+1} = delta * GAP_CUT * theta_1, the rest of the
        # block well above a tail at <= 0.1, so the residuals converge
        rng = np.random.default_rng(29)
        n, k = 120, 4
        G = spectral_gram(rng, np.concatenate([[1.0, 0.9, 0.8, 0.7, 0.7 - delta * GAP_CUT],
                                               [0.6, 0.5, 0.4], 0.1 * rng.random(n - 8)]))
        with full_eigh_sizes() as sizes:
            theta, U = _top_eigvecs(G, k)
        assert (n in sizes) == falls_back
        assert_matches_eigh(G, k, theta, U)

    @pytest.mark.parametrize("tail, ratio, falls_back", [(7e-13, 0.5, True), (2.8e-12, 2.0, False)])
    def test_null_level(self, tail, ratio, falls_back):
        # rank 6 below the block size 8, plus a tail that sets theta_m and
        # keeps the first step's residuals from passing; at or below the cut
        # the filter's interval [0, theta_m] counts as empty
        rng = np.random.default_rng(31)
        n, k = 120, 4
        G = spectral_gram(rng, np.concatenate([[1.0, 0.8, 0.6, 0.4, 0.3, 0.2],
                                               tail * rng.random(n - 6)]))
        theta = first_ritz_values(G, k)
        assert theta[-1] / theta[0] == pytest.approx(ratio * NULL_CUT, rel=0.05)
        sweeps = []
        real = subspace._chebyshev_filter
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subspace, "_chebyshev_filter",
                       lambda *args: sweeps.append(1) or real(*args))
            with full_eigh_sizes() as sizes:
                theta, U = _top_eigvecs(G, k)
        assert (n in sizes) == falls_back
        assert len(sweeps) == (0 if falls_back else 1)
        assert_matches_eigh(G, k, theta, U)


    @pytest.mark.parametrize("delta, sweeps", [(0.5, 0), (2.0, 1)])
    def test_residual_stop(self, delta, sweeps):
        # eight eigenvalues 1 to 0.3 above a tail whose size sets the first
        # step's residual, in proportion, to delta * RES_CUT * theta_1: at or
        # below the cut that step stops, above it one filter sweep runs
        def gram(tail):
            rng = np.random.default_rng(41)
            return spectral_gram(rng, np.concatenate([np.linspace(1.0, 0.3, 8),
                                                      tail * rng.random(112)]))
        n, k = 120, 4
        per_tail = first_residual(gram(1e-10), k) / 1e-10
        G = gram(delta * RES_CUT / per_tail)
        assert first_residual(G, k) == pytest.approx(delta * RES_CUT, rel=0.05)
        calls = []
        real = subspace._chebyshev_filter
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subspace, "_chebyshev_filter",
                       lambda *args: calls.append(1) or real(*args))
            with full_eigh_sizes() as sizes:
                theta, U = _top_eigvecs(G, k)
        assert n not in sizes and len(calls) == sweeps
        assert_matches_eigh(G, k, theta, U)


# REPROJECT_TOL's value, written out: the inputs below must not move with it.
REPROJECT_CUT = 1e-2


class TestReprojectCut:
    """_complement projects its kept directions once more off every claimed
    direction when it keeps one below REPROJECT_CUT, and only then."""

    @pytest.mark.parametrize("delta, passes", [(0.5, 1), (2.0, 0)])
    def test_second_pass_at_the_cut(self, delta, passes):
        # a line at sine s = delta * REPROJECT_CUT to the claimed e_1 keeps
        # the direction e_2 at singular value s
        s = delta * REPROJECT_CUT
        eye = np.eye(3)
        cols = (math.sqrt(1.0 - s * s) * eye[:, 0] + s * eye[:, 1])[:, None]
        calls = []

        def claimed():
            calls.append(1)
            return eye[:, :1]

        kept = _complement(cols, eye[:, :1], claimed)
        assert len(calls) == passes
        np.testing.assert_allclose(np.abs(kept[:, 0]), eye[:, 1], rtol=0.0, atol=1e-12)


# COMPLEMENT_TOL's value, written out: the inputs below must not move with it.
COMPLEMENT_CUT = 1e-8


class TestComplementCut:
    """_complement drops a direction whose singular value off the claimed
    span is at most COMPLEMENT_CUT, and keeps one above it."""

    def test_one_direction_kept_one_dropped(self):
        # lines at sines 0.5 and 2 cuts to the claimed plane span(e_1, e_2)
        eye = np.eye(4)
        s = np.array([0.5, 2.0]) * COMPLEMENT_CUT
        cols = eye[:, :2] * np.sqrt(1.0 - s * s) + eye[:, 2:] * s
        kept = _complement(cols, eye[:, :2])
        assert kept.shape == (4, 1)
        np.testing.assert_allclose(np.abs(kept[:, 0]), eye[:, 3], rtol=0.0, atol=1e-12)


# DIVISION_TOL's value, written out: the inputs below must not move with it.
DIVISION_CUT = 1e-14


class TestDivisionCut:
    """_right_vectors keeps V = X^T U / s while max |V^T V - I| is at most
    DIVISION_CUT, and takes a QR of X^T U above it."""

    @pytest.mark.parametrize("delta, qr_calls", [(0.5, 0), (2.0, 1)])
    def test_qr_at_the_cut(self, monkeypatch, delta, qr_calls):
        # V = [e_1, d e_1 + sqrt(1 - d^2) e_2] with d = delta * DIVISION_CUT
        d = delta * DIVISION_CUT
        B = np.zeros((6, 2))
        B[0, 0], B[0, 1], B[1, 1] = 1.0, d, math.sqrt(1.0 - d * d)
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
        V = _right_vectors(B.T, np.ones(2), np.eye(2))
        assert len(calls) == qr_calls
        assert np.max(np.abs(V.T @ V - np.eye(2))) <= (d if qr_calls == 0 else 1e-15)


# SCALE_EXP_BAND's value, written out: the inputs below must not move with it.
SCALE_CUT = 100


class TestScaleBand:
    """A matrix whose largest entry has a binary exponent within SCALE_CUT of
    0 is used as given; one beyond it is scaled into [0.5, 1)."""

    @pytest.mark.parametrize("e", [SCALE_CUT // 2, -SCALE_CUT // 2, 2 * SCALE_CUT,
                                   -2 * SCALE_CUT])
    def test_shift_at_the_band(self, e):
        X = np.ldexp(np.random.default_rng(2).uniform(0.25, 0.5, (4, 3)), e)
        X[0, 0] = -np.ldexp(0.75, e)  # the largest magnitude may be negative
        shift = _scale_shift(X)
        assert shift == (0 if abs(e) <= SCALE_CUT else -e)
        if shift:
            assert np.abs(np.ldexp(X, shift)).max() == 0.75

    def test_all_zero(self):
        assert _scale_shift(np.zeros((3, 2))) == 0


class TestPairStageKernel:
    """_pair_stage's bisectors and angles are the flag means and angles of
    the public kernels, taken in turn and each deflated from both bases."""

    @pytest.mark.parametrize("ranks", [(3, 5), (5, 3), (4, 4), (1, 6)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_per_direction_stage(self, ranks, seed):
        rng = np.random.default_rng(seed)
        bases = [orthonormalize(rng.standard_normal((30, r))) for r in ranks]
        stage = _pair_stage(_pair_svd(bases[0].columns, bases[1].columns), 1.5)
        assert stage is not None
        W, angles, B1, B2, stop = stage
        m = min(ranks)
        assert W.shape == (30, m) and stop is None
        flag_means, replayed, current = [], [], bases
        for _ in range(m):
            w = flag_mean_direction(current)
            flag_means.append(w.vector)
            replayed.append([principal_angle(w, B) for B in current])
            current = [deflate(B, w) for B in current]
        np.testing.assert_allclose(W, np.column_stack(flag_means), rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(replayed, [(a, a) for a in angles], rtol=0.0, atol=1e-12)
        # the bases left span what the deflations leave; they are orthonormal,
        # orthogonal to W, and inside the inputs
        for B, left, peeled in zip(bases, (B1, B2), current):
            np.testing.assert_allclose(left @ left.T, peeled.projector(), rtol=0.0, atol=1e-10)
            assert left.shape == (30, B.r - m)
            np.testing.assert_allclose(left.T @ left, np.eye(B.r - m), atol=1e-14)
            assert np.all(np.abs(W.T @ left) <= 1e-14)
            np.testing.assert_allclose(B.columns @ (B.columns.T @ left), left, atol=1e-14)

    def test_stops_at_the_first_rejected_candidate(self):
        rng = np.random.default_rng(3)
        B1, B2 = (orthonormalize(rng.standard_normal((30, 4))).columns for _ in range(2))
        svd = _pair_svd(B1, B2)  # one SVD serves both thresholds
        _, angles, _, _, _ = _pair_stage(svd, 1.5)
        lam = 0.5 * (angles[1] + angles[2])
        W, accepted, left1, left2, stop = _pair_stage(svd, lam)
        assert W.shape[1] == 2 and accepted == angles[:2] and left1.shape[1] == 2
        assert accepted[-1] < lam <= stop == angles[2]


class TestPairSvd:
    """_pair_svd is one SVD taken with the smaller rank first, its principal
    pairs handed back in block order."""

    @pytest.mark.parametrize("ranks", [(3, 5), (1, 6), (2, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_exchanging_the_bases_exchanges_the_sides(self, ranks, seed):
        rng = np.random.default_rng(seed)
        B1, B2 = (orthonormalize(rng.standard_normal((20, r))).columns for r in ranks)
        U, V, sig, angles = _pair_svd(B1, B2)
        V2, U2, sig2, angles2 = _pair_svd(B2, B1)
        assert U.shape == (20, ranks[0]) and V.shape == (20, ranks[1])
        for a, b in ((U, U2), (V, V2), (sig, sig2), (angles, angles2)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("ranks", [(3, 5), (5, 3), (4, 4)])
    def test_pairs_are_principal_vectors_of_each_basis(self, ranks):
        rng = np.random.default_rng(7)
        B1, B2 = (orthonormalize(rng.standard_normal((20, r))).columns for r in ranks)
        U, V, sig, _ = _pair_svd(B1, B2)
        m = min(ranks)
        np.testing.assert_allclose(sig, np.linalg.svd(B1.T @ B2, compute_uv=False),
                                   rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(np.sum(U[:, :m] * V[:, :m], axis=0), sig, atol=1e-14)
        for B, P in ((B1, U), (B2, V)):
            np.testing.assert_allclose(P @ P.T, B @ B.T, rtol=0.0, atol=1e-14)


class TestGateSharesCoefficients:
    """A gate forms c_i = B_i^T w once and uses it for the angle, the
    nothing-to-peel test and the deflation; each use must equal the public
    kernel that forms c_i itself, bit for bit."""

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200), r=st.integers(1, 8))
    def test_kernels_with_shared_coefficients(self, seed, n, r):
        assume(r <= n)
        rng = np.random.default_rng(seed)
        B = orthonormalize(rng.standard_normal((n, r)))
        w = UnitDirection(rng.standard_normal(n))
        cols, v = B.columns, w.vector
        c = cols.T @ v
        assert _sine(cols, v, c) == sine_distance(w, B)
        assert np.arcsin([_sine(cols, v, c)]).tolist()[0] == principal_angle(w, B)
        assume(np.linalg.norm(c) > 1e-12)
        shared = _deflate_cols(cols, v, c)
        assert shared.tobytes() == deflate(B, w).columns.tobytes()
        assert shared.tobytes() == _deflate_cols(cols, v).tobytes()

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 200),
           ranks=st.tuples(st.integers(2, 8), st.integers(2, 8), st.integers(2, 8)))
    def test_gate_angles_equal_public_geometry(self, seed, n, ranks):
        rng = np.random.default_rng(seed)
        bases = [orthonormalize(rng.standard_normal((n, r))) for r in ranks]
        result = identify(signals_of_bases(bases), default_ordering(3), 1.5)
        records = [rec for rec in result.diagnostics if len(rec.index_set) == 3]
        assume(records)
        # Replay the three-block stage, which runs one flag mean per
        # candidate, with the public kernels: flag mean, angles, deflation of
        # every basis.
        current = bases
        for rec in records:
            w = flag_mean_direction(current)
            assert rec.angles == tuple(principal_angle(w, B) for B in current)
            current = [deflate(B, w) for B in current]
            if min(B.r for B in current) == 0:
                break


class TestOverlapReadsZero:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 200),
           shared=st.integers(1, 3), extras=st.tuples(st.integers(1, 3), st.integers(1, 3)))
    def test_shared_directions_pass_a_tiny_threshold(self, seed, n, shared, extras):
        assume(shared + sum(extras) <= n)  # no intersection beyond the shared part
        blocks = tied_blocks(np.random.default_rng(seed), n, shared, list(extras))
        bases = [OrthonormalBasis(b) for b in blocks]
        result = identify(signals_of_bases(bases), default_ordering(2), 1e-9)
        assert dict(result.structure.entries)[IndexSet((1, 2))] == shared
        assert all(a <= 1e-12 for rec in result.diagnostics for a in rec.angles)

    def test_identical_bases(self):
        B = orthonormalize(np.random.default_rng(8).standard_normal((50, 4)))
        result = identify(signals_of_bases([B, B]), default_ordering(2), 1e-9)
        assert dict(result.structure.entries)[IndexSet((1, 2))] == 4
        assert all(a <= 1e-12 for rec in result.diagnostics for a in rec.angles)
