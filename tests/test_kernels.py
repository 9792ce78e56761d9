"""Gram-side kernels of subspace.py against dense LAPACK oracles.

extract_signal takes its score basis from an eigensolve of the Gram matrix on
the block's smaller side, the flag mean from the m x m Gram matrix of the
stacked bases, and deflation writes its Householder reflector in closed form.
Each is checked here against the full SVD or QR it replaces.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psidecomp import extract_signal, flag_mean_direction
from psidecomp.subspace import (
    OrthonormalBasis,
    _deflate_cols,
    _fix_sign,
    _flag_mean_refined,
    orthonormalize,
)

SETTINGS = settings(max_examples=60, deadline=None)

# (p, n) shapes: tall (n < p), square and wide (n > p)
shapes = st.sampled_from(["tall", "square", "wide"]).flatmap(
    lambda kind: st.tuples(st.integers(2, 30), st.integers(0, 20)).map(
        lambda t: {"tall": (t[0] + t[1], t[0]),
                   "square": (t[0], t[0]),
                   "wide": (t[0], t[0] + t[1])}[kind]))


def assert_orthonormal(V, atol=1e-10):
    assert np.all(np.isfinite(V))
    assert np.max(np.abs(V.T @ V - np.eye(V.shape[1])), initial=0.0) <= atol


class TestExtractSignalAgainstSvd:
    @SETTINGS
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_projector_and_residual_match_svd(self, shape, seed, data):
        p, n = shape
        rank = data.draw(st.integers(1, min(p, n)))
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


class TestGramFlagMean:
    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
           ranks=st.lists(st.integers(1, 5), min_size=2, max_size=4))
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
