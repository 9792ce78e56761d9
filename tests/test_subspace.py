import math

import numpy as np
import pytest

from psidecomp import (
    NothingToPeel,
    OrthonormalBasis,
    UnitDirection,
    deflate,
    flag_mean_direction,
    orthonormalize,
    principal_angle,
    sine_distance,
)
from psidecomp.subspace import ORTHONORMAL_TOL, _flag_mean_refined

from cases import assert_rejects


def unit(v):
    return UnitDirection(np.asarray(v, dtype=float))


class TestOrthonormalize:
    def test_axis_aligned_columns(self):
        B = orthonormalize(np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]]))
        assert B.r == 2
        P = B.projector()
        assert np.allclose(P, np.diag([1.0, 0.0, 1.0]), atol=1e-12)

    def test_duplicated_direction(self):
        B = orthonormalize(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
        assert B.r == 1
        assert np.allclose(B.columns[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])

    def test_projector_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 10))
        B = orthonormalize(A)
        assert np.max(np.abs(B.columns.T @ B.columns - np.eye(10))) < 1e-10
        # oracle: projector from an eigen-decomposition of A A^T
        vals, vecs = np.linalg.eigh(A @ A.T)
        keep = vals > 1e-8 * vals.max()
        P_oracle = vecs[:, keep] @ vecs[:, keep].T
        assert np.linalg.norm(B.projector() - P_oracle) < 1e-8

    def test_all_zero_input_gives_zero_subspace(self):
        B = orthonormalize(np.zeros((5, 3)))
        assert B.r == 0 and B.n == 5

    def test_rank_revealing_tolerance(self):
        A = np.eye(4)[:, :3].copy()
        A[:, 2] *= 1e-14
        assert orthonormalize(A, tol=1e-10).r == 2

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize(np.eye(3), tol=-1.0)

    def test_tol_above_one_keeps_nothing(self):
        # every singular value is at most the largest, so none exceeds twice it
        B = orthonormalize(np.ones((3, 2)), tol=2.0)
        assert B.r == 0 and B.n == 3


class TestBasisAndDirectionTypes:
    def test_near_orthonormal_input_is_re_orthonormalized(self):
        rng = np.random.default_rng(0)
        Q = orthonormalize(rng.standard_normal((8, 3))).columns
        B = OrthonormalBasis(Q + 1e-6 * rng.standard_normal(Q.shape))
        assert np.max(np.abs(B.columns.T @ B.columns - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("deviation,kept", ((0.99e-10, True), (1.01e-10, False)))
    def test_orthonormality_check_at_its_tolerance(self, deviation, kept):
        # one column stretched so that max |B^T B - I| lands just below or
        # just above ORTHONORMAL_TOL: below, the columns are kept bit for bit
        Q = orthonormalize(np.random.default_rng(3).standard_normal((8, 3))).columns
        cols = Q.copy()
        cols[:, 1] *= math.sqrt(1.0 + deviation)
        off = np.max(np.abs(cols.T @ cols - np.eye(3)))
        assert (off < ORTHONORMAL_TOL) == kept and abs(off - deviation) < 1e-12
        B = OrthonormalBasis(cols)
        assert (B.columns.tobytes() == cols.tobytes()) == kept
        if not kept:
            assert np.max(np.abs(B.columns.T @ B.columns - np.eye(3))) < 1e-14

    def test_r_cannot_exceed_n(self):
        with pytest.raises(ValueError):
            OrthonormalBasis(np.ones((2, 3)))

    def test_direction_is_normalized(self):
        w = unit([3.0, 4.0])
        assert abs(np.linalg.norm(w.vector) - 1.0) <= 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            unit([0.0, 0.0])


class TestSineDistance:
    def test_containment_gives_zero(self):
        B = OrthonormalBasis(np.eye(4)[:, :2])
        assert sine_distance(unit([1.0, 0.0, 0.0, 0.0]), B) == pytest.approx(0.0, abs=1e-12)

    def test_fifteen_degree_elevation(self):
        w = unit([np.cos(np.pi / 12), 0.0, np.sin(np.pi / 12)])
        B = OrthonormalBasis(np.eye(3)[:, :2])
        assert sine_distance(w, B) == pytest.approx(np.sin(np.pi / 12), abs=1e-12)

    def test_matches_explicit_projector_oracle(self):
        rng = np.random.default_rng(11)
        B = orthonormalize(rng.standard_normal((20, 5)))
        for _ in range(25):
            w = unit(rng.standard_normal(20))
            P = B.columns @ B.columns.T
            expected = np.sqrt(1.0 - float(w.vector @ P @ w.vector))
            assert sine_distance(w, B) == pytest.approx(expected, abs=1e-12)

    def test_zero_subspace_distance_is_one(self):
        B = OrthonormalBasis(np.zeros((6, 0)))
        assert sine_distance(unit(np.ones(6)), B) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sine_distance(unit([1.0, 0.0]), OrthonormalBasis(np.eye(3)[:, :1]))

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            B = orthonormalize(rng.standard_normal((15, 4)))
            w = unit(rng.standard_normal(15))
            d2 = sine_distance(w, B) ** 2
            c2 = float(np.sum((B.columns.T @ w.vector) ** 2))
            assert d2 + c2 == pytest.approx(1.0, abs=1e-12)


class TestPrincipalAngle:
    def test_orthogonal_direction(self):
        B = OrthonormalBasis(np.eye(4)[:, :2])
        assert principal_angle(unit([0, 0, 0, 1.0]), B) == pytest.approx(np.pi / 2)

    def test_fifteen_degrees_to_both_subspaces(self):
        w = unit([np.cos(np.pi / 12), 0.0, np.sin(np.pi / 12)])
        V1 = OrthonormalBasis(np.array([[np.cos(np.pi / 6)], [0.0], [np.sin(np.pi / 6)]]))
        V2 = OrthonormalBasis(np.eye(3)[:, :2])
        assert principal_angle(w, V1) == pytest.approx(np.pi / 12, abs=1e-10)
        assert principal_angle(w, V2) == pytest.approx(np.pi / 12, abs=1e-10)

    def test_explicit_rotation_recovers_angle(self):
        n = 10
        B = OrthonormalBasis(np.eye(n)[:, :1])
        for alpha in (0.05, 0.3, 0.8, 1.2, np.pi / 2 - 0.01):
            v = np.zeros(n)
            v[0], v[1] = np.cos(alpha), np.sin(alpha)
            assert principal_angle(unit(v), B) == pytest.approx(alpha, abs=1e-12)


class TestFlagMean:
    def test_identical_inputs_return_the_direction(self):
        v = unit(np.array([2.0, -1.0, 0.5])).vector
        B = OrthonormalBasis(v.reshape(-1, 1))
        w = flag_mean_direction([B, B])
        assert np.allclose(np.abs(w.vector @ v), 1.0, atol=1e-12)

    def test_bisector_of_line_and_plane(self):
        V1 = OrthonormalBasis(np.array([[np.cos(np.pi / 6)], [0.0], [np.sin(np.pi / 6)]]))
        V2 = OrthonormalBasis(np.eye(3)[:, :2])
        w = flag_mean_direction([V1, V2])
        expected = np.array([np.cos(np.pi / 12), 0.0, np.sin(np.pi / 12)])
        assert np.allclose(w.vector, expected, atol=1e-10)

    def test_objective_matches_eigensolver_oracle(self):
        rng = np.random.default_rng(19)
        bases = [orthonormalize(rng.standard_normal((15, r))) for r in (3, 2, 4)]
        w = flag_mean_direction(bases)
        M = sum(B.columns @ B.columns.T for B in bases)
        achieved = float(w.vector @ M @ w.vector)
        best = float(np.linalg.eigvalsh(M)[-1])
        assert achieved == pytest.approx(best, abs=1e-9)

    def test_invariant_under_basis_rotation(self):
        rng = np.random.default_rng(23)
        bases = [orthonormalize(rng.standard_normal((12, r))) for r in (3, 3)]
        w0 = flag_mean_direction(bases)
        rotated = []
        for B in bases:
            R = np.linalg.qr(rng.standard_normal((B.r, B.r)))[0]
            rotated.append(OrthonormalBasis(B.columns @ R))
        w1 = flag_mean_direction(rotated)
        assert abs(abs(float(w0.vector @ w1.vector)) - 1.0) < 1e-9

    def test_exactly_overlapping_subspaces(self):
        rng = np.random.default_rng(29)
        shared = orthonormalize(rng.standard_normal((10, 2))).columns
        extra1 = orthonormalize(np.hstack([shared, rng.standard_normal((10, 2))])).columns
        extra2 = orthonormalize(np.hstack([shared, rng.standard_normal((10, 3))])).columns
        bases = [OrthonormalBasis(extra1), OrthonormalBasis(extra2)]
        w = flag_mean_direction(bases)
        for B in bases:
            assert sine_distance(w, B) <= 1e-10

    def test_zero_dimensional_member_rejected(self):
        with pytest.raises(ValueError):
            flag_mean_direction([OrthonormalBasis(np.zeros((4, 0)))])

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            flag_mean_direction([])

    def test_tie_refinement_concentrates_on_one_pattern(self):
        # two orthogonal one-dimensional subspaces tie; the refined direction
        # must align with one of them instead of mixing both
        e = np.eye(4)
        w, degenerate = _flag_mean_refined([e[:, :1], e[:, 1:2]])
        assert degenerate
        assert max(abs(w[0]), abs(w[1])) == pytest.approx(1.0, abs=1e-9)


class TestDeflate:
    def test_plane_deflated_to_remaining_axis(self):
        w = unit([np.cos(np.pi / 12), 0.0, np.sin(np.pi / 12)])
        V2 = OrthonormalBasis(np.eye(3)[:, :2])
        out = deflate(V2, w)
        assert out.r == 1
        assert np.allclose(np.abs(out.columns[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_full_peel_returns_zero_subspace(self):
        v = unit([1.0, 1.0, 0.0])
        B = OrthonormalBasis(v.vector.reshape(-1, 1))
        assert deflate(B, v).r == 0

    def test_random_case_against_projector_difference_oracle(self):
        rng = np.random.default_rng(31)
        B = orthonormalize(rng.standard_normal((12, 4)))
        w = unit(rng.standard_normal(12))
        out = deflate(B, w)
        p = B.columns @ (B.columns.T @ w.vector)
        p /= np.linalg.norm(p)
        assert out.r == 3
        assert np.max(np.abs(out.columns.T @ out.columns - np.eye(3))) < 1e-12
        assert np.max(np.abs(out.columns.T @ p)) < 1e-12
        # stays inside span(B)
        assert np.allclose(B.projector() @ out.columns, out.columns, atol=1e-12)
        P_oracle = B.projector() - np.outer(p, p)
        assert np.linalg.norm(out.projector() - P_oracle) < 1e-10

    def test_result_is_orthogonal_to_the_peeled_direction(self):
        rng = np.random.default_rng(37)
        B = orthonormalize(rng.standard_normal((9, 3)))
        w = unit(rng.standard_normal(9))
        assert np.max(np.abs(deflate(B, w).columns.T @ w.vector)) < 1e-12

    def test_successive_peels_stay_orthogonal(self):
        rng = np.random.default_rng(41)
        B = orthonormalize(rng.standard_normal((10, 5)))
        peeled = []
        for _ in range(4):
            w = unit(rng.standard_normal(10))
            p = B.columns @ (B.columns.T @ w.vector)
            peeled.append(p / np.linalg.norm(p))
            B = deflate(B, w)
        for i, p in enumerate(peeled):
            for q in peeled[i + 1:]:
                assert abs(float(p @ q)) < 1e-8

    def test_orthogonal_direction_raises(self):
        B = OrthonormalBasis(np.eye(4)[:, :2])
        with pytest.raises(NothingToPeel):
            deflate(B, unit([0.0, 0.0, 1.0, 0.0]))


@pytest.mark.parametrize("call, error, message", (
    pytest.param(lambda: OrthonormalBasis(np.ones(3)),
                 ValueError, "basis must be a 2-d array", id="basis-of-a-vector"),
    pytest.param(lambda: OrthonormalBasis(np.zeros((0, 0))),
                 ValueError, "ambient dimension must be at least 1", id="basis-in-R0"),
    pytest.param(lambda: UnitDirection(np.array([])),
                 ValueError, "direction must live in R^n with n >= 1", id="empty-direction"),
    pytest.param(lambda: orthonormalize(np.ones(3)),
                 ValueError, "input must be an n x m array with n >= 1",
                 id="orthonormalize-a-vector"),
    pytest.param(lambda: flag_mean_direction([OrthonormalBasis(np.eye(4)[:, :1]),
                                              OrthonormalBasis(np.eye(5)[:, :1])]),
                 ValueError, "all bases must share the ambient dimension",
                 id="flag-mean-across-n"),
    pytest.param(lambda: deflate(OrthonormalBasis(np.eye(5)[:, :1]), unit([1.0, 0, 0, 0])),
                 ValueError, "ambient dimensions differ: 4 vs 5", id="deflate-across-n"),
    pytest.param(lambda: deflate(OrthonormalBasis(np.zeros((4, 0))), unit([1.0, 0, 0, 0])),
                 NothingToPeel, "cannot deflate the zero subspace", id="deflate-r0"),
))
def test_input_check_rejects(call, error, message):
    assert_rejects(call, error, message)
