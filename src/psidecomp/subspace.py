# Geometric kernel: orthonormal bases of score subspaces, sine distance and
# principal angles of a direction to a subspace, top singular vectors from the
# smaller Gram matrix, one-dimensional flag means, deflation ("peeling" a
# direction out of a subspace) and projection onto the complement of a span.
#
# Conventions
# -----------
# - Ambient space is R^n (sample space); a subspace is stored as an n x r
#   matrix with orthonormal columns. r = 0 encodes the zero subspace {0}.
# - d(w, B) = ||w - B B^T w|| = sin(theta), theta = acute angle between the
#   unit direction w and span(B). The residual norm does not cancel for w
#   (nearly) inside span(B), as sqrt(1 - ||B^T w||^2) does.
# - Singular/eigen vectors are sign-fixed: the entry of largest magnitude is
#   made positive, ties broken by lowest index.
# - A block's score basis needs only the top r eigenvectors of its Gram
#   matrix, which _top_eigvecs finds by Chebyshev-filtered subspace iteration
#   (Zhou & Saad 2007), falling back to a full eigh where it would not pay
#   or cannot vouch for its answer. A flag mean takes one eigh of the Gram of
#   the stacked bases, whose eigenvalues decide the tie and give the direction;
#   an untied pair stage takes every flag mean from one SVD of B1^T B2.

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ORTHONORMAL_TOL = 1e-10  # entrywise tolerance on B^T B - I before a QR re-pass
# _right_vectors, the one map from a small Gram's eigenvectors to sample space
# (wide blocks and the flag mean), keeps V = X^T U / s only when V^T V is this
# close to I. Well below ORTHONORMAL_TOL: scores built from V must meet that
# bound, and a V accepted at it left stacked scores 1.06e-10 off orthonormal.
DIVISION_TOL = 1e-14
TIE_RTOL = 1e-6          # flag-mean singular values this close to the top are tied
# A direction shared with a claimed one leaves a residue of up to about 1e-10
# (the Gram-side bases are accurate to that), which must count as zero:
# renormalized, it is not orthogonal to the claimed directions. The
# uniqueness checks' spans and intersections drop directions at the same cut.
COMPLEMENT_TOL = 1e-8
# A direction kept at singular value s carries the input's residue along
# directions claimed earlier, amplified by 1/s: a 5.8e-14 residue kept at
# s = 3.7e-5 left scores 4.9e-9 off orthonormal. Below this s the kept
# directions are projected once more off every direction claimed so far.
REPROJECT_TOL = 1e-2
# _top_eigvecs iterates a block of m = k + max(k, 4) vectors, and only for
# n >= max(CHEB_MIN_N, CHEB_MIN_RATIO * m): below that a full eigh was faster
# (2 cores, BLAS at 1 thread, k 1-12, n 32-200). A sweep is a Rayleigh-Ritz
# step, then a Chebyshev filter of degree CHEB_DEGREE. It stops when every
# wanted residual ||G y - theta y|| is at most CHEB_RES_RTOL * theta_1, and
# keeps the answer only if theta_k - theta_{k+1} > CHEB_GAP_RTOL * theta_1:
# an exact-rank G of rank k to m converges at the first step, and one of rank
# below k, or all zero, fails the gap. Unconverged, it gives up once the Ritz
# values predict that the filter sweeps left of CHEB_MAX_SWEEPS cannot reach
# that residual (a spectrum without a gap after k costs about one sweep
# before the full eigh), or once theta_m <= CHEB_NULL_RTOL * theta_1 leaves
# the filter's damped interval [0, theta_m] empty.
CHEB_MIN_N = 64
CHEB_MIN_RATIO = 5
CHEB_DEGREE = 8
CHEB_MAX_SWEEPS = 12
CHEB_RES_RTOL = 1e-13
CHEB_GAP_RTOL = 1e-3
CHEB_NULL_RTOL = 1e-12
CHEB_SEED = 0  # fixed start block, so the result is deterministic
# A direction whose coefficients B^T w have norm at or below this has nothing
# to peel from span(B): deflate raises, and an identify stage ends there.
PEEL_TOL = 1e-12
# A tied flag mean narrows its tied directions to those whose squared cosine
# to each block in turn is within this of the best.
TIE_REFINE_ATOL = 1e-9
# A matrix whose largest entry has a binary exponent outside [-SCALE_EXP_BAND,
# SCALE_EXP_BAND] is scaled by a power of two before its Gram is formed, whose
# entries would otherwise leave the normal float range. Power-of-two scaling
# is exact, so a matrix inside the band is used as given.
SCALE_EXP_BAND = 100
# A direction whose norm is within this of 1 is kept as given, not divided by it.
UNIT_NORM_TOL = 1e-12


class NothingToPeel(ValueError):
    """Deflation was asked to peel a direction orthogonal to the subspace."""


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximal index, which gives the tie rule.
    i = int(np.abs(v).argmax())
    return -v if v[i] < 0 else v


def _right_vectors(X: np.ndarray, s: np.ndarray, U: np.ndarray):
    """Right singular vectors of X from the top k eigenvectors U of X X^T and
    the matching singular values s (length k): V = X^T U / s.

    The one map from a small Gram's eigenvectors to sample space, for a wide
    block's score basis and for the flag mean (X = H^T). Where the division
    loses orthonormality beyond DIVISION_TOL (s near or past the numerical
    rank), V is re-orthonormalized by a QR of X^T U instead, which keeps the
    leading directions and completes the basis past the rank.
    """
    XtU = X.T @ U
    if s[-1] > 0.0 and _off_identity(V := XtU / s) <= DIVISION_TOL:
        return V
    return np.linalg.qr(XtU)[0]


def _off_identity(B: np.ndarray) -> float:
    """max |B^T B - I| over the entries, 0 for no columns, with no identity built."""
    G = B.T @ B
    G.flat[::G.shape[0] + 1] -= 1.0
    return float(np.abs(G).max(initial=0.0))


def _max_exponent(X: np.ndarray) -> int:
    """The binary exponent e of max|X| = f 2^e (0.5 <= f < 1), 0 for an
    all-zero X, read without a temporary of X's size."""
    return math.frexp(max(float(X.max(initial=0.0)), -float(X.min(initial=0.0))))[1]


def _scale_shift(X: np.ndarray) -> int:
    """0 for X inside the exponent band, else the power of two that brings
    max|X| into [0.5, 1)."""
    e = _max_exponent(X)
    return 0 if abs(e) <= SCALE_EXP_BAND else -e


def _top_right_vectors(X: np.ndarray, k: int) -> np.ndarray:
    """The top k right singular vectors of X (n x k, orthonormal, signs
    unfixed), from the top k eigenpairs of its Gram matrix on the smaller
    side: X X^T when X is wide (n > p), else X^T X. Outside the exponent
    band the Gram is formed from X scaled by a power of two."""
    if shift := _scale_shift(X):
        X = np.ldexp(X, shift)
    wide = X.shape[1] > X.shape[0]
    theta, U = _top_eigvecs(X @ X.T if wide else X.T @ X, k)
    return _right_vectors(X, np.sqrt(np.maximum(theta, 0.0)), U) if wide else U


def _top_eigvecs(G: np.ndarray, k: int):
    """Top k eigenvalues (descending) and eigenvectors of a symmetric positive
    semidefinite n x n matrix G, by Chebyshev-filtered subspace iteration,
    whose converged Ritz pairs stand whatever G's rank if the gap at k passes;
    else np.linalg.eigh of G, as where the iteration would not pay (CHEB_*).
    """
    n = G.shape[0]
    m = k + max(k, 4)
    if n >= max(CHEB_MIN_N, CHEB_MIN_RATIO * m):
        Y = np.linalg.qr(G @ _start_block(n, m))[0]
        for sweeps_left in range(CHEB_MAX_SWEEPS, -1, -1):
            GY = G @ Y
            theta, Z = np.linalg.eigh(Y.T @ GY)
            theta, Z = theta[::-1], Z[:, ::-1]
            Y, GY = Y @ Z, GY @ Z
            t1, tm = theta[0], theta[-1]
            R = GY[:, :k] - Y[:, :k] * theta[:k]
            res = math.sqrt(np.max(np.sum(R * R, axis=0)))
            if res <= CHEB_RES_RTOL * t1:  # an all-zero G: 0 <= 0, then no gap
                if theta[k - 1] - theta[k] > CHEB_GAP_RTOL * t1:
                    return theta[:k], Y[:, :k]
                break
            # A sweep shrinks the residuals by about T_d(2 theta_k / theta_m - 1);
            # give up now if the filter's interval [0, theta_m] is empty (G's
            # rank is below m) or the sweeps left cannot close the excess.
            if not tm > CHEB_NULL_RTOL * t1 or math.log(res / (CHEB_RES_RTOL * t1)) > (
                    sweeps_left * (CHEB_DEGREE * math.acosh(2.0 * theta[k - 1] / tm - 1.0))):
                break
            Y = np.linalg.qr(_chebyshev_filter(G, Y, GY, tm, t1))[0]
    vals, vecs = np.linalg.eigh(G)
    return vals[::-1][:k], vecs[:, ::-1][:, :k]


@functools.lru_cache(maxsize=8)
def _start_block(n: int, m: int) -> np.ndarray:
    """The fixed n x m start block of _top_eigvecs, drawn once per shape
    from CHEB_SEED and read-only."""
    block = np.random.default_rng(CHEB_SEED).standard_normal((n, m))
    block.setflags(write=False)
    return block


def _chebyshev_filter(G, Y, GY, b, a0):
    """p(G) Y for p(t) = T_d((t - c) / e) / T_d((a0 - c) / e), the degree
    d = CHEB_DEGREE Chebyshev polynomial of [0, b] (c = e = b / 2), scaled to
    1 at a0 >= b > 0, by the scaled three-term recurrence of Zhou & Saad
    (2007, Algorithm 3.2); GY = G Y is passed in. |p| <= 1 on [0, a0], so
    the iterates keep the size of Y while [0, b] is damped.
    """
    e = c = b / 2.0
    sigma = e / (a0 - c)
    tau = 2.0 / sigma
    prev, cur = Y, GY - c * Y
    cur *= sigma / e
    for _ in range(1, CHEB_DEGREE):
        sigma_next = 1.0 / (tau - sigma)
        # (G cur - c cur) * (2 sigma_next / e) - (sigma sigma_next) prev, in place
        nxt = G @ cur
        nxt -= c * cur
        nxt *= 2.0 * sigma_next / e
        nxt -= (sigma * sigma_next) * prev
        prev, cur, sigma = cur, nxt, sigma_next
    return cur


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An n x r matrix with orthonormal columns spanning a score subspace."""

    columns: np.ndarray

    @classmethod
    def _trusted(cls, cols: np.ndarray) -> "OrthonormalBasis":
        """Wrap columns a kernel here made orthonormal: read-only, not copied or checked."""
        basis = object.__new__(cls)
        cols.setflags(write=False)
        object.__setattr__(basis, "columns", cols)
        return basis

    def __post_init__(self):
        cols = np.array(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        n, r = cols.shape
        if n < 1:
            raise ValueError("ambient dimension must be at least 1")
        if r > n:
            raise ValueError(f"subspace dimension {r} exceeds ambient dimension {n}")
        if _off_identity(cols) > ORTHONORMAL_TOL:
            cols, _ = np.linalg.qr(cols)
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def r(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        return self.columns @ self.columns.T


@dataclass(frozen=True, eq=False)
class UnitDirection:
    """A unit-norm vector in R^n."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=float).ravel()
        if v.size < 1:
            raise ValueError("direction must live in R^n with n >= 1")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        if abs(nrm - 1.0) > UNIT_NORM_TOL:
            v = v / nrm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def n(self) -> int:
        return self.vector.size


def orthonormalize(raw: np.ndarray, tol: float = 1e-12) -> OrthonormalBasis:
    """Orthonormal basis of the column space of ``raw``.

    Columns whose singular value is <= tol times the largest singular value
    are dropped. An all-zero input yields the r = 0 basis.
    """
    A = np.asarray(raw, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1:
        raise ValueError("input must be an n x m array with n >= 1")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = A.shape[0]
    if A.shape[1] == 0 or not np.any(A):
        return OrthonormalBasis(np.zeros((n, 0)))
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    keep = s > tol * s[0]
    cols = U[:, keep]
    if cols.shape[1] == 0:
        return OrthonormalBasis(np.zeros((n, 0)))
    cols = np.column_stack([_fix_sign(c) for c in cols.T])
    return OrthonormalBasis(cols)


def _sine(cols: np.ndarray, w: np.ndarray, c: np.ndarray) -> float:
    """||w - cols c|| for c = cols^T w, clamped to at most 1: the sine of the
    angle between a unit vector w and the span of orthonormal columns."""
    resid = w - cols @ c
    return min(math.sqrt(resid @ resid), 1.0)


def sine_distance(w: UnitDirection, B: OrthonormalBasis) -> float:
    """sin of the angle between w and span(B), in [0, 1]; 1 for the zero subspace."""
    if w.n != B.n:
        raise ValueError(f"ambient dimensions differ: {w.n} vs {B.n}")
    if B.r == 0:
        return 1.0
    return _sine(B.columns, w.vector, B.columns.T @ w.vector)


def principal_angle(w: UnitDirection, B: OrthonormalBasis) -> float:
    """Acute angle (radians) between a direction and a subspace: arcsin of sine_distance."""
    return float(np.arcsin(sine_distance(w, B)))


def flag_mean_direction(bases) -> UnitDirection:
    """One-dimensional flag mean of a collection of subspaces.

    Returns the first left singular vector of the column-wise concatenation
    of the bases, i.e. the unit w maximizing w^T (sum_k B_k B_k^T) w, which
    minimizes the summed squared sine distances to the subspaces. The sign
    is fixed so the entry of largest magnitude is positive; a (near-)tied top
    singular value is resolved by the rule of ``_flag_mean_refined``.
    """
    blocks = [b.columns for b in bases]
    if not blocks:
        raise ValueError("flag mean of an empty collection is undefined")
    n = blocks[0].shape[0]
    for cols in blocks:
        if cols.shape[0] != n:
            raise ValueError("all bases must share the ambient dimension")
        if cols.shape[1] == 0:
            raise ValueError("flag mean is undefined for a zero subspace")
    return UnitDirection(_flag_mean_refined(blocks)[0])


def _flag_mean_refined(blocks):
    """Flag mean on raw column blocks with deterministic tie refinement.

    When the top singular value of the concatenation is (numerically)
    repeated, the top singular subspace is narrowed by maximizing alignment
    with each input subspace in turn, so that the returned direction
    concentrates on a single intersection pattern instead of an arbitrary
    mixture. Returns (direction, degenerate_flag).

    One eigh of H^T H, H = hstack(blocks), serves both: its eigenvalues give
    the singular values s of H that decide the tie, and _right_vectors maps
    its top eigenvectors, one or the tied ones, to left singular vectors of H.
    """
    H = np.concatenate(blocks, axis=1)
    vals, vecs = np.linalg.eigh(H.T @ H)
    s = np.sqrt(np.maximum(vals[::-1], 0.0))
    tied = np.count_nonzero(s >= s[0] * (1.0 - TIE_RTOL))
    T = _right_vectors(H.T, s[:tied], vecs[:, ::-1][:, :tied])
    for cols in blocks:
        if T.shape[1] == 1:
            break
        G = T.T @ cols
        vals, vecs = np.linalg.eigh(G @ G.T)
        keep = vals >= vals[-1] - TIE_REFINE_ATOL
        T = T @ vecs[:, keep]
    return _fix_sign(T[:, 0]), bool(tied > 1)


def _pair_tied(sig: np.ndarray, unequal: bool) -> bool:
    """Whether bases with principal cosines sig, of unequal ranks or not, tie:
    [B1 B2] has squared singular values 1 + sig[0], then 1 + sig[1], 1 or 1 - sig[0]."""
    nxt = 1.0 + sig[1] if sig.size > 1 else 1.0 if unequal else 1.0 - sig[0]
    return not math.sqrt(max(nxt, 0.0)) < math.sqrt(1.0 + sig[0]) * (1.0 - TIE_RTOL)


def _pair_svd(B1: np.ndarray, B2: np.ndarray):
    """The one SVD of two bases' cross Gram, taken with the smaller rank first:
    (U, V, sig, angles) for the principal pairs U = B1 X, V = B2 Y in block
    order (the first len(sig) columns pair up), their cosines sig and the
    angles of their bisectors to both bases."""
    if swap := B1.shape[1] > B2.shape[1]:
        B1, B2 = B2, B1
    X, sig, Yt = np.linalg.svd(B1.T @ B2)
    U, V = B1 @ X, B2 @ Yt.T
    angles = np.arcsin(np.minimum(np.linalg.norm(U - V[:, :B1.shape[1]], axis=0) / 2.0, 1.0))
    return (V, U, sig, angles) if swap else (U, V, sig, angles)


def _pair_stage(svd: tuple, angle_threshold: float):
    """A two-block stage of identify from its SVD (``_pair_svd``): (W, angles,
    B1', B2', stop), or None when a candidate that its gates read is tied.

    Untied, the stage's flag means in turn bisect the principal pairs u_j =
    B1 x_j, v_j = B2 y_j (Bjorck & Golub 1973), at arcsin(||u_j - v_j|| / 2)
    to both bases. W holds those below ``angle_threshold``, sign-fixed, B1'
    and B2' the bases left once they are peeled, stop the first rejected angle.
    """
    U, V, sig, angles = svd
    below = angles < angle_threshold
    a = sig.size if below.all() else int(below.argmin())
    if any(_pair_tied(sig[j:], U.shape[1] != V.shape[1]) for j in range(min(a + 1, sig.size))):
        return None
    W = np.column_stack([_fix_sign(w / math.sqrt(w @ w)) for w in (U[:, :a] + V[:, :a]).T]
                        ) if a else U[:, :0]
    return W, angles[:a].tolist(), U[:, a:], V[:, a:], float(angles[a]) if a < sig.size else None


def deflate(B: OrthonormalBasis, w: UnitDirection) -> OrthonormalBasis:
    """Remove from span(B) the direction closest to w.

    Returns the orthogonal complement, within span(B), of the normalized
    projection of w onto span(B). The result has dimension r - 1 and is
    orthogonal to w. Raises NothingToPeel when w is orthogonal to span(B).
    """
    if w.n != B.n:
        raise ValueError(f"ambient dimensions differ: {w.n} vs {B.n}")
    if B.r == 0:
        raise NothingToPeel("cannot deflate the zero subspace")
    c = B.columns.T @ w.vector
    if float(np.linalg.norm(c)) <= PEEL_TOL:
        raise NothingToPeel("direction is orthogonal to the subspace")
    return OrthonormalBasis(_deflate_cols(B.columns, w.vector, c))


def _deflate_cols(cols: np.ndarray, w: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal columns spanning the complement, within span(cols), of the
    projection of w onto span(cols).

    With x = c/||c||, c = cols^T w, this is cols @ Q[:, 1:] for the complete
    QR of x, whose Q is one Householder reflector I - tau v v^T. The reflector
    is written down the way LAPACK's geqrf/orgqr build it: beta = -sign(x_0),
    v = (x - beta e_1) / (x_0 - beta) so that v_0 = 1, tau = (beta - x_0) / beta.
    The caller guarantees c != 0, and may pass c when it has it.
    """
    if c is None:
        c = cols.T @ w
    x = c / math.sqrt(c @ c)
    x0 = float(x[0])
    beta = -math.copysign(1.0, x0)
    v = x / (x0 - beta)
    v[0] = 1.0
    tau = (beta - x0) / beta
    return cols[:, 1:] - (tau * (cols @ v))[:, None] * v[1:]


def _complement(cols: np.ndarray, Q: np.ndarray, claimed=None) -> np.ndarray:
    """Left singular vectors, with singular value > COMPLEMENT_TOL, of cols
    projected onto the complement of span(Q): a direction of span(cols) inside
    span(Q) is dropped, any other only tilts. cols itself when either side is
    empty.

    ``claimed``, when given, returns the orthonormal columns of every
    direction claimed so far; it is called, and the result projected off
    them once more, only when a direction is kept below REPROJECT_TOL.
    """
    if cols.shape[1] == 0 or Q.shape[1] == 0:
        return cols
    U, s, _ = np.linalg.svd(cols - Q @ (Q.T @ cols), full_matrices=False)
    keep = s > COMPLEMENT_TOL
    U = U if keep.all() else U[:, keep]
    if claimed is not None and U.shape[1] and s[U.shape[1] - 1] < REPROJECT_TOL:
        return _complement(U, claimed())
    return U
