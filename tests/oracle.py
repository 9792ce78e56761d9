# A literal transcription of the sequential identification, for tests only.
#
# Every working subspace is a dense n x n orthogonal projector P_i, and every
# step is the textbook formula: the flag mean is the top eigenvector of the
# participants' summed projectors, the gate reads arcsin ||(I - P_i) w||, and
# peeling subtracts u u^T / ||u||^2 with u = P_i w. It imports nothing from
# psidecomp and shares none of its kernels, so it checks spans, not columns.

import numpy as np

# A projected basis keeps the directions whose singular value is above this.
# The cut must be on the singular values of (I - C C^T) B: an eigenvalue cut
# on the projector (I - C C^T) P (I - C C^T) keeps rounding noise as extra
# dimensions.
COMPLEMENT_CUT = 1e-8


def range_basis(P):
    """Orthonormal basis of the range of the orthogonal projector P."""
    vals, vecs = np.linalg.eigh(P)
    return vecs[:, vals > 0.5]


def project_off(P, C):
    """Projector onto the span of (I - C C^T) B, for B a basis of range(P)."""
    B = range_basis(P)
    if B.shape[1] == 0 or C.shape[1] == 0:
        return P
    U, s, _ = np.linalg.svd(B - C @ (C.T @ B), full_matrices=False)
    U = U[:, s > COMPLEMENT_CUT]
    return U @ U.T


def identify(bases, sets, lam):
    """The score-subspace projector of each index-set, keyed by its members.

    ``bases`` are K orthonormal n x r_k arrays, ``sets`` the index-sets in
    order as tuples of 1-based block numbers, and ``lam`` the angle
    threshold in radians.
    """
    n = bases[0].shape[0]
    P = [B @ B.T for B in bases]
    scores = {}
    for members in sets:
        idx = [m - 1 for m in members]
        if len(idx) == 1:
            C = range_basis(P[idx[0]])
            P[idx[0]] = np.zeros((n, n))
        else:
            claimed = []
            while all(np.trace(P[i]) > 0.5 for i in idx):
                w = np.linalg.eigh(sum(P[i] for i in idx))[1][:, -1]
                sines = [np.linalg.norm(w - P[i] @ w) for i in idx]
                if not all(np.arcsin(min(s, 1.0)) < lam for s in sines):
                    break
                for i in idx:
                    u = P[i] @ w
                    P[i] = P[i] - np.outer(u, u) / (u @ u)
                claimed.append(w)
            C = np.column_stack(claimed) if claimed else np.zeros((n, 0))
        for other in range(len(P)):
            if other not in idx:
                P[other] = project_off(P[other], C)
        scores[members] = C @ C.T
    return scores


def structure(scores):
    """The rank of each index-set's projector, keyed by its members."""
    return {members: int(round(np.trace(S))) for members, S in scores.items()}
