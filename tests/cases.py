# Shared exact-arithmetic fixtures: small hand-built score subspace
# collections with known intersection geometry, used by the core tests and
# the acceptance suite, random blocks with shared directions for the
# property tests, structures by rank table, the split halves of a dataset,
# blocks scaled far apart, and the assertion that the input-check tables use.

import numpy as np
import pytest

from psidecomp import (
    OrthonormalBasis,
    PartialJointStructure,
    SignalEstimate,
    default_ordering,
    extract_signal,
    split,
)

S2 = 1.0 / np.sqrt(2.0)


def independent_bases():
    """K=3, n=4; shared e1, otherwise in general position (unique ranks)."""
    V1 = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=float)
    V2 = np.array([[1, 0], [0, S2], [0, S2], [0, 0]], dtype=float)
    V3 = np.array([[1, 0], [0, 0], [0, S2], [0, S2]], dtype=float)
    return [OrthonormalBasis(V) for V in (V1, V2, V3)]


def dependent_bases():
    """K=3, n=4; like independent_bases but V3 widened so the deflated
    singleton subspaces become linearly dependent."""
    V1 = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=float)
    V2 = np.array([[1, 0], [0, S2], [0, S2], [0, 0]], dtype=float)
    V3 = np.array([[1, 0, 0], [0, 0, 0], [0, 1, S2], [0, 0, S2]], dtype=float)
    return [OrthonormalBasis(V) for V in (V1, V2, V3)]


def absolutely_orthogonal_bases():
    """K=4, n=6; pair {3,4} shares one direction, everything orthogonal."""
    V1 = np.array([[0, 0, 1, 0, 0, 0]], dtype=float).T
    V2 = np.array([[0, 0, 0, 1, 0, 0]], dtype=float).T
    V3 = np.array([[S2, S2, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]], dtype=float).T
    V4 = np.array([[S2, S2, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]], dtype=float).T
    return [OrthonormalBasis(V) for V in (V1, V2, V3, V4)]


def non_absolutely_orthogonal_bases():
    """K=4, n=6; blocks 1 and 2 lean into the shared {3,4} direction."""
    a = 1.0 / (2.0 * np.sqrt(2.0))
    b = np.sqrt(3.0) / (2.0 * np.sqrt(2.0))
    V1 = np.array([[a, b, S2, 0, 0, 0]], dtype=float).T
    V2 = np.array([[b, a, 0, S2, 0, 0]], dtype=float).T
    V3 = np.array([[S2, S2, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]], dtype=float).T
    V4 = np.array([[S2, S2, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]], dtype=float).T
    return [OrthonormalBasis(V) for V in (V1, V2, V3, V4)]


def signals_of_bases(bases):
    """Signal estimates with the given score bases (the factor is a dummy)."""
    return [SignalEstimate(np.zeros((2, b.r)), b) for b in bases]


def random_basis(rng, n, r):
    from psidecomp import orthonormalize
    return orthonormalize(rng.standard_normal((n, r)), 1e-12)


def random_shared_signals(seed, K, n, noise):
    """Centered blocks of rank 1-4 over n samples: one or two own directions
    each, a direction that most blocks share, and one that blocks 1 and 2 share."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((n, 2))
    signals, ranks = [], []
    for k in range(K):
        cols = [rng.standard_normal((n, int(rng.integers(1, 3))))]
        if rng.random() < 0.7:
            cols.append(shared[:, :1])
        if k < 2:
            cols.append(shared[:, 1:])
        S = np.hstack(cols)
        r = S.shape[1]
        p = int(rng.integers(r, 9))
        X = rng.standard_normal((p, r)) @ S.T + noise * rng.standard_normal((p, n))
        signals.append(extract_signal(X - X.mean(axis=1, keepdims=True), r,
                                      check_centering=False))
        ranks.append(r)
    return signals, ranks


def make_structure(K, ranks_by_members):
    entries = tuple(
        (s, ranks_by_members.get(s.members, 0)) for s in default_ordering(K)
    )
    return PartialJointStructure(entries, K)


def split_halves(data, seed):
    """Each block's training and test columns under ``split(data.n, seed)``."""
    plan = split(data.n, seed)
    return ([X[:, list(plan.train)] for X in data.blocks],
            [X[:, list(plan.test)] for X in data.blocks])


def scale_apart(data, e):
    """The row-centred blocks of ``data`` with block 1 times 2^-e and block 2
    times 2^e, the others as they are."""
    return [np.ldexp(X - X.mean(axis=1, keepdims=True), s)
            for X, s in zip(data.blocks, (-e, e) + (0,) * (data.K - 2))]


def assert_rejects(call, error, message):
    """``call()`` raises exactly ``error``, not a subclass, with this message."""
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
