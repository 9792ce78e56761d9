"""The threshold path against a literal transcription of the algorithm.

``oracle.identify`` works on dense n x n projectors with the textbook
formulas and shares no kernel with ``psidecomp``, so it checks the fast
kernels on spans: the structure, the per-index-set projectors and the
stable interval, for the public per-direction schedule and for the
per-stage schedule of ``select_lambda``'s training path.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cases import random_shared_signals
from psidecomp import default_grid, default_ordering, identify_path
from psidecomp.core import _path

GRID = default_grid()
PROJECTOR_TOL = 1e-10
NEAR_GATE = 1e-9      # a grid point this close to a gate angle may go either way
# The share of cases skipped may not exceed this. The derandomized draws
# below skip 31 of 100 (22 ties, 9 near a gate), as hypothesis favours noise
# 0 and lambda = 0; uniform draws over the same ranges skipped 9% of 2,000.
MAX_SKIPPED = 0.4


def skip_reason(result, thresholds):
    """Why the oracle cannot be held to ``result``, or None.

    A flag-mean tie lets the oracle's eigh pick any direction in the tied
    space, and a threshold within NEAR_GATE of a gate's largest angle turns
    on rounding. The accepted gates' largest angle is the interval's lo and
    the smallest rejected one its hi.
    """
    if any(rec.degenerate for rec in result.diagnostics):
        return "degenerate"
    if any(abs(t - g) <= NEAR_GATE for t in thresholds for g in result.stable_interval):
        return "near a gate"
    return None


def test_path_matches_the_oracle():
    counts = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 4), n=st.integers(6, 14),
           noise=st.sampled_from([0.0, 0.01, 0.1]), i=st.integers(0, GRID.size - 1))
    def check(seed, K, n, noise, i):
        signals, _ = random_shared_signals(seed, K, n, noise)
        ordering = default_ordering(K)
        sets = [s.members for s in ordering]
        bases = [sig.score_basis.columns for sig in signals]

        def oracle_at(j):
            return oracle.identify(bases, sets, GRID[j])

        counts["cases"] += 1
        # the interval holding grid point i, on each schedule
        found = [[t for t in path if t[0] <= i < t[1]][0]
                 for path in (identify_path(signals, ordering, GRID),
                              _path(signals, ordering, GRID, per_stage=True))]
        i0, i1, _ = found[0]
        above = [i1] if i1 < GRID.size else []
        thresholds = GRID[[i0, i, i1 - 1, *above]]
        reason = skip_reason(found[0][2], thresholds) or skip_reason(found[1][2], thresholds)
        if reason:
            counts[reason] += 1
            return
        want = oracle_at(i)
        for j0, j1, got in found:
            assert (j0, j1) == (i0, i1)
            assert {s.members: r for s, r in got.structure.entries} == oracle.structure(want)
            for s, basis in got.scores.items():
                gap = np.max(np.abs(basis.projector() - want[s.members]))
                assert gap <= PROJECTOR_TOL
        # constant over the grid points in (lo, hi], changed at the first above hi
        for j in (i0, i1 - 1):
            assert oracle.structure(oracle_at(j)) == oracle.structure(want)
        for j in above:
            assert oracle.structure(oracle_at(j)) != oracle.structure(want)

    check()
    skipped = counts["degenerate"] + counts["near a gate"]
    assert skipped <= MAX_SKIPPED * counts["cases"], counts
