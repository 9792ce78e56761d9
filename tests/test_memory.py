# Memory budget of a tuned fit. Signal estimates keep their p x r factors, and
# select_lambda copies the training and test halves one block at a time, so
# above its inputs a tuned fit holds about one block's worth of memory.

import tracemalloc

import numpy as np
import pytest

from psidecomp import default_grid, extract_signal, generate, model_preset, select_lambda


@pytest.fixture(scope="module")
def multi_omics():
    """Model 6 at p = 1,000 features per block, n = 200 samples, ranks 8."""
    model = model_preset(6, snr=15.0, n=200, block_size=1000)
    return model, generate(model, seed=7).dataset()


def test_select_lambda_peak_stays_under_one_and_a_half_blocks(multi_omics):
    model, data = multi_omics
    grid = default_grid()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        select_lambda(data, model.block_ranks(), model.ordering, grid, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.blocks[0].nbytes


def _arrays(obj, seen):
    """Every ndarray reachable from ``obj`` through attributes, containers and
    array bases."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from _arrays(obj.base, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


def test_signal_estimate_holds_no_p_by_n_array(multi_omics):
    model, data = multi_omics
    X = data.blocks[0]
    sig = extract_signal(X, model.block_ranks()[0], check_centering=False)
    arrays = list(_arrays(sig, set()))
    assert {a.shape for a in arrays} >= {(1000, 8), (200, 8)}
    assert all(a.size < X.size for a in arrays)
