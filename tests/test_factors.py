# A signal estimate keeps the p x r factor X V and the score basis V, not the
# p x n estimate Zhat = (X V) V^T. These tests pin every consumer of the
# factors to the dense construction it replaces: the estimate's bytes, the
# loadings, the relative squared error and the held-out risk.

import numpy as np
import pytest

from psidecomp import (
    SignalEstimate,
    default_grid,
    estimate_loadings,
    extract_signal,
    generate,
    identify,
    identify_path,
    metric_rse,
    model_preset,
    reconstruct,
)
from psidecomp.tuning import _heldout_pieces, _heldout_risk

from cases import split_halves

CASES = [(model_id, seed) for model_id in range(1, 7) for seed in (1000, 1001, 1002)]


def fit(model_id, seed, lam_deg=20.0):
    model = model_preset(model_id, snr=15.0, n=120, block_size=80)
    truth = generate(model, seed)
    signals = [extract_signal(X, r, check_centering=False)
               for X, r in zip(truth.blocks, model.block_ranks())]
    result = identify(signals, model.ordering, np.deg2rad(lam_deg))
    return model, truth, signals, result


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("model_id,seed", CASES)
def test_zhat_has_the_bytes_of_the_dense_product(model_id, seed):
    _, truth, signals, _ = fit(model_id, seed)
    for X, sig in zip(truth.blocks, signals):
        V = sig.score_basis.columns
        assert sig.factor.shape == (X.shape[0], sig.rank)
        assert sig.zhat.tobytes() == ((X @ V) @ V.T).tobytes()


@pytest.mark.parametrize("model_id,seed", CASES)
def test_loadings_equal_zhat_times_the_stacked_scores(model_id, seed):
    model, _, signals, result = fit(model_id, seed)
    loads = estimate_loadings(signals, result)
    for k in range(1, model.K + 1):
        W, labels = result.stacked_scores(k)
        if W.shape[1]:
            want = signals[k - 1].zhat @ W
            assert relative_gap(loads.aligned(k, labels), want) <= 1e-12


@pytest.mark.parametrize("model_id,seed", CASES)
def test_rse_equals_the_dense_residual(model_id, seed):
    model, truth, signals, result = fit(model_id, seed)
    loads = estimate_loadings(signals, result)
    dense = np.mean([np.sum((Z - reconstruct(loads, result, k)) ** 2) / np.sum(Z * Z)
                     for k, Z in enumerate(truth.signals, start=1)])
    assert metric_rse(truth, loads, result) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("model_id,seed", CASES)
def test_heldout_risk_is_bit_equal_to_the_training_copy_pieces(model_id, seed):
    model = model_preset(model_id, snr=15.0, n=120, block_size=80)
    data = generate(model, seed).dataset()
    train, test = split_halves(data, seed)
    signals = [extract_signal(B, r, check_centering=False)
               for B, r in zip(train, model.block_ranks())]
    # the same pieces, from factors formed here on the training copies
    dense = [SignalEstimate(X_train @ sig.score_basis.columns, sig.score_basis)
             for X_train, sig in zip(train, signals)]
    old = _heldout_pieces(test, dense)
    new = _heldout_pieces(iter(test), signals)
    for _, _, res in identify_path(signals, model.ordering, default_grid()):
        assert _heldout_risk(new, res) == _heldout_risk(old, res)
