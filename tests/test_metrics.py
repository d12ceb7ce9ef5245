import numpy as np
import pytest

from eshopsim.tcn import compute_metrics


def test_perfect_predictor():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    rep = compute_metrics(y, y.copy())
    assert rep.r2 == 1.0
    assert rep.evs == 1.0
    assert rep.mape_pct == 0.0
    assert rep.mae == 0.0
    assert rep.rmse_s == 0.0


def test_mean_predictor_gives_zero_r2():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    rep = compute_metrics(y, np.full_like(y, y.mean()))
    assert rep.r2 == pytest.approx(0.0, abs=1e-12)
    assert rep.evs == pytest.approx(0.0, abs=1e-12)


def test_hand_computed_mape_and_mae():
    rep = compute_metrics(np.array([2.0, 4.0]), np.array([1.0, 5.0]))
    assert rep.mape_pct == pytest.approx(37.5, abs=1e-12)
    assert rep.mae == pytest.approx(1.0, abs=1e-12)


def test_evs_equals_r2_for_unbiased_residuals():
    rng = np.random.Generator(np.random.PCG64(0))
    y = rng.normal(size=100) + 5.0
    res = rng.normal(size=100)
    res -= res.mean()  # exactly unbiased
    rep = compute_metrics(y, y - res)
    assert rep.evs == pytest.approx(rep.r2, abs=1e-12)


def test_r2_never_exceeds_evs_on_random_vectors():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        y = rng.normal(size=n)
        yhat = rng.normal(size=n)
        rep = compute_metrics(y, yhat)
        assert rep.r2 <= rep.evs
        assert rep.r2 <= 1.0 and rep.evs <= 1.0


def test_constant_targets_reported_as_undefined():
    y = np.full(5, 2.0)
    rep = compute_metrics(y, np.arange(5.0))
    assert rep.r2 is None and rep.evs is None
    assert "r2" in rep.undefined and "constant" in rep.undefined["r2"]
    assert rep.mae > 0.0


def test_nonpositive_targets_disable_mape():
    rep = compute_metrics(np.array([0.0, -1.0]), np.array([0.5, 1.0]))
    assert rep.mape_pct is None
    assert "mape_pct" in rep.undefined


def test_mape_skips_zero_targets():
    # a countdown of 0 (the report at T0) has no relative error; the rest count
    rep = compute_metrics(np.array([0.0, 2.0, 4.0]), np.array([0.5, 1.0, 5.0]))
    assert rep.mape_pct == pytest.approx(37.5, abs=1e-12)
    assert "mape_pct" not in rep.undefined
    assert rep.mae == pytest.approx(2.5 / 3.0, abs=1e-12)


def test_empty_split_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.array([]), np.array([]))
