import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eshopsim import tcn
from eshopsim.tcn import (
    BlockParams,
    TcnModelConfig,
    TrainConfig,
    TrainingDiverged,
    causal_conv,
    dilated_causal_conv,
    forward_batch,
    backward_batch,
    init_params,
    live_param_count,
    load_model,
    measure_receptive_field,
    model_forward,
    receptive_field,
    residual_block,
    rmse_loss,
    save_model,
    train,
)
from oracles import fd_gradient, full_sequence_tcn, naive_causal_conv

SMALL = TcnModelConfig(
    in_channels=4,
    kernel_size=3,
    dilations=(1, 2),
    hidden_channels=4,
    dense_sizes=(4,),
    seed=3,
)


def test_causal_conv_identity_filter():
    x = np.array([[1.0], [2.0], [3.0]])
    f = np.array([[[1.0]]])
    assert np.array_equal(causal_conv(x, f), x)


def test_causal_conv_hand_example():
    y = causal_conv(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
    assert np.allclose(y[:, 0], [1.0, 3.0, 5.0])


def test_dilated_conv_hand_example():
    y = dilated_causal_conv(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0]), d=2)
    assert np.allclose(y[:, 0], [1.0, 2.0, 4.0, 6.0])


def test_dilation_one_reduces_to_causal():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.normal(size=(20, 3))
    f = rng.normal(size=(5, 3, 2))
    b = rng.normal(size=2)
    assert np.array_equal(causal_conv(x, f, b), dilated_causal_conv(x, f, 1, b))


def test_dilated_conv_impulse_response():
    k, d, T = 4, 3, 32
    x = np.zeros((T, 1))
    x[0, 0] = 1.0
    f = np.arange(1.0, k + 1.0).reshape(k, 1, 1)
    y = dilated_causal_conv(x, f, d)[:, 0]
    nz = np.nonzero(y)[0]
    assert list(nz) == [0, d, 2 * d, 3 * d]
    assert np.allclose(y[nz], [1.0, 2.0, 3.0, 4.0])


def test_conv_shape_mismatch_raises():
    with pytest.raises(ValueError):
        causal_conv(np.zeros((5, 3)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        dilated_causal_conv(np.zeros((5, 2)), np.zeros((3, 2, 2)), d=0)


def test_conv_matches_naive_oracle():
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(30):
        T = int(rng.integers(1, 40))
        ci = int(rng.integers(1, 6))
        co = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        d = int(rng.choice([1, 2, 4]))
        x = rng.normal(size=(T, ci))
        f = rng.normal(size=(k, ci, co))
        b = rng.normal(size=co)
        got = dilated_causal_conv(x, f, d, b)
        want = naive_causal_conv(x, f, b, d)
        assert np.max(np.abs(got - want)) < 1e-12


def test_residual_block_identity_skip():
    bp = BlockParams(w=np.zeros((3, 4, 4)), b=np.zeros(4), proj=None)
    x = np.abs(np.random.default_rng(0).normal(size=(10, 4)))
    assert np.array_equal(residual_block(x, bp, d=1), x)
    x_neg = x.copy()
    x_neg[3, 2] = -5.0
    out = residual_block(x_neg, bp, d=1)
    assert out[3, 2] == 0.0  # negatives clamped by the output relu
    assert np.array_equal(np.delete(out, 3, axis=0), np.delete(x_neg, 3, axis=0))


def test_residual_block_causality_probe():
    params = init_params(SMALL)
    bp = params.blocks[0]
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(size=(30, 4))
    base = residual_block(x, bp, d=2)
    x2 = x.copy()
    x2[20:, :] = rng.normal(size=(10, 4))
    out = residual_block(x2, bp, d=2)
    assert np.array_equal(base[:20], out[:20])


def test_model_causality_bit_exact():
    # every block's output at time <= t0 ignores perturbations at times > t0
    params = init_params(SMALL)
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.normal(size=(2, 24, 4))
    X2 = X.copy()
    X2[:, 17:, :] = rng.normal(size=(2, 7, 4))
    h, h2 = X, X2
    for bp, d in zip(params.blocks, params.config.dilations):
        from eshopsim.tcn import _block_forward

        h, _ = _block_forward(h, bp, d)
        h2, _ = _block_forward(h2, bp, d)
        assert np.array_equal(h[:, :17, :], h2[:, :17, :])
    assert not np.array_equal(h[:, 17:, :], h2[:, 17:, :])


def test_model_forward_contract():
    params = init_params(SMALL)
    w = np.random.default_rng(1).normal(size=(16, 4))
    a = model_forward(params, w)
    b = model_forward(params, w)
    assert a == b and np.isfinite(a)
    with pytest.raises(ValueError):
        model_forward(params, np.zeros((16, 5)))


def test_rmse_loss_examples():
    loss, grad = rmse_loss(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(np.sqrt(25.0 / 2.0), abs=1e-12)
    loss0, grad0 = rmse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert loss0 == 0.0 and np.array_equal(grad0, np.zeros(2))
    with pytest.raises(ValueError):
        rmse_loss(np.array([]), np.array([]))


def test_rmse_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(2))
    y = rng.normal(size=12)
    yhat = rng.normal(size=12)
    _, grad = rmse_loss(y, yhat)
    fd = fd_gradient(lambda: rmse_loss(y, yhat)[0], [yhat], h=1e-6)[0]
    rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-9)
    assert rel.max() < 1e-6


def _loss_fn(params, X, y):
    yhat, cache = forward_batch(params, X)
    loss, dyhat = rmse_loss(y, yhat)
    return loss, cache, dyhat


def test_full_gradient_check_small_net():
    rng = np.random.Generator(np.random.PCG64(7))
    params = init_params(SMALL)
    # nonzero biases keep relu pre-activations away from the kink
    for bp in params.blocks:
        bp.b[:] = rng.normal(size=bp.b.shape) * 0.3
    for dp in params.dense:
        dp.b[:] = rng.normal(size=dp.b.shape) * 0.3
    X = rng.normal(size=(3, 12, 4))
    y = rng.normal(size=3) + 2.0

    loss, cache, dyhat = _loss_fn(params, X, y)
    grads = backward_batch(params, cache, dyhat)
    for analytic, a in zip(grads.arrays(), params.arrays()):
        fd = fd_gradient(lambda: _loss_fn(params, X, y)[0], [a], h=1e-6)[0]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
        rel = np.abs(analytic - fd) / denom
        assert rel.max() < 1e-4


@given(
    k=st.integers(min_value=1, max_value=5),
    dilations=st.sets(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), min_size=1),
    T=st.integers(min_value=1, max_value=39),
    B=st.integers(min_value=1, max_value=5),
    c_in=st.integers(min_value=1, max_value=3),
    hidden=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_cone_forward_backward_equal_full_sequence(k, dilations, T, B, c_in, hidden, seed):
    # integer-valued float64 data keeps every sum exact in any order, so the
    # last-step cone must agree with the all-timestep oracle bit for bit
    cfg = TcnModelConfig(
        in_channels=c_in,
        kernel_size=k,
        dilations=tuple(sorted(dilations)),
        hidden_channels=hidden,
        dense_sizes=(2,),
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_params(cfg)
    for a in params.arrays():
        a[...] = rng.integers(-1, 2, size=a.shape)
    X = rng.integers(-2, 3, size=(B, T, c_in)).astype(np.float64)
    dyhat = rng.integers(-2, 3, size=B).astype(np.float64)
    want_y, want_grads = full_sequence_tcn(params, X, dyhat)
    yhat, cache = forward_batch(params, X)
    assert np.array_equal(yhat, want_y)
    grads = backward_batch(params, cache, dyhat)
    for got, want in zip(grads.arrays(), want_grads):
        assert np.array_equal(got, want)


@given(
    k=st.integers(min_value=1, max_value=5),
    dilations=st.sets(st.sampled_from([1, 2, 4, 8, 16]), min_size=1, max_size=3),
    T=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=70),
    c_in=st.integers(min_value=1, max_value=40),
    hidden=st.integers(min_value=1, max_value=8),
    dense=st.lists(st.integers(min_value=1, max_value=8), max_size=3),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_predict_is_batch_invariant(k, dilations, T, n, c_in, hidden, dense, dtype, seed, data):
    # each window's matmuls keep the shape of a single-window pass, so a
    # prediction has the same bits in a batch of any size; small widths are
    # the shapes where one GEMM over all windows' rows drifts with the batch
    cfg = TcnModelConfig(
        in_channels=c_in,
        kernel_size=k,
        dilations=tuple(sorted(dilations)),
        hidden_channels=hidden,
        dense_sizes=tuple(dense),
        seed=seed,
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_params(cfg, dtype)
    for a in params.arrays():
        if a.ndim == 1:  # nonzero biases, so fewer relus are exactly zero
            a[...] = rng.normal(size=a.shape) * 0.3
    bank = ArrayBank(rng.normal(size=(n, T, c_in)).astype(dtype), np.zeros(n))
    want = np.asarray([model_forward(params, x) for x in bank.X])
    for b in (1, data.draw(st.integers(min_value=1, max_value=n)), n):
        assert np.array_equal(tcn.predict(params, bank, batch_size=b), want)


def test_live_param_count_paper_config():
    params = init_params(TcnModelConfig())
    assert params.param_count() == 84_513
    assert live_param_count(params, 96) == 61_985
    assert live_param_count(params, 64) == 54_817
    assert live_param_count(params, 2000) == 84_513


def test_dead_taps_never_move_in_training():
    # taps with d*p >= W never see an input: zero gradient, zero Adam step
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2, 4, 8), hidden_channels=4, dense_sizes=(4,), seed=4
    )
    T = 8
    bank = _overfit_data(T=T, seed=7)
    tr = TrainConfig(epochs=3, batch_size=8, patience=0, dtype="float32", seed=2)
    params, _ = train(bank, bank, cfg, tr)
    init = init_params(cfg, np.float32)
    dead = 0
    for bp, bp0, d in zip(params.blocks, init.blocks, cfg.dilations):
        for p in range(cfg.kernel_size):
            if d * p >= T:
                assert np.array_equal(bp.w[p], bp0.w[p])
                dead += bp.w[p].size
            else:
                assert not np.array_equal(bp.w[p], bp0.w[p])
    assert dead == 3 * 4 * 4
    assert live_param_count(params, T) == params.param_count() - dead


def test_receptive_field_closed_form_and_probe():
    assert receptive_field(TcnModelConfig()) == 1271
    cfg = TcnModelConfig(
        in_channels=1, kernel_size=3, dilations=(1, 2, 4), hidden_channels=3, dense_sizes=(3,)
    )
    assert receptive_field(cfg) == 1 + 2 * 7
    assert measure_receptive_field(cfg) == 15


@given(
    k=st.integers(min_value=1, max_value=4),
    n_dil=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10)
def test_receptive_field_probe_matches_formula(k, n_dil):
    cfg = TcnModelConfig(
        in_channels=1,
        kernel_size=k,
        dilations=tuple(2**i for i in range(n_dil)),
        hidden_channels=2,
        dense_sizes=(2,),
        seed=k * 10 + n_dil,
    )
    assert measure_receptive_field(cfg) == receptive_field(cfg)


class ArrayBank:
    """Raw (X, y) arrays behind the window-bank gather interface."""

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X = X
        self.y = np.asarray(y)

    def __len__(self) -> int:
        return len(self.y)

    def gather(self, idx) -> np.ndarray:
        return self.X[np.asarray(idx)]


def _overfit_data(n=32, T=16, c=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.normal(size=(n, T, c))
    y = rng.uniform(0.5, 2.0, size=n)
    return ArrayBank(X, y)


def test_train_overfits_small_set():
    bank = _overfit_data()
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=8, dense_sizes=(8,), seed=0
    )
    tr = TrainConfig(epochs=500, batch_size=32, patience=0, dtype="float64", seed=0)
    params, history = train(bank, ArrayBank(np.zeros((0, 16, 4)), np.zeros(0)), cfg, tr)
    assert history[-1]["train_rmse"] < 0.01


def test_train_loss_mostly_non_increasing():
    bank = _overfit_data(seed=3)
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=8, dense_sizes=(8,), seed=1
    )
    tr = TrainConfig(epochs=200, batch_size=32, patience=0, dtype="float64", seed=1)
    _, history = train(bank, ArrayBank(np.zeros((0, 16, 4)), np.zeros(0)), cfg, tr)
    losses = [h["train_rmse"] for h in history]
    warmup = 10
    increases = sum(1 for a, b in zip(losses[warmup:], losses[warmup + 1 :]) if b > a)
    assert increases <= 0.05 * (len(losses) - warmup)


def test_train_deterministic_given_seed():
    bank = _overfit_data(seed=5)
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=4, dense_sizes=(4,), seed=2
    )
    tr = TrainConfig(epochs=5, batch_size=8, patience=0, seed=9)
    p1, h1 = train(bank, bank, cfg, tr)
    p2, h2 = train(bank, bank, cfg, tr)
    assert h1 == h2
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)


def test_train_diverged_raises():
    bank = _overfit_data(seed=6)
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=4, dense_sizes=(4,), seed=2
    )
    tr = TrainConfig(learning_rate=1e18, epochs=50, batch_size=32, patience=0, dtype="float32")
    with pytest.raises(TrainingDiverged):
        train(bank, bank, cfg, tr)


def test_model_file_round_trip(tmp_path):
    params = init_params(SMALL, np.float32)
    path = tmp_path / "model.tcn"
    save_model(path, params, extra={"config_hash": "cafe", "master_seed": 3})
    loaded, header = load_model(path)
    assert header["extra"]["config_hash"] == "cafe"
    assert header["param_count"] == params.param_count()
    assert loaded.config == params.config
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)
    w = np.random.default_rng(0).normal(size=(16, 4))
    assert model_forward(params, w) == model_forward(loaded, w)


def test_model_file_truncation_detected(tmp_path):
    params = init_params(SMALL, np.float32)
    path = tmp_path / "model.tcn"
    save_model(path, params)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)


def test_config_validation():
    with pytest.raises(ValueError):
        TcnModelConfig(dilations=(1, 3))
    with pytest.raises(ValueError):
        TcnModelConfig(dilations=(4, 2))
    with pytest.raises(ValueError):
        TcnModelConfig(kernel_size=0)
    with pytest.raises(ValueError):
        TrainConfig(dtype="float16")
