import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eshopsim import tcn
from eshopsim.config import ConfigError, ExperimentConfig
from eshopsim.dataset import N_FEATURES, WindowBank
from eshopsim.tcn import (
    BlockParams,
    TcnModelConfig,
    TrainConfig,
    TrainingDiverged,
    _Adam,
    _block_forward,
    _dconv_forward,
    _relu_grad,
    _strided,
    forward_batch,
    backward_batch,
    init_params,
    live_param_count,
    load_model,
    model_forward,
    receptive_field,
    rmse_loss,
    save_model,
    train,
)
from oracles import (
    PerArrayAdam,
    fd_gradient,
    full_sequence_tcn,
    measure_receptive_field,
    naive_causal_conv,
    per_array_train,
    per_tap_forward_batch,
    where_backward_batch,
)

SMALL = TcnModelConfig(
    in_channels=4,
    kernel_size=3,
    dilations=(1, 2),
    hidden_channels=4,
    dense_sizes=(4,),
    seed=3,
)


def _conv(x, f, b=None, stride=1):
    """``_dconv_forward`` on one sequence x (T, C_in) with filter f (k, C_in, C_out)."""
    b = np.zeros(f.shape[2]) if b is None else b
    return _dconv_forward(x[None], f, b, stride)[0]


def test_causal_conv_identity_filter():
    x = np.array([[1.0], [2.0], [3.0]])
    f = np.array([[[1.0]]])
    assert np.array_equal(_conv(x, f), x)


def test_causal_conv_hand_example():
    y = _conv(np.array([[1.0], [2.0], [3.0]]), np.ones((2, 1, 1)))
    assert np.allclose(y[:, 0], [1.0, 3.0, 5.0])


def test_dilated_conv_hand_example():
    # a dilation-2 conv of [1, 2, 3, 4] is [1, 2, 4, 6]; the cone reads its
    # input at t = T-1 (mod 2), where the conv has dilation 1: [2, 4] -> [2, 6]
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = _conv(_strided(x[None], 2)[0], np.ones((2, 1, 1)))
    assert np.allclose(y[:, 0], [2.0, 6.0])


def test_dilated_conv_impulse_response():
    # impulse at t=0, dilation 3, T = 31: the outputs at t = 0, 3, ..., 30 are
    # the taps 1..4 at t = 0, 3, 6, 9 and zero after
    k, d, T = 4, 3, 31
    x = np.zeros((T, 1))
    x[0, 0] = 1.0
    f = np.arange(1.0, k + 1.0).reshape(k, 1, 1)
    y = _conv(_strided(x[None], d)[0], f)[:, 0]
    nz = np.nonzero(y)[0]
    assert list(nz * d) == [0, d, 2 * d, 3 * d]
    assert np.allclose(y[nz], [1.0, 2.0, 3.0, 4.0])


def test_conv_matches_naive_oracle():
    # dilation d on the input compressed to t = T-1 (mod d), then output
    # stride s: the outputs at t = T-1 (mod d*s) of the dilated conv
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(60):
        T = int(rng.integers(1, 40))
        ci = int(rng.integers(1, 6))
        co = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        d = int(rng.choice([1, 2, 4]))
        stride = int(rng.choice([1, 2, 4]))
        x = rng.normal(size=(T, ci))
        f = rng.normal(size=(k, ci, co))
        b = rng.normal(size=co)
        got = _conv(_strided(x[None], d)[0], f, b, stride)
        want = naive_causal_conv(x, f, b, d)[(T - 1) % (d * stride) :: d * stride]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


def test_residual_block_identity_skip():
    bp = BlockParams(w=np.zeros((3, 4, 4)), b=np.zeros(4), proj=None)
    x = np.abs(np.random.default_rng(0).normal(size=(10, 4)))
    assert np.array_equal(_block_forward(x[None], bp, 1)[0][0], x)
    x_neg = x.copy()
    x_neg[3, 2] = -5.0
    out = _block_forward(x_neg[None], bp, 1)[0][0]
    assert out[3, 2] == 0.0  # negatives clamped by the output relu
    assert np.array_equal(np.delete(out, 3, axis=0), np.delete(x_neg, 3, axis=0))


def test_residual_block_causality_probe():
    # a block with a 1x1 projection skip (3 -> 4 channels)
    cfg = TcnModelConfig(in_channels=3, kernel_size=3, dilations=(1,), hidden_channels=4, seed=5)
    bp = init_params(cfg).blocks[0]
    assert bp.proj is not None
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(size=(1, 30, 3))
    base, _ = _block_forward(x, bp, 1)
    x2 = x.copy()
    x2[:, 20:, :] = rng.normal(size=(1, 10, 3))
    out, _ = _block_forward(x2, bp, 1)
    assert np.array_equal(base[:, :20], out[:, :20])


def test_model_causality_bit_exact():
    # every block's output at time <= t0 ignores perturbations at times > t0
    params = init_params(SMALL)
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.normal(size=(2, 24, 4))
    X2 = X.copy()
    X2[:, 17:, :] = rng.normal(size=(2, 7, 4))
    h, h2 = X, X2
    for bp in params.blocks:
        h, _ = _block_forward(h, bp, 1)
        h2, _ = _block_forward(h2, bp, 1)
        assert np.array_equal(h[:, :17, :], h2[:, :17, :])
    assert not np.array_equal(h[:, 17:, :], h2[:, 17:, :])


def test_model_forward_contract():
    params = init_params(SMALL)
    w = np.random.default_rng(1).normal(size=(16, 4))
    a = model_forward(params, w, 15)
    b = model_forward(params, w, 15)
    assert a == b and np.isfinite(a)
    with pytest.raises(ValueError):
        model_forward(params, np.zeros((16, 5)), 15)
    with pytest.raises(ValueError, match="position"):
        model_forward(params, w, -1)


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
    # every conv GEMM runs on a fixed tile of TILE_ROWS rows (the shared rows
    # anchored at the segment start, a window's own rows one window per slot)
    # and the head per window, so a prediction has the same bits in a batch
    # of any size; small widths are the shapes where a GEMM over all windows'
    # rows drifts with the batch, and 31, 32 and 33 straddle one tile
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
    X = rng.normal(size=(n, T, c_in)).astype(dtype)
    bank = array_bank(X, np.zeros(n))
    want = np.asarray([model_forward(params, x, T - 1) for x in X])
    for b in (1, 31, 32, 33, data.draw(st.integers(min_value=1, max_value=n)), n):
        assert np.array_equal(predict_in_chunks(params, bank, b), want)


def _segmented_bank(data, rows, window_len, dtype, max_windows=None):
    """A bank over ``rows`` with random segment boundaries, its windows ending
    at a random subset of rows (at most ``max_windows``)."""
    n = len(rows)
    cuts = data.draw(st.lists(st.integers(1, max(1, n - 1)), max_size=4))
    segments = np.searchsorted(sorted(cuts), np.arange(n), side="right")
    ends = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=max_windows or n, unique=True)
    )
    return WindowBank(rows, segments, sorted(ends), window_len, dtype)


@given(
    k=st.integers(min_value=1, max_value=5),
    dilations=st.sets(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3),
    c_in=st.integers(min_value=1, max_value=3),
    hidden=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_predict_equals_full_sequence_oracle(k, dilations, c_in, hidden, seed, data):
    # integer-valued float64 data keeps every sum exact in any order, so the
    # split into segment-shared and per-window rows must give the
    # all-timestep oracle's bits whatever the BLAS; W lands just below, on
    # and above each block's depth R_i = (k-1)(d_0 + ... + d_i)
    dilations = tuple(sorted(dilations))
    cfg = TcnModelConfig(
        in_channels=c_in,
        kernel_size=k,
        dilations=dilations,
        hidden_channels=hidden,
        dense_sizes=(2,),
    )
    depths = np.cumsum(dilations) * (k - 1)
    W = data.draw(st.sampled_from(sorted({max(1, int(R) + e) for R in depths for e in (-1, 0, 1)})))
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_params(cfg)
    for a in params.arrays():
        a[...] = rng.integers(-1, 2, size=a.shape)
    n = data.draw(st.integers(min_value=1, max_value=2 * W + 40))
    rows = rng.integers(-2, 3, size=(n, c_in)).astype(np.float64)
    bank = _segmented_bank(data, rows, W, np.float64, max_windows=12)
    X = bank.gather(np.arange(len(bank)))
    want, _ = full_sequence_tcn(params, X, np.zeros(len(bank)))
    batch = data.draw(st.integers(min_value=1, max_value=len(bank)))
    assert np.array_equal(predict_in_chunks(params, bank, batch), want)


@given(
    k=st.integers(min_value=1, max_value=5),
    dilations=st.sets(st.sampled_from([1, 2, 4, 8, 16]), min_size=1, max_size=3),
    W=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=160),
    c_in=st.integers(min_value=1, max_value=40),
    hidden=st.integers(min_value=1, max_value=8),
    dense=st.lists(st.integers(min_value=1, max_value=8), max_size=3),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_predict_equals_one_window_pass_narrow_widths(
    k, dilations, W, n, c_in, hidden, dense, dtype, seed, data
):
    # narrow GEMMs are where BLAS rounds a row differently with the row
    # count: the chunked pass and the one-window pass agree only because both
    # run every conv GEMM on a tile of TILE_ROWS rows (the shared rows
    # anchored at the segment start) and the head per window
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
    bank = _segmented_bank(data, rng.normal(size=(n, c_in)), W, dtype)
    X = bank.gather(np.arange(len(bank)))
    positions = bank.end - bank.seg_start
    want = np.asarray([model_forward(params, x, p) for x, p in zip(X, positions)])
    for b in (1, 31, 32, 33, data.draw(st.integers(min_value=1, max_value=len(bank))), len(bank)):
        assert np.array_equal(predict_in_chunks(params, bank, b), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "cfg, W",
    [
        *[
            (TcnModelConfig(3, 3, (1, 2, 4), hidden_channels=h, dense_sizes=d, seed=h), 12)
            for h in (1, 2, 3)
            for d in ((1,), (2,))
        ],
        (TcnModelConfig(), 64),  # the paper TCN at the infer-w64 window
    ],
)
def test_predict_bits_do_not_depend_on_the_chunk_slot(cfg, W, dtype):
    # a window's per-window rows run in GEMMs of TILE_ROWS windows, so its
    # bits rest on one property of BLAS: inside a GEMM of fixed size a row's
    # result depends on neither its slot nor its neighbours. The target
    # window takes slot s of a chunk behind s windows of another segment.
    rng = np.random.Generator(np.random.PCG64(W))
    params = init_params(cfg, dtype)
    for a in params.arrays():
        if a.ndim == 1:  # nonzero biases, so fewer relus are exactly zero
            a[...] = rng.normal(size=a.shape) * 0.3
    other = rng.normal(size=(tcn.TILE_ROWS + 7, cfg.in_channels))
    for position in (W // 2, W + 5):  # a zero-padded window, and one inside its segment
        rows = np.concatenate([other, rng.normal(size=(position + 1, cfg.in_channels))])
        segments = np.repeat([0, 1], [len(other), position + 1])
        window = WindowBank(rows, segments, [len(rows) - 1], W, dtype).gather([0])[0]
        want = np.float64(model_forward(params, window, position)).tobytes()
        for s in range(tcn.TILE_ROWS):
            ends = [*range(len(other) - s, len(other)), len(rows) - 1]
            got = tcn.predict(params, WindowBank(rows, segments, ends, W, dtype))
            assert got[s].tobytes() == want, f"slot {s}"


@given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
@settings(max_examples=100)
def test_relu_grad_equals_where_bit_for_bit(dtype, data):
    # each special value once under a true and once under a false mask entry
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    specials = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, info.tiny / 2, info.max],
        dtype=dtype,
    )
    even = st.integers(0, 30).map(lambda n: 2 * n)
    drawn = data.draw(hnp.arrays(dtype, even, elements=st.floats(width=info.bits)))
    g = np.concatenate([specials, specials, drawn])
    mask = np.concatenate([
        np.ones(len(specials), bool),
        np.zeros(len(specials), bool),
        data.draw(hnp.arrays(np.bool_, len(drawn))),
    ])
    want = np.where(mask, g, 0)
    got = _relu_grad(g, mask)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the (B, m, C) shapes of the block backward, and a broadcast mask row
    g3, m3 = g.reshape(2, -1, 1), mask.reshape(2, -1, 1)
    assert _relu_grad(g3, m3).tobytes() == np.where(m3, g3, 0).tobytes()
    assert _relu_grad(g3, m3[:1]).tobytes() == np.where(m3[:1], g3, 0).tobytes()


KERNEL_CASES = [
    (SMALL, 12),  # identity skips after block 0
    (TcnModelConfig(5, 3, (1, 2, 4), hidden_channels=6, dense_sizes=(6, 3)), 9),
    (TcnModelConfig(), 96),  # the paper TCN at the reference window
    (TcnModelConfig(), 64),  # and at the inference workload's
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg, T", KERNEL_CASES)
def test_forward_equals_per_tap_oracle_bit_for_bit(cfg, T, dtype):
    # each tap's GEMM lands in a scratch whose other rows hold -0.0, added
    # whole: x + (-0.0) == x for every float x, so the outputs and every array
    # the backward reads keep the bits of the per-tap sliced add. Signed zeros
    # sit in the biases and inputs; NaN, inf and -inf each in a window of their
    # own, since a window's GEMMs read only its rows
    rng = np.random.Generator(np.random.PCG64(T))
    params = init_params(cfg, dtype)
    for a in params.arrays():
        if a.ndim == 1:
            a[...] = rng.normal(size=a.shape) * 0.3
            a[::3] = -0.0
    X = rng.normal(size=(6, T, cfg.in_channels)).astype(dtype)
    X[0, -3:] = -0.0
    X[1, T // 2, 0] = np.nan
    X[2, -1, -1] = np.inf
    X[3, 0, 0] = -np.inf
    with np.errstate(invalid="ignore"):  # inf - inf makes the NaN this test wants
        got_y, (got, got_head, got_plan) = forward_batch(params, X)
        want_y, (want, want_head, want_plan) = per_tap_forward_batch(params, X)
    assert np.isnan(got_y[1]) and np.isfinite(got_y[[0, 4, 5]]).all()
    assert got_y.dtype == want_y.dtype and got_y.tobytes() == want_y.tobytes()
    assert got_plan == want_plan
    pairs = []
    for (xph, zpos, upos), (x, want_z, want_u), (_, stride) in zip(got, want, want_plan):
        assert len(xph) == stride  # each block caches its input split into its stride phases
        pairs += [(a, x[:, r::stride]) for r, a in enumerate(xph)]
        pairs += [(zpos, want_z), (upos, want_u)]
    pairs += [(g, w) for gc, wc in zip(got_head, want_head) for g, w in zip(gc, wc)]
    for g, w in pairs:
        if w is None:  # the output layer keeps no relu mask
            assert g is None
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg, T", KERNEL_CASES)
def test_backward_equals_where_oracle_bit_for_bit(cfg, T, dtype):
    rng = np.random.Generator(np.random.PCG64(T))
    params = init_params(cfg, dtype)
    for a in params.arrays():
        if a.ndim == 1:
            a[...] = rng.normal(size=a.shape) * 0.3
    X = rng.normal(size=(5, T, cfg.in_channels)).astype(dtype)
    X[0, -3:] = -0.0  # signed zeros reach the relu masks
    yhat, cache = forward_batch(params, X)
    dyhat = rng.normal(size=5).astype(dtype)
    got = backward_batch(params, cache, dyhat)
    want = where_backward_batch(params, per_tap_forward_batch(params, X)[1], dyhat)
    assert got.flat.tobytes() == np.concatenate([g.ravel() for g in want]).tobytes()
    for a, b in zip(got.arrays(), want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_equals_per_array_oracle_bit_for_bit(tmp_path, monkeypatch, dtype):
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2, 4), hidden_channels=6, dense_sizes=(6, 4), seed=5
    )
    bank, val = _overfit_data(n=40, seed=11), _overfit_data(n=12, seed=12)
    monkeypatch.setattr(tcn, "BATCH_SIZE", 16)  # three batches an epoch, the last one short
    tr = TrainConfig(epochs=3, patience=0, seed=4)
    if np.dtype(dtype) != tcn.DTYPE:
        # train runs only in DTYPE; the kernels it steps stay dtype-generic,
        # so their steps are checked here against the oracle's, batch by batch
        _assert_steps_equal_per_array_oracle(bank, cfg, tr, np.dtype(dtype))
        return
    params, history = train(bank, val, cfg, tr)
    want, want_history = per_array_train(bank, val, cfg, tr)
    assert history == want_history
    assert params.flat.dtype == np.dtype(dtype)
    assert params.flat.tobytes() == want.flat.tobytes()
    save_model(tmp_path / "a.tcn", params)
    save_model(tmp_path / "b.tcn", want)
    assert (tmp_path / "a.tcn").read_bytes() == (tmp_path / "b.tcn").read_bytes()


def test_adam_takes_the_defaults_of_kingma_and_ba():
    # no run varies the step size or the batch: they are constants, not settings
    assert (_Adam.ALPHA, _Adam.BETA1, _Adam.BETA2, _Adam.EPS) == (1e-3, 0.9, 0.999, 1e-8)
    assert tcn.BATCH_SIZE == 64


def _assert_steps_equal_per_array_oracle(bank, cfg, tr, dtype):
    """``train``'s batches in ``dtype``: ``forward_batch``, ``backward_batch``
    and ``_Adam.step`` against ``per_tap_forward_batch``,
    ``where_backward_batch`` and ``PerArrayAdam``, bit for bit."""
    params = init_params(cfg, dtype)
    want = params.copy()
    opt, oracle = _Adam(params.flat), PerArrayAdam(want.arrays())
    rng = np.random.Generator(np.random.PCG64(tr.seed))
    y = np.asarray(bank.y, dtype=dtype)
    steps = 0
    for _ in range(tr.epochs):
        perm = rng.permutation(len(bank))
        for lo in range(0, len(bank), tcn.BATCH_SIZE):
            idx = perm[lo : lo + tcn.BATCH_SIZE]
            X = np.asarray(bank.gather(idx), dtype=dtype)
            yhat, cache = forward_batch(params, X)
            _, dyhat = rmse_loss(y[idx], yhat)
            opt.step(params.flat, backward_batch(params, cache, dyhat).flat)
            yhat, cache = per_tap_forward_batch(want, X)
            _, dyhat = rmse_loss(y[idx], yhat)
            oracle.step(want.arrays(), where_backward_batch(want, cache, dyhat))
            assert params.flat.dtype == dtype
            assert params.flat.tobytes() == want.flat.tobytes(), f"step {steps}"
            steps += 1
    assert steps == tr.epochs * -(-len(bank) // tcn.BATCH_SIZE)


def test_params_are_views_of_one_flat_vector():
    params = init_params(SMALL)
    assert all(np.shares_memory(a, params.flat) for a in params.arrays())
    assert params.flat.tobytes() == b"".join(a.tobytes() for a in params.arrays())
    copy = params.copy()
    assert not np.shares_memory(copy.flat, params.flat)
    assert copy.flat.tobytes() == params.flat.tobytes()
    copy.flat += 1.0
    assert all(np.array_equal(a, b + 1.0) for a, b in zip(copy.arrays(), params.arrays()))
    zeros = params.zeros_like()
    assert zeros.flat.dtype == params.flat.dtype and not zeros.flat.any()
    assert all(np.shares_memory(a, zeros.flat) for a in zeros.arrays())
    assert [a.shape for a in zeros.arrays()] == [a.shape for a in params.arrays()]


def test_live_param_count_paper_config():
    # the pipeline always trains the paper TCN: it reads every encoded feature
    assert TcnModelConfig().in_channels == N_FEATURES
    params = init_params(TcnModelConfig())
    assert params.param_count() == 84_513
    assert live_param_count(params, 96) == 61_985
    assert live_param_count(params, 64) == 54_817
    assert live_param_count(params, 2000) == 84_513


def test_dead_taps_never_move_in_training(monkeypatch):
    # taps with d*p >= W never see an input: zero gradient, zero Adam step
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2, 4, 8), hidden_channels=4, dense_sizes=(4,), seed=4
    )
    T = 8
    bank = _overfit_data(T=T, seed=7)
    monkeypatch.setattr(tcn, "BATCH_SIZE", 8)
    tr = TrainConfig(epochs=3, patience=0, seed=2)
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


def predict_in_chunks(params, bank, chunk: int) -> np.ndarray:
    """``tcn.predict`` with chunks of ``chunk`` windows (rounded up to whole tiles)."""
    with patch.object(tcn, "CHUNK_WINDOWS", chunk):
        return tcn.predict(params, bank)


def array_bank(X: np.ndarray, y: np.ndarray) -> WindowBank:
    """Raw (X, y) arrays as a window bank: each window of X (n, T, C) is a
    segment of its own, of exactly T rows."""
    n, T, c = X.shape
    rows = X.reshape(n * T, c)
    bank = WindowBank(rows, np.repeat(np.arange(n), T), np.arange(n) * T + T - 1, T, X.dtype)
    bank.y = np.asarray(y)
    return bank


def _overfit_data(n=32, T=16, c=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.normal(size=(n, T, c))
    y = rng.uniform(0.5, 2.0, size=n)
    return array_bank(X, y)


def test_train_overfits_small_set(monkeypatch):
    bank = _overfit_data()
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=8, dense_sizes=(8,), seed=0
    )
    monkeypatch.setattr(tcn, "BATCH_SIZE", 32)
    tr = TrainConfig(epochs=500, patience=0, seed=0)
    params, history = train(bank, array_bank(np.zeros((0, 16, 4)), np.zeros(0)), cfg, tr)
    assert history[-1]["train_rmse"] < 0.01


def test_train_loss_mostly_non_increasing(monkeypatch):
    bank = _overfit_data(seed=3)
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=8, dense_sizes=(8,), seed=1
    )
    monkeypatch.setattr(tcn, "BATCH_SIZE", 32)
    tr = TrainConfig(epochs=200, patience=0, seed=1)
    _, history = train(bank, array_bank(np.zeros((0, 16, 4)), np.zeros(0)), cfg, tr)
    losses = [h["train_rmse"] for h in history]
    warmup = 10
    increases = sum(1 for a, b in zip(losses[warmup:], losses[warmup + 1 :]) if b > a)
    assert increases <= 0.05 * (len(losses) - warmup)


def test_train_deterministic_given_seed(monkeypatch):
    bank = _overfit_data(seed=5)
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=4, dense_sizes=(4,), seed=2
    )
    monkeypatch.setattr(tcn, "BATCH_SIZE", 8)
    tr = TrainConfig(epochs=5, patience=0, seed=9)
    p1, h1 = train(bank, bank, cfg, tr)
    p2, h2 = train(bank, bank, cfg, tr)
    assert h1 == h2
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert np.array_equal(a, b)


def test_train_diverged_raises(monkeypatch):
    bank = _overfit_data(seed=6)
    cfg = TcnModelConfig(
        in_channels=4, kernel_size=3, dilations=(1, 2), hidden_channels=4, dense_sizes=(4,), seed=2
    )
    monkeypatch.setattr(tcn._Adam, "ALPHA", 1e18)
    monkeypatch.setattr(tcn, "BATCH_SIZE", 32)
    tr = TrainConfig(epochs=50, patience=0, seed=0)
    # the overflow on the way to a non-finite loss is what this test provokes
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged):
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
    assert model_forward(params, w, 15) == model_forward(loaded, w, 15)


def test_failed_save_keeps_the_previous_model(tmp_path):
    params = init_params(SMALL, np.float32)
    path = tmp_path / "model.tcn"
    save_model(path, params)
    before = path.read_bytes()
    broken = params.copy()
    broken.dense[-1].b = np.array(["not a number"] * broken.dense[-1].b.size)
    with pytest.raises(ValueError):  # raised after the header is written
        save_model(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.tcn"]


def test_model_file_truncation_detected(tmp_path):
    params = init_params(SMALL, np.float32)
    path = tmp_path / "model.tcn"
    save_model(path, params)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)
    # a header naming a config field the model no longer has (an older file)
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + hlen])
    header["config"]["output_dim"] = 1
    blob = json.dumps(header).encode()
    path.write_bytes(data[:4] + len(blob).to_bytes(4, "little") + blob + data[8 + hlen :])
    with pytest.raises(ValueError, match="output_dim"):
        load_model(path)


def test_config_validation():
    with pytest.raises(ValueError):
        TcnModelConfig(dilations=(1, 3))
    with pytest.raises(ValueError):
        TcnModelConfig(dilations=(4, 2))
    with pytest.raises(ValueError):
        TcnModelConfig(kernel_size=0)
    with pytest.raises(ConfigError, match=r"unknown keys in config\.train: \['dtype'\]"):
        ExperimentConfig.from_dict({"train": {"dtype": "float32"}})  # one model precision
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(patience=-1)


def test_blas_pin_says_what_it_looked_for_where_it_finds_no_library(monkeypatch, tmp_path):
    # a numpy without the bundled OpenBLAS: the pin warns instead of guessing
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    with pytest.warns(RuntimeWarning, match=r"numpy\.libs/libscipy_openblas64_\*\.so exporting"):
        tcn._pin_blas_to_one_thread()
