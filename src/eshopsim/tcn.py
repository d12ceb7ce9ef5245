"""From-scratch sequence regression engine.

Causal dilated convolutions with residual blocks, a small dense head on the
last timestep, hand-written reverse-mode gradients, RMSE training loss with
an adaptive-moment optimizer, and the five evaluation metrics.

All convolutions zero-pad the past, so no output depends on future inputs.
The head reads only the last timestep, so the model passes compute each block
only at the positions that timestep depends on (its dependency cone).
Gradients are exact (checked against central finite differences); training is
deterministic for a fixed seed in single-threaded mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MODEL_SCHEMA = "tcn-model/1"
_MAGIC = b"TCN1"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class TcnModelConfig:
    in_channels: int = 39
    kernel_size: int = 11
    dilations: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    hidden_channels: int = 32
    dense_sizes: tuple[int, ...] = (32, 16, 8)
    output_dim: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.dilations, list):
            self.dilations = tuple(self.dilations)
        if isinstance(self.dense_sizes, list):
            self.dense_sizes = tuple(self.dense_sizes)
        if self.kernel_size < 1:
            raise ValueError("kernel size must be >= 1")
        if len(self.dilations) == 0:
            raise ValueError("need at least one dilation")
        for a, b in zip(self.dilations, self.dilations[1:]):
            if b <= a:
                raise ValueError("dilations must be strictly increasing")
        for d in self.dilations:
            if d < 1 or (d & (d - 1)) != 0:
                raise ValueError("dilations must be powers of two")
        if self.output_dim != 1:
            raise ValueError("scalar regression head only")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 10  # early-stop patience in epochs; 0 disables
    lr_decay_factor: float = 1.0  # multiplied into lr on a validation plateau
    lr_decay_patience: int = 0  # plateau length in epochs; 0 disables decay
    dtype: str = "float64"  # "float32" for production-speed training
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not (0.0 < self.lr_decay_factor <= 1.0):
            raise ValueError("lr decay factor must lie in (0, 1]")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass
class MetricsReport:
    r2: float | None
    evs: float | None
    mape_pct: float | None
    mae: float
    rmse_s: float
    n: int
    undefined: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "r2": self.r2,
            "evs": self.evs,
            "mape_pct": self.mape_pct,
            "mae": self.mae,
            "rmse_s": self.rmse_s,
            "n": self.n,
            "undefined": self.undefined,
        }


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class BlockParams:
    w: np.ndarray  # (k, C_in, C_out)
    b: np.ndarray  # (C_out,)
    proj: np.ndarray | None  # (C_in, C_out) 1x1 projection when channels differ


@dataclass
class DenseParams:
    w: np.ndarray
    b: np.ndarray


class ModelParams:
    """Parameter container; array order is the declared on-disk order:
    per block w, b, (proj); then per dense layer w, b."""

    def __init__(self, config: TcnModelConfig, blocks: list[BlockParams], dense: list[DenseParams]):
        self.config = config
        self.blocks = blocks
        self.dense = dense

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for bp in self.blocks:
            out.append(bp.w)
            out.append(bp.b)
            if bp.proj is not None:
                out.append(bp.proj)
        for dp in self.dense:
            out.append(dp.w)
            out.append(dp.b)
        return out

    def param_count(self) -> int:
        return int(sum(a.size for a in self.arrays()))

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.config,
            [BlockParams(b.w.copy(), b.b.copy(), None if b.proj is None else b.proj.copy()) for b in self.blocks],
            [DenseParams(d.w.copy(), d.b.copy()) for d in self.dense],
        )

    @property
    def dtype(self):
        return self.blocks[0].w.dtype


def _layer_channels(config: TcnModelConfig) -> list[tuple[int, int]]:
    chans = []
    c_in = config.in_channels
    for _ in config.dilations:
        chans.append((c_in, config.hidden_channels))
        c_in = config.hidden_channels
    return chans


def _dense_dims(config: TcnModelConfig) -> list[tuple[int, int]]:
    dims = []
    d_in = config.hidden_channels
    for size in config.dense_sizes:
        dims.append((d_in, size))
        d_in = size
    dims.append((d_in, config.output_dim))
    return dims


def init_params(config: TcnModelConfig, dtype=np.float64) -> ModelParams:
    """He-uniform fan-in initialization, biases zero.

    Draw order: per block conv weights then projection; then dense weights.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    blocks = []
    for c_in, c_out in _layer_channels(config):
        lim = np.sqrt(6.0 / (config.kernel_size * c_in))
        w = rng.uniform(-lim, lim, size=(config.kernel_size, c_in, c_out))
        proj = None
        if c_in != c_out:
            plim = np.sqrt(6.0 / c_in)
            proj = rng.uniform(-plim, plim, size=(c_in, c_out)).astype(dtype)
        blocks.append(BlockParams(w.astype(dtype), np.zeros(c_out, dtype=dtype), proj))
    dense = []
    for d_in, d_out in _dense_dims(config):
        lim = np.sqrt(6.0 / d_in)
        w = rng.uniform(-lim, lim, size=(d_in, d_out))
        dense.append(DenseParams(w.astype(dtype), np.zeros(d_out, dtype=dtype)))
    return ModelParams(config, blocks, dense)


# ---------------------------------------------------------------------------
# forward / backward primitives
# ---------------------------------------------------------------------------


def _strided(x: np.ndarray, stride: int) -> np.ndarray:
    """The positions ``T-1, T-1-stride, ...`` of x (B, T, C), in time order."""
    return x[:, (x.shape[1] - 1) % stride :: stride, :]


def _taps(T: int, k: int, d: int, stride: int):
    """The taps of a causal conv that reach an output of ``_strided``.

    Yields (p, j0, sl): outputs j0, j0+1, ... read tap p at ``x[:, sl]``.
    Taps come in order and stop at the first whose shift d*p passes T-1.
    """
    off = (T - 1) % stride
    m = (T - 1) // stride + 1
    for p in range(k):
        s = d * p
        j0 = max(0, -(-(s - off) // stride))  # first output at time >= s
        if j0 >= m:
            return
        yield p, j0, slice(off + j0 * stride - s, T - s, stride)


def _dconv_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, d: int, stride: int = 1
) -> np.ndarray:
    """y[j] = b + sum_p w[p] . x[t_j - d*p], zero history before t=0.

    The outputs are the positions t_j of ``_strided(x, stride)``; stride 1 is
    the full sequence. Taps are added in order, bias first.
    """
    B, T, _ = x.shape
    k, _, c_out = w.shape
    m = (T - 1) // stride + 1
    y = np.empty((B, m, c_out), dtype=x.dtype)
    y[...] = b
    for p, j0, sl in _taps(T, k, d, stride):
        y[:, j0:, :] += x[:, sl, :] @ w[p]
    return y


def _dconv_backward(
    x: np.ndarray, w: np.ndarray, d: int, dy: np.ndarray, stride: int = 1, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of ``_dconv_forward``; dx is None unless
    ``input_grad``."""
    B, T, c_in = x.shape
    k, _, c_out = w.shape
    m = dy.shape[1]
    dw = np.zeros_like(w)
    db = dy.sum(axis=(0, 1))
    dx = np.zeros_like(x) if input_grad else None
    for p, j0, sl in _taps(T, k, d, stride):
        ds = dy[:, j0:, :].reshape(-1, c_out)
        dw[p] = x[:, sl, :].reshape(-1, c_in).T @ ds
        if input_grad:
            dx[:, sl, :] += (ds @ w[p].T).reshape(B, m - j0, c_in)
    return dx, dw, db


def causal_conv(x: np.ndarray, f: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Single-sequence causal convolution: x (T, C_in), f (k, C_in, C_out)."""
    return dilated_causal_conv(x, f, 1, bias)


def dilated_causal_conv(
    x: np.ndarray, f: np.ndarray, d: int, bias: np.ndarray | None = None
) -> np.ndarray:
    if d < 1:
        raise ValueError("dilation must be >= 1")
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if f.ndim == 1:
        f = f[:, None, None]
    if x.shape[1] != f.shape[1]:
        raise ValueError(f"channel mismatch: x has {x.shape[1]}, filter expects {f.shape[1]}")
    b = np.zeros(f.shape[2], dtype=x.dtype) if bias is None else np.asarray(bias, dtype=float)
    if b.shape != (f.shape[2],):
        raise ValueError("bias shape mismatch")
    return _dconv_forward(x[None], f, b, d)[0]


def _block_forward(x: np.ndarray, bp: BlockParams, d: int, stride: int = 1):
    z = _dconv_forward(x, bp.w, bp.b, d, stride)
    h = np.maximum(z, 0)
    xs = _strided(x, stride)
    r = xs @ bp.proj if bp.proj is not None else xs
    u = r + h
    y = np.maximum(u, 0)
    return y, (x, z > 0, u > 0)


def _block_backward(
    dy: np.ndarray, bp: BlockParams, d: int, cache, stride: int = 1, input_grad: bool = True
):
    x, zpos, upos = cache
    du = np.where(upos, dy, 0)
    dz = np.where(zpos, du, 0)
    dx, dw, db = _dconv_backward(x, bp.w, d, dz, stride, input_grad)
    dproj = None
    if bp.proj is not None:
        du2 = du.reshape(-1, du.shape[2])
        dproj = _strided(x, stride).reshape(-1, x.shape[2]).T @ du2
    if input_grad:
        dxs = _strided(dx, stride)
        dxs += du if bp.proj is None else (du2 @ bp.proj.T).reshape(dxs.shape)
    return dx, BlockParams(dw, db, dproj)


def residual_block(x: np.ndarray, bp: BlockParams, d: int) -> np.ndarray:
    """Single-sequence residual unit: relu(skip(x) + relu(dilated_conv(x)))."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != bp.w.shape[1]:
        raise ValueError("channel mismatch")
    y, _ = _block_forward(x[None].astype(bp.w.dtype), bp, d)
    return y[0]


def _head_forward(v: np.ndarray, dense: list[DenseParams]):
    """Dense head on v (B, 1, C); the caches hold (B, C) rows."""
    caches = []
    a = v
    for dp in dense[:-1]:
        z = a @ dp.w + dp.b
        caches.append((a[:, 0], z[:, 0] > 0))
        a = np.maximum(z, 0)
    out = a @ dense[-1].w + dense[-1].b
    caches.append((a[:, 0], None))
    return out[:, 0, 0], caches


def _head_backward(dyhat: np.ndarray, dense: list[DenseParams], caches):
    grads: list[DenseParams] = [None] * len(dense)
    da = dyhat[:, None]  # (B, 1)
    a_last, _ = caches[-1]
    grads[-1] = DenseParams(a_last.T @ da, da.sum(axis=0))
    da = da @ dense[-1].w.T
    for i in range(len(dense) - 2, -1, -1):
        a_prev, zpos = caches[i]
        dz = np.where(zpos, da, 0)
        grads[i] = DenseParams(a_prev.T @ dz, dz.sum(axis=0))
        da = dz @ dense[i].w.T
    return da, grads


def _cone_plan(config: TcnModelConfig, T: int) -> list[tuple[int, int]]:
    """(input length, output stride) of each block when only the last of T
    timesteps is computed.

    Block i reads its input only at the positions t = T-1 (mod d_i) and
    writes only t = T-1 (mod d_{i+1}); the last block writes only T-1. Each
    block's input is stored compressed to those positions, which turns the
    conv into a dilation-1 conv evaluated every d_{i+1}/d_i-th position.
    """
    dil = config.dilations
    lengths = [-(-T // d) for d in dil]
    strides = [b // a for a, b in zip(dil, dil[1:])] + [lengths[-1]]
    return list(zip(lengths, strides))


def live_param_count(params: ModelParams, window_len: int) -> int:
    """Parameters that can receive a gradient from windows of ``window_len``.

    A conv tap p of dilation d is dead when d*p >= window_len: it never sees
    an input, so its gradient is exactly zero. Counted from the taps the
    kernels visit.
    """
    dead = 0
    for bp, (n, stride) in zip(params.blocks, _cone_plan(params.config, window_len)):
        live = sum(1 for _ in _taps(n, len(bp.w), 1, stride))
        dead += bp.w[live:].size
    return params.param_count() - dead


def forward_batch(params: ModelParams, X: np.ndarray):
    """Batched forward pass: X (B, T, C_in) -> predictions (B,) plus cache.

    Only the positions the last timestep depends on are computed. Every matmul
    is (B, m, C) @ (C, N): one BLAS call per window, of the shape a B=1 pass
    uses, so a window's prediction has the same bits in any batch.
    """
    plan = _cone_plan(params.config, X.shape[1])
    h = _strided(X, params.config.dilations[0])
    caches = []
    for bp, (_, stride) in zip(params.blocks, plan):
        h, c = _block_forward(h, bp, 1, stride)
        caches.append(c)
    yhat, head_caches = _head_forward(h[:, -1:, :], params.dense)
    return yhat, (caches, head_caches, plan)


def backward_batch(params: ModelParams, cache, dyhat: np.ndarray):
    caches, head_caches, plan = cache
    dv, dense_grads = _head_backward(dyhat, params.dense, head_caches)
    dh = dv[:, None, :]  # the last block writes only the last timestep
    block_grads: list[BlockParams] = [None] * len(params.blocks)
    for i in range(len(params.blocks) - 1, -1, -1):
        # nothing reads the gradient of the model input
        dh, g = _block_backward(dh, params.blocks[i], 1, caches[i], plan[i][1], input_grad=i > 0)
        block_grads[i] = g
    return ModelParams(params.config, block_grads, dense_grads)


def model_forward(params: ModelParams, window: np.ndarray) -> float:
    """Predict the countdown for one window (T, C_in)."""
    window = np.asarray(window, dtype=params.dtype)
    if window.ndim != 2 or window.shape[1] != params.config.in_channels:
        raise ValueError(
            f"window must be (T, {params.config.in_channels}), got {window.shape}"
        )
    yhat, _ = forward_batch(params, window[None])
    return float(yhat[0])


def receptive_field(config: TcnModelConfig) -> int:
    """Closed-form receptive field: 1 + (k - 1) * sum(dilations)."""
    return 1 + (config.kernel_size - 1) * sum(config.dilations)


def measure_receptive_field(config: TcnModelConfig, margin: int = 48) -> int:
    """Impulse-probe measurement of the receptive field.

    Uses an all-positive copy of the initialized weights (zero biases), so a
    positive impulse propagates through every relu and influence in the probe
    is monotone in lag; the boundary is located by bisection.
    """
    params = init_params(config)
    for bp in params.blocks:
        np.abs(bp.w, out=bp.w)
        bp.b[:] = 0.0
        if bp.proj is not None:
            np.abs(bp.proj, out=bp.proj)
    for dp in params.dense:
        np.abs(dp.w, out=dp.w)
        dp.b[:] = 0.0

    T = receptive_field(config) + margin

    def influenced(lag: int) -> bool:
        x = np.zeros((T, config.in_channels))
        x[T - 1 - lag, 0] = 1.0
        return model_forward(params, x) > 0.0

    if not influenced(0):
        raise RuntimeError("probe failed: zero-lag impulse has no influence")
    if influenced(T - 1):
        raise RuntimeError("probe window too small")
    lo, hi = 0, T - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if influenced(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


# ---------------------------------------------------------------------------
# loss, metrics
# ---------------------------------------------------------------------------


def rmse_loss(y: np.ndarray, yhat: np.ndarray) -> tuple[float, np.ndarray]:
    """Root-mean-square error and its gradient with respect to predictions."""
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.shape != yhat.shape:
        raise ValueError("length mismatch")
    n = y.size
    if n == 0:
        raise ValueError("empty batch")
    diff = yhat - y
    loss = float(np.sqrt(np.mean(np.square(diff), dtype=np.float64)))
    if loss > 0.0 and np.isfinite(loss):
        grad = diff / (n * loss)
    else:
        grad = np.zeros_like(diff)  # flat at a perfect fit; callers guard non-finite
    return loss, grad


def compute_metrics(y: np.ndarray, yhat: np.ndarray) -> MetricsReport:
    """R^2, explained variance, MAPE (%), MAE and RMSE.

    Shares mean-square terms between R^2 and EVS so that EVS - R^2 equals
    mean(residual)^2 / var(y) exactly, guaranteeing R^2 <= EVS.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ValueError("length mismatch")
    n = y.size
    if n == 0:
        raise ValueError("cannot score an empty split")
    res = y - yhat
    mae = float(np.mean(np.abs(res)))
    msse = float(np.mean(np.square(res)))
    rmse = float(np.sqrt(msse))
    var_y = float(np.var(y))  # population variance
    undefined: dict[str, str] = {}
    if var_y > 0.0:
        r2 = 1.0 - msse / var_y
        evs = 1.0 - (msse - float(np.mean(res)) ** 2) / var_y
    else:
        r2 = None
        evs = None
        undefined["r2"] = "constant targets: total sum of squares is zero"
        undefined["evs"] = "constant targets: variance of y is zero"
    if np.all(y > 0.0):
        mape = float(100.0 * np.mean(np.abs(res) / y))
    else:
        mape = None
        undefined["mape_pct"] = "MAPE undefined for non-positive targets"
    return MetricsReport(r2=r2, evs=evs, mape_pct=mape, mae=mae, rmse_s=rmse, n=int(n), undefined=undefined)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class _Adam:
    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0
        self.cfg = cfg
        self.lr = cfg.learning_rate

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * np.square(g)
            a -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


def predict(params: ModelParams, bank, batch_size: int = 512) -> np.ndarray:
    """Batched predictions over a window bank (order preserved)."""
    n = len(bank)
    out = np.empty(n, dtype=np.float64)
    for lo in range(0, n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, n))
        X = np.asarray(bank.gather(idx), dtype=params.dtype)
        yhat, _ = forward_batch(params, X)
        out[idx] = yhat
    return out


def evaluate(params: ModelParams, bank, batch_size: int = 512) -> MetricsReport:
    return compute_metrics(np.asarray(bank.y, dtype=np.float64), predict(params, bank, batch_size))


def train(
    train_bank,
    val_bank,
    model_cfg: TcnModelConfig,
    train_cfg: TrainConfig,
) -> tuple[ModelParams, list[dict]]:
    """Mini-batch Adam training with early stopping on validation RMSE.

    Returns the best-validation parameters and the per-epoch history
    (epoch, train_rmse, val_rmse). Deterministic for a fixed seed.
    """
    if len(train_bank) == 0:
        raise ValueError("empty train split")
    dtype = train_cfg.np_dtype
    params = init_params(model_cfg, dtype)
    arrays = params.arrays()
    opt = _Adam(arrays, train_cfg)
    rng = np.random.Generator(np.random.PCG64(train_cfg.seed))
    n = len(train_bank)
    y_train = np.asarray(train_bank.y, dtype=dtype)

    history: list[dict] = []
    best_val = np.inf
    best_params = params.copy()
    since_best = 0
    since_decay = 0

    for epoch in range(1, train_cfg.epochs + 1):
        perm = rng.permutation(n)
        sse = 0.0
        for lo in range(0, n, train_cfg.batch_size):
            idx = perm[lo : lo + train_cfg.batch_size]
            X = np.asarray(train_bank.gather(idx), dtype=dtype)
            yb = y_train[idx]
            yhat, cache = forward_batch(params, X)
            loss, dyhat = rmse_loss(yb, yhat)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch offset {lo}"
                )
            sse += loss * loss * len(idx)
            grads = backward_batch(params, cache, dyhat)
            opt.step(arrays, grads.arrays())
        train_rmse = float(np.sqrt(sse / n))
        if len(val_bank):
            val_pred = predict(params, val_bank)
            val_res = np.asarray(val_bank.y, dtype=np.float64) - val_pred
            val_rmse = float(np.sqrt(np.mean(np.square(val_res))))
        else:
            val_rmse = train_rmse
        history.append({"epoch": epoch, "train_rmse": train_rmse, "val_rmse": val_rmse})
        if val_rmse < best_val:
            best_val = val_rmse
            best_params = params.copy()
            since_best = 0
            since_decay = 0
        else:
            since_best += 1
            since_decay += 1
            if train_cfg.patience and since_best >= train_cfg.patience:
                break
            if (
                train_cfg.lr_decay_patience
                and train_cfg.lr_decay_factor < 1.0
                and since_decay >= train_cfg.lr_decay_patience
            ):
                opt.lr *= train_cfg.lr_decay_factor
                since_decay = 0
    return best_params, history


# ---------------------------------------------------------------------------
# model file IO
# ---------------------------------------------------------------------------


def save_model(path, params: ModelParams, extra: dict | None = None) -> None:
    """JSON header + flat little-endian float32 parameter array."""
    cfg = params.config
    header = {
        "schema_version": MODEL_SCHEMA,
        "config": {
            "in_channels": cfg.in_channels,
            "kernel_size": cfg.kernel_size,
            "dilations": list(cfg.dilations),
            "hidden_channels": cfg.hidden_channels,
            "dense_sizes": list(cfg.dense_sizes),
            "output_dim": cfg.output_dim,
            "seed": cfg.seed,
        },
        "param_count": params.param_count(),
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for a in params.arrays():
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_model(path) -> tuple[ModelParams, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a model file")
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    if header.get("schema_version") != MODEL_SCHEMA:
        raise ValueError(f"model schema mismatch: {header.get('schema_version')}")
    cfg = TcnModelConfig(**header["config"])
    params = init_params(cfg, np.float32)
    flat = np.frombuffer(data[8 + hlen :], dtype="<f4")
    if flat.size != header["param_count"]:
        raise ValueError(
            f"model file truncated: {flat.size} values, expected {header['param_count']}"
        )
    pos = 0
    for a in params.arrays():
        a[...] = flat[pos : pos + a.size].reshape(a.shape)
        pos += a.size
    return params, header
