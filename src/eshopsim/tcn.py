"""From-scratch sequence regression engine.

Causal dilated convolutions with residual blocks, a small dense head on the
last timestep, hand-written reverse-mode gradients, RMSE training loss with
an adaptive-moment optimizer, and the five evaluation metrics.

All convolutions zero-pad the past, so no output depends on future inputs.
The head reads only the last timestep, so the model passes compute each block
only at the positions that timestep depends on (its dependency cone).
Gradients are exact (checked against central finite differences). Training is
deterministic for a fixed seed on one machine and BLAS build: importing this
module pins numpy's bundled OpenBLAS to one thread.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from eshopsim.artifacts import from_json, replacing


def _pin_blas_to_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread, whatever the environment
    said when numpy loaded: a GEMM's last bits may change with its thread
    count, and training carries them into the model."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        (name,) = [n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_") and n.endswith(".so")]
        set_threads = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_set_num_threads64_
    except (ValueError, OSError, AttributeError):
        warnings.warn(f"BLAS threads left unpinned: no single {libs}/libscipy_openblas64_*.so "
                      "exporting scipy_openblas_set_num_threads64_", RuntimeWarning)
        return
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


_pin_blas_to_one_thread()

MODEL_SCHEMA = "tcn-model/1"
_MAGIC = b"TCN1"
DTYPE = np.float32  # the model's one precision: trained, selected, stored and served
_FILE_DTYPE = np.dtype(DTYPE).newbyteorder("<")
BATCH_SIZE = 64  # training windows per Adam step
PATIENCE = 8  # epochs without a better validation RMSE before training stops; 0 never stops
CHUNK_WINDOWS = 256  # inference windows per time-major chunk, rounded up to whole tiles


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class TcnModelConfig:
    in_channels: int = 39
    kernel_size: int = 11
    dilations: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    hidden_channels: int = 32
    dense_sizes: tuple[int, ...] = (32, 16, 8)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kernel_size < 1:
            raise ValueError("kernel size must be >= 1")
        if len(self.dilations) == 0:
            raise ValueError("need at least one dilation")
        if any(b <= a for a, b in zip(self.dilations, self.dilations[1:])):
            raise ValueError("dilations must be strictly increasing")
        if any(d < 1 or (d & (d - 1)) != 0 for d in self.dilations):
            raise ValueError("dilations must be powers of two")


@dataclass
class TrainConfig:
    epochs: int = 100
    seed: int = 1

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("need at least one epoch")


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
        return asdict(self)


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
    """Parameter container. ``flat`` holds every parameter in the declared
    on-disk order: per block w, b, (proj); then per dense layer w, b. The
    block and dense arrays are views of it, so one update of ``flat`` moves
    them all. The constructor copies the arrays it is given into a new
    ``flat``, or, when ``flat`` is given, keeps only their shapes; either way
    it points their holders at the views."""

    def __init__(
        self,
        config: TcnModelConfig,
        blocks: list[BlockParams],
        dense: list[DenseParams],
        flat: np.ndarray | None = None,
    ):
        self.config = config
        self.blocks = blocks
        self.dense = dense
        self.flat = np.concatenate([a.ravel() for a in self.arrays()]) if flat is None else flat
        pos = 0
        for holder, name in self._slots():
            a = getattr(holder, name)
            setattr(holder, name, self.flat[pos : pos + a.size].reshape(a.shape))
            pos += a.size

    def _slots(self):
        for bp in self.blocks:
            yield bp, "w"
            yield bp, "b"
            if bp.proj is not None:
                yield bp, "proj"
        for dp in self.dense:
            yield dp, "w"
            yield dp, "b"

    def arrays(self) -> list[np.ndarray]:
        return [getattr(holder, name) for holder, name in self._slots()]

    def param_count(self) -> int:
        return self.flat.size

    def _with_flat(self, flat: np.ndarray) -> "ModelParams":
        return ModelParams(
            self.config, [replace(b) for b in self.blocks], [replace(d) for d in self.dense], flat
        )

    def copy(self) -> "ModelParams":
        return self._with_flat(self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        """The same layout and dtype, every entry 0: the gradient buffer the
        backward pass writes into."""
        return self._with_flat(np.zeros_like(self.flat))

    @property
    def dtype(self):
        return self.flat.dtype


def _layer_channels(config: TcnModelConfig) -> list[tuple[int, int]]:
    c = config.hidden_channels
    return [(config.in_channels, c)] + [(c, c)] * (len(config.dilations) - 1)


def _dense_dims(config: TcnModelConfig) -> list[tuple[int, int]]:
    sizes = [config.hidden_channels, *config.dense_sizes, 1]  # to the scalar countdown head
    return list(zip(sizes, sizes[1:]))


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


def _taps(T: int, k: int, stride: int):
    """The taps of a causal conv that reach an output of ``_strided``.

    Yields (p, j0, sl): outputs j0, j0+1, ... read tap p at ``x[:, sl]``.
    Taps come in order and stop at the first whose shift p passes T-1.
    """
    off = (T - 1) % stride
    m = (T - 1) // stride + 1
    for p in range(k):
        j0 = max(0, -(-(p - off) // stride))  # first output at time >= p
        if j0 >= m:
            return
        yield p, j0, slice(off + j0 * stride - p, T - p, stride)


def _aligned(shape, dtype, fill) -> np.ndarray:
    """An array of ``fill`` from a 64-byte boundary: numpy's float add runs
    about 2.5 times slower into an output whose vectors straddle cache lines."""
    n = math.prod(shape)
    buf = np.empty(n + 64, dtype=dtype)
    out = buf[-buf.ctypes.data % 64 // buf.itemsize :][:n].reshape(shape)
    out[...] = fill
    return out


def _dconv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """y[j] = b + sum_p w[p] . x[t_j - p], zero history before t=0.

    The outputs are the positions t_j of ``_strided(x, stride)``; stride 1 is
    the full sequence. Taps are added in order, bias first, each as one
    (rows, C_in) @ (C_in, C_out) GEMM per window into a scratch whose rows
    below the tap's first output j0 hold -0.0; the whole scratch is added, and
    x + (-0.0) == x for every float x: the bits of ``y[:, j0:] +=``.
    """
    B, T, _ = x.shape
    k, _, c_out = w.shape
    y = _aligned((B, (T - 1) // stride + 1, c_out), x.dtype, b)
    g = np.empty_like(y)
    for p, j0, sl in _taps(T, k, stride):
        g[:, :j0] = -0.0
        np.matmul(x[:, sl, :], w[p], out=g[:, j0:])
        y += g
    return y


def _dconv_backward(
    xph: list[np.ndarray],
    w: np.ndarray,
    dy: np.ndarray,
    stride: int,
    dw: np.ndarray,
    db: np.ndarray,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Gradients of ``_dconv_forward`` from its input split into stride phases
    (``xph[r]`` is ``x[:, r::stride]``): dw and db are written into the given
    arrays (a dead tap's dw is left as given); returns dx as (stride, B, m,
    C_in) phases, or None unless ``input_grad``. Tap p's dw and dx GEMMs take
    the flat (B*(m-j0))-row copies of its phase's leading rows and of
    dy[:, j0:]; each dx GEMM is added to its phase through a scratch whose
    later rows hold -0.0, taps in order."""
    T = sum(a.shape[1] for a in xph)
    B, _, c_in = xph[0].shape
    k, _, c_out = w.shape
    m = dy.shape[1]
    dy.sum(axis=(0, 1), out=db)
    if input_grad:
        dx = _aligned((stride, B, m, c_in), dy.dtype, 0.0)  # phases of m - 1 rows leave row m-1 0
        pad = np.empty((B, m, c_in), dtype=dy.dtype)
    ds = ds_j0 = None
    for p, j0, sl in _taps(T, k, stride):
        n, r = m - j0, sl.start  # every tap starts in the first row of its phase
        if j0 != ds_j0:
            ds = None  # freed before the next copy
            ds, ds_j0 = dy[:, j0:, :].reshape(-1, c_out), j0
        np.matmul(xph[r][:, :n].reshape(-1, c_in).T, ds, out=dw[p])
        if input_grad:
            pad[:, n:] = -0.0
            pad[:, :n] = (ds @ w[p].T).reshape(B, n, c_in)
            dx[r] += pad
    return dx if input_grad else None


def _relu_grad(g: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.where(mask, g, 0)`` bit for bit (-0.0, NaN and inf included),
    without its per-element branch: the same-width integer view of g times
    the bool mask, viewed back as float; into ``out`` when given (g itself
    may be it)."""
    i = f"i{g.itemsize}"
    return np.multiply(g.view(i), mask, out=None if out is None else out.view(i)).view(g.dtype)


def _block_forward(x: np.ndarray, bp: BlockParams, stride: int):
    """Residual unit relu(skip(x) + relu(conv(x))) at the outputs of ``_strided``;
    the cache holds x's stride phases and the relu masks of conv(x) and the sum."""
    z = _dconv_forward(x, bp.w, bp.b, stride)
    zpos = z > 0
    xph = [np.ascontiguousarray(x[:, r::stride]) for r in range(stride)]
    r = _strided(x, stride) @ bp.proj if bp.proj is not None else xph[(x.shape[1] - 1) % stride]
    u = np.add(r, np.maximum(z, 0, out=z), out=z)
    upos = u > 0
    return np.maximum(u, 0, out=u), (xph, zpos, upos)


def _block_backward(
    dy: np.ndarray, bp: BlockParams, cache, stride: int, grad: BlockParams, input_grad: bool = True
):
    """Writes the block's gradients into ``grad``, overwriting dy; returns dx,
    or None unless ``input_grad``. The skip path adds to phase (T-1) mod
    stride after the taps; then the phases are interleaved into dx once."""
    xph, zpos, upos = cache
    T = sum(a.shape[1] for a in xph)
    off = (T - 1) % stride
    du = _relu_grad(dy, upos, out=dy)
    if bp.proj is not None:
        du2 = du.reshape(-1, du.shape[2])
        np.matmul(xph[off].reshape(du2.shape[0], -1).T, du2, out=grad.proj)
    dz = _relu_grad(du, zpos, out=None if input_grad else du)  # only the skip path reads du
    dxph = _dconv_backward(xph, bp.w, dz, stride, grad.w, grad.b, input_grad)
    if not input_grad:
        return None
    dxph[off] += du if bp.proj is None else (du2 @ bp.proj.T).reshape(dxph[off].shape)
    dx = np.empty((len(dy), T, xph[0].shape[2]), dtype=dy.dtype)
    for r, a in enumerate(dxph):
        dxr = dx[:, r::stride]
        dxr[...] = a[:, : dxr.shape[1]]
    return dx


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


def _head_backward(dyhat: np.ndarray, dense: list[DenseParams], caches, grads: list[DenseParams]):
    """Writes the dense gradients into ``grads``; returns the gradient of v's rows."""
    da = dyhat[:, None]  # (B, 1)
    a_last, _ = caches[-1]
    np.matmul(a_last.T, da, out=grads[-1].w)
    da.sum(axis=0, out=grads[-1].b)
    da = da @ dense[-1].w.T
    for i in range(len(dense) - 2, -1, -1):
        a_prev, zpos = caches[i]
        dz = _relu_grad(da, zpos)
        np.matmul(a_prev.T, dz, out=grads[i].w)
        dz.sum(axis=0, out=grads[i].b)
        da = dz @ dense[i].w.T
    return da


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
    an input, so its gradient is exactly zero. A block keeps its first
    min(k, ceil(window_len / d)) taps.
    """
    dead = 0
    for bp, d in zip(params.blocks, params.config.dilations):
        dead += bp.w[-(-window_len // d) :].size
    return params.param_count() - dead


def forward_batch(params: ModelParams, X: np.ndarray):
    """Training forward pass: X (B, T, C_in) -> predictions (B,) plus the
    cache ``backward_batch`` reads.

    Only the positions the last timestep depends on are computed. Every matmul
    is (B, m, C) @ (C, N): one BLAS call per window, of the shape a B=1 pass
    uses, so a window's prediction has the same bits in any batch.
    """
    plan = _cone_plan(params.config, X.shape[1])
    h = _strided(X, params.config.dilations[0])
    caches = []
    for bp, (_, stride) in zip(params.blocks, plan):
        h, c = _block_forward(h, bp, stride)
        caches.append(c)
    yhat, head_caches = _head_forward(h[:, -1:, :], params.dense)
    return yhat, (caches, head_caches, plan)


def backward_batch(params: ModelParams, cache, dyhat: np.ndarray, grads: ModelParams) -> None:
    """Writes the gradient of every parameter into ``grads``, laid out like
    ``params``: the kernels overwrite each live slot through ``out=`` and
    leave a dead tap's as they find it, so a zeroed buffer reused for
    windows of one length keeps every dead tap at 0."""
    caches, head_caches, plan = cache
    dv = _head_backward(dyhat, params.dense, head_caches, grads.dense)
    dh = dv[:, None, :]  # the last block writes only the last timestep
    for i in range(len(params.blocks) - 1, -1, -1):
        # nothing reads the gradient of the model input
        dh = _block_backward(
            dh, params.blocks[i], caches[i], plan[i][1], grads.blocks[i], input_grad=i > 0
        )


# ---------------------------------------------------------------------------
# inference: settled rows shared per segment, the rest time-major per chunk
# ---------------------------------------------------------------------------

# Inference runs every conv GEMM on TILE_ROWS rows: the settled rows (see
# ``_inference_plan``) in tiles anchored at the segment start, the rest one
# window per slot of a chunk. BLAS may round a row differently with the GEMM's
# row count (narrow outputs, or float64), but in a GEMM of fixed size a row's
# bits depend on neither its slot nor its neighbours; with the head run per
# window, ``predict`` and the one-window ``model_forward`` agree bit for bit.
TILE_ROWS = 32


def _inference_plan(config: TcnModelConfig, W: int):
    """How inference splits a window of W timesteps.

    Block i's output at window time t reads the window rows t - R_i .. t,
    R_i = (k-1)(d_0 + ... + d_i). From t >= R_i on, no tap reaches before the
    window, so the row is the same for every window that holds it: it is
    *settled*, computed once per segment. The blocks with R_i < W have
    settled rows; the rest, and the rows t < R_i, are computed per window.

    Level l is the model input (l = 0) or block l-1's output. Per window, a
    level is read at its cone times t = o + D*j, D the dilation of block l
    and o = (W-1) mod D; a settled next block reads a leading part of them.
    Returns the depths R_i of the settled blocks and, per level, (D, o, the
    leading cone rows computed per window, the window times of the settled
    rows that follow them).
    """
    k, dil = config.kernel_size, config.dilations
    depths = []
    for d in dil:
        R = (depths[-1] if depths else 0) + (k - 1) * d
        if R >= W:
            break
        depths.append(R)
    steps = list(dil) + [dil[-1] * W]  # a multiple of d_last >= W: one cone time, W-1
    offs = [(W - 1) % D for D in steps]
    unsettled = [0] + [max(0, -(-(R - o) // D)) for R, o, D in zip(depths, offs[1:], steps[1:])]
    need = 1  # the last block writes only time W-1
    levels = []
    for l in range(len(steps) - 1, -1, -1):
        D, o = steps[l], offs[l]
        computed = min(unsettled[l], need) if l < len(unsettled) else need
        levels.append((D, o, computed, o + D * np.arange(computed, need)))
        # the block's last computed output sets the prefix of its input it reads
        need = (o + (computed - 1) * D - offs[l - 1]) // steps[l - 1] + 1 if computed else 0
    return depths, levels[::-1]


def _settled_rows(params: ModelParams, x: np.ndarray, x0: int, depths: list[int]):
    """The settled rows of a stretch of one segment.

    x holds the model input at positions x0, x0+1, ... of the segment (0 is
    its first report; zero rows stand before it). Returns, for the input and
    each block with a depth in ``depths``, (a, rows): rows[p - a] is that
    level at position p, valid for x0 + R <= p < x0 + len(x). Each block
    runs one GEMM per tile and tap, tiles anchored at position 0; rows
    outside the valid range only fill tiles.
    """
    end = x0 + len(x)
    levels = [(x0, x)]
    for bp, d, R in zip(params.blocks, params.config.dilations, depths):
        a_in, h = levels[-1]
        span = (len(bp.w) - 1) * d
        a = (x0 + R) // TILE_ROWS * TILE_ROWS
        n = -(-(end - a) // TILE_ROWS)
        xin = np.zeros((n * TILE_ROWS + span, h.shape[1]), dtype=h.dtype)  # from a - span
        lo, hi = max(a - span, a_in), min(a + n * TILE_ROWS, a_in + len(h))
        xin[lo - a + span : hi - a + span] = h[lo - a_in : hi - a_in]
        tiles = lambda s: xin[s : s + n * TILE_ROWS].reshape(n, TILE_ROWS, -1)  # noqa: E731
        z = _aligned((n, TILE_ROWS, bp.w.shape[2]), h.dtype, bp.b)
        for p in range(len(bp.w)):  # taps in order, bias first, as _dconv_forward
            z += tiles(span - p * d) @ bp.w[p]
        r = tiles(span) @ bp.proj if bp.proj is not None else tiles(span)
        levels.append((a, np.maximum(r + np.maximum(z, 0), 0).reshape(n * TILE_ROWS, -1)))
    return levels


def _chunk_pass(params: ModelParams, plan, bufs: list[np.ndarray], n: int) -> np.ndarray:
    """Predictions of the windows in slots 0..n-1 of the time-major level
    buffers ``bufs``, (cone rows, chunk, C), whose settled rows are filled:
    each block writes its leading rows in place, one GEMM per tile, row and tap."""
    m = -(-n // TILE_ROWS) * TILE_ROWS
    tiled = lambda a: a.reshape(len(a), m // TILE_ROWS, TILE_ROWS, a.shape[-1])  # noqa: E731
    for bp, (D, o, _, _), (D_out, o_out, computed, _), x, y in zip(
        params.blocks, plan, plan[1:], bufs, bufs[1:]
    ):
        s, off = D_out // D, (o_out - o) // D  # output row j reads input row off + s*j - p at tap p
        x, z = x[:, :m], tiled(y[:computed, :m])
        z[...] = bp.b
        for p in range(len(bp.w)):  # taps in order, bias first, as _dconv_forward
            j0 = max(0, -(-(p - off) // s))  # first output whose tap p is inside the window
            if j0 >= computed:
                break
            z[j0:] += tiled(x[off + s * j0 - p :: s][: computed - j0]) @ bp.w[p]
        xs = tiled(x[off::s][:computed])
        np.maximum(z, 0, out=z)
        np.add(xs @ bp.proj if bp.proj is not None else xs, z, out=z)
        np.maximum(z, 0, out=z)
    return _head_forward(bufs[-1][0, :n].reshape(n, 1, -1), params.dense)[0]


def _infer(params: ModelParams, W: int, segments, n: int) -> np.ndarray:
    """Predictions of the n windows of W steps that ``segments`` yields per
    segment, as (model input x from segment position x0, x0, each window's
    time-0 position t0): chunks of ``CHUNK_WINDOWS`` windows (fewer when n
    is smaller), in whole tiles, take each segment's settled rows as its
    windows fill their slots."""
    depths, plan = _inference_plan(params.config, W)
    chunk = min(-(-CHUNK_WINDOWS // TILE_ROWS), -(-n // TILE_ROWS)) * TILE_ROWS
    widths = [params.config.in_channels] + [params.config.hidden_channels] * len(params.blocks)
    bufs = [np.zeros((c + len(t), chunk, w), params.dtype) for (_, _, c, t), w in zip(plan, widths)]
    out = np.empty(n, dtype=np.float64)
    done = filled = 0
    for x, x0, t0 in segments:
        levels = _settled_rows(params, x, x0, depths)
        while len(t0):
            take, t0 = t0[: chunk - filled], t0[chunk - filled :]
            for buf, (_, _, computed, times), (a, rows) in zip(bufs, plan, levels):
                buf[computed:, filled : filled + len(take)] = rows[times[:, None] + (take - a)]
            filled += len(take)
            if filled == chunk:
                out[done : done + chunk] = _chunk_pass(params, plan, bufs, chunk)
                done, filled = done + chunk, 0
    if filled:
        out[done:] = _chunk_pass(params, plan, bufs, filled)
    return out


def model_forward(params: ModelParams, window: np.ndarray, position: int) -> float:
    """Predict the countdown for one window (T, C_in) whose last row is report
    ``position`` (0-based) of its segment; rows before the segment start are
    zero. The position anchors the settled rows' tiles and the window takes
    slot 0 of a one-tile chunk: the bits ``predict`` gives it in any batch."""
    window = np.asarray(window, dtype=params.dtype)
    if window.ndim != 2 or window.shape[1] != params.config.in_channels:
        raise ValueError(f"window must be (T, {params.config.in_channels}), got {window.shape}")
    if position < 0:
        raise ValueError(f"position in the segment must be >= 0, got {position}")
    T = len(window)
    t0 = position - (T - 1)
    return float(_infer(params, T, [(window, t0, np.array([t0]))], 1)[0])


def receptive_field(config: TcnModelConfig) -> int:
    """Closed-form receptive field: 1 + (k - 1) * sum(dilations)."""
    return 1 + (config.kernel_size - 1) * sum(config.dilations)


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
    """R^2, explained variance, MAPE (%, over the positive targets), MAE and RMSE.

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
        r2 = evs = None
        undefined["r2"] = "constant targets: total sum of squares is zero"
        undefined["evs"] = "constant targets: variance of y is zero"
    pos = y > 0.0  # a countdown of 0 (at T0) has no relative error
    if np.any(pos):
        mape = float(100.0 * np.mean(np.abs(res[pos]) / y[pos]))
    else:
        mape = None
        undefined["mape_pct"] = "MAPE undefined: no positive target"
    return MetricsReport(r2=r2, evs=evs, mape_pct=mape, mae=mae, rmse_s=rmse, n=int(n), undefined=undefined)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class _Adam:
    """Adam with the constants of Kingma & Ba (arXiv:1412.6980)."""

    ALPHA = 1e-3  # the step size
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, flat: np.ndarray):
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.scratch = np.empty((2, flat.size), dtype=flat.dtype)
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """One update of the whole parameter vector. The ufuncs are those of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2 and
        flat -= alpha * (m/bc1) / (sqrt(v/bc2) + eps), in that order; they are
        elementwise, so each element gets the bits a per-array update gives
        it. Two scratch vectors, made once, hold the temporaries."""
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        step, tmp = self.scratch
        m *= b1
        m += np.multiply(1.0 - b1, grad, out=tmp)
        v *= b2
        v += np.multiply(1.0 - b2, np.square(grad, out=tmp), out=tmp)
        np.multiply(self.ALPHA, np.divide(m, bc1, out=step), out=step)
        step /= np.add(np.sqrt(np.divide(v, bc2, out=tmp), out=tmp), self.EPS, out=tmp)
        flat -= step


def predict(params: ModelParams, bank) -> np.ndarray:
    """Predictions over a window bank (order preserved).

    Each segment's settled rows (``_inference_plan``) are computed once, in
    tiles anchored at the segment start, and freed before the next segment.
    The windows fill chunks of ``CHUNK_WINDOWS``, rounded up to whole tiles
    of ``TILE_ROWS``, across segments; a chunk computes its windows' other
    rows time-major, every GEMM on one tile of windows, and the head per
    window. Each prediction has the bits of ``model_forward`` on its window,
    in any chunk.
    """
    n, W = len(bank), bank.window_len
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    order = np.argsort(bank.seg_start, kind="stable")
    cuts = np.flatnonzero(np.diff(bank.seg_start[order])) + 1

    def segments():
        for seg in np.split(order, cuts):
            first = int(bank.seg_start[seg[0]])
            t0 = bank.end[seg] - first - (W - 1)  # segment position of each window's time 0
            lo, hi = int(t0.min()), int(t0.max()) + W
            x = np.zeros((hi - lo, bank.rows.shape[1]), dtype=params.dtype)
            x[max(0, -lo) :] = bank.rows[first + max(lo, 0) : first + hi]
            yield x, lo, t0

    out[order] = _infer(params, W, segments(), n)
    return out


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
    params = init_params(model_cfg, DTYPE)
    grads = params.zeros_like()  # every batch has one window length: see backward_batch
    opt = _Adam(params.flat)
    rng = np.random.Generator(np.random.PCG64(train_cfg.seed))
    n = len(train_bank)
    y_train = np.asarray(train_bank.y, dtype=DTYPE)

    history: list[dict] = []
    best_val = np.inf
    best_params = params.copy()
    since_best = 0

    for epoch in range(1, train_cfg.epochs + 1):
        perm = rng.permutation(n)
        sse = 0.0
        for lo in range(0, n, BATCH_SIZE):
            idx = perm[lo : lo + BATCH_SIZE]
            # X is freed once cached as phases; the cache and gradient after the step
            yhat, cache = forward_batch(params, np.asarray(train_bank.gather(idx), dtype=DTYPE))
            loss, dyhat = rmse_loss(y_train[idx], yhat)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch offset {lo}")
            sse += loss * loss * len(idx)
            backward_batch(params, cache, dyhat, grads)
            opt.step(params.flat, grads.flat)
            del cache
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
        else:
            since_best += 1
            if PATIENCE and since_best >= PATIENCE:
                break
    return best_params, history


# ---------------------------------------------------------------------------
# model file IO
# ---------------------------------------------------------------------------


def save_model(path, params: ModelParams, extra: dict | None = None) -> None:
    """JSON header + flat little-endian ``DTYPE`` parameter array."""
    header = {
        "schema_version": MODEL_SCHEMA,
        "config": asdict(params.config),
        "param_count": params.param_count(),
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for a in params.arrays():
            fh.write(np.ascontiguousarray(a, dtype=_FILE_DTYPE).tobytes())


def load_model(path) -> tuple[ModelParams, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a model file")
    hlen = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("model header is not a JSON object")
    if header.get("schema_version") != MODEL_SCHEMA:
        raise ValueError(f"model schema mismatch: {header.get('schema_version')}")
    try:
        config, count = header["config"], header["param_count"]
    except KeyError as exc:
        raise ValueError(f"model header lacks {exc}") from exc
    cfg = from_json(TcnModelConfig, config, "model config")
    params = init_params(cfg, DTYPE)
    if type(count) is not int or count != params.param_count():  # bool is an int subclass
        raise ValueError(
            f"model header param_count {count!r} is not its config's {params.param_count()}"
        )
    payload, size = data[8 + hlen :], _FILE_DTYPE.itemsize * count
    if len(payload) != size:
        raise ValueError(f"model file truncated: {len(payload)} parameter bytes, expected {size}")
    params.flat[...] = np.frombuffer(payload, dtype=_FILE_DTYPE)
    return params, header
