"""Independent reference implementations used as test oracles.

These deliberately use different algorithmic shapes from the production code
(plain loops, explicit lookahead scans) so that agreement is meaningful.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from eshopsim import channel, events, scenario, tcn
from eshopsim.channel import (
    BEAM_AZ_3DB_DEG,
    BEAM_AZ_OFFSETS_DEG,
    BEAM_EL_3DB_DEG,
    BEAM_EL_TILTS_DEG,
    FAST_FADING_SIGMA_DB,
    FRONT_BACK_LIMIT_DB,
    L3_FILTER_COEFF,
    N_CELLS,
    N_SSB,
    PEAK_GAIN_DBI,
    TX_POWER_PER_SSB_DBM,
    BeamGrid,
    ChannelParams,
    MeasurementReport,
    path_loss,
    wrap_angle_deg,
)
from eshopsim.dataset import N_FEATURES
from eshopsim.events import EVENT_A3, A3EventEngine
from eshopsim.scenario import (
    BS_POSITION,
    REPORT_PERIOD_MS,
    SECTOR_BORESIGHTS_DEG,
    UE_HEIGHT_M,
    UeTrajectory,
    spawn_trajectory,
)
from eshopsim.seeds import derive_seed, rng_from
from eshopsim.simulate import D_PREP_MAX_MS, D_PREP_MIN_MS, UeRun
from eshopsim.tcn import (
    DTYPE,
    ModelParams,
    _Adam,
    _cone_plan,
    _head_forward,
    _strided,
    _taps,
    init_params,
    model_forward,
    predict,
    receptive_field,
    rmse_loss,
)


def naive_causal_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, d: int = 1) -> np.ndarray:
    """Triple-loop dilated causal convolution; x (T, Ci), w (k, Ci, Co)."""
    T, ci = x.shape
    k, _, co = w.shape
    y = np.zeros((T, co))
    for t in range(T):
        for p in range(k):
            tau = t - d * p
            if tau < 0:
                continue
            for j in range(co):
                y[t, j] += float(np.dot(w[p, :, j], x[tau]))
        y[t] += b
    return y


def full_sequence_tcn(params, X: np.ndarray, dyhat: np.ndarray):
    """Forward and backward of the TCN computed at every timestep of every
    block, one sample at a time, on ``naive_causal_conv``.

    Returns (yhat (B,), gradients in ``params.arrays()`` order). The input
    gradient of a causal conv is the causal conv of the time-reversed output
    gradient with the transposed filter, reversed back.
    """
    dil = params.config.dilations
    grads = [np.zeros_like(a, dtype=np.float64) for a in params.arrays()]
    yhat = np.zeros(len(X))
    for b in range(len(X)):
        # forward, keeping each block's input and relu masks
        h = np.asarray(X[b], dtype=np.float64)
        blocks = []
        for bp, d in zip(params.blocks, dil):
            z = naive_causal_conv(h, bp.w, bp.b, d)
            r = h @ bp.proj if bp.proj is not None else h
            u = r + np.maximum(z, 0.0)
            blocks.append((h, z > 0, u > 0))
            h = np.maximum(u, 0.0)
        acts = [h[-1]]
        for dp in params.dense[:-1]:
            acts.append(np.maximum(acts[-1] @ dp.w + dp.b, 0.0))
        yhat[b] = (acts[-1] @ params.dense[-1].w + params.dense[-1].b)[0]
        # backward
        dense_grads = []
        da = np.array([dyhat[b]], dtype=np.float64)
        for i in range(len(params.dense) - 1, -1, -1):
            if i < len(params.dense) - 1:
                da = np.where(acts[i + 1] > 0, da, 0.0)
            dense_grads.append((np.outer(acts[i], da), da))
            da = params.dense[i].w @ da
        dh = np.zeros_like(h)
        dh[-1] = da
        block_grads = []
        for (x, zpos, upos), bp, d in reversed(list(zip(blocks, params.blocks, dil))):
            du = np.where(upos, dh, 0.0)
            dz = np.where(zpos, du, 0.0)
            T, k = len(x), bp.w.shape[0]
            dw = np.zeros(bp.w.shape)
            for p in range(k):
                for t in range(d * p, T):
                    dw[p] += np.outer(x[t - d * p], dz[t])
            wt = np.transpose(bp.w, (0, 2, 1))
            dh = naive_causal_conv(dz[::-1], wt, np.zeros(x.shape[1]), d)[::-1]
            if bp.proj is not None:
                block_grads.append((dw, dz.sum(axis=0), x.T @ du))
                dh = dh + du @ bp.proj.T
            else:
                block_grads.append((dw, dz.sum(axis=0)))
                dh = dh + du
        flat = [g for bg in reversed(block_grads) for g in bg]
        flat += [g for dg in reversed(dense_grads) for g in dg]
        for acc, g in zip(grads, flat):
            acc += g
    return yhat, grads


def measure_receptive_field(config, margin: int = 48) -> int:
    """Impulse-probe measurement of the receptive field (reference for
    ``tcn.receptive_field``).

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
        return model_forward(params, x, T - 1) > 0.0

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
# TCN training pass as one sliced add per tap: the forward, the backward with
# np.where relu gradients and a new array per gradient, per-array Adam, and
# the training loop over them (reference, bit for bit, for the contiguous
# kernels, the branch-free relu gradient and the flat parameter and gradient
# vectors)
# ---------------------------------------------------------------------------


def per_tap_dconv_forward(x, w, b, stride: int):
    """``tcn._dconv_forward`` adding each tap's per-window GEMM into the
    outputs it reaches, ``y[:, j0:]``."""
    B, T, _ = x.shape
    k, _, c_out = w.shape
    m = (T - 1) // stride + 1
    y = np.empty((B, m, c_out), dtype=x.dtype)
    y[...] = b
    for p, j0, sl in _taps(T, k, stride):
        y[:, j0:, :] += x[:, sl, :] @ w[p]
    return y


def per_tap_block_forward(x, bp, stride: int):
    """``tcn._block_forward`` on ``per_tap_dconv_forward``, a new array per step."""
    z = per_tap_dconv_forward(x, bp.w, bp.b, stride)
    h = np.maximum(z, 0)
    xs = _strided(x, stride)
    r = xs @ bp.proj if bp.proj is not None else xs
    u = r + h
    y = np.maximum(u, 0)
    return y, (x, z > 0, u > 0)


def per_tap_forward_batch(params, X: np.ndarray):
    """``tcn.forward_batch`` on ``per_tap_block_forward``: the predictions and
    the cache ``tcn.backward_batch`` reads."""
    plan = _cone_plan(params.config, X.shape[1])
    h = _strided(X, params.config.dilations[0])
    caches = []
    for bp, (_, stride) in zip(params.blocks, plan):
        h, c = per_tap_block_forward(h, bp, stride)
        caches.append(c)
    yhat, head_caches = _head_forward(h[:, -1:, :], params.dense)
    return yhat, (caches, head_caches, plan)


def alloc_dconv_backward(x, w, dy, stride: int, input_grad: bool = True):
    """``tcn._dconv_backward`` returning (dx, dw, db) in new arrays, with dx
    whole and each tap's GEMM added into the rows it reaches, ``dx[:, sl]``."""
    B, T, c_in = x.shape
    k, _, c_out = w.shape
    m = dy.shape[1]
    dw = np.zeros_like(w)
    db = dy.sum(axis=(0, 1))
    dx = np.zeros_like(x) if input_grad else None
    for p, j0, sl in _taps(T, k, stride):
        ds = dy[:, j0:, :].reshape(-1, c_out)
        dw[p] = x[:, sl, :].reshape(-1, c_in).T @ ds
        if input_grad:
            dx[:, sl, :] += (ds @ w[p].T).reshape(B, m - j0, c_in)
    return dx, dw, db


def where_block_backward(dy, bp, cache, stride: int, input_grad: bool = True):
    """``tcn._block_backward`` with ``np.where`` masks; gradients as a tuple
    (dw, db, dproj or None)."""
    x, zpos, upos = cache
    du = np.where(upos, dy, 0)
    dz = np.where(zpos, du, 0)
    dx, dw, db = alloc_dconv_backward(x, bp.w, dz, stride, input_grad)
    dproj = None
    if bp.proj is not None:
        du2 = du.reshape(-1, du.shape[2])
        dproj = _strided(x, stride).reshape(-1, x.shape[2]).T @ du2
    if input_grad:
        dxs = _strided(dx, stride)
        dxs += du if bp.proj is None else (du2 @ bp.proj.T).reshape(dxs.shape)
    return dx, (dw, db, dproj)


def where_head_backward(dyhat, dense, caches):
    """``tcn._head_backward`` with ``np.where`` masks; gradients as (dw, db) tuples."""
    grads = [None] * len(dense)
    da = dyhat[:, None]
    a_last, _ = caches[-1]
    grads[-1] = (a_last.T @ da, da.sum(axis=0))
    da = da @ dense[-1].w.T
    for i in range(len(dense) - 2, -1, -1):
        a_prev, zpos = caches[i]
        dz = np.where(zpos, da, 0)
        grads[i] = (a_prev.T @ dz, dz.sum(axis=0))
        da = dz @ dense[i].w.T
    return da, grads


def where_backward_batch(params, cache, dyhat) -> list[np.ndarray]:
    """``tcn.backward_batch`` on the np.where kernels; the gradients as a list
    in ``params.arrays()`` order."""
    caches, head_caches, plan = cache
    dv, dense_grads = where_head_backward(dyhat, params.dense, head_caches)
    dh = dv[:, None, :]
    block_grads = [None] * len(params.blocks)
    for i in range(len(params.blocks) - 1, -1, -1):
        dh, block_grads[i] = where_block_backward(
            dh, params.blocks[i], caches[i], plan[i][1], input_grad=i > 0
        )
    flat = [g for bg in block_grads for g in bg if g is not None]
    return flat + [g for dg in dense_grads for g in dg]


class PerArrayAdam:
    """``tcn._Adam`` as one update per parameter array."""

    def __init__(self, arrays: list[np.ndarray]):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        b1, b2 = _Adam.BETA1, _Adam.BETA2
        self.t += 1
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            a -= _Adam.ALPHA * (m / bc1) / (np.sqrt(v / bc2) + _Adam.EPS)


def per_array_train(train_bank, val_bank, model_cfg, train_cfg):
    """``tcn.train`` on ``per_tap_forward_batch``, ``where_backward_batch`` and
    ``PerArrayAdam``."""
    params = init_params(model_cfg, DTYPE)
    arrays = params.arrays()
    opt = PerArrayAdam(arrays)
    rng = np.random.Generator(np.random.PCG64(train_cfg.seed))
    n = len(train_bank)
    y_train = np.asarray(train_bank.y, dtype=DTYPE)
    history = []
    best_val, best_params, since_best = np.inf, params.copy(), 0
    for epoch in range(1, train_cfg.epochs + 1):
        perm = rng.permutation(n)
        sse = 0.0
        for lo in range(0, n, tcn.BATCH_SIZE):
            idx = perm[lo : lo + tcn.BATCH_SIZE]
            X = np.asarray(train_bank.gather(idx), dtype=DTYPE)
            yhat, cache = per_tap_forward_batch(params, X)
            loss, dyhat = rmse_loss(y_train[idx], yhat)
            sse += loss * loss * len(idx)
            opt.step(arrays, where_backward_batch(params, cache, dyhat))
        train_rmse = float(np.sqrt(sse / n))
        val_res = np.asarray(val_bank.y, dtype=np.float64) - predict(params, val_bank)
        val_rmse = float(np.sqrt(np.mean(np.square(val_res))))
        history.append({"epoch": epoch, "train_rmse": train_rmse, "val_rmse": val_rmse})
        if val_rmse < best_val:
            best_val, best_params, since_best = val_rmse, params.copy(), 0
        else:
            since_best += 1
            if tcn.PATIENCE and since_best >= tcn.PATIENCE:
                break
    return best_params, history


class StreamingCountdown:
    """Online per-report inference; reset at each handover command boundary
    (reference for ``controller.infer_countdown``).

    Each report runs the one-window ``model_forward`` on the last
    ``window_len`` rows of the segment, placed by the number of reports since
    the last command, so it gives the bits of the offline ``infer_countdown``.
    """

    def __init__(self, params: ModelParams, window_len: int):
        self.params = params
        self.window_len = window_len
        self._rows: list[np.ndarray] = []
        self._count = 0  # reports since the last command

    def on_command(self) -> None:
        """A handover command closes the segment; windows never cross it."""
        self._rows = []
        self._count = 0

    def push(self, row: np.ndarray) -> float:
        row = np.asarray(row, dtype=float)
        if row.shape != (N_FEATURES,):
            raise ValueError(f"feature row must have {N_FEATURES} entries")
        self._rows.append(row)
        self._count += 1
        if len(self._rows) > self.window_len:
            self._rows.pop(0)
        window = np.zeros((self.window_len, N_FEATURES))
        window[self.window_len - len(self._rows) :, :] = np.asarray(self._rows)
        return model_forward(self.params, window, self._count - 1)


def windowize(features: np.ndarray, labels: np.ndarray, segments: np.ndarray, window_len: int):
    """Causal windows ending at each labeled row, zero-padded; built by walking
    back from the row while the segment holds (reference for ``WindowBank``)."""
    kept = [i for i in range(len(labels)) if np.isfinite(labels[i])]
    X = np.zeros((len(kept), window_len, features.shape[1]), dtype=features.dtype)
    for b, i in enumerate(kept):
        for lag in range(window_len):
            j = i - lag
            if j < 0 or segments[j] != segments[i]:
                break
            X[b, window_len - 1 - lag] = features[j]
    return X, labels[kept], np.asarray(kept, dtype=np.int64)


def fd_gradient(fn, arrays: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of a scalar function of the given arrays."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# per-report channel, L3 filter and simulation loop
# ---------------------------------------------------------------------------


def broadcast_gains_dbi(az_deg, el_deg) -> np.ndarray:
    """``BeamGrid.gains_dbi`` with every offset wrapped, scaled and squared on
    the broadcast (..., 3, 12) grid of beam boresights."""
    az_offsets = np.asarray(BEAM_AZ_OFFSETS_DEG, dtype=float)
    tilts = np.asarray(BEAM_EL_TILTS_DEG, dtype=float)
    boresights = np.asarray(SECTOR_BORESIGHTS_DEG, dtype=float)
    beam_az = (boresights[:, None] + np.tile(az_offsets, len(tilts))) % 360.0
    beam_el = np.tile(np.repeat(tilts, len(az_offsets)), (len(boresights), 1))
    daz = wrap_angle_deg(np.asarray(az_deg, dtype=float)[..., None, None] - beam_az)
    del_ = wrap_angle_deg(np.asarray(el_deg, dtype=float)[..., None, None] - beam_el)
    atten = 12.0 * ((daz / BEAM_AZ_3DB_DEG) ** 2 + (del_ / BEAM_EL_3DB_DEG) ** 2)
    return PEAK_GAIN_DBI - np.minimum(atten, FRONT_BACK_LIMIT_DB)


def position_at_instant(traj: UeTrajectory, t_ms: float) -> np.ndarray:
    """UE position (x, y, z) at one instant ``t_ms`` on the circle (reference
    for ``scenario.position_at``)."""
    if not (0.0 <= t_ms <= traj.duration_ms):
        raise ValueError(f"t_ms={t_ms} outside [0, {traj.duration_ms}]")
    omega = scenario.SPEED_MPS / traj.radius_m  # rad/s
    theta = traj.start_angle_rad + traj.direction * omega * (t_ms / 1000.0)
    return np.array(
        [
            BS_POSITION[0] + traj.radius_m * math.cos(theta),
            BS_POSITION[1] + traj.radius_m * math.sin(theta),
            UE_HEIGHT_M,
        ]
    )


def bearing_from_bs(ue_pos: np.ndarray) -> tuple[float, float, float]:
    """Azimuth [0, 360), elevation (negative below BS height) and 3D distance
    of one UE position (reference for ``scenario.bearings_from_bs``)."""
    d = np.asarray(ue_pos, dtype=float) - np.asarray(BS_POSITION, dtype=float)
    d3d = math.sqrt(d.dot(d))  # np.linalg.norm's own formula, without its call overhead
    if d3d < 1e-12:
        raise ValueError("UE position coincides with the BS")
    az = math.degrees(math.atan2(d[1], d[0])) % 360.0
    d2d = math.hypot(d[0], d[1])
    if d2d < 1e-12:
        el = 90.0 if d[2] > 0 else -90.0
        az = 0.0
    else:
        el = math.degrees(math.atan2(d[2], d2d))
    return az, el, d3d


def shadow_step(prev_db, delta_d_m: float, params: ChannelParams, rng: np.random.Generator):
    """Gauss-Markov shadowing update with stationary distribution N(0, sigma^2)."""
    if delta_d_m < 0.0:
        raise ValueError("delta_d must be non-negative")
    rho = math.exp(-delta_d_m / channel.DECORRELATION_DISTANCE_M)
    sigma = channel.SHADOW_SIGMA_DB[params.los_mode]
    prev_db = np.asarray(prev_db, dtype=float)
    noise = rng.standard_normal(prev_db.shape) if prev_db.shape else rng.standard_normal()
    return rho * prev_db + math.sqrt(1.0 - rho * rho) * sigma * noise


class PerReportChannel:
    """``channel.ChannelState`` one position per call: the shadowing memory
    and the last position carry over to the next call."""

    def __init__(self, params: ChannelParams, rng: np.random.Generator):
        self.grid = BeamGrid()
        self.params = params
        self.rng = rng
        self._shadow: np.ndarray | None = None  # (3,) dB per cell
        self._last_pos: np.ndarray | None = None

    def sample(self, ue_pos: np.ndarray) -> np.ndarray:
        """Raw L1 RSRP for all 36 beams at this position, shape (3, 12) dBm."""
        p = self.params
        az, el, d3d = bearing_from_bs(ue_pos)
        if self._shadow is None:
            # stationary initialization
            self._shadow = channel.SHADOW_SIGMA_DB[p.los_mode] * self.rng.standard_normal(N_CELLS)
        else:
            delta_d = float(np.linalg.norm(np.asarray(ue_pos) - self._last_pos))
            self._shadow = shadow_step(self._shadow, delta_d, p, self.rng)
        self._last_pos = np.asarray(ue_pos, dtype=float).copy()
        gains = self.grid.gains_dbi(az, el)
        pl = path_loss(d3d, los=p.los)
        rsrp = TX_POWER_PER_SSB_DBM + gains - pl - self._shadow[:, None]
        return rsrp + FAST_FADING_SIGMA_DB * self.rng.standard_normal((N_CELLS, N_SSB))


class PerReportL3Filter:
    """``channel.L3FilterState`` one sample per call, holding the last output."""

    def __init__(self, a: float = L3_FILTER_COEFF):
        self.a = a
        self.value: np.ndarray | None = None

    def update(self, raw) -> np.ndarray:
        raw = np.asarray(raw, dtype=float)
        if self.value is None:
            self.value = raw.copy()
        else:
            self.value = (1.0 - self.a) * self.value + self.a * raw
        return self.value.copy()


def run_ue_per_report(ue_index, scenario_cfg, channel_cfg, master_seed) -> UeRun:
    """``simulate.run_ue`` one report at a time: each instant takes one
    position, samples the channel there, filters that one frame, reduces it
    to each cell's best beam and steps the engine on that (reference for the
    bulk position, channel, filter and reduction passes)."""
    ue_id = f"ue{ue_index:03d}"
    traj = spawn_trajectory(derive_seed(master_seed, "trajectory", ue_index), scenario_cfg)
    chan = PerReportChannel(channel_cfg, rng_from(master_seed, "channel", ue_index))
    prep_rng = rng_from(master_seed, "prep-latency", ue_index)
    filt = PerReportL3Filter()
    engine = None
    command_ms = None
    times, beams, bests, events = [], [], [], []
    for t in range(0, traj.duration_ms + 1, REPORT_PERIOD_MS):
        rows = filt.update(chan.sample(position_at_instant(traj, t))).tolist()
        best = [max(row) for row in rows]
        if engine is None:
            engine = A3EventEngine(ue_id, best.index(max(best)))
        if command_ms is not None and command_ms <= t:
            events.append(engine.apply_handover(command_ms))
            command_ms = None
        for ev in engine.step(MeasurementReport(t_ms=t, best_rsrp=best)):
            if ev.kind == EVENT_A3:
                command_ms = ev.t_ms + float(prep_rng.uniform(D_PREP_MIN_MS, D_PREP_MAX_MS))
            events.append(ev)
        times.append(t)
        beams.append([row.index(m) for row, m in zip(rows, best)])
        bests.append(best)
    return UeRun(ue_id, np.asarray(times, dtype=np.int64), np.array(beams, dtype=np.int64),
                 np.array(bests), events)


def quiet(engine: A3EventEngine, entry: bool) -> bool:
    """Whether ``engine.step`` on a report with this A3 ``entry`` would emit
    nothing and change nothing but the last report time: an A3 waits, or none
    is armed or enters (the reports ``simulate.run_ue`` jumps over)."""
    return engine.pending is not None or (engine.armed is None and not entry)


# ---------------------------------------------------------------------------
# event-stream reference scanner (O(n * ttt) lookahead form)
# ---------------------------------------------------------------------------


def scan_events(times: np.ndarray, best: np.ndarray, cell_ids: tuple[int, ...], serving0: int, d_preps: list[float]):
    """Forward scan with explicit TTT lookahead; returns (kind, t, serving, target).
    Reads the handover control constants of ``events`` at call time."""
    times = np.asarray(times)
    ttt_ms = events.TTT_MS
    n = len(times)
    found = []
    serving = serving0
    pending_cmd = None  # (cmd_time, target)
    prep_iter = iter(d_preps)

    def condition(i: int):
        s_idx = cell_ids.index(serving)
        nb = [j for j in range(len(cell_ids)) if j != s_idx]
        vals = [best[i, j] for j in nb]
        j_star = nb[int(np.argmax(vals))]
        entry = best[i, j_star] > best[i, s_idx] + events.OFFSET_DB + events.HYSTERESIS_DB
        return entry, cell_ids[j_star]

    i = 0
    while i < n:
        if pending_cmd is not None and times[i] >= pending_cmd[0]:
            found.append(("CMD", pending_cmd[0], serving, pending_cmd[1]))
            serving = pending_cmd[1]
            pending_cmd = None
        entry, cand = condition(i)
        if pending_cmd is not None or not entry:
            i += 1
            continue
        # arm here; look ahead through the whole TTT window
        t0 = int(times[i])
        found.append(("T0", t0, serving, cand))
        j = i + 1
        failed_at = None
        completed = False
        while j < n and times[j] <= t0 + ttt_ms:
            e_j, cand_j = condition(j)
            if not (e_j and cand_j == cand):
                failed_at = j
                break
            if times[j] == t0 + ttt_ms:
                completed = True
                break
            j += 1
        if completed:
            a3 = t0 + ttt_ms
            found.append(("A3", a3, serving, cand))
            d = next(prep_iter)
            pending_cmd = (a3 + d, cand)
            i = j + 1
        elif failed_at is not None:
            found.append(("ABORT", int(times[failed_at]), serving, cand))
            i = failed_at  # re-examined: may re-arm at the same instant
        else:
            break  # trace ended while armed
    return found


def drive_engine(times: np.ndarray, best: np.ndarray, serving0: int, d_preps: list[float]):
    """Feed the production engine the same trace; returns comparable tuples
    and the engine's events."""
    engine = A3EventEngine("ue", serving0)
    prep_iter = iter(d_preps)
    command_ms = None
    events = []
    for i, t in enumerate(times):
        if command_ms is not None and command_ms <= t:
            events.append(engine.apply_handover(command_ms))
            command_ms = None
        for ev in engine.step(MeasurementReport(int(t), best[i])):
            if ev.kind == "A3":
                command_ms = ev.t_ms + next(prep_iter)
            events.append(ev)
    return [(ev.kind, ev.t_ms, ev.serving, ev.target) for ev in events], events


def random_trace(rng: np.random.Generator, n_reports: int = 500):
    """Random-walk per-cell best-RSRP trace that wanders across borders."""
    times = np.arange(n_reports, dtype=np.int64) * 40
    base = rng.uniform(-95.0, -65.0, size=3)
    steps = rng.normal(0.0, 1.2, size=(n_reports, 3))
    best = base + np.cumsum(steps, axis=0)
    return times, best


def first_trigger_scan(times, preds, window_start_ms, a3_ms, threshold_s, k):
    """Report-by-report trigger rule: the first report of (window_start, a3]
    that ends k consecutive in-window predictions at or below the threshold."""
    streak = 0
    for t, p in zip(times, preds):
        if not (window_start_ms < t <= a3_ms):
            continue
        streak = streak + 1 if float(p) <= threshold_s else 0
        if streak == k:
            return float(t)
    return None


def label_scan(t_ms: int, episodes, cmd_times: list[float], horizon_s: float):
    """Per-sample linear-scan labeling oracle; returns (label, reason)."""
    from eshopsim.dataset import (
        REASON_ABORTED_TARGET,
        REASON_KEPT,
        REASON_OVER_HORIZON,
        REASON_POST_COMMAND,
    )

    nxt = None
    for ep in episodes:
        if ep.t0_ms >= t_ms:
            nxt = ep
            break
    if nxt is None:
        return float("nan"), REASON_POST_COMMAND
    seg_t = sum(1 for c in cmd_times if c < t_ms)
    seg_0 = sum(1 for c in cmd_times if c < nxt.t0_ms)
    if seg_t != seg_0:
        return float("nan"), REASON_POST_COMMAND
    if nxt.aborted:
        return float("nan"), REASON_ABORTED_TARGET
    label = (nxt.t0_ms - t_ms) / 1000.0
    if label > horizon_s:
        return float("nan"), REASON_OVER_HORIZON
    return label, REASON_KEPT


def random_episode_set(rng: np.random.Generator, ue_id: str = "ue", horizon_ms: int = 20000):
    """Random but structurally valid episode sequences for label testing."""
    from eshopsim.events import HoEventRecord

    episodes = []
    t = int(rng.integers(0, 400)) * 40
    while t < horizon_ms:
        aborted = bool(rng.random() < 0.35)
        t0 = t
        if aborted:
            episodes.append(HoEventRecord(ue_id, 0, 1, t0, aborted=True))
            t = t0 + 40 + int(rng.integers(0, 30)) * 40
        else:
            a3 = t0 + 40
            cmd = a3 + float(rng.uniform(15.0, 35.0))
            episodes.append(
                HoEventRecord(ue_id, 0, 1, t0, a3_ms=a3, command_ms=cmd)
            )
            t = a3 + int(rng.integers(10, 120)) * 40
    return episodes


def csv_writer_table(path, schema: str, columns: list[str], rows, **fields) -> None:
    """The table writer as ``csv.writer`` writes it: header line, column row,
    then one CSV row per item of ``rows``, quoting where csv.writer does."""
    with open(path, "w", newline="") as fh:
        fh.write(" ".join([f"# schema={schema}"] + [f"{k}={v}" for k, v in fields.items()]) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
