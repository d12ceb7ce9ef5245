"""Independent reference implementations used as test oracles.

These deliberately use different algorithmic shapes from the production code
(plain loops, explicit lookahead scans) so that agreement is meaningful.
"""

from __future__ import annotations

import numpy as np

from eshopsim.channel import MeasurementReport, N_SSB
from eshopsim.events import A3EventEngine, HcpConfig


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
# event-stream reference scanner (O(n * ttt) lookahead form)
# ---------------------------------------------------------------------------


def scan_events(
    times: np.ndarray,
    best: np.ndarray,
    cell_ids: tuple[int, ...],
    hcp: HcpConfig,
    serving0: int,
    d_preps: list[float],
):
    """Forward scan with explicit TTT lookahead; returns (kind, t, serving, target)."""
    times = np.asarray(times)
    n = len(times)
    events = []
    serving = serving0
    pending_cmd = None  # (cmd_time, target)
    prep_iter = iter(d_preps)

    def condition(i: int):
        s_idx = cell_ids.index(serving)
        nb = [j for j in range(len(cell_ids)) if j != s_idx]
        vals = [best[i, j] for j in nb]
        j_star = nb[int(np.argmax(vals))]
        entry = best[i, j_star] > best[i, s_idx] + hcp.offset_db + hcp.hysteresis_db
        return entry, cell_ids[j_star]

    i = 0
    while i < n:
        if pending_cmd is not None and times[i] >= pending_cmd[0]:
            events.append(("CMD", pending_cmd[0], serving, pending_cmd[1]))
            serving = pending_cmd[1]
            pending_cmd = None
        entry, cand = condition(i)
        if pending_cmd is not None or not entry:
            i += 1
            continue
        # arm here; look ahead through the whole TTT window
        t0 = int(times[i])
        events.append(("T0", t0, serving, cand))
        j = i + 1
        failed_at = None
        completed = False
        while j < n and times[j] <= t0 + hcp.ttt_ms:
            e_j, cand_j = condition(j)
            if not (e_j and cand_j == cand):
                failed_at = j
                break
            if times[j] == t0 + hcp.ttt_ms:
                completed = True
                break
            j += 1
        if completed:
            a3 = t0 + hcp.ttt_ms
            events.append(("A3", a3, serving, cand))
            d = next(prep_iter)
            pending_cmd = (a3 + d, cand)
            i = j + 1
        elif failed_at is not None:
            events.append(("ABORT", int(times[failed_at]), serving, cand))
            i = failed_at  # re-examined: may re-arm at the same instant
        else:
            break  # trace ended while armed
    return events


def drive_engine(
    times: np.ndarray,
    best: np.ndarray,
    cell_ids: tuple[int, ...],
    hcp: HcpConfig,
    serving0: int,
    d_preps: list[float],
):
    """Feed the production engine the same trace; returns comparable tuples."""
    engine = A3EventEngine("ue", cell_ids, hcp, serving0)
    prep_iter = iter(d_preps)
    out = []
    for i, t in enumerate(times):
        if engine.pending is not None and engine.pending.command_ms <= t:
            ev = engine.apply_handover(engine.pending)
            out.append((ev.kind, ev.t_ms, ev.serving, ev.target))
        frame = np.full((3, N_SSB), -160.0)
        frame[:, 0] = best[i]
        report = MeasurementReport(int(t), cell_ids, frame)
        for ev in engine.step(report):
            if ev.kind == "A3":
                engine.episodes[-1].command_ms = engine.episodes[-1].a3_ms + next(prep_iter)
            out.append((ev.kind, ev.t_ms, ev.serving, ev.target))
    return out, engine


def random_trace(rng: np.random.Generator, n_reports: int = 500):
    """Random-walk per-cell best-RSRP trace that wanders across borders."""
    times = np.arange(n_reports, dtype=np.int64) * 40
    base = rng.uniform(-95.0, -65.0, size=3)
    steps = rng.normal(0.0, 1.2, size=(n_reports, 3))
    best = base + np.cumsum(steps, axis=0)
    return times, best


def label_scan(t_ms: int, episodes, cmd_times: list[float], horizon_s: float):
    """Per-sample linear-scan labeling oracle; returns (label, reason)."""
    from eshopsim.dataset import (
        REASON_ABORTED_TARGET,
        REASON_KEPT,
        REASON_NONPOSITIVE,
        REASON_OVER_HORIZON,
        REASON_POST_COMMAND,
    )

    nxt = None
    for ep in episodes:
        if ep.t0_ms > t_ms:
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
    if label <= 0.0:
        return float("nan"), REASON_NONPOSITIVE
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
