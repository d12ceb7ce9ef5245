"""Supervised dataset construction: reduce reports to per-cell strongest-beam
features, attach countdown labels for the next entry-criterion fulfillment,
split leakage-free at UE granularity, and persist with a bit-exact round trip.

Labels point at the earliest T0 strictly after the sample, restricted to the
sample's pre-command segment; samples whose target T0 aborted mid-TTT are
excluded, as are samples past their segment's handover command and samples
beyond the label horizon. Every exclusion carries a reason code and the
counts must reconcile: raw = kept + sum(excluded by reason).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from eshopsim.artifacts import file_sha256
from eshopsim.channel import MeasurementReport, N_SSB
from eshopsim.events import HoEventRecord

DATASET_SCHEMA = "dataset/2"

REASON_KEPT = 0
REASON_ABORTED_TARGET = 1
REASON_POST_COMMAND = 2
REASON_OVER_HORIZON = 3
REASON_NONPOSITIVE = 4
REASON_NAMES = {
    REASON_KEPT: "kept",
    REASON_ABORTED_TARGET: "aborted_target",
    REASON_POST_COMMAND: "post_command",
    REASON_OVER_HORIZON: "over_horizon",
    REASON_NONPOSITIVE: "nonpositive_label",
}

N_CELLS = 3
FEATURES_PER_CELL = 1 + N_SSB  # standardized best RSRP + one-hot beam id
N_FEATURES = N_CELLS * FEATURES_PER_CELL  # 39


@dataclass
class DatasetConfig:
    window_len: int = 64
    horizon_s: float = 8.0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self) -> None:
        if isinstance(self.split_ratios, list):
            self.split_ratios = tuple(self.split_ratios)
        if self.window_len < 1:
            raise ValueError("window length must be >= 1")
        if self.horizon_s <= 0.0:
            raise ValueError("horizon must be positive")
        if len(self.split_ratios) != 3 or abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must be three values summing to 1")


class DataError(RuntimeError):
    """Raised for missing, truncated or inconsistent data artifacts."""


def reduce_report(report: MeasurementReport) -> tuple[int, list[tuple[int, float]]]:
    """Strongest beam per cell; ties resolve to the lowest beam id."""
    best_beams = report.rsrp_dbm.argmax(axis=1)
    return report.t_ms, [
        (int(b), float(report.rsrp_dbm[c, b])) for c, b in enumerate(best_beams)
    ]


def reduce_series(l3_rsrp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized reduction of an (N, 3, 12) series to beams (N, 3) and RSRP (N, 3)."""
    best_beams = l3_rsrp.argmax(axis=2)
    best_rsrp = l3_rsrp.max(axis=2)
    return best_beams.astype(np.int64), best_rsrp


def command_times(episodes: list[HoEventRecord]) -> np.ndarray:
    """Sorted handover command instants; these delimit data-collection segments."""
    return np.asarray(
        sorted(ep.command_ms for ep in episodes if not ep.aborted and ep.command_ms is not None),
        dtype=float,
    )


def segment_ids(report_times: np.ndarray, cmd_times: np.ndarray) -> np.ndarray:
    """Segment index per report: the number of commands strictly before it."""
    return np.searchsorted(cmd_times, np.asarray(report_times, dtype=float), side="left")


def label_tef(
    report_times: np.ndarray,
    episodes: list[HoEventRecord],
    horizon_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Countdown labels in seconds plus per-sample reason codes.

    label(t) = (next T0 strictly after t - t) / 1000, constrained to the same
    pre-command segment; excluded labels are NaN with a nonzero reason code.
    """
    t = np.asarray(report_times, dtype=np.int64)
    if np.any(np.diff(t) <= 0):
        raise ValueError("report times must be strictly increasing")
    t0s = np.asarray([ep.t0_ms for ep in episodes], dtype=np.int64)
    if np.any(np.diff(t0s) < 0):
        raise ValueError("episodes must be sorted by T0")
    aborted = np.asarray([ep.aborted for ep in episodes], dtype=bool)
    cmds = command_times(episodes)

    labels = np.full(t.shape, np.nan)
    reasons = np.full(t.shape, REASON_POST_COMMAND, dtype=np.uint8)
    nxt = np.searchsorted(t0s, t, side="right")  # first T0 strictly after t
    has_next = nxt < len(t0s)
    if not np.any(has_next):
        return labels, reasons

    idx = np.nonzero(has_next)[0]
    target_t0 = t0s[nxt[idx]]
    same_segment = segment_ids(t[idx], cmds) == segment_ids(target_t0, cmds)
    idx = idx[same_segment]
    target_t0 = target_t0[same_segment]
    target_aborted = aborted[nxt[idx]]

    reasons[idx[target_aborted]] = REASON_ABORTED_TARGET
    idx = idx[~target_aborted]
    target_t0 = target_t0[~target_aborted]

    lab = (target_t0 - t[idx]) / 1000.0
    over = lab > horizon_s
    nonpos = lab <= 0.0
    keep = ~(over | nonpos)
    reasons[idx[over]] = REASON_OVER_HORIZON
    reasons[idx[nonpos]] = REASON_NONPOSITIVE
    reasons[idx[keep]] = REASON_KEPT
    labels[idx[keep]] = lab[keep]
    return labels, reasons


def build_feature_matrix(best_rsrp_std: np.ndarray, best_beams: np.ndarray) -> np.ndarray:
    """Interleave per cell: [rsrp, one-hot(12)] -> (N, 39)."""
    n = best_rsrp_std.shape[0]
    out = np.zeros((n, N_FEATURES))
    rows = np.arange(n)
    for c in range(N_CELLS):
        base = c * FEATURES_PER_CELL
        out[:, base] = best_rsrp_std[:, c]
        out[rows, base + 1 + best_beams[:, c]] = 1.0
    return out


def window_bounds(
    segments: np.ndarray, sample_idx: np.ndarray, window_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample [start, end] row indices; windows never cross a segment edge."""
    segments = np.asarray(segments)
    seg_start = np.zeros(len(segments), dtype=np.int64)
    for i in range(1, len(segments)):
        seg_start[i] = seg_start[i - 1] if segments[i] == segments[i - 1] else i
    end = np.asarray(sample_idx, dtype=np.int64)
    start = np.maximum(seg_start[end], end - window_len + 1)
    return start, end


def split_ues(ue_ids: list[str], ratios: tuple[float, float, float], seed: int) -> dict[str, list[str]]:
    """Deterministic UE-level partition into train/val/test."""
    names = ("train", "val", "test")
    ue_ids = sorted(ue_ids)
    n = len(ue_ids)
    active = sum(1 for r in ratios if r > 0)
    if n < active:
        raise DataError(f"need at least {active} UEs to populate the splits, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = [ue_ids[i] for i in rng.permutation(n)]
    # largest-remainder apportionment, then guarantee non-empty active splits
    ideal = [r * n for r in ratios]
    counts = [int(np.floor(x)) for x in ideal]
    rem = n - sum(counts)
    frac_order = sorted(range(3), key=lambda i: (ideal[i] - counts[i]), reverse=True)
    for i in range(rem):
        counts[frac_order[i % 3]] += 1
    for i, r in enumerate(ratios):
        while r > 0 and counts[i] == 0:
            donor = int(np.argmax(counts))
            if counts[donor] < 2:
                raise DataError("too few UEs for the requested split ratios")
            counts[donor] -= 1
            counts[i] += 1
    out: dict[str, list[str]] = {}
    pos = 0
    for name, c in zip(names, counts):
        out[name] = sorted(order[pos : pos + c])
        pos += c
    return out


@dataclass
class RowTable:
    """All reduced rows of one split's UEs, labeled and excluded alike."""

    ue_ids: np.ndarray  # (N,) str
    t_ms: np.ndarray  # (N,) int
    segments: np.ndarray  # (N,) int, per-UE segment index
    reasons: np.ndarray  # (N,) uint8
    labels: np.ndarray  # (N,) float, NaN when excluded
    best_beams: np.ndarray  # (N, 3) int, strongest beam per cell
    best_rsrp: np.ndarray  # (N, 3) float, its L3 RSRP in dBm, unstandardized
    features: np.ndarray  # (N, 39) from standardized_rows

    def __len__(self) -> int:
        return len(self.t_ms)


# Zero-row template of the raw columns a split file stores; features are
# derived on load.
_RAW_COLUMNS = {
    "ue_ids": np.asarray([], dtype=str),
    "t_ms": np.zeros(0, dtype=np.int64),
    "segments": np.zeros(0, dtype=np.int64),
    "reasons": np.zeros(0, dtype=np.uint8),
    "labels": np.zeros(0),
    "best_beams": np.zeros((0, N_CELLS), dtype=np.int64),
    "best_rsrp": np.zeros((0, N_CELLS)),
}


@dataclass
class DatasetMeta:
    schema_version: str = DATASET_SCHEMA
    config_hash: str = ""
    master_seed: int = 0
    horizon_s: float = 8.0
    window_len: int = 64
    cell_ids: tuple[int, ...] = (0, 1, 2)
    rsrp_mean: tuple[float, ...] = ()
    rsrp_std: tuple[float, ...] = ()
    exclusion_counts: dict[str, int] = field(default_factory=dict)
    kept_count: int = 0
    raw_count: int = 0
    split_ues: dict[str, list[str]] = field(default_factory=dict)
    file_sha256: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "horizon_s": self.horizon_s,
            "window_len": self.window_len,
            "cell_ids": list(self.cell_ids),
            "rsrp_mean": list(self.rsrp_mean),
            "rsrp_std": list(self.rsrp_std),
            "exclusion_counts": self.exclusion_counts,
            "kept_count": self.kept_count,
            "raw_count": self.raw_count,
            "split_ues": self.split_ues,
            "file_sha256": self.file_sha256,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetMeta":
        return cls(
            schema_version=d["schema_version"],
            config_hash=d["config_hash"],
            master_seed=int(d["master_seed"]),
            horizon_s=float(d["horizon_s"]),
            window_len=int(d["window_len"]),
            cell_ids=tuple(d["cell_ids"]),
            rsrp_mean=tuple(d["rsrp_mean"]),
            rsrp_std=tuple(d["rsrp_std"]),
            exclusion_counts={k: int(v) for k, v in d["exclusion_counts"].items()},
            kept_count=int(d["kept_count"]),
            raw_count=int(d["raw_count"]),
            split_ues={k: list(v) for k, v in d["split_ues"].items()},
            file_sha256=dict(d["file_sha256"]),
        )


@dataclass
class DatasetBundle:
    splits: dict[str, RowTable]
    meta: DatasetMeta


def standardized_rows(
    best_rsrp: np.ndarray, best_beams: np.ndarray, meta: DatasetMeta
) -> np.ndarray:
    """The model's input encoding: RSRP standardized with the training
    statistics in ``meta``, interleaved with the one-hot beam ids."""
    mean = np.asarray(meta.rsrp_mean)
    std = np.asarray(meta.rsrp_std)
    return build_feature_matrix((best_rsrp - mean) / std, best_beams)


def _row_table(columns: dict[str, np.ndarray], meta: DatasetMeta) -> RowTable:
    features = standardized_rows(columns["best_rsrp"], columns["best_beams"], meta)
    return RowTable(**columns, features=features)


def build_dataset(
    per_ue: dict[str, dict],
    cfg: DatasetConfig,
    split_seed: int,
    config_hash: str = "",
    master_seed: int = 0,
) -> DatasetBundle:
    """Assemble the labeled dataset from per-UE report series and episodes.

    ``per_ue`` maps ue_id -> dict with times_ms, l3_rsrp (N, 3, 12), episodes,
    cell_ids. Normalization statistics come from the kept train rows only.
    """
    if not per_ue:
        raise DataError("no UE runs to build a dataset from")
    ue_ids = sorted(per_ue)
    assignment = split_ues(ue_ids, cfg.split_ratios, split_seed)

    staged: dict[str, dict] = {}
    counts = {name: 0 for name in REASON_NAMES.values()}
    raw_total = 0
    for ue in ue_ids:
        rec = per_ue[ue]
        times = np.asarray(rec["times_ms"], dtype=np.int64)
        beams, rsrp = reduce_series(np.asarray(rec["l3_rsrp"]))
        labels, reasons = label_tef(times, rec["episodes"], cfg.horizon_s)
        staged[ue] = {
            "ue_ids": np.full(len(times), ue),
            "t_ms": times,
            "segments": segment_ids(times, command_times(rec["episodes"])),
            "reasons": reasons,
            "labels": labels,
            "best_beams": beams,
            "best_rsrp": rsrp,
        }
        raw_total += len(times)
        vals, freq = np.unique(reasons, return_counts=True)
        for v, f in zip(vals, freq):
            counts[REASON_NAMES[int(v)]] += int(f)

    train_rows = [
        staged[ue]["best_rsrp"][staged[ue]["reasons"] == REASON_KEPT]
        for ue in assignment["train"]
    ]
    train_rows = [r for r in train_rows if len(r)]
    if not train_rows:
        raise DataError("train split holds no labeled samples")
    train_rsrp = np.concatenate(train_rows, axis=0)
    mean = train_rsrp.mean(axis=0)
    std = train_rsrp.std(axis=0)
    if np.any(std <= 0.0):
        raise DataError("degenerate RSRP feature: zero variance in the train split")

    meta = DatasetMeta(
        config_hash=config_hash,
        master_seed=master_seed,
        horizon_s=cfg.horizon_s,
        window_len=cfg.window_len,
        cell_ids=tuple(per_ue[ue_ids[0]].get("cell_ids", (0, 1, 2))),
        rsrp_mean=tuple(float(x) for x in mean),
        rsrp_std=tuple(float(x) for x in std),
        exclusion_counts={k: v for k, v in counts.items() if k != "kept"},
        kept_count=counts["kept"],
        raw_count=raw_total,
        split_ues=assignment,
    )
    splits: dict[str, RowTable] = {}
    for name, ues in assignment.items():
        parts = [staged[ue] for ue in ues] or [_RAW_COLUMNS]
        columns = {key: np.concatenate([p[key] for p in parts]) for key in _RAW_COLUMNS}
        splits[name] = _row_table(columns, meta)
    return DatasetBundle(splits=splits, meta=meta)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_dataset(dirpath, bundle: DatasetBundle) -> None:
    """One ``<split>.npz`` of raw columns per split, plus meta.json with their sha256."""
    os.makedirs(dirpath, exist_ok=True)
    meta = bundle.meta
    meta.file_sha256 = {}
    for name, table in bundle.splits.items():
        path = os.path.join(dirpath, f"{name}.npz")
        np.savez(path, **{key: getattr(table, key) for key in _RAW_COLUMNS})
        meta.file_sha256[f"{name}.npz"] = file_sha256(path)
    with open(os.path.join(dirpath, "meta.json"), "w") as fh:
        json.dump(meta.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_meta(dirpath) -> DatasetMeta:
    meta_path = os.path.join(dirpath, "meta.json")
    if not os.path.exists(meta_path):
        raise DataError(f"missing dataset meta: {meta_path}")
    with open(meta_path) as fh:
        meta = DatasetMeta.from_dict(json.load(fh))
    if meta.schema_version != DATASET_SCHEMA:
        raise DataError(
            f"dataset schema mismatch: {meta.schema_version} != {DATASET_SCHEMA}"
        )
    return meta


def read_dataset(dirpath) -> DatasetBundle:
    meta = read_meta(dirpath)
    splits: dict[str, RowTable] = {}
    for name, digest in meta.file_sha256.items():
        path = os.path.join(dirpath, name)
        if not os.path.exists(path):
            raise DataError(f"missing dataset file: {path}")
        if file_sha256(path) != digest:
            raise DataError(f"dataset file corrupt or truncated: {path}")
        with np.load(path, allow_pickle=False) as npz:
            if sorted(npz.files) != sorted(_RAW_COLUMNS):
                raise DataError(f"unexpected dataset columns in {path}")
            columns = {key: npz[key] for key in _RAW_COLUMNS}
        splits[name.removesuffix(".npz")] = _row_table(columns, meta)
    return DatasetBundle(splits=splits, meta=meta)


# ---------------------------------------------------------------------------
# window bank: lazy causal-window materialization over a row table
# ---------------------------------------------------------------------------


class WindowBank:
    """Zero-padded causal windows, never crossing a segment edge, ending at chosen
    rows of a feature matrix; training, evaluation and eshop all gather here."""

    y = ue_ids = t_ms = None  # label, UE and time of each window end; set by ``labeled``

    def __init__(self, rows, segments, ends, window_len: int, dtype=np.float64):
        self.window_len = window_len
        self.rows = np.ascontiguousarray(rows, dtype=dtype)
        self.start, self.end = window_bounds(segments, ends, window_len)

    @classmethod
    def labeled(cls, table: RowTable, window_len: int, dtype=np.float64) -> "WindowBank":
        """Windows ending at the kept rows of a table, with their labels."""
        # segment boundaries must also break at UE boundaries
        ue_codes = np.unique(table.ue_ids, return_inverse=True)[1]
        combined = table.segments.astype(np.int64) + (ue_codes.astype(np.int64) << 32)
        kept = np.nonzero(table.reasons == REASON_KEPT)[0]
        bank = cls(table.features, combined, kept, window_len, dtype)
        bank.y, bank.ue_ids, bank.t_ms = table.labels[kept], table.ue_ids[kept], table.t_ms[kept]
        return bank

    def __len__(self) -> int:
        return len(self.end)

    def gather(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        out = np.zeros((len(idx), self.window_len, self.rows.shape[1]), dtype=self.rows.dtype)
        for b, i in enumerate(idx):
            s, e = self.start[i], self.end[i]
            out[b, self.window_len - (e - s + 1) :, :] = self.rows[s : e + 1]
        return out
