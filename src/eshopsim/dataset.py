"""Supervised dataset construction: encode the per-cell strongest beams as
features, attach countdown labels for the next entry-criterion fulfillment,
split leakage-free at UE granularity, and persist what the data set adds to
each report of the log (segment, reason, label) with a bit-exact round trip;
``join_log`` joins it back to the log, which meta.json binds by sha256.

Labels count down to the earliest T0 at or after the sample (0 at T0 itself),
restricted to the sample's pre-command segment; samples whose target T0
aborted mid-TTT are excluded, as are samples past their segment's handover
command and samples beyond the label horizon. Every exclusion carries a
reason code and the counts must reconcile: raw = kept + sum(excluded by
reason). The same countdown, over the whole trace, is the eshop oracle.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from eshopsim.artifacts import file_sha256, from_json, read_json, replacing, write_json
from eshopsim.channel import N_CELLS, N_SSB
from eshopsim.events import HoEventRecord

DATASET_SCHEMA = "dataset/4"
ROWS_FILE = "rows.npz"
LOG_FILE = "reports.csv"  # the report log the rows were labeled from

REASON_KEPT = 0
REASON_ABORTED_TARGET = 1
REASON_POST_COMMAND = 2
REASON_OVER_HORIZON = 3
REASON_NAMES = {
    REASON_KEPT: "kept",
    REASON_ABORTED_TARGET: "aborted_target",
    REASON_POST_COMMAND: "post_command",
    REASON_OVER_HORIZON: "over_horizon",
}

FEATURES_PER_CELL = 1 + N_SSB  # standardized best RSRP + one-hot beam id
N_FEATURES = N_CELLS * FEATURES_PER_CELL  # 39
SPLITS = ("train", "val", "test")


@dataclass
class DatasetConfig:
    window_len: int = 96
    horizon_s: float = 3.0
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ValueError("window length must be >= 1")
        if self.horizon_s <= 0.0:
            raise ValueError("horizon must be positive")
        ratios = self.split_ratios
        if len(ratios) != 3 or min(ratios) < 0.0 or abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError("split ratios must be three non-negative values summing to 1")


class DataError(RuntimeError):
    """Raised for missing, truncated or inconsistent data artifacts."""


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

    label(t) = (first T0 at or after t - t) / 1000, so 0 at T0, constrained
    to the same pre-command segment; excluded labels are NaN with a nonzero
    reason code.
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
    nxt = np.searchsorted(t0s, t, side="left")  # first T0 at or after t
    idx = np.nonzero(nxt < len(t0s))[0]
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
    reasons[idx[over]] = REASON_OVER_HORIZON
    reasons[idx[~over]] = REASON_KEPT
    labels[idx[~over]] = lab[~over]
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


def window_bounds(segments: np.ndarray, sample_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, the first row of its segment and its own row; a window of
    W rows ending at the sample holds rows max(first, end - W + 1)..end, so
    it never crosses a segment edge."""
    edges = np.flatnonzero(np.diff(segments)) + 1
    seg_start = np.zeros(len(segments), dtype=np.int64)
    seg_start[edges] = edges
    seg_start = np.maximum.accumulate(seg_start)
    end = np.asarray(sample_idx, dtype=np.int64)
    return seg_start[end], end


def split_ues(ue_ids: list[str], ratios: tuple[float, float, float], seed: int) -> dict[str, list[str]]:
    """Deterministic UE-level partition into train/val/test."""
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
    for name, c in zip(SPLITS, counts):
        out[name] = sorted(order[pos : pos + c])
        pos += c
    return out


@dataclass
class RowTable:
    """Reports labeled and excluded alike: the report log's columns beside
    the stored ones, each UE's rows contiguous and in time order."""

    ue_ids: np.ndarray  # (N,) str
    t_ms: np.ndarray  # (N,) int
    best_beams: np.ndarray  # (N, 3) int, strongest beam per cell
    best_rsrp: np.ndarray  # (N, 3) float, its L3 RSRP in dBm, unstandardized
    segments: np.ndarray  # (N,) int, per-UE segment index
    reasons: np.ndarray  # (N,) uint8
    labels: np.ndarray  # (N,) float, NaN when excluded

    def __len__(self) -> int:
        return len(self.t_ms)

    def of_ues(self, ues) -> "RowTable":
        """The rows of the UEs ``ues``, in sorted UE order (which fixes the bits of the train statistics)."""
        idx = np.flatnonzero(np.isin(self.ue_ids, ues))
        idx = idx[np.argsort(self.ue_ids[idx], kind="stable")]
        return RowTable(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


STORED_COLUMNS = ("segments", "reasons", "labels")  # in rows.npz; the others are the log's


def join_log(per_ue: dict[str, dict], stored: dict[str, np.ndarray]) -> RowTable:
    """The report log's records per UE (as ``read_report_log`` gives them)
    beside the ``stored`` columns, which hold one row per report in the same
    order: UE by UE, each UE's reports in time order."""
    counts = [len(rec["times_ms"]) for rec in per_ue.values()]
    if any(len(column) != sum(counts) for column in stored.values()):
        raise DataError(f"the data set and the report log ({sum(counts)} reports) disagree in length")
    keys = ("times_ms", "best_beams", "best_rsrp")  # RowTable's fields after ue_ids
    logged = (np.concatenate([rec[key] for rec in per_ue.values()]) for key in keys)
    return RowTable(np.repeat(list(per_ue), counts), *logged, **stored)


@dataclass
class DatasetMeta:
    schema_version: str = DATASET_SCHEMA
    config_hash: str = ""
    master_seed: int = 0
    rsrp_mean: tuple[float, float, float] = (0.0, 0.0, 0.0)  # one per cell
    rsrp_std: tuple[float, float, float] = (1.0, 1.0, 1.0)
    exclusion_counts: dict[str, int] = field(default_factory=dict)
    kept_count: int = 0
    raw_count: int = 0
    split_ues: dict[str, list[str]] = field(default_factory=dict)
    file_sha256: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(s <= 0.0 for s in self.rsrp_std):
            raise ValueError("RSRP standard deviations must be positive")

    @classmethod
    def from_dict(cls, d) -> "DatasetMeta":
        """Inverse of ``to_dict``; a missing, unknown or mistyped key is a DataError."""
        missing = {f.name for f in fields(cls)} - set(d if isinstance(d, dict) else ())
        if missing:
            raise DataError(f"dataset meta: missing keys {sorted(missing)}")
        try:
            return from_json(cls, d, "dataset meta")
        except ValueError as exc:
            raise DataError(str(exc)) from exc


@dataclass
class DatasetBundle:
    rows: RowTable  # every report of the log, in the stored order
    meta: DatasetMeta

    def split(self, name: str) -> RowTable:
        return self.rows.of_ues(self.meta.split_ues[name])


def standardized_rows(
    best_rsrp: np.ndarray, best_beams: np.ndarray, meta: DatasetMeta
) -> np.ndarray:
    """The model's input encoding: RSRP standardized with the training
    statistics in ``meta``, interleaved with the one-hot beam ids."""
    mean = np.asarray(meta.rsrp_mean)
    std = np.asarray(meta.rsrp_std)
    return build_feature_matrix((best_rsrp - mean) / std, best_beams)


def build_dataset(
    per_ue: dict[str, dict],
    cfg: DatasetConfig,
    split_seed: int,
    config_hash: str = "",
    master_seed: int = 0,
) -> DatasetBundle:
    """Assemble the labeled dataset from per-UE report series and episodes.

    ``per_ue`` maps ue_id -> dict with times_ms, best_beams and best_rsrp (N, 3)
    and episodes. Normalization statistics come from the kept train rows only.
    """
    if not per_ue:
        raise DataError("no UE runs to build a dataset from")
    assignment = split_ues(sorted(per_ue), cfg.split_ratios, split_seed)

    def stored(rec: dict) -> tuple[np.ndarray, ...]:  # in the order of STORED_COLUMNS
        times = np.asarray(rec["times_ms"], dtype=np.int64)
        labels, reasons = label_tef(times, rec["episodes"], cfg.horizon_s)
        return segment_ids(times, command_times(rec["episodes"])), reasons, labels

    per_column = zip(*map(stored, per_ue.values()))
    rows = join_log(per_ue, {key: np.concatenate(c) for key, c in zip(STORED_COLUMNS, per_column)})
    counts = np.bincount(rows.reasons, minlength=len(REASON_NAMES))

    train = rows.of_ues(assignment["train"])
    train_rsrp = train.best_rsrp[train.reasons == REASON_KEPT]
    if not len(train_rsrp):
        raise DataError("train split holds no labeled samples")
    mean = train_rsrp.mean(axis=0)
    std = train_rsrp.std(axis=0)
    if np.any(std <= 0.0):
        raise DataError("degenerate RSRP feature: zero variance in the train split")

    meta = DatasetMeta(
        config_hash=config_hash,
        master_seed=master_seed,
        rsrp_mean=tuple(float(x) for x in mean),
        rsrp_std=tuple(float(x) for x in std),
        exclusion_counts={REASON_NAMES[r]: int(n) for r, n in enumerate(counts) if r != REASON_KEPT},
        kept_count=int(counts[REASON_KEPT]),
        raw_count=len(rows),
        split_ues=assignment,
    )
    return DatasetBundle(rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_dataset(dirpath, bundle: DatasetBundle, log_path) -> None:
    """``rows.npz`` of the stored columns, and meta.json with its sha256 and
    that of the report log at ``log_path`` the rows were labeled from."""
    os.makedirs(dirpath, exist_ok=True)
    path = os.path.join(dirpath, ROWS_FILE)
    with replacing(path, "wb") as fh:
        np.savez(fh, **{key: getattr(bundle.rows, key) for key in STORED_COLUMNS})
    bundle.meta.file_sha256 = {ROWS_FILE: file_sha256(path), LOG_FILE: file_sha256(log_path)}
    write_json(os.path.join(dirpath, "meta.json"), asdict(bundle.meta))


def read_dataset(dirpath) -> tuple[DatasetMeta, dict[str, np.ndarray]]:
    """The meta and the stored columns; ``join_log`` joins them to the log,
    once its sha256 has been checked against ``meta.file_sha256``."""
    meta_path = os.path.join(dirpath, "meta.json")
    if not os.path.exists(meta_path):
        raise DataError(f"missing dataset meta: {meta_path} (run 'build-dataset' first)")
    try:
        doc = read_json(meta_path)
    except ValueError as exc:  # not JSON, e.g. a truncated file
        raise DataError(f"unreadable dataset meta {meta_path}: {exc}") from exc
    meta = DatasetMeta.from_dict(doc)
    if meta.schema_version != DATASET_SCHEMA:
        raise DataError(
            f"dataset schema mismatch: {meta.schema_version} != {DATASET_SCHEMA}"
        )
    if sorted(meta.file_sha256) != sorted((ROWS_FILE, LOG_FILE)):
        raise DataError(f"dataset meta must list exactly {ROWS_FILE} and {LOG_FILE}")
    path = os.path.join(dirpath, ROWS_FILE)
    if not os.path.exists(path):
        raise DataError(f"missing dataset file: {path}")
    if file_sha256(path) != meta.file_sha256[ROWS_FILE]:
        raise DataError(f"dataset file corrupt or truncated: {path}")
    with np.load(path, allow_pickle=False) as npz:
        if sorted(npz.files) != sorted(STORED_COLUMNS):
            raise DataError(f"unexpected dataset columns in {path}")
        return meta, {key: npz[key] for key in STORED_COLUMNS}


# ---------------------------------------------------------------------------
# window bank: lazy causal-window materialization over a row table
# ---------------------------------------------------------------------------


class WindowBank:
    """Zero-padded causal windows, never crossing a segment edge, ending at chosen
    rows of a feature matrix; training, evaluation and eshop all read here.
    ``seg_start`` holds the first row of each window's segment, which places
    the window in its segment for the segment-shared inference of
    ``tcn.predict``."""

    y = ue_ids = t_ms = None  # label, UE and time of each window end; set by ``labeled``

    def __init__(self, rows, segments, ends, window_len: int, dtype=np.float64):
        self.window_len = window_len
        rows = np.asarray(rows)
        store = np.zeros((window_len - 1 + len(rows), rows.shape[1]), dtype=dtype)
        store[window_len - 1 :] = rows
        self.rows = store[window_len - 1 :]
        # _windows[e] is a view of rows e-W+1 .. e, the W-1 zero rows of
        # ``store`` standing before row 0
        s0, s1 = store.strides
        self._windows = as_strided(
            store, (len(rows), window_len, rows.shape[1]), (s0, s0, s1), writeable=False
        )
        self.seg_start, self.end = window_bounds(segments, ends)

    @classmethod
    def labeled(cls, table: RowTable, meta: DatasetMeta, window_len: int, dtype=np.float64) -> "WindowBank":
        """Windows of ``window_len`` rows ending at the kept rows of a table,
        with their labels."""
        # segment boundaries must also break at UE boundaries
        ue_codes = np.unique(table.ue_ids, return_inverse=True)[1]
        combined = table.segments.astype(np.int64) + (ue_codes.astype(np.int64) << 32)
        kept = np.nonzero(table.reasons == REASON_KEPT)[0]
        rows = standardized_rows(table.best_rsrp, table.best_beams, meta)
        bank = cls(rows, combined, kept, window_len, dtype)
        bank.y, bank.ue_ids, bank.t_ms = table.labels[kept], table.ue_ids[kept], table.t_ms[kept]
        return bank

    def __len__(self) -> int:
        return len(self.end)

    def gather(self, idx) -> np.ndarray:
        """The windows (B, window_len, C) ending at the banked rows ``idx``:
        one read of the whole windows, then zeros on the rows that precede
        each window's segment."""
        idx = np.asarray(idx)
        W = self.window_len
        out = self._windows[self.end[idx]]
        n_pad = self.seg_start[idx] - self.end[idx] + (W - 1)
        out.reshape(-1, out.shape[2])[(np.arange(W) < n_pad[:, None]).ravel()] = 0
        return out
