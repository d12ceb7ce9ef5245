import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import WIDE_SHADOWING, series_of_runs
from eshopsim.channel import ChannelParams, reduce_series
from eshopsim.dataset import (
    DataError,
    DatasetConfig,
    REASON_ABORTED_TARGET,
    REASON_KEPT,
    REASON_POST_COMMAND,
    WindowBank,
    build_dataset,
    build_feature_matrix,
    command_times,
    label_tef,
    read_dataset,
    split_ues,
    standardized_rows,
    write_dataset,
    N_FEATURES,
)
from eshopsim.events import HcpConfig, HoEventRecord
from eshopsim.scenario import ScenarioConfig
from eshopsim.simulate import run_scenario
from oracles import label_scan, random_episode_set, windowize


def _ep(t0, aborted=False, ue="ue", d_prep=25.0):
    if aborted:
        return HoEventRecord(ue, 0, 1, t0, aborted=True)
    return HoEventRecord(ue, 0, 1, t0, a3_ms=t0 + 40, command_ms=t0 + 40 + d_prep)


def test_reduce_series_argmax_and_ties():
    frame = np.full((3, 12), -100.0)
    frame[0, 1] = -80.0
    frame[1, :] = -90.0  # all equal -> beam 0
    frame[2, 7] = -85.0
    beams, rsrp = reduce_series(frame[None])
    assert beams.tolist() == [[1, 0, 7]]
    assert rsrp.tolist() == [[-80.0, -90.0, -85.0]]


def test_reduce_series_matches_scalar_reduction():
    rng = np.random.Generator(np.random.PCG64(3))
    series = rng.uniform(-110, -50, size=(20, 3, 12)).round(0)  # rounding makes ties
    beams, rsrp = reduce_series(series)
    for i in range(20):
        for c in range(3):
            vals = series[i, c].tolist()
            best = max(vals)
            assert (beams[i, c], rsrp[i, c]) == (vals.index(best), best)  # lowest id on ties


def test_label_countdown_example():
    times = np.array([0, 40, 80])
    labels, reasons = label_tef(times, [_ep(200)], horizon_s=8.0)
    assert np.allclose(labels, [0.200, 0.160, 0.120])
    assert np.all(reasons == REASON_KEPT)


def test_label_aborted_target_dropped():
    times = np.arange(0, 400, 40)
    eps = [_ep(200, aborted=True), _ep(320)]
    labels, reasons = label_tef(times, eps, horizon_s=8.0)
    # samples up to and at the aborted T0 point at it -> dropped
    assert np.all(reasons[times <= 200] == REASON_ABORTED_TARGET)
    # samples after the abort up to the good T0 are labeled, 0 at that T0
    live = (times > 200) & (times <= 320)
    assert np.all(reasons[live] == REASON_KEPT)
    assert np.allclose(labels[live], (320 - times[live]) / 1000.0)
    assert labels[times == 320] == [0.0]


def test_label_post_command_and_horizon():
    times = np.arange(0, 800, 40)
    eps = [_ep(200, d_prep=25.0)]
    labels, reasons = label_tef(times, eps, horizon_s=8.0)
    # the countdown reaches 0 at T0 ...
    assert reasons[times == 200] == [REASON_KEPT] and labels[times == 200] == [0.0]
    # ... and after T0 there is no further same-segment T0
    assert np.all(reasons[times > 200] == REASON_POST_COMMAND)
    short = label_tef(times, eps, horizon_s=0.1)[1]
    assert short[0] == 3  # REASON_OVER_HORIZON: 200 ms away > 100 ms horizon


def test_label_rejects_unsorted_episodes():
    with pytest.raises(ValueError):
        label_tef(np.array([0, 40]), [_ep(400), _ep(200)], horizon_s=8.0)


def test_label_oracle_equivalence_randomized():
    rng = np.random.Generator(np.random.PCG64(123))
    total = 0
    for _ in range(40):
        eps = random_episode_set(rng)
        n = int(rng.integers(50, 400))
        times = np.arange(n, dtype=np.int64) * 40
        labels, reasons = label_tef(times, eps, horizon_s=6.0)
        cmds = list(command_times(eps))
        for i, t in enumerate(times):
            want_label, want_reason = label_scan(int(t), eps, cmds, 6.0)
            assert reasons[i] == want_reason
            if want_reason == REASON_KEPT:
                assert labels[i] == want_label
            else:
                assert np.isnan(labels[i])
        total += n
    assert total > 5000


def _bank(feats, labels, segments, window_len):
    return WindowBank(feats, segments, np.nonzero(np.isfinite(labels))[0], window_len)


def test_window_bank_padding_and_counts():
    feats = np.arange(12, dtype=float).reshape(6, 2)
    labels = np.array([np.nan, 1.0, 0.5, np.nan, 1.0, 0.9])
    segments = np.array([0, 0, 0, 1, 1, 1])
    bank = _bank(feats, labels, segments, window_len=4)
    X = bank.gather(np.arange(len(bank)))
    assert X.shape == (4, 4, 2)
    assert list(bank.end) == [1, 2, 4, 5]
    # first labeled row of segment 0: one real row of history plus itself
    assert np.array_equal(X[0, :2], np.zeros((2, 2)))
    assert np.array_equal(X[0, 2:], feats[0:2])
    # windows never reach across the segment boundary
    assert np.array_equal(X[2, :2], np.zeros((2, 2)))
    assert np.array_equal(X[2, 2:], feats[3:5])


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=40))
@settings(max_examples=40)
def test_window_bank_never_spans_segments(window_len, n):
    rng = np.random.Generator(np.random.PCG64(n * 7 + window_len))
    feats = rng.normal(size=(n, 3)) + 1.0  # nonzero so padding is detectable
    segments = np.sort(rng.integers(0, 3, size=n))
    labels = np.where(rng.random(n) < 0.7, rng.uniform(0.1, 2.0, n), np.nan)
    bank = _bank(feats, labels, segments, window_len)
    X = bank.gather(np.arange(len(bank)))
    assert len(X) == np.isfinite(labels).sum()
    for w, i in zip(X, bank.end):
        seg = segments[i]
        first = np.searchsorted(segments, seg, side="left")
        depth = min(window_len, i - first + 1)
        assert np.array_equal(w[window_len - depth :], feats[i - depth + 1 : i + 1])
        assert np.array_equal(w[: window_len - depth], np.zeros((window_len - depth, 3)))


def test_split_counts_and_determinism():
    ues = [f"ue{i:03d}" for i in range(10)]
    s1 = split_ues(ues, (0.8, 0.1, 0.1), seed=5)
    s2 = split_ues(ues, (0.8, 0.1, 0.1), seed=5)
    assert s1 == s2
    assert len(s1["train"]) == 8 and len(s1["val"]) == 1 and len(s1["test"]) == 1
    assert sorted(s1["train"] + s1["val"] + s1["test"]) == ues
    s3 = split_ues(ues, (0.8, 0.1, 0.1), seed=6)
    assert s3 != s1  # different seed shuffles differently (overwhelmingly)


def test_split_rejects_too_few_ues():
    with pytest.raises(DataError):
        split_ues(["a", "b"], (0.8, 0.1, 0.1), seed=1)


def test_one_hot_blocks_sum_to_one():
    rng = np.random.Generator(np.random.PCG64(9))
    rsrp = rng.normal(size=(50, 3))
    beams = rng.integers(0, 12, size=(50, 3))
    feats = build_feature_matrix(rsrp, beams)
    assert feats.shape == (50, N_FEATURES)
    for c in range(3):
        block = feats[:, c * 13 + 1 : (c + 1) * 13]
        assert np.all(block.sum(axis=1) == 1.0)
        assert np.array_equal(block.argmax(axis=1), beams[:, c])
        assert np.array_equal(feats[:, c * 13], rsrp[:, c])


def _pipeline_bundle(tmp_path, num_ues=6, seed=13):
    sc = ScenarioConfig(num_ues=num_ues, duration_s=14.0, speeds_mps=(25.0,))
    runs = run_scenario(sc, ChannelParams(**WIDE_SHADOWING), HcpConfig(hysteresis_db=1.0), master_seed=seed)
    return build_dataset(
        series_of_runs(runs), DatasetConfig(window_len=8, horizon_s=8.0), split_seed=3, config_hash="abc", master_seed=seed
    )


def test_build_dataset_reconciles_counts(tmp_path):
    bundle = _pipeline_bundle(tmp_path)
    meta = bundle.meta
    assert meta.raw_count == meta.kept_count + sum(meta.exclusion_counts.values())
    total_rows = sum(len(t) for t in bundle.splits.values())
    assert total_rows == meta.raw_count
    kept_rows = sum(int((t.reasons == REASON_KEPT).sum()) for t in bundle.splits.values())
    assert kept_rows == meta.kept_count
    assert meta.kept_count > 0


def test_train_split_standardization(tmp_path):
    bundle = _pipeline_bundle(tmp_path, num_ues=8)
    train = bundle.splits["train"]
    kept = train.reasons == REASON_KEPT
    rsrp_cols = [0, 13, 26]
    feats = standardized_rows(train.best_rsrp, train.best_beams, bundle.meta)[kept][:, rsrp_cols]
    assert np.all(np.abs(feats.mean(axis=0)) < 1e-6)
    assert np.all(np.abs(feats.std(axis=0) - 1.0) < 1e-6)
    # held-out splits reuse the train statistics: their mean is generally offset
    val = bundle.splits["val"]
    vrows = standardized_rows(val.best_rsrp, val.best_beams, bundle.meta)
    vfeats = vrows[val.reasons == REASON_KEPT][:, rsrp_cols]
    assert np.any(np.abs(vfeats.mean(axis=0)) > 1e-6)


def test_labels_in_horizon(tmp_path):
    bundle = _pipeline_bundle(tmp_path)
    at_t0 = 0
    for table in bundle.splits.values():
        kept = table.reasons == REASON_KEPT
        assert np.all(table.labels[kept] >= 0.0)
        assert np.all(table.labels[kept] <= bundle.meta.horizon_s)
        assert np.all(np.isnan(table.labels[~kept]))
        at_t0 += int(np.sum(table.labels[kept] == 0.0))
    assert at_t0 > 0  # the rows at T0 are kept with label 0


def test_dataset_round_trip_bit_exact(tmp_path):
    bundle = _pipeline_bundle(tmp_path)
    out = tmp_path / "dataset"
    write_dataset(out, bundle)
    loaded = read_dataset(out)
    assert loaded.meta.to_dict() == bundle.meta.to_dict()
    for name, table in bundle.splits.items():
        got = loaded.splits[name]
        assert np.array_equal(got.ue_ids, table.ue_ids)
        assert np.array_equal(got.t_ms, table.t_ms)
        assert np.array_equal(got.segments, table.segments)
        assert np.array_equal(got.reasons, table.reasons)
        assert np.array_equal(got.labels, table.labels, equal_nan=True)
        assert np.array_equal(got.best_beams, table.best_beams)
        assert np.array_equal(got.best_rsrp, table.best_rsrp)
        assert np.array_equal(
            standardized_rows(got.best_rsrp, got.best_beams, loaded.meta),
            standardized_rows(table.best_rsrp, table.best_beams, bundle.meta),
        )


def test_dataset_truncation_detected(tmp_path):
    bundle = _pipeline_bundle(tmp_path)
    out = tmp_path / "dataset"
    write_dataset(out, bundle)
    path = out / "train.npz"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError, match="corrupt or truncated"):
        read_dataset(out)


def test_dataset_schema_mismatch_detected(tmp_path):
    import json

    bundle = _pipeline_bundle(tmp_path)
    out = tmp_path / "dataset"
    write_dataset(out, bundle)
    meta = json.loads((out / "meta.json").read_text())
    meta["schema_version"] = "dataset/0"
    (out / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match="schema mismatch"):
        read_dataset(out)


def test_window_bank_matches_windowize(tmp_path):
    bundle = _pipeline_bundle(tmp_path)
    table = bundle.splits["train"]
    assert bundle.meta.window_len == 8
    bank = WindowBank.labeled(table, bundle.meta)
    features = standardized_rows(table.best_rsrp, table.best_beams, bundle.meta)
    # windowize on each UE slice must agree with the bank's gather, so windows
    # also break at UE boundaries
    for ue in np.unique(table.ue_ids):
        mask = table.ue_ids == ue
        X, y, idx = windowize(
            features[mask], table.labels[mask], table.segments[mask], window_len=8
        )
        bank_rows = np.nonzero(bank.ue_ids == ue)[0]
        assert np.array_equal(bank.gather(bank_rows), X)
        assert np.array_equal(bank.y[bank_rows], y)
