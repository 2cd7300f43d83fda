"""Trace format, global map, policies, and end-to-end run behavior."""

import json
import math

import numpy as np
import pytest

from coopsim.codec import (
    DESCRIPTOR_OVERHEAD_BYTES,
    MeasurementDataset,
    N_BUCKETS,
    RAW_OBJECT_BYTES,
    RF_SET,
    bucket_index,
    decode,
    encode,
    lossless_bytes,
    payload_bytes,
    reconstruction_loss,
)
from coopsim.errors import ConfigError, FrameError
from coopsim.geometry import Bbox3, resample, sample_visible_surface
from coopsim.simpipe import (
    CAR_EXTENT,
    FRAME_PERIOD_S,
    LIDAR_Z,
    MATCH_GATE_M,
    POLICIES,
    REUSE_DELTA_BYTES,
    GlobalMap,
    MapEntry,
    RunConfig,
    _draw_samples,
    _S_CODEC,
    collect_metrics,
    generate_trace,
    load_trace,
    nearest_rank,
    run_simulation,
    save_trace,
    validate_trace,
    write_frame_csv,
)
from coopsim.tracking import kalman_init
from oracles import DictGlobalMap, MatrixFilterMap, greedy_dedup


# ---------------------------------------------------------------------------
# trace generation


def test_generate_trace_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_trace(a, generate_trace(12, 5, seed=3))
    save_trace(b, generate_trace(12, 5, seed=3))
    assert a.read_bytes() == b.read_bytes()


def test_generate_trace_seed_changes_content(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_trace(a, generate_trace(12, 5, seed=3))
    save_trace(b, generate_trace(12, 5, seed=4))
    assert a.read_bytes() != b.read_bytes()


def test_generate_trace_shape():
    trace = generate_trace(150, 4, seed=0)
    assert len(trace) == 4
    for i, frame in enumerate(trace):
        assert frame.index == i
        assert frame.time_s == pytest.approx(i * FRAME_PERIOD_S)
        assert sorted(frame.cav_ids.tolist()) == list(range(150))
        assert frame.poses.shape == (150, 6)
        pairs = len(frame.obj_ids)
        assert frame.pair_cav.shape == frame.yaws.shape == frame.counts.shape == (pairs,)
        assert frame.centers.shape == frame.extents.shape == (pairs, 3)
        assert (np.diff(frame.pair_cav) >= 0).all()  # grouped by viewer


def test_generate_trace_density_band():
    # the dense default layout should stay in a workable visibility band
    trace = generate_trace(150, 4, seed=0)
    counts = [n for f in trace for n in np.bincount(f.pair_cav, minlength=len(f.cav_ids))]
    assert 3.0 <= float(np.mean(counts)) <= 30.0


def test_generate_trace_visibility_window():
    trace = generate_trace(40, 3, seed=1)
    for frame in trace:
        assert (frame.obj_ids != frame.cav_ids[frame.pair_cav]).all()
        eyes = frame.poses[frame.pair_cav, :2]
        d = np.linalg.norm(frame.centers[:, :2] - eyes, axis=1)
        assert ((3.0 < d) & (d <= 50.0 + max(CAR_EXTENT))).all()


def test_generate_trace_counts_positive():
    trace = generate_trace(30, 2, seed=2)
    for frame in trace:
        assert len(frame.counts) and (frame.counts >= 1).all()
        assert (frame.extents == CAR_EXTENT).all()


def test_generate_trace_rejects_bad_args():
    with pytest.raises(ConfigError):
        generate_trace(0, 5)
    with pytest.raises(ConfigError):
        generate_trace(5, 0)


# ---------------------------------------------------------------------------
# trace io


def _tiny_trace():
    return generate_trace(8, 3, seed=7)


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "t.jsonl"
    trace = _tiny_trace()
    save_trace(path, trace)
    back = load_trace(path)
    assert len(back) == len(trace)
    for fa, fb in zip(trace, back):
        assert fb.index == fa.index and fb.time_s == fa.time_s
        for name in ("cav_ids", "poses", "pair_cav", "obj_ids", "centers", "extents",
                     "yaws", "counts"):
            want, got = getattr(fa, name), getattr(fb, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _records(tmp_path, trace):
    """``trace`` as the JSON records of its file."""
    path = tmp_path / "records.jsonl"
    save_trace(path, trace)
    return [json.loads(line) for line in path.read_text().splitlines()]


def _load_records(tmp_path, records):
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return load_trace(path)


def _cav(cav_id, x, y, yaw, objects):
    return {"id": cav_id, "pose": [x, y, LIDAR_Z, 0.0, 0.0, yaw], "objects": objects}


def _car(obj_id, center, yaw, count=900):
    return {"id": obj_id, "center": center, "extent": list(CAR_EXTENT), "yaw": yaw,
            "count": count}


def test_load_rejects_broken_json(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"frame": 0, "time_s": 0.0, "cavs": [\n')
    with pytest.raises(FrameError):
        load_trace(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"frame": 0, "cavs": []}\n')
    with pytest.raises(FrameError):
        load_trace(path)


def test_validate_rejects_bad_cadence():
    trace = _tiny_trace()
    trace[1].time_s += 0.02
    with pytest.raises(FrameError):
        validate_trace(trace)


def test_validate_rejects_duplicate_cav_ids(tmp_path):
    records = _records(tmp_path, _tiny_trace())
    records[0]["cavs"][1]["id"] = records[0]["cavs"][0]["id"]
    with pytest.raises(FrameError, match="duplicate CAV ids"):
        _load_records(tmp_path, records)


def test_validate_rejects_duplicate_object_ids(tmp_path):
    records = _records(tmp_path, _tiny_trace())
    cav = next(c for c in records[0]["cavs"] if c["objects"])
    cav["objects"].append(cav["objects"][0])
    with pytest.raises(FrameError, match=f"CAV {cav['id']} lists an object twice"):
        _load_records(tmp_path, records)


def test_validate_rejects_empty():
    with pytest.raises(FrameError):
        validate_trace([])


def test_validate_accepts_nonzero_start():
    trace = _tiny_trace()
    for i, frame in enumerate(trace):
        frame.time_s = 5.0 + i * FRAME_PERIOD_S
    validate_trace(trace)


# ---------------------------------------------------------------------------
# global map


def _at(x, y):
    """An uploaded object's observed ground-plane position."""
    return np.array([x, y], dtype=np.float64)


def _commit(gmap, items, t):
    """Commit one frame's uploads against the map's predictions at ``t``."""
    return gmap.commit_frame(items, t, gmap.predicted_positions(t))


def test_map_same_frame_reports_merge():
    gmap = GlobalMap()
    a = _at(10.0, 5.0)
    b = _at(10.4, 5.0)  # second CAV, within gate
    gids = _commit(gmap, [(a, True, 0.1), (b, True, 0.2)], 0.0)
    assert gids[0] == gids[1]
    assert len(gmap) == 1
    entry = gmap.entries[gids[0]]
    assert entry.has_geometry and entry.last_loss == 0.2


def test_map_distinct_objects_get_distinct_ids():
    gmap = GlobalMap()
    gids = _commit(gmap, [(_at(0.0, 0.0), True, 0.0), (_at(30.0, 0.0), True, 0.0)], 0.0)
    assert gids[0] != gids[1]
    assert len(gmap) == 2


def test_map_no_spurious_births_over_time():
    gmap = GlobalMap()
    rng = np.random.default_rng(0)
    for k in range(12):
        t = 0.1 * k
        x = 10.0 + 8.0 * t + float(rng.normal(0, 0.05))  # fast mover, tiny noise
        _commit(gmap, [(_at(x, 0.0), True, 0.0)], t)
    assert len(gmap) == 1
    assert gmap._next_id == 1


def test_map_prediction_tracks_motion():
    gmap = GlobalMap()
    for k in range(10):
        t = 0.1 * k
        _commit(gmap, [(_at(5.0 * t, 0.0), True, 0.0)], t)
    gids, points = gmap.predicted_positions(1.0)
    assert gids.tolist() == [0]
    pos = points[0]
    assert abs(pos[0] - 5.0) < 0.5
    assert abs(pos[1]) < 0.1


def test_map_dedup_keeps_smaller_gid():
    gmap = GlobalMap()
    gmap.entries[4] = MapEntry(kalman=kalman_init(np.array([1.0, 1.0]), 0.0), last_seen=0.0)
    gmap.entries[9] = MapEntry(kalman=kalman_init(np.array([1.05, 1.0]), 0.0), last_seen=0.0)
    gmap._next_id = 10
    _commit(gmap, [], 0.1)
    assert sorted(gmap.entries) == [4]


def test_map_gate_distance_is_not_a_match():
    gmap = GlobalMap()
    gids = _commit(gmap, [(_at(0.0, 0.0), True, 0.0),
                          (_at(MATCH_GATE_M, 0.0), True, 0.0)], 0.0)
    assert gids == [0, 1]


def test_map_equal_distances_go_to_smallest_id():
    # two entries farther apart than the gate, the third report midway
    x = 0.6 * MATCH_GATE_M
    gmap = GlobalMap()
    gids = _commit(gmap, [(_at(x, 0.0), True, 0.0),
                          (_at(-x, 0.0), True, 0.0),
                          (_at(0.0, 0.0), True, 0.0)], 0.0)
    assert gids == [0, 1, 0]


def test_map_same_new_object_from_two_cavs_matches_oracle():
    items = [(_at(10.0, 5.0), True, 0.1),
             (_at(20.0, 5.0), True, 0.1),
             (_at(10.3, 5.1), False, 0.0)]
    gmap, oracle = GlobalMap(), DictGlobalMap()
    gids = _commit(gmap, items, 0.0)
    assert gids == oracle.commit_frame(items, t=0.0) == [0, 1, 0]
    assert len(gmap) == len(oracle) == 2


def test_map_dedup_chain_matches_oracle():
    # a-b and b-c are closer than dedup_m, a-c is not: a drops b, so c survives
    gmap = GlobalMap()
    positions = {2: [0.0, 0.0], 5: [0.08, 0.0], 7: [0.16, 0.0], 8: [0.2, 0.05]}
    for gid, pos in positions.items():
        gmap.entries[gid] = MapEntry(kalman=kalman_init(np.array(pos), 0.0), last_seen=0.0)
    gmap._next_id = 9
    _commit(gmap, [], 0.1)
    assert sorted(gmap.entries) == [2, 7]
    assert sorted(set(positions) - greedy_dedup(positions)) == [2, 7]


def _random_frames(rng):
    """30 frames of uploads: 12 moving objects, each seen by a random number
    of CAVs with small noise, the reports in random order."""
    objects = rng.uniform(0.0, 20.0, size=(12, 2))
    velocity = rng.normal(0.0, 5.0, size=(12, 2))
    visible = rng.uniform(0.1, 0.9, size=12)
    for k in range(30):
        t = round(k * FRAME_PERIOD_S, 6)
        seen = np.flatnonzero(rng.uniform(size=12) < visible)
        reports = [(int(j), objects[j] + velocity[j] * t + rng.normal(0.0, 0.08, 2))
                   for j in seen for _ in range(int(rng.integers(1, 4)))]
        order = rng.permutation(len(reports))
        items = []
        for i in order:
            _, (x, y) = reports[i]
            items.append((_at(x, y), bool(rng.uniform() < 0.7), float(rng.uniform())))
        yield t, items


def _assert_maps_agree(gmap, oracle, t, tol):
    assert list(gmap.entries) == list(oracle.entries)
    for gid, entry in gmap.entries.items():
        want = oracle.entries[gid]
        for got, ref in ((entry.kalman.x, want.kalman.x), (entry.kalman.p, want.kalman.p)):
            assert np.abs(got - ref).max() <= tol
        assert (entry.has_geometry, entry.last_loss, entry.last_seen) == \
            (want.has_geometry, want.last_loss, want.last_seen)
    (gids, pred), (want_gids, want) = (gmap.predicted_positions(t + 0.05),
                                       oracle.predicted_positions(t + 0.05))
    assert gids.tolist() == want_gids.tolist()
    assert np.abs(pred - want).max(initial=0.0) <= tol


def test_map_matches_dict_oracle_over_frames():
    """Random frames, with near-duplicate reports and entries coming and going:
    the array map assigns the same ids and keeps the same states as the oracle."""
    rng = np.random.default_rng(44)
    for _ in range(20):
        gmap, oracle = GlobalMap(), DictGlobalMap()
        for t, items in _random_frames(rng):
            assert _commit(gmap, items, t) == oracle.commit_frame(items, t)
            _assert_maps_agree(gmap, oracle, t, tol=0.0)


def test_map_matches_matrix_filter_oracle_over_frames():
    """The same frames against the dict map on the matrix-form filter: equal
    ids, and states equal up to the closed form's roundoff."""
    rng = np.random.default_rng(44)
    for _ in range(20):
        gmap, oracle = GlobalMap(), MatrixFilterMap()
        for t, items in _random_frames(rng):
            assert _commit(gmap, items, t) == oracle.commit_frame(items, t)
            _assert_maps_agree(gmap, oracle, t, tol=1e-9)


def test_map_retires_stale_entries():
    gmap = GlobalMap()
    _commit(gmap, [(_at(0.0, 0.0), True, 0.0)], 0.0)
    _commit(gmap, [(_at(40.0, 0.0), True, 0.0)], 1.9)
    assert len(gmap) == 2  # first entry is 1.9 s old, still under the horizon
    _commit(gmap, [(_at(40.2, 0.0), True, 0.0)], 2.1)
    assert len(gmap) == 1  # first entry passed 2.0 s unseen


@pytest.mark.parametrize("policy", POLICIES)
def test_map_predicted_once_per_frame(policy, monkeypatch):
    """The reuse match and the commit share one prediction of the map."""
    calls = []
    predict = GlobalMap.predicted_positions

    def counted(self, t):
        calls.append(t)
        return predict(self, t)

    monkeypatch.setattr(GlobalMap, "predicted_positions", counted)
    trace = _tiny_trace()
    run_simulation(trace, RunConfig(policy=policy))
    assert calls == [f.time_s for f in trace]


# ---------------------------------------------------------------------------
# run config


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"policy": "adamap-reuse", "bandwidth_hz": 300e3, "seed": 9,
                                "rf_set": [32, 8], "base_station": [1.0, 2.0, 10.0]}))
    back = RunConfig.from_json(path)
    assert back == RunConfig(policy="adamap-reuse", bandwidth_hz=300e3, seed=9,
                             rf_set=(8, 32), base_station=[1.0, 2.0, 10.0])
    assert back.rf_set == (8, 32)
    assert back.h_margin_ms == RunConfig().h_margin_ms


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    # partitions was a knob that only accepted 4; it is gone, so it is unknown
    for text in ('{"policy": "adamap", "turbo": true}\n', '{"partitions": 4}\n'):
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown keys"):
            RunConfig.from_json(path)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(policy="warp")
    with pytest.raises(ConfigError):
        RunConfig(dataset_mode="synthetic")
    with pytest.raises(ConfigError):
        RunConfig(H_ms=0.0)
    with pytest.raises(ConfigError):
        RunConfig(p=1.0)
    with pytest.raises(ConfigError):
        RunConfig(h_margin_ms=100.0, H_ms=100.0)
    with pytest.raises(ConfigError):
        RunConfig(rf_set=(3, 4))
    # wrongly typed values, as a JSON config can spell them
    for bad in (dict(H_ms="100"), dict(seed=1.5), dict(outer_iters=True),
                dict(p=float("nan")), dict(rf_set=["4"]), dict(rf_set=[]),
                dict(base_station=[0.0, 0.0]), dict(dataset_path=5)):
        with pytest.raises(ConfigError):
            RunConfig(**bad)


def test_config_sorts_rf_set():
    assert RunConfig(rf_set=(64, 4, 16)).rf_set == (4, 16, 64)


# ---------------------------------------------------------------------------
# policies on small runs


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(6, 3, seed=1)


def test_lossless_policy_bytes_and_loss(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="select-all-lossless", seed=1))
    assert res.objects, "expected at least one transmitted object"
    per_obj = lossless_bytes() + DESCRIPTOR_OVERHEAD_BYTES
    for rec in res.objects:
        assert rec.rf == 0
        assert rec.loss == 0.0
        assert rec.bytes == per_obj
        assert not rec.reused
    for st in res.frame_stats:
        assert st.selected_pairs == st.detected_pairs


def test_lite_policy_max_rf(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="adamap-lite", seed=1))
    per_obj = payload_bytes(max(RF_SET)) + DESCRIPTOR_OVERHEAD_BYTES
    assert res.objects
    for rec in res.objects:
        assert rec.rf == max(RF_SET)
        assert rec.bytes == per_obj
    for st in res.frame_stats:
        assert st.selected_pairs == st.detected_pairs


def test_blindspot_policy_sends_raw(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="blindspot-all", seed=1))
    per_obj = RAW_OBJECT_BYTES + DESCRIPTOR_OVERHEAD_BYTES
    for rec in res.objects:
        assert rec.rf == 0
        assert rec.loss == 0.0
        assert rec.bytes == per_obj


def test_blindspot_skips_universally_seen_objects(tmp_path):
    # two CAVs staring at the same third object: each of the two CAVs sees it,
    # but with only those two CAVs in the scene n == 2 and both see it, so the
    # pair count under blindspot-all drops to zero
    car = _car(5, [10.0, 0.0, 0.75], 0.0)
    trace = _load_records(tmp_path, [{"frame": 0, "time_s": 0.0, "cavs": [
        _cav(0, 0.0, 0.0, 0.0, [car]), _cav(1, 20.0, 0.0, math.pi, [car])]}])
    res = run_simulation(trace, RunConfig(policy="blindspot-all", seed=0))
    assert res.objects == []
    assert res.frame_stats[0].selected_pairs == 0
    assert res.frame_stats[0].detected_pairs >= 1


def test_adamap_selection_is_subset(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="adamap", seed=1))
    for st in res.frame_stats:
        assert st.selected_pairs <= st.detected_pairs
    for rec in res.objects:
        assert rec.rf in RF_SET
        assert rec.bytes == payload_bytes(rec.rf) + DESCRIPTOR_OVERHEAD_BYTES


def test_single_cav_sends_nothing():
    trace = generate_trace(1, 2, seed=0)
    res = run_simulation(trace, RunConfig(policy="adamap", seed=0))
    assert res.objects == []
    for row in res.rows:
        assert row.bytes == 0
        assert row.uplink_ms == 0.0
        assert row.queue_ms == 0.0
        assert row.server_ms == 0.0
        assert row.rfs == ()
        assert row.total_ms == pytest.approx(row.vehicle_ms)


def test_reuse_policy_cuts_bytes():
    trace = generate_trace(6, 6, seed=2)
    base = run_simulation(trace, RunConfig(policy="adamap", seed=2))
    reuse = run_simulation(trace, RunConfig(policy="adamap-reuse", seed=2))
    reused = [r for r in reuse.objects if r.reused]
    assert reused, "steady scene should trigger geometry reuse"
    for rec in reused:
        assert rec.bytes == REUSE_DELTA_BYTES
        assert rec.rf == 0
    assert not any(r.reused for r in reuse.objects if r.frame == 0)
    total_base = sum(s.bytes_total for s in base.frame_stats)
    total_reuse = sum(s.bytes_total for s in reuse.frame_stats)
    assert total_reuse < total_base


@pytest.mark.parametrize("policy", ["adamap", "adamap-reuse", "select-all-lossless"])
def test_server_charges_the_datasets_decode_samples(policy):
    # every encode sample is 1.25 ms and every decode sample rf / 8 ms, all exact
    # in binary; raw and lossless uploads decode at the largest RF
    cells = {(rf, b): np.array([[rf / 100.0] * 4, [1.25] * 4, [rf / 8.0] * 4])
             for rf in RF_SET for b in range(N_BUCKETS)}
    res = run_simulation(generate_trace(6, 6, seed=2), RunConfig(policy=policy, seed=2),
                         MeasurementDataset(cells))
    expected = {}
    for rec in res.objects:
        if not rec.reused:
            rf = max(RF_SET) if policy == "select-all-lossless" else rec.rf
            expected[rec.frame, rec.cav_id] = expected.get((rec.frame, rec.cav_id), 0.0) + rf / 8.0
    assert any(r.reused for r in res.objects) == (policy == "adamap-reuse")
    assert expected
    for row in res.rows:
        assert row.server_ms == expected.get((row.frame, row.cav_id), 0.0)


def test_map_size_reported(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="adamap", seed=1))
    assert res.frame_stats[-1].map_size >= 1


def test_one_array_draw_equals_a_scalar_draw_per_cell():
    # cells as ranges: each sample is its own index; sizes mix 1, equal
    # sizes, small and large bounds, and one past 2**32
    rng = np.random.default_rng(9)
    for seed in range(200):
        sizes = rng.integers(1, 5000, size=int(rng.integers(1, 40))).tolist()
        if seed % 3 == 0:
            sizes = [30] * len(sizes)
        if seed % 5 == 0:
            sizes = [1, *sizes]
        if seed % 7 == 0:
            sizes = [2**33, *sizes]
        cells = [range(n) for n in sizes]
        got = _draw_samples(cells, np.random.default_rng([seed, 0, 3, 1]))
        scalar = np.random.default_rng([seed, 0, 3, 1])
        assert got == [float(cell[int(scalar.integers(len(cell)))]) for cell in cells]


# ---------------------------------------------------------------------------
# codec-mode loss equals the measured chain


def test_codec_mode_matches_manual_chain(tmp_path):
    bbox_b = Bbox3(center=[20.0, 2.0, 0.75], extent=list(CAR_EXTENT), yaw=0.4)
    trace = _load_records(tmp_path, [{"frame": 0, "time_s": 0.0, "cavs": [
        _cav(0, 0.0, 0.0, 0.0, [_car(1, [20.0, 2.0, 0.75], 0.4)]),
        _cav(1, 20.0, 2.0, 0.0, [])]}])
    cfg = RunConfig(policy="adamap", dataset_mode="codec", rf_set=(4,), seed=5)
    res = run_simulation(trace, cfg)
    assert len(res.objects) == 1
    rec = res.objects[0]
    assert rec.rf == 4

    # independent replica of the measured chain with the run's codec stream
    rng = np.random.default_rng([cfg.seed, 0, 0, 1, _S_CODEC])
    surf_seed = int(rng.integers(1 << 31))
    dec_seed = int(rng.integers(1 << 31))
    viewer = np.array([0.0, 0.0, LIDAR_Z])
    surf = sample_visible_surface(bbox_b, viewer, 900, seed=surf_seed)
    cloud = resample(surf, 1024)
    recon = decode(encode(cloud, 4), seed=dec_seed)
    want = reconstruction_loss(cloud.points, recon.points, beta=cfg.beta)
    assert rec.loss == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# determinism and metrics


def test_run_is_deterministic(tmp_path):
    trace = generate_trace(10, 3, seed=5)
    cfg = RunConfig(policy="adamap", seed=5)
    a = run_simulation(trace, cfg)
    b = run_simulation(trace, cfg)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_frame_csv(pa, a.rows)
    write_frame_csv(pb, b.rows)
    assert pa.read_bytes() == pb.read_bytes()
    assert collect_metrics(a) == collect_metrics(b)


def test_metrics_consistency(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="adamap", seed=1))
    s = collect_metrics(res)
    assert s["frames"] == len(small_trace)
    assert s["cavs"] == 6
    assert s["objects_sent"] == len(res.objects)
    assert s["bytes_total"] == sum(st.bytes_total for st in res.frame_stats)
    assert s["bytes_total"] == sum(r.bytes for r in res.rows)
    assert 0.0 <= s["frac_within_h"] <= 1.0
    assert sum(s["rf_histogram"].values()) == sum(1 for r in res.objects if r.rf > 0)
    assert s["finite_latency_rows"] == len(res.rows)
    assert 0.0 <= s["selected_fraction"] <= 1.0


def test_nearest_rank_against_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        vals = rng.normal(size=n).tolist()
        for pct in (50.0, 90.0, 95.0, 99.0):
            got = nearest_rank(vals, pct)
            # smallest value whose cumulative share reaches the percentile
            ordered = sorted(vals)
            want = next(v for i, v in enumerate(ordered)
                        if (i + 1) / n >= pct / 100.0)
            assert got == want


def test_nearest_rank_empty_is_none():
    assert nearest_rank([], 50.0) is None


def test_write_frame_csv_layout(tmp_path):
    from coopsim.simpipe import CSV_HEADER, FrameRow
    rows = [
        FrameRow(cav_id=1, frame=1, vehicle_ms=1.0, uplink_ms=2.0, queue_ms=0.5,
                 server_ms=1.5, total_ms=5.0, bytes=100, loss=0.25, rfs=(4, 8)),
        FrameRow(cav_id=0, frame=0, vehicle_ms=1.0, uplink_ms=0.0, queue_ms=0.0,
                 server_ms=0.0, total_ms=1.0, bytes=0, loss=0.0, rfs=()),
    ]
    path = tmp_path / "rows.csv"
    write_frame_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,0,1.000000,0.000000,0.000000,0.000000,1.000000,0,0.000000,"
    assert lines[2] == "1,1,1.000000,2.000000,0.500000,1.500000,5.000000,100,0.250000,4;8"


def test_run_base_station_defaults_to_centroid():
    trace = generate_trace(10, 1, seed=0)
    base = run_simulation(trace, RunConfig()).config.base_station
    centers = trace[0].poses[:, :2]
    np.testing.assert_allclose(base[:2], centers.mean(axis=0))
    assert base[2] == 10.0


def test_run_base_station_explicit():
    trace = generate_trace(4, 1, seed=0)
    base = run_simulation(trace, RunConfig(base_station=(5.0, 6.0, 12.0))).config.base_station
    np.testing.assert_allclose(base, [5.0, 6.0, 12.0])
