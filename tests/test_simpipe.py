"""Trace format, global map, policies, and end-to-end run behavior."""

import json
import math

import numpy as np
import pytest

from coopsim import control, simpipe, tracking
from coopsim.codec import (
    DESCRIPTOR_OVERHEAD_BYTES,
    MeasurementDataset,
    N_BUCKETS,
    RF_SET,
    bucket_index,
    decode,
    encode,
    lossless_bytes,
    payload_bytes,
    reconstruction_loss,
    surrogate_dataset,
)
from coopsim.errors import ConfigError, FrameError
from coopsim.geometry import Bbox3, resample, sample_visible_surface, wrap_yaw
from coopsim.sampling import keyed_uniforms
from coopsim.simpipe import (
    CAR_EXTENT,
    FRAME_PERIOD_S,
    FULL_UPLOAD_RF,
    LIDAR_Z,
    MATCH_CELL_M,
    MATCH_GATE_M,
    POLICIES,
    REUSE_DELTA_BYTES,
    REUSE_POSE_ERROR_M,
    GlobalMap,
    RunConfig,
    RunState,
    TraceFrame,
    _S_CODEC,
    _S_TIME,
    _cells,
    collect_metrics,
    generate_trace,
    load_dataset,
    load_trace,
    nearest_rank,
    run_frame,
    run_simulation,
    save_trace,
    validate_trace,
    write_frame_csv,
)
from coopsim.tracking import kalman_init
from oracles import (DictGlobalMap, MapEntry, MatrixFilterMap, dumps_trace, greedy_dedup,
                     kalman_state, loop_charges, loop_select_objects, predict_subspace_counts)


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


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("cavs, frames", [(1, 1), (8, 3), (40, 8), (150, 3)])
def test_save_trace_matches_json_dumps(tmp_path, cavs, frames, seed):
    trace = generate_trace(cavs, frames, seed=seed)
    path = tmp_path / "t.jsonl"
    save_trace(path, trace)
    assert path.read_text() == dumps_trace(trace)


def _edge_frame(**overrides) -> TraceFrame:
    """A hand-built frame of numbers whose text json renders with care: -0.0
    beside 0.0, the least subnormal, 1e16, 0.1 + 0.2, an id past 2**53 and
    an int time_s; its second CAV sees nothing."""
    fields = dict(
        index=4, time_s=0, cav_ids=np.array([3, 0]),
        poses=np.array([[-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, -0.0],
                        [0.0, -0.0, 1.0, 2.0, 0.3, 1e-7]]),
        pair_cav=np.array([0, 0]), obj_ids=np.array([2**53 + 1, 0]),
        centers=np.array([[-0.0, 0.0, 1e16], [0.1 + 0.2, 5e-324, -5e-324]]),
        extents=np.array([[4.5, 1.8, 1.5], [1.0, 1.0, 1e16]]),
        yaws=np.array([-0.0, 0.0]), counts=np.array([1, 240000]))
    return TraceFrame(**{**fields, **overrides})


def test_save_trace_matches_json_dumps_on_edge_numbers(tmp_path):
    frames = [_edge_frame(), _edge_frame(index=5, time_s=0.1 + 0.2)]
    path = tmp_path / "t.jsonl"
    save_trace(path, frames)
    assert path.read_text() == dumps_trace(frames)
    assert path.read_text().count("-0.0") == dumps_trace(frames).count("-0.0") == 10


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["poses", "centers", "extents", "yaws", "time_s"])
def test_save_trace_refuses_non_finite(tmp_path, field, value):
    """Strict JSON, as write_summary writes: json.dumps would write NaN."""
    frame = _edge_frame()
    if field == "time_s":
        frame.time_s = value
    else:
        getattr(frame, field).flat[-1] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_trace(tmp_path / "t.jsonl", [frame])


_TEXT_FRAME = ('{"cavs":[{"id":0,"objects":[{"center":[1.5,1.50,15e-1],"count":3,'
               '"extent":[1.50,15e-1,1.5],"id":1,"yaw":-0.0}],'
               '"pose":[-0.0,1.5,1.50,15e-1,-0.0,0.0]},'
               '{"id":1,"objects":[{"center":[-0.0,15e-1,1.50],"count":2,'
               '"extent":[1.5,1.5,1.50],"id":0,"yaw":15e-1}],'
               '"pose":[1.50,-0.0,1.5,0.0,15e-1,-0.0]}],"frame":0,"time_s":15e-1}')


def test_load_reads_float_texts_as_plain_json(tmp_path):
    """1.5, 1.50 and 15e-1 are one number in three texts, and -0.0 is not
    0.0: the loader's per-line memo of float texts gives the arrays, bit for
    bit, that a plain json.loads of the line gives."""
    path = tmp_path / "t.jsonl"
    path.write_text(_TEXT_FRAME + "\n")
    (frame,) = load_trace(path)
    rec = json.loads(_TEXT_FRAME)
    pairs = [o for c in rec["cavs"] for o in c["objects"]]
    want = {"poses": [c["pose"] for c in rec["cavs"]],
            "centers": [o["center"] for o in pairs], "extents": [o["extent"] for o in pairs],
            "yaws": wrap_yaw(np.array([o["yaw"] for o in pairs]))}
    for name, values in want.items():
        got, plain = getattr(frame, name), np.array(values, dtype=np.float64)
        assert got.dtype == plain.dtype and got.shape == plain.shape
        assert got.tobytes() == plain.tobytes(), name
    assert frame.time_s == 1.5 and math.copysign(1.0, frame.poses[0, 0]) == -1.0


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
    """Commit one frame's uploads against the map's predictions at ``t``.
    ``items`` lists (observed (x, y), carries_geometry, loss), as the oracle
    maps take them; the map takes them as columns."""
    observed = np.reshape([pos for pos, _, _ in items], (-1, 2)).astype(np.float64)
    geometry = np.array([geom for _, geom, _ in items], dtype=bool)
    loss = np.array([value for _, _, value in items], dtype=np.float64)
    return gmap.commit_frame(observed, geometry, loss, t, gmap.predicted_positions(t))


def _seed(gmap, positions: dict):
    """Give ``gmap``, a GlobalMap or the dict oracle, one row per
    {gid: (x, y)}, in id order, seen at time 0 without geometry."""
    gids = sorted(positions)
    states = [kalman_init(_at(*positions[gid]), 0.0) for gid in gids]
    if isinstance(gmap, GlobalMap):
        gmap.gids = np.array(gids, dtype=np.int64)
        gmap.state = np.reshape(states, (-1, 8))
        gmap.last_seen, gmap.last_loss = np.zeros(len(gids)), np.zeros(len(gids))
        gmap.has_geometry = np.zeros(len(gids), dtype=bool)
    else:
        gmap.entries = {gid: MapEntry(kalman=kalman_state(k), last_seen=0.0)
                        for gid, k in zip(gids, states)}
    gmap._next_id = max(gids, default=-1) + 1


def test_map_same_frame_reports_merge():
    gmap = GlobalMap()
    a = _at(10.0, 5.0)
    b = _at(10.4, 5.0)  # second CAV, within gate
    gids = _commit(gmap, [(a, True, 0.1), (b, True, 0.2)], 0.0)
    assert gids[0] == gids[1]
    assert len(gmap) == 1
    assert gmap.gids.tolist() == [gids[0]]
    assert gmap.has_geometry.tolist() == [True] and gmap.last_loss.tolist() == [0.2]


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
    points = gmap.predicted_positions(1.0)
    assert gmap.gids.tolist() == [0]
    pos = points[0]
    assert abs(pos[0] - 5.0) < 0.5
    assert abs(pos[1]) < 0.1


def test_map_dedup_keeps_smaller_gid():
    gmap = GlobalMap()
    _seed(gmap, {4: (1.0, 1.0), 9: (1.05, 1.0)})
    _commit(gmap, [], 0.1)
    assert gmap.gids.tolist() == [4]


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
    _seed(gmap, positions)
    _commit(gmap, [], 0.1)
    assert gmap.gids.tolist() == [2, 7]
    assert sorted(set(positions) - greedy_dedup(positions)) == [2, 7]


def _random_frames(rng, count=12, low=0.0, high=20.0):
    """30 frames of uploads: ``count`` moving objects that start in
    [low, high)^2, each seen by a random number of CAVs with small noise,
    the reports in random order."""
    objects = rng.uniform(low, high, size=(count, 2))
    velocity = rng.normal(0.0, 5.0, size=(count, 2))
    visible = rng.uniform(0.1, 0.9, size=count)
    for k in range(30):
        t = round(k * FRAME_PERIOD_S, 6)
        seen = np.flatnonzero(rng.uniform(size=count) < visible)
        reports = [(int(j), objects[j] + velocity[j] * t + rng.normal(0.0, 0.08, 2))
                   for j in seen for _ in range(int(rng.integers(1, 4)))]
        order = rng.permutation(len(reports))
        items = []
        for i in order:
            _, (x, y) = reports[i]
            items.append((_at(x, y), bool(rng.uniform() < 0.7), float(rng.uniform())))
        yield t, items


def _assert_maps_agree(gmap, oracle, t, tol):
    """The grid map's columns hold the oracle's entries, row by row."""
    assert gmap.gids.tolist() == list(oracle.entries)
    columns = zip(gmap.state.tolist(), gmap.has_geometry.tolist(), gmap.last_loss.tolist(),
                  gmap.last_seen.tolist())
    for (floats, *rest), want in zip(columns, oracle.entries.values()):
        got = kalman_state(floats)
        for mine, ref in ((got.x, want.kalman.x), (got.p, want.kalman.p)):
            assert np.abs(mine - ref).max() <= tol
        assert rest == [want.has_geometry, want.last_loss, want.last_seen]
    pred, want = gmap.predicted_positions(t + 0.05), oracle.predicted_positions(t + 0.05)
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


# the match grid: every case against the dict map, whose scan reads all rows


def _oracle_pair(positions=()):
    """A grid map and the dict oracle holding the same entries, one per
    position, with ids 0, 1, ... and seen at time 0."""
    maps = GlobalMap(), DictGlobalMap()
    for m in maps:
        _seed(m, dict(enumerate(positions)))
    return maps


def _commit_both(gmap, oracle, items, t):
    """Commit to both maps, check that they agree exactly, return the gids."""
    gids = _commit(gmap, items, t)
    assert gids == oracle.commit_frame(items, t)
    _assert_maps_agree(gmap, oracle, t, tol=0.0)
    return gids


def test_grid_cells_are_wider_than_the_gate():
    assert MATCH_CELL_M > MATCH_GATE_M
    assert math.frexp(MATCH_CELL_M)[0] == 0.5  # a power of two: x / side is exact


def test_grid_reports_on_cell_edges_match_oracle():
    """Rows and reports on cell edges and one ulp either side of them, at
    negative coordinates and at -0.0, across frames."""
    side = MATCH_CELL_M
    edges = [k * side for k in range(-4, 5)]
    coords = sorted({-0.0, *edges, *(math.nextafter(e, math.inf) for e in edges),
                     *(math.nextafter(e, -math.inf) for e in edges)})
    rng = np.random.default_rng(12)
    for _ in range(10):
        gmap, oracle = _oracle_pair()
        for k in range(4):
            items = [(_at(*rng.choice(coords, size=2)), bool(rng.uniform() < 0.5),
                      float(rng.uniform())) for _ in range(25)]
            _commit_both(gmap, oracle, items, round(k * FRAME_PERIOD_S, 6))
    # a row just inside the gate in the next cell down, from an edge report
    gmap, oracle = _oracle_pair([(-side - 2.9, -side)])
    assert _commit_both(gmap, oracle, [(_at(-side, -side), True, 0.0)], 0.0) == [0]
    gmap, oracle = _oracle_pair([(-side + 2.9, -0.0)])
    assert _commit_both(gmap, oracle, [(_at(-side, 0.0), True, 0.0)], 0.0) == [0]


def test_grid_cells_equal_math_floor_of_the_quotients():
    """One np.floor per column gives math.floor's int cells, also for -0.0,
    cell edges and quotients beyond int64, which take the exact fallback."""
    small = [[0.5, -0.5], [-0.0, MATCH_CELL_M], [math.nextafter(-MATCH_CELL_M, 0.0), -1e-300],
             [123.75, -4097.0]]
    huge = small + [[1e20, -3e19], [-1e300, 7.9]]
    for points in (small, huge, []):
        want = [(math.floor(x / MATCH_CELL_M), math.floor(y / MATCH_CELL_M)) for x, y in points]
        got = _cells(np.reshape(points, (-1, 2)))
        assert got == want
        assert all(type(c) is int for cell in got for c in cell)


def test_grid_far_coordinates_match_oracle():
    """Rows and reports whose cells lie beyond int64 match as the oracle does."""
    gmap, oracle = _oracle_pair([(1e20, 0.0), (-1e20, 5.0)])
    items = [(_at(1e20, 1.0), True, 0.2), (_at(-1e20, 4.0), False, 0.0),
             (_at(3e19, -1e25), True, 0.1), (_at(3e19, -1e25), True, 0.3)]
    assert _commit_both(gmap, oracle, items, 0.1) == [0, 1, 2, 2]


def test_grid_report_at_gate_distance_is_not_a_match():
    g = MATCH_GATE_M
    cases = [((-1.0, 0.5), (-1.0 + g, 0.5), True),  # across a cell edge
             ((-5.0, -7.0), (-5.0, -7.0 - g), True),
             ((0.0, 0.0), (0.6 * g, 0.8 * g), False)]  # 3-4-5: d2 rounds near g^2
    for row, report, exact in cases:
        gmap, oracle = _oracle_pair([row])
        gids = _commit_both(gmap, oracle, [(_at(*report), True, 0.0)], 0.0)
        assert gids == [1] or not exact
        # a nanometre nearer is a match
        inside = _at(*report) + 1e-9 * np.sign(np.subtract(row, report))
        gmap, oracle = _oracle_pair([row])
        assert _commit_both(gmap, oracle, [(inside, True, 0.0)], 0.0) == [0]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_grid_equal_distance_tie_across_cells_goes_to_first_row(sign):
    side = MATCH_CELL_M
    a, b = (sign * 0.5 * side, sign * 1.0), (sign * 1.5 * side, sign * 1.0)
    report = _at(sign * side, sign * 1.0)  # on the edge between a's cell and b's
    for first, second in ((a, b), (b, a)):
        gmap, oracle = _oracle_pair([first, second])
        assert _commit_both(gmap, oracle, [(report, True, 0.0)], 0.0) == [0]
    # the same tie between two rows the frame itself opens
    for first, second in ((a, b), (b, a)):
        gmap, oracle = _oracle_pair()
        items = [(_at(*first), True, 0.0), (_at(*second), True, 0.0), (report, True, 0.0)]
        assert _commit_both(gmap, oracle, items, 0.0) == [0, 1, 0]


def test_grid_tie_after_a_move_goes_to_first_row():
    """Row 0 moves next to row 1 within the frame and then ties with it.
    A fresh row corrected at its own time has gain 0.5 exactly, so the
    dyadic positions below stay exact and the tie is exact."""
    side = MATCH_CELL_M
    gmap, oracle = _oracle_pair([(side - 0.25, 0.0), (2 * side + 2.875, 0.0)])
    # row 0 moves from cell 0 to 5.125 in cell 1; the query at 2 * side is
    # 2.875 from both rows, and row 0's first cell is outside its block
    items = [(_at(side + 2.5, 0.0), True, 0.0), (_at(2 * side, 0.0), True, 0.0)]
    assert _commit_both(gmap, oracle, items, 0.0) == [0, 0]


def test_grid_row_moved_across_cells_is_matched_from_its_new_cell():
    side = MATCH_CELL_M
    gmap, oracle = _oracle_pair([(side - 0.1, -0.1)])  # seen at 0: cell (0, -1)
    # the first report pulls the row up and right, into cell (1, 0); the
    # second is in cell (2, 0), whose 3 x 3 block the row's first cell is not in
    items = [(_at(side + 1.9, 1.9), True, 0.0), (_at(2 * side + 0.3, 1.0), True, 0.0)]
    assert _commit_both(gmap, oracle, items, 0.1) == [0, 0]
    # a fast mover crosses several cells over frames and stays one row
    gmap, oracle = _oracle_pair([(-3.0 * side, -3.0 * side)])
    for k in range(1, 16):
        t = round(k * FRAME_PERIOD_S, 6)
        report = _at(-3.0 * side + 22.0 * t, -3.0 * side + 17.0 * t)
        assert _commit_both(gmap, oracle, [(report, True, 0.0)] * 2, t) == [0, 0]
    x, y = gmap.state[0, :2].tolist()
    assert math.floor(x / side) >= 4 and math.floor(y / side) >= 3


def test_grid_dense_cluster_matches_oracle():
    """Rows packed closer than the gate, as when vehicles driving in
    opposite directions on one line meet, reported by several CAVs."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        # rows at least DEDUP_DISTANCE_M apart in a 2 m disc around an edge
        rows = []
        while len(rows) < 12:
            p = rng.uniform(-1.0, 1.0, size=2) * MATCH_CELL_M / 2
            if np.hypot(*p) < 2.0 and all(np.hypot(*(p - q)) > 0.15 for q in rows):
                rows.append(p)
        gmap, oracle = _oracle_pair([(x - MATCH_CELL_M, y) for x, y in rows])
        start = rng.uniform(-6.0, 6.0, size=6)
        speed = np.where(np.arange(6) < 3, 9.0, -9.0)
        for k in range(1, 12):
            t = round(k * FRAME_PERIOD_S, 6)
            items = [(_at(start[j] + speed[j] * t - MATCH_CELL_M, 0.0) + rng.normal(0, 0.1, 2),
                      bool(rng.uniform() < 0.7), float(rng.uniform()))
                     for j in range(6) for _ in range(int(rng.integers(1, 5)))]
            _commit_both(gmap, oracle, [items[i] for i in rng.permutation(len(items))], t)


def test_grid_matches_dict_oracle_over_many_cells():
    """Random frames whose objects span some 30 cells a side, at negative
    and positive coordinates."""
    rng = np.random.default_rng(45)
    for _ in range(8):
        gmap, oracle = GlobalMap(), DictGlobalMap()
        for t, items in _random_frames(rng, count=40, low=-60.0, high=60.0):
            _commit_both(gmap, oracle, items, t)


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
    with pytest.raises(ConfigError, match="distinct"):  # a level of zero width in the search
        RunConfig(rf_set=(64, 64))
    # wrongly typed values, as a JSON config can spell them
    for bad in (dict(H_ms="100"), dict(seed=1.5), dict(servers=True),
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
    assert len(res.objects), "expected at least one transmitted object"
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
    assert len(res.objects)
    for rec in res.objects:
        assert rec.rf == max(RF_SET)
        assert rec.bytes == per_obj
    for st in res.frame_stats:
        assert st.selected_pairs == st.detected_pairs


def test_adamap_selection_is_subset(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="adamap", seed=1))
    for st in res.frame_stats:
        assert st.selected_pairs <= st.detected_pairs
    for rec in res.objects:
        assert rec.rf in RF_SET
        assert rec.bytes == payload_bytes(rec.rf) + DESCRIPTOR_OVERHEAD_BYTES


def test_run_frame_selection_matches_per_object_oracle(monkeypatch):
    """On every frame of a 150 x 3 trace, run_frame's selection mask is the
    per-object loop's: each object's viewers in CAV id order, their counts
    from the per-pair oracle and their thinning by the dict-taking oracle."""
    trace = generate_trace(150, 3, seed=0)
    calls, select = [], simpipe.select_objects

    def spy(obj_ids, cav_ids, quadrants, threshold):
        mask = select(obj_ids, cav_ids, quadrants, threshold)
        calls.append((obj_ids.tolist(), cav_ids.tolist(), threshold, mask))
        return mask

    monkeypatch.setattr(simpipe, "select_objects", spy)
    cfg = RunConfig(policy="adamap", seed=0)
    res = run_simulation(trace, cfg)
    assert len(calls) == len(trace)
    for frame, (obj_ids, cav_ids, threshold, mask), stats in zip(trace, calls, res.frame_stats):
        assert threshold == cfg.density_threshold
        frame_cav = frame.cav_ids.tolist()
        row_of = {(frame_cav[c], o): r for r, (c, o) in
                  enumerate(zip(frame.pair_cav.tolist(), frame.obj_ids.tolist()))}
        pose = dict(zip(frame_cav, frame.poses[:, :3]))
        viewers = {}
        for obj_id, cav_id in zip(obj_ids, cav_ids):  # the table is in CAV id order
            r = row_of[cav_id, obj_id]
            box = Bbox3(center=frame.centers[r], extent=frame.extents[r])
            box.yaw = float(frame.yaws[r])
            viewers.setdefault(obj_id, {})[cav_id] = predict_subspace_counts(box, pose[cav_id])
        kept = {o: loop_select_objects(counts, threshold) for o, counts in viewers.items()}
        assert mask.tolist() == [c in kept[o] for o, c in zip(obj_ids, cav_ids)]
        assert stats.selected_pairs == mask.sum() < stats.detected_pairs == len(mask)


def test_single_cav_sends_nothing():
    trace = generate_trace(1, 2, seed=0)
    res = run_simulation(trace, RunConfig(policy="adamap", seed=0))
    assert len(res.objects) == 0
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


@pytest.mark.parametrize("offset, geometry, reused", [
    (REUSE_POSE_ERROR_M, True, False),
    (math.nextafter(REUSE_POSE_ERROR_M, 0.0), True, True),
    (0.0, False, False),
])
def test_reuse_boundary_through_run_frame(tmp_path, monkeypatch, offset, geometry, reused):
    """Two CAVs see a static car at the origin, then ``offset`` m along x.
    With noise-free localization the second frame's reports lie exactly
    ``offset`` from the map's row: reuse needs strictly less than
    REUSE_POSE_ERROR_M, and a row that holds no geometry is never reused,
    however close."""
    for name in ("SIGMA_DET", "MISS_PROB", "SIGMA_TRK"):
        monkeypatch.setattr(tracking, name, 0.0)
    cars = [_car(5, [0.0, 0.0, 0.75], 0.0), _car(5, [offset, 0.0, 0.75], 0.0)]
    frames = _load_records(tmp_path, [
        {"frame": k, "time_s": k * FRAME_PERIOD_S, "cavs": [
            _cav(0, -20.0, 0.0, 0.0, [car]), _cav(1, 20.0, 0.0, math.pi, [car])]}
        for k, car in enumerate(cars)])
    cfg = RunConfig(policy="adamap-reuse", base_station=(0.0, 0.0, 10.0))
    state, dataset = RunState(cfg), load_dataset(cfg)
    gmap = state.global_map
    if geometry:
        run_frame(frames[0], state, dataset)
    else:  # the same row, committed from a report that carried no geometry
        gmap.commit_frame(np.zeros((1, 2)), np.zeros(1, dtype=bool), np.zeros(1), 0.0,
                          gmap.predicted_positions(0.0))
    assert gmap.state[:, :4].tolist() == [[0.0, 0.0, 0.0, 0.0]]
    assert gmap.has_geometry.tolist() == [geometry]
    last_loss = gmap.last_loss.tolist()
    _, objects, _, _ = run_frame(frames[1], state, dataset)
    assert len(objects) and objects.reused.tolist() == [reused] * len(objects)
    if reused:  # a delta carries the row's loss
        assert objects.loss.tolist() == last_loss * len(objects)


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


@pytest.fixture(scope="module")
def reuse_run():
    """The 40 x 8 ``adamap-reuse`` scene (trace and run seed 0), with every
    frame's RF subproblems and results taken from ``optimize_rf_batch``."""
    calls = []
    solve = simpipe.optimize_rf_batch

    def recorded(problems, dataset, cfg):
        results = solve(problems, dataset, cfg)
        calls.append((problems, results))
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simpipe, "optimize_rf_batch", recorded)
        res = run_simulation(generate_trace(40, 8, seed=0), RunConfig(policy="adamap-reuse"))
    return res, calls


def _by_cav(objects):
    """Each (frame, CAV)'s objects: the ids sent as latents, in table order,
    and the count sent as reuse deltas."""
    sent: dict = {}
    for rec in objects:
        ids, deltas = sent.setdefault((rec.frame, rec.cav_id), ([], [0]))
        if rec.reused:
            deltas[0] += 1
        else:
            ids.append(rec.obj_id)
    return {key: (ids, deltas[0]) for key, (ids, deltas) in sent.items()}


def test_reuse_is_decided_before_the_rf_search(reuse_run):
    """The search sees only the objects that carry geometry; a CAV's deltas
    enter its subproblem as 32 B each of fixed payload."""
    res, calls = reuse_run
    assert len(calls) == len(res.frame_stats)
    sent = _by_cav(res.objects)
    for frame, (problems, _) in enumerate(calls):
        expected = [(ids, REUSE_DELTA_BYTES * deltas)
                    for (f, _), (ids, deltas) in sorted(sent.items()) if f == frame and ids]
        assert [(p.obj_ids, p.fixed_bytes) for p in problems] == expected
    assert sum(r.reused for r in res.objects) == 1024
    tasks = sum(len(p.obj_ids) for problems, _ in calls for p in problems)
    assert tasks == sum(not r.reused for r in res.objects) == 392


def test_cav_with_only_deltas_has_no_subproblem(reuse_run):
    res, calls = reuse_run
    sent = _by_cav(res.objects)
    only_deltas = {key for key, (ids, deltas) in sent.items() if deltas and not ids}
    assert only_deltas, "the scene should have a CAV whose every object is reused"
    for frame, (problems, results) in enumerate(calls):
        assert len(problems) == sum(bool(ids) for (f, _), (ids, _) in sent.items() if f == frame)
        assert res.frame_stats[frame].infeasible_cavs == sum(r.infeasible for r in results)
    for row in res.rows:
        if (row.frame, row.cav_id) in only_deltas:
            assert row.bytes == REUSE_DELTA_BYTES * sent[row.frame, row.cav_id][1]
            assert row.rfs == ()


def test_map_size_reported(small_trace):
    res = run_simulation(small_trace, RunConfig(policy="adamap", seed=1))
    assert res.frame_stats[-1].map_size >= 1


@pytest.mark.parametrize("policy, rf_set", [
    pytest.param(policy, rf_set, id=policy if rf_set == RF_SET else f"{policy}-rf_set-8-32")
    for rf_set in (RF_SET, (8, 32))
    for policy in ("adamap", "adamap-lite", "adamap-reuse", "select-all-lossless")])
def test_charges_match_the_loop_oracle(monkeypatch, policy, rf_set):
    """Each CAV's encode and decode sums and each row's loss equal the
    per-CAV loop's, bit for bit, fed the same keyed picks.  The cells have
    random sizes, so the table pads them; lossless uploads read
    FULL_UPLOAD_RF's cells and carry no loss.  Under an ``rf_set`` without
    FULL_UPLOAD_RF, adamap-lite's RF and the lossless uploads' cells differ."""
    rng = np.random.default_rng(31)
    cells = {(rf, b): rng.uniform(0.0, 3.0, (3, int(rng.integers(1, 40))))
             for rf in RF_SET for b in range(N_BUCKETS)}
    dataset = MeasurementDataset(cells)
    charged = []
    inner = simpipe.simulate_frame_latency

    def recording(payload, vehicle_ms, rates, server_ms, *args, **kwargs):
        charged.append((vehicle_ms.tolist(), server_ms.tolist()))
        return inner(payload, vehicle_ms, rates, server_ms, *args, **kwargs)

    monkeypatch.setattr(simpipe, "simulate_frame_latency", recording)
    idle = reused = 0
    for seed in (2, 5):
        trace = generate_trace(14, 5, seed=seed)
        cfg = RunConfig(policy=policy, seed=seed, rf_set=rf_set)
        charged.clear()
        res = run_simulation(trace, cfg, dataset)
        for frame, (vehicle_ms, server_ms) in zip(trace, charged):
            count = dict(zip(zip(frame.cav_ids[frame.pair_cav].tolist(), frame.obj_ids.tolist()),
                             frame.counts.tolist()))
            mine = res.objects[res.objects.frame == frame.index]
            up = mine[~mine.reused]
            rows = [(c, FULL_UPLOAD_RF if policy == "select-all-lossless" else r, count[c, o])
                    for c, o, r in zip(up.cav_id.tolist(), up.obj_id.tolist(), up.rf.tolist())]
            u = [keyed_uniforms(seed, frame.index, c, o, _S_TIME, n=3).tolist()
                 for c, o in zip(up.cav_id.tolist(), up.obj_id.tolist())]
            cav_ids = sorted(frame.cav_ids.tolist())
            want_vehicle, want_server, want_loss = loop_charges(cav_ids, rows, dataset, u)
            assert vehicle_ms == want_vehicle
            assert server_ms == want_server
            if policy == "select-all-lossless":
                want_loss = [0.0] * len(rows)
            assert up.loss.tolist() == want_loss
            idle += len(cav_ids) - len(set(up.cav_id.tolist()))
            reused += int(mine.reused.sum())
    assert idle, "some CAV-frame should send nothing"
    assert bool(reused) == (policy == "adamap-reuse")


@pytest.mark.parametrize("policy", POLICIES)
def test_frame_loop_builds_no_generators(monkeypatch, policy):
    trace, dataset = generate_trace(12, 3, seed=4), surrogate_dataset()
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    res = run_simulation(trace, RunConfig(policy=policy), dataset)
    assert len(res.objects) and built == []


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

    # independent replica of the measured chain with the run's keyed codec seeds
    surf_seed, dec_seed = (int(u * 2**31) for u in keyed_uniforms(cfg.seed, 0, 0, 1, _S_CODEC,
                                                                   n=2).tolist())
    viewer = np.array([0.0, 0.0, LIDAR_Z])
    surf = sample_visible_surface(bbox_b, viewer, 900, seed=surf_seed)
    cloud = resample(surf, 1024)
    recon = decode(encode(cloud, 4), seed=dec_seed)
    want = reconstruction_loss(cloud.points, recon.points, beta=cfg.beta)
    assert rec.loss == pytest.approx(want, rel=1e-12)


def test_codec_mode_bound_binds_so_corner_and_search_both_decide(monkeypatch):
    """At 30 kHz the latency bound binds in the 7 x 2 codec-mode scene: some
    subproblems meet it at their fidelity-best corner (every task at RF 4,
    lam 0), the others go through the search, and the measured chain then
    codes each sent object at the RF its subproblem chose."""
    searched, solved = [], []
    take, batch = control._Scenarios.take, simpipe.optimize_rf_batch

    def counted_take(sc, rows):
        searched.append(len(rows))
        return take(sc, rows)

    def recorded(problems, dataset, cfg):
        results = batch(problems, dataset, cfg)
        solved.extend(zip(problems, results))
        return results

    monkeypatch.setattr(control._Scenarios, "take", counted_take)
    monkeypatch.setattr(simpipe, "optimize_rf_batch", recorded)
    cfg = RunConfig(policy="adamap", dataset_mode="codec", bandwidth_hz=30e3, seed=0)
    res = run_simulation(generate_trace(7, 2, seed=0), cfg)
    corner = [r for _, r in solved if not r.infeasible and r.lam == 0.0]
    assert all(not r.infeasible for _, r in solved)
    assert sum(searched) >= 1 and len(corner) >= 1
    assert len(corner) + sum(searched) == len(solved)
    assert all(r.rfs.tolist() == [4] * len(r.rfs) and r.prob >= cfg.p for r in corner)
    planned = sorted(rf for _, r in solved for rf in r.rfs.tolist())
    assert set(planned) > {4}
    assert sorted(res.objects.rf.tolist()) == planned


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


def test_frame_objects_iterate_as_records():
    """Each frame's sent objects, read one record at a time by length,
    ``cav_id``, ``obj_id`` and ``reused`` as a frame hook such as
    perfbench/tracer.py reads them, add up to the summary's counts."""
    frames = []
    inner = simpipe.run_frame

    def hooked(*args):
        out = inner(*args)
        frames.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simpipe, "run_frame", hooked)
        res = run_simulation(generate_trace(6, 6, seed=2), RunConfig(policy="adamap-reuse", seed=2))
    s = collect_metrics(res)
    assert len(frames) == s["frames"] == 6
    sent = reused = 0
    for f, objects in enumerate(frames):
        sent += len(objects)
        by_cav: dict = {}
        for rec in objects:
            by_cav.setdefault(rec.cav_id, []).append(rec.obj_id)
            reused += rec.reused
        # the table's order: by CAV id, then object id
        assert list(by_cav) == sorted(by_cav)
        assert all(ids == sorted(set(ids)) for ids in by_cav.values())
        assert set(by_cav) <= {r.cav_id for r in res.rows if r.frame == f}
    assert sent == s["objects_sent"] == len(res.objects)
    assert reused == s["reused_objects"] > 0


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
