"""End-to-end frame loop: traces, per-CAV data/control planes, the edge map.

A trace lists, per 0.1 s frame, every vehicle's pose and the other vehicles
it can see.  For each frame the pipeline runs, per CAV: hybrid localization,
object selection, RF optimization (policy dependent), byte accounting and
encode and decode time charges; then the shared radio and the FCFS edge queue
produce a latency breakdown, and each uploaded object's observed position is
matched into the global map.  Everything derives from the run seed through
named child streams, so a run is reproducible byte for byte.

Policies are the rows of ``_POLICY``; each names what it does at each step
(selection, RF choice, reuse, upload size):
  adamap              density-thinned selection, optimized RF per object
  adamap-lite         every detection, at the maximum RF
  adamap-reuse        adamap, but a 32-byte delta replaces the latent when
                      the map's predicted pose is within 0.5 m
  select-all-lossless every detection as an entropy-coded raw cloud, zero loss
  blindspot-all       full raw cloud for every object missing from at least
                      one other CAV's view (transmission-size stand-in)
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from .codec import (
    DEFAULT_LOSS_CALIBRATION,
    DESCRIPTOR_OVERHEAD_BYTES,
    MeasurementDataset,
    RAW_OBJECT_BYTES,
    RF_SET,
    bucket_index,
    encode,
    decode,
    latent_dim,
    lossless_bytes,
    payload_bytes,
    surrogate_dataset,
)
from .control import (
    RFProblem,
    optimize_rf_batch,
    predict_counts,
    select_objects,
)
from .errors import ConfigError, FrameError
from .geometry import (
    Bbox3,
    reconstruction_loss,
    resample,
    sample_visible_surface,
    wrap_yaw,
)
from .netsim import (
    draw_fading,
    sector_index,
    simulate_frame_latency,
    uplink_rate,
)
from .tracking import (
    HybridLocalizer,
    kalman_correct,
    kalman_init,
    kalman_predict,
    nearest_rows,
    row_norms,
)


@dataclass(frozen=True)
class Policy:
    """What a policy does at each step of ``run_frame``.

    ``select`` is "thin" (density thinning), "all" (every detection) or
    "blindspot" (every detection that some CAV lacks).  ``rf`` is "optimize"
    (the per-CAV RF search), "max" (the largest RF of the run) or None (no
    latent is sent).  ``reuse`` lets a delta replace the upload of an object
    the map already holds.  ``upload_bytes`` is a fixed per-object payload,
    or None for a latent at the chosen RF.
    """

    select: str
    rf: str | None
    reuse: bool
    upload_bytes: int | None


_POLICY = {
    "adamap": Policy(select="thin", rf="optimize", reuse=False, upload_bytes=None),
    "adamap-lite": Policy(select="all", rf="max", reuse=False, upload_bytes=None),
    "adamap-reuse": Policy(select="thin", rf="optimize", reuse=True, upload_bytes=None),
    "select-all-lossless": Policy(select="all", rf=None, reuse=False,
                                  upload_bytes=lossless_bytes()),
    "blindspot-all": Policy(select="blindspot", rf=None, reuse=False,
                            upload_bytes=RAW_OBJECT_BYTES),
}
POLICIES = tuple(_POLICY)
# raw and lossless uploads are charged the codec times of the largest RF
FULL_UPLOAD_RF = max(RF_SET)

FRAME_PERIOD_S = 0.1
CAR_EXTENT = (4.5, 1.8, 1.5)
LIDAR_Z = 1.8  # sensor height, above the 1.5 m roof line
MIN_NEIGHBOR_M = 3.0  # closer vehicles are treated as merged returns
VISIBLE_RANGE_M = 50.0
REUSE_DELTA_BYTES = 32
REUSE_POSE_ERROR_M = 0.5
MATCH_GATE_M = 3.0
DEDUP_DISTANCE_M = 0.1
RETIRE_AFTER_S = 2.0

# synthetic traces: a toroidal grid of roads EXTENT_M on a side, ROAD_SPACING_M
# apart; speeds uniform in SPEED_RANGE m/s; a vehicle turns with TURN_PROB at
# each crossing; point counts carry log-normal noise of sd COUNT_SIGMA
EXTENT_M = 200.0
ROAD_SPACING_M = 50.0
SPEED_RANGE = (6.0, 14.0)
TURN_PROB = 0.3
COUNT_SIGMA = 0.3

# child-stream tags, per (seed, frame, cav) unless noted
_S_LOC = 0
_S_TIME = 1
_S_LOSS = 2
_S_CODEC = 3
_S_NET = 10  # per (seed, frame)
_S_QUEUE = 11  # per (seed, frame)

CSV_HEADER = "cav_id,frame,vehicle_ms,uplink_ms,queue_ms,server_ms,total_ms,bytes,loss,rfs"


# ---------------------------------------------------------------------------
# trace model


@dataclass
class TraceFrame:
    """One frame of a trace, as flat arrays.

    Per CAV, in trace order: ``cav_ids`` (C,) and ``poses`` (C, 6) as x, y,
    z, pitch, roll, yaw.  Per (viewer, object) pair, grouped by viewer in
    trace order: ``pair_cav`` (P,), the viewer's row in the CAV arrays;
    ``obj_ids`` (P,); box ``centers`` and full ``extents`` (P, 3); box
    ``yaws`` (P,), wrapped as Bbox3 wraps them; and true point ``counts``
    (P,).
    """

    index: int
    time_s: float
    cav_ids: np.ndarray
    poses: np.ndarray
    pair_cav: np.ndarray
    obj_ids: np.ndarray
    centers: np.ndarray
    extents: np.ndarray
    yaws: np.ndarray
    counts: np.ndarray

    @property
    def cavs(self) -> list:
        """One record with a ``cav_id`` per CAV, in trace order (the
        benchmark's output checks key CAV-frames by it)."""
        return [SimpleNamespace(cav_id=c) for c in self.cav_ids.tolist()]


def _frame_record(frame: TraceFrame) -> dict:
    bounds = np.searchsorted(frame.pair_cav, np.arange(len(frame.cav_ids) + 1)).tolist()
    ids, counts = frame.obj_ids.tolist(), frame.counts.tolist()
    centers, extents, yaws = frame.centers.tolist(), frame.extents.tolist(), frame.yaws.tolist()
    return {
        "frame": frame.index,
        "time_s": frame.time_s,
        "cavs": [
            {
                "id": cav_id,
                "pose": pose,
                "objects": [
                    {"id": ids[k], "center": centers[k], "extent": extents[k],
                     "yaw": yaws[k], "count": counts[k]}
                    for k in range(lo, hi)
                ],
            }
            for cav_id, pose, lo, hi in zip(frame.cav_ids.tolist(), frame.poses.tolist(),
                                            bounds, bounds[1:])
        ],
    }


def _record_frame(rec: dict) -> TraceFrame:
    cavs = rec["cavs"]
    objects = [c["objects"] for c in cavs]
    pairs = [o for objs in objects for o in objs]
    ints = {"frame number": [rec["frame"]], "CAV id": [c["id"] for c in cavs],
            "object id": [o["id"] for o in pairs], "object count": [o["count"] for o in pairs]}
    for name, values in ints.items():  # not int(): it reads 3.7 and "3" as 3, true as 1
        if any(type(v) is not int for v in values):
            raise ValueError(f"{name}s must be integers")
    return TraceFrame(
        index=rec["frame"],
        time_s=float(rec["time_s"]),
        cav_ids=np.array(ints["CAV id"], dtype=np.int64),
        poses=np.array([c["pose"] for c in cavs], dtype=np.float64).reshape(len(cavs), 6),
        pair_cav=np.repeat(np.arange(len(cavs)), [len(objs) for objs in objects]),
        obj_ids=np.array(ints["object id"], dtype=np.int64),
        centers=np.array([o["center"] for o in pairs], dtype=np.float64).reshape(len(pairs), 3),
        extents=np.array([o["extent"] for o in pairs], dtype=np.float64).reshape(len(pairs), 3),
        yaws=wrap_yaw(np.array([o["yaw"] for o in pairs], dtype=np.float64).reshape(len(pairs))),
        counts=np.array(ints["object count"], dtype=np.int64),
    )


def save_trace(path, frames) -> None:
    """One JSON record per line; stable key order keeps files diffable."""
    with open(path, "w") as fh:
        for frame in frames:
            fh.write(json.dumps(_frame_record(frame), sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")


def load_trace(path):
    frames = []
    with open(path) as fh:
        for line_no, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                frames.append(_record_frame(json.loads(line)))
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise FrameError(f"trace line {line_no}: {exc}") from exc
    validate_trace(frames)
    return frames


def validate_trace(frames) -> None:
    """Raise FrameError unless every frame keeps the cadence, lists each CAV
    and each of a CAV's objects once, and holds finite poses and boxes,
    positive extents and point counts of at least 1."""
    if not frames:
        raise FrameError("trace is empty")
    for i, frame in enumerate(frames):
        where = f"frame {frame.index}"
        if not math.isfinite(frame.time_s):
            raise FrameError(f"{where}: time_s {frame.time_s} is not finite")
        expected = frames[0].time_s + i * FRAME_PERIOD_S
        if abs(frame.time_s - expected) > 1e-6:
            raise FrameError(f"{where}: time {frame.time_s} "
                             f"breaks the {FRAME_PERIOD_S} s cadence")
        if not len(frame.cav_ids):
            raise FrameError(f"{where}: no CAVs")
        if len(np.unique(frame.cav_ids)) != len(frame.cav_ids):
            raise FrameError(f"{where}: duplicate CAV ids")
        order = np.lexsort((frame.obj_ids, frame.pair_cav))
        cav, obj = frame.pair_cav[order], frame.obj_ids[order]
        twice = np.flatnonzero((cav[1:] == cav[:-1]) & (obj[1:] == obj[:-1]))
        if len(twice):
            raise FrameError(f"{where}: CAV {frame.cav_ids[cav[twice[0]]]} "
                             "lists an object twice")
        for name, values in (("pose", frame.poses), ("center", frame.centers),
                             ("extent", frame.extents), ("yaw", frame.yaws)):
            if not np.isfinite(values).all():
                raise FrameError(f"{where}: non-finite {name}")
        if not (frame.extents > 0).all():
            raise FrameError(f"{where}: box extents must be positive")
        if not (frame.counts >= 1).all():
            raise FrameError(f"{where}: point counts must be at least 1")


def generate_trace(cav_count: int, frames: int, seed: int = 0):
    """Vehicles on a toroidal grid-road network, all of them CAVs.

    Every vehicle is also a detectable object for its neighbors within 50 m.
    True point counts come from the projected-area predictor with log-normal
    multiplicative noise.  Deterministic per seed.
    """
    if cav_count < 1 or frames < 1:
        raise ConfigError("cav_count and frames must be >= 1")
    n_lines = max(1, int(EXTENT_M // ROAD_SPACING_M))
    rng = np.random.default_rng(seed)
    axis = rng.integers(0, 2, cav_count)  # 0: travels along x, 1: along y
    line = rng.integers(0, n_lines, cav_count) * ROAD_SPACING_M
    m = rng.uniform(0.0, EXTENT_M, cav_count)
    dirn = rng.choice(np.array([-1.0, 1.0]), cav_count)
    speed = rng.uniform(SPEED_RANGE[0], SPEED_RANGE[1], cav_count)

    half_z = CAR_EXTENT[2] / 2.0
    out = []
    for f in range(frames):
        xs = np.where(axis == 0, m, line)
        ys = np.where(axis == 0, line, m)
        yaws = np.where(
            axis == 0,
            np.where(dirn > 0, 0.0, math.pi),
            np.where(dirn > 0, math.pi / 2.0, -math.pi / 2.0),
        )
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        dist = np.sqrt(dx * dx + dy * dy)

        # every (viewer i, object j) pair in (i, j) order; i == j is 0 m apart
        vi, vj = np.nonzero((dist > MIN_NEIGHBOR_M) & (dist <= VISIBLE_RANGE_M))
        centers = np.column_stack([xs[vj], ys[vj], np.full(len(vj), half_z)])
        extents = np.tile(CAR_EXTENT, (len(vj), 1))
        box_yaws = wrap_yaw(yaws)[vj]
        base, _ = predict_counts(
            centers, extents, box_yaws,
            np.column_stack([xs[vi], ys[vi], np.full(len(vi), LIDAR_Z)]))
        noise = rng.normal(0.0, COUNT_SIGMA, size=len(vi))
        noisy = [b * math.exp(z) for b, z in zip(base.tolist(), noise.tolist())]
        zeros = np.zeros(cav_count)
        out.append(TraceFrame(
            index=f, time_s=round(f * FRAME_PERIOD_S, 6), cav_ids=np.arange(cav_count),
            poses=np.column_stack([xs, ys, np.full(cav_count, LIDAR_Z), zeros, zeros, yaws]),
            pair_cav=vi, obj_ids=vj, centers=centers, extents=extents, yaws=box_yaws,
            counts=np.clip(noisy, 1, 240000).astype(np.int64)))

        # advance along the grid; turns happen on line crossings
        for i in range(cav_count):
            old = m[i]
            new = old + dirn[i] * speed[i] * FRAME_PERIOD_S
            k_old, k_new = math.floor(old / ROAD_SPACING_M), math.floor(new / ROAD_SPACING_M)
            if k_old != k_new and rng.uniform() < TURN_PROB:
                cross = ROAD_SPACING_M * max(k_old, k_new)
                overshoot = abs(new - cross)
                new_dir = float(rng.choice(np.array([-1.0, 1.0])))
                m[i] = (line[i] + new_dir * overshoot) % EXTENT_M
                line[i] = cross % EXTENT_M
                axis[i] = 1 - axis[i]
                dirn[i] = new_dir
            else:
                m[i] = new % EXTENT_M
    return out


# ---------------------------------------------------------------------------
# edge global map


@dataclass
class MapEntry:
    kalman: object
    last_seen: float
    has_geometry: bool = False
    last_loss: float = 0.0


class GlobalMap:
    """Server-side registry of matched objects, keyed by global id."""

    def __init__(self):
        self.entries: dict = {}
        self._next_id = 0

    def predicted_positions(self, t: float):
        """Each entry's Kalman-predicted position at ``t``: the global ids
        (n,) and positions (n, 2), in global id order."""
        gids = np.fromiter(self.entries, dtype=np.int64, count=len(self.entries))
        states = [e.kalman for e in self.entries.values()]
        x = np.reshape([s.x for s in states], (-1, 4))
        dt = t - np.array([s.time for s in states], dtype=np.float64)
        # position + dt * velocity, as kalman_predict computes it
        moved = x[:, :2] + dt[:, None] * x[:, 2:]
        return gids, np.where(dt[:, None] > 0, moved, x[:, :2])

    def commit_frame(self, items, t: float, predicted):
        """Match and fold a frame's uploads, in the given order.

        ``items`` is a list of (observed (2,) position, carries_geometry,
        loss), one per uploaded object, and ``predicted`` the map's
        ``predicted_positions(t)``.  Returns the global id assigned to each
        item.  Matching always runs against the freshest predictions: a
        matched row takes the corrected position and a new entry appends its
        row, so two CAVs reporting the same new object within one frame land
        on a single entry.  The nearest row is found as ``nearest_rows``
        finds it: the first smallest dx*dx + dy*dy strictly within the gate.
        """
        ids, points = predicted
        ids = ids.tolist()
        rows = len(ids)
        # coordinate columns with room for one appended row per item
        px = np.empty(rows + len(items))
        py = np.empty(rows + len(items))
        px[:rows], py[:rows] = points[:, 0], points[:, 1]
        gate2 = MATCH_GATE_M * MATCH_GATE_M
        gids = []
        for pos, has_geom, loss in items:
            x, y = pos
            row = -1
            if rows:
                dx = px[:rows] - x
                dy = py[:rows] - y
                d2 = dx * dx + dy * dy
                best = int(d2.argmin())
                if d2[best] < gate2:
                    row = best
            if row < 0:
                gid = self._next_id
                self._next_id += 1
                entry = self.entries[gid] = MapEntry(kalman=kalman_init(pos, t), last_seen=t)
                row, rows = rows, rows + 1
                ids.append(gid)
            else:
                gid = ids[row]
                entry = self.entries[gid]
                dt = t - entry.kalman.time
                if dt > 0:
                    entry.kalman = kalman_predict(entry.kalman, dt)
                entry.kalman = kalman_correct(entry.kalman, pos)
                entry.last_seen = t
            if has_geom:
                entry.has_geometry = True
                entry.last_loss = loss
            px[row], py[row] = entry.kalman.position
            gids.append(gid)
        self._dedup()
        self._retire(t)
        return gids

    def _dedup(self):
        """Drop entries closer than DEDUP_DISTANCE_M to a surviving entry with a
        smaller id."""
        if len(self.entries) < 2:
            return
        gids = list(self.entries)
        pos = np.array([e.kalman.position for e in self.entries.values()])
        dx = pos[:, 0, None] - pos[None, :, 0]
        dy = pos[:, 1, None] - pos[None, :, 1]
        close = np.triu(np.sqrt(dx * dx + dy * dy) < DEDUP_DISTANCE_M, k=1)
        rows_a, rows_b = np.nonzero(close)  # row-major, the greedy scan's order
        drop = set()
        for a, b in zip(rows_a.tolist(), rows_b.tolist()):
            if a not in drop and b not in drop:
                drop.add(b)
        for row in drop:
            del self.entries[gids[row]]

    def _retire(self, t: float):
        for gid in [g for g, e in self.entries.items()
                    if t - e.last_seen > RETIRE_AFTER_S]:
            del self.entries[gid]

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# run configuration


def _is_number(value, kind) -> bool:
    """A finite ``kind`` (numbers.Real or numbers.Integral) that is not a bool."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and math.isfinite(value))


def _are_numbers(values, kind) -> bool:
    return isinstance(values, (list, tuple)) and all(_is_number(v, kind) for v in values)


# value ranges a run needs, checked before it starts: (fields, test, wording)
_RANGES = (
    (("bandwidth_hz", "carrier_ghz", "density_threshold"), lambda v: v > 0, "positive"),
    (("servers", "sectors", "outer_iters", "inner_iters", "deviations", "mc_samples"),
     lambda v: v >= 1, ">= 1"),
    (("beta", "fading_sigma", "rate_sigma"), lambda v: v >= 0, ">= 0"),
)


@dataclass
class RunConfig:
    bandwidth_hz: float = 200e3
    H_ms: float = 100.0
    p: float = 0.99
    beta: float = 1e-4
    rle_threshold_m: float = 0.5
    density_threshold: float = 1024.0
    rf_set: tuple = RF_SET
    policy: str = "adamap"
    seed: int = 0
    dataset_mode: str = "surrogate"
    # deployment knobs beyond the core contract; defaults are calibrated so a
    # 150-CAV run at 200 kHz keeps ~90% of CAV-frames under the 100 ms deadline
    servers: int = 32
    sectors: int = 12
    fading_sigma: float = 0.1
    rate_sigma: float = 0.1
    carrier_ghz: float = 3.5
    tx_power_dbm: float = 23.0
    noise_figure_db: float = 9.0
    base_station: tuple = None  # default: frame-0 CAV centroid at 10 m height
    h_margin_ms: float = 25.0  # headroom the optimizer keeps for the queue
    outer_iters: int = 6
    inner_iters: int = 12
    deviations: int = 12
    mc_samples: int = 32
    dataset_path: str = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not _is_number(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and not _is_number(value, numbers.Integral):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        for names, ok, wording in _RANGES:
            for name in names:
                if not ok(getattr(self, name)):
                    raise ConfigError(f"{name} must be {wording}, got {getattr(self, name)!r}")
        if self.dataset_path is not None and not isinstance(self.dataset_path, str):
            raise ConfigError(f"dataset_path must be a string, got {self.dataset_path!r}")
        if self.base_station is not None and not (
                _are_numbers(self.base_station, numbers.Real)
                and len(self.base_station) == 3):
            raise ConfigError(f"base_station must be three numbers, got {self.base_station!r}")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}, pick from {POLICIES}")
        if self.dataset_mode not in ("codec", "surrogate"):
            raise ConfigError(f"dataset_mode must be codec or surrogate, "
                              f"got {self.dataset_mode!r}")
        if self.H_ms <= 0 or not (0.0 < self.p < 1.0):
            raise ConfigError("H_ms must be positive and p in (0, 1)")
        if self.h_margin_ms < 0 or self.h_margin_ms >= self.H_ms:
            raise ConfigError("h_margin_ms must lie in [0, H_ms)")
        if not (_are_numbers(self.rf_set, numbers.Integral) and self.rf_set):
            raise ConfigError(f"rf_set must be a non-empty list of integers, got {self.rf_set!r}")
        self.rf_set = tuple(sorted(int(r) for r in self.rf_set))
        for rf in self.rf_set:
            try:
                latent_dim(rf)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: expected a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
        return cls(**raw)


# ---------------------------------------------------------------------------
# run state and per-frame execution


@dataclass
class FrameRow:
    cav_id: int
    frame: int
    vehicle_ms: float
    uplink_ms: float
    queue_ms: float
    server_ms: float
    total_ms: float
    bytes: int
    loss: float
    rfs: tuple


@dataclass
class ObjectRecord:
    frame: int
    cav_id: int
    obj_id: int
    rf: int  # 0 when no latent was sent (lossless, raw, or reuse)
    bytes: int
    loss: float
    reused: bool


@dataclass
class FrameStats:
    frame: int
    detected_pairs: int
    selected_pairs: int
    bytes_total: int
    infeasible_cavs: int
    map_size: int


@dataclass
class RunResult:
    config: RunConfig
    rows: list
    objects: list
    frame_stats: list
    loc_errors: list


class RunState:
    def __init__(self, config: RunConfig):
        self.config = config
        self.localizers: dict = {}
        self.prev_rates: dict = {}
        self.global_map = GlobalMap()


def load_dataset(config: RunConfig) -> MeasurementDataset:
    """The profile at ``dataset_path``, or the built-in surrogate.

    A profile must hold samples for every (rf, bucket) key the run can look
    up, or ProfileIncompleteError lists the missing ones.  The surrogate
    holds the RFs of DEFAULT_LOSS_CALIBRATION; any other RF needs a profile.
    """
    if config.dataset_path is not None:
        dataset = MeasurementDataset.load(config.dataset_path)
        dataset.validate(sorted(set(config.rf_set) | {FULL_UPLOAD_RF}), min_samples=1)
        return dataset
    uncalibrated = sorted(set(config.rf_set) - set(DEFAULT_LOSS_CALIBRATION))
    if uncalibrated:
        raise ConfigError(f"rf_set values {uncalibrated} must be profiled in a dataset_path; "
                          f"the surrogate calibrates only {sorted(DEFAULT_LOSS_CALIBRATION)}")
    return surrogate_dataset()


def _codec_loss(bbox: Bbox3, viewer, raw_count: int, rf: int, beta: float,
                rng: np.random.Generator) -> float:
    """Measured chain: sample surface, resample, encode, decode, compare."""
    n_raw = int(np.clip(raw_count, 256, 4096))
    surf_seed = int(rng.integers(1 << 31))
    dec_seed = int(rng.integers(1 << 31))
    surf = sample_visible_surface(bbox, viewer, n_raw, seed=surf_seed)
    cloud = resample(surf, 1024)
    lat = encode(cloud, rf)
    recon = decode(lat, seed=dec_seed)
    return reconstruction_loss(cloud.points, recon.points, beta=beta)


def _draw_samples(cells: list, rng: np.random.Generator) -> list:
    """One uniformly drawn sample from each cell, in order.  The single
    array-bounded draw gives the same indices as one scalar draw per cell."""
    picks = rng.integers(0, [len(cell) for cell in cells]).tolist()
    return [float(cell[i]) for cell, i in zip(cells, picks)]


def run_frame(frame: TraceFrame, state: RunState, dataset: MeasurementDataset):
    """Simulate one frame; returns (rows, objects, stats, loc_errors).

    The frame works on one table of detection pairs ordered by (CAV id,
    object id), held as columns: the CAV's index in id order, the object id,
    the pair's row in the trace frame and the observed position.  Selection
    keeps the rows that go out; rf, the reused map gid (-1 if none), bytes
    and loss are columns of those.  Loops whose order fixes a random stream
    or a result stay per object: localization, the left-to-right encode- and
    decode-time sums and the per-object edge thinning.  The accounting draws
    take one array-bounded call per CAV and stream, which yields the
    per-object draws' indices.  Each object that carries geometry charges one
    encode sample to its CAV and one decode sample to the server, from the
    dataset cells the optimizer samples.
    """
    cfg = state.config
    policy = _POLICY[cfg.policy]
    t = frame.time_s
    fidx = frame.index
    cav_order = np.argsort(frame.cav_ids, kind="stable")
    cav_ids = frame.cav_ids[cav_order].tolist()
    positions = frame.poses[cav_order, :3]
    n = len(cav_ids)
    # every trace pair, sorted by (CAV index, object id)
    rank = np.empty(n, dtype=np.int64)
    rank[cav_order] = np.arange(n)
    pair_rank = rank[frame.pair_cav]
    by_pair = np.lexsort((frame.obj_ids, pair_rank))
    bounds = np.searchsorted(pair_rank[by_pair], np.arange(n + 1)).tolist()

    # --- localization (vehicle side) builds the detection table ---
    cav, src, observed = [], [], []
    charges = []
    for c, cav_id in enumerate(cav_ids):
        rows = by_pair[bounds[c]:bounds[c + 1]].tolist()
        truth = dict(zip(frame.obj_ids[rows].tolist(), frame.centers[rows, :2]))
        loc = state.localizers.setdefault(
            cav_id, HybridLocalizer(rle_threshold=cfg.rle_threshold_m))
        rng_loc = np.random.default_rng([cfg.seed, fidx, cav_id, _S_LOC])
        res = loc.step(t, truth, rng_loc)
        charges.append(res.charged_ms)
        for row, obj_id in zip(rows, truth):
            obs = res.observations.get(obj_id)
            if obs is not None:
                cav.append(c)
                src.append(row)
                observed.append(obs)
    cav = np.array(cav, dtype=np.int64)
    src = np.array(src, dtype=np.int64)
    obj = frame.obj_ids[src]
    observed = np.reshape(observed, (-1, 2))
    loc_errors = row_norms(observed - frame.centers[src, :2]).tolist()
    detected_pairs = len(cav)

    # --- selection over the shared view ---
    if policy.select == "all":
        selected = np.ones(len(cav), dtype=bool)
    elif policy.select == "blindspot":  # objects some CAV lacks
        _, inverse, viewers = np.unique(obj, return_inverse=True, return_counts=True)
        selected = viewers[inverse] < n
    else:  # "thin": each object's viewers, in CAV order, through one count kernel
        by_obj = np.argsort(obj, kind="stable")
        boxes = src[by_obj]
        _, quadrants = predict_counts(frame.centers[boxes], frame.extents[boxes],
                                      frame.yaws[boxes], positions[cav[by_obj]])
        selected = np.zeros(len(cav), dtype=bool)
        viewer_ids = [cav_ids[c] for c in cav[by_obj].tolist()]
        starts = np.flatnonzero(np.diff(obj[by_obj], prepend=-1, append=-1)).tolist()
        for lo, hi in zip(starts, starts[1:]):
            kept = select_objects(dict(zip(viewer_ids[lo:hi], quadrants[lo:hi])),
                                  cfg.density_threshold)
            selected[by_obj[lo:hi]] = [v in kept for v in viewer_ids[lo:hi]]
    # from here on the table holds the pairs that go out
    cav, obj, src, observed = cav[selected], obj[selected], src[selected], observed[selected]
    counts = frame.counts[src]
    bounds = np.searchsorted(cav, np.arange(n + 1)).tolist()
    by_cav = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    # --- per-CAV RF decisions, solved for the whole frame at once ---
    rf = np.zeros(len(cav), dtype=np.int64)
    infeasible_cavs = 0
    sectors = [sector_index(p, cfg) for p in positions]
    if policy.rf == "optimize":
        # frame-0 fallback estimate: assume every CAV shares its sector
        all_counts = np.bincount(sectors, minlength=cfg.sectors)
        problems, owners = [], []
        for c, cav_id in enumerate(cav_ids):
            mine = by_cav[c]
            if mine.start == mine.stop:
                continue
            rate = state.prev_rates.get(cav_id)
            if rate is None:
                rate = uplink_rate(positions[c], max(1, int(all_counts[sectors[c]])), cfg)
            opt_seed = int(np.random.SeedSequence(
                (cfg.seed, fidx, cav_id, 7)).generate_state(1)[0])
            problems.append(RFProblem(obj_ids=obj[mine].tolist(),
                                      raw_counts=counts[mine].tolist(),
                                      rate_bps=rate, seed=opt_seed))
            owners.append(mine)
        results = optimize_rf_batch(problems, dataset, cfg)
        for mine, res in zip(owners, results):
            infeasible_cavs += bool(res.infeasible)
            rf[mine] = res.rfs
    elif policy.rf == "max":
        rf[:] = max(cfg.rf_set)

    # --- reuse decisions against the broadcast map ---
    gid = np.full(len(cav), -1, dtype=np.int64)
    entries = state.global_map.entries
    predicted = state.global_map.predicted_positions(t)  # only the commit changes the map
    if policy.reuse:
        gids, points = predicted
        nearest = nearest_rows(points, observed, MATCH_GATE_M)
        hit = np.flatnonzero(nearest >= 0)
        off = points[nearest[hit]] - observed[hit]
        close = hit[np.sqrt(off[:, 0] * off[:, 0] + off[:, 1] * off[:, 1]) < REUSE_POSE_ERROR_M]
        matched = gids[nearest[close]]
        geometry = np.array([entries[g].has_geometry for g in matched.tolist()], dtype=bool)
        gid[close[geometry]] = matched[geometry]
    reused = gid >= 0
    rf[reused] = 0  # as recorded: 0 unless a latent goes out

    # --- byte accounting, encode and decode charges, losses ---
    nbytes = np.where(reused, REUSE_DELTA_BYTES, 0)
    if policy.upload_bytes is not None:
        nbytes[~reused] = policy.upload_bytes + DESCRIPTOR_OVERHEAD_BYTES
    else:
        nbytes[~reused] = [payload_bytes(r) + DESCRIPTOR_OVERHEAD_BYTES
                           for r in rf[~reused].tolist()]
    payloads = np.bincount(cav, weights=nbytes, minlength=n)
    loss = np.zeros(len(cav))
    loss[reused] = [entries[g].last_loss for g in gid[reused].tolist()]
    vehicle_ms, server_ms = np.zeros(n), np.zeros(n)  # encode and decode charges
    buckets = bucket_index(counts).tolist()
    rf_rows = rf.tolist()
    codec_rf = rf_rows if policy.upload_bytes is None else [FULL_UPLOAD_RF] * len(rf_rows)
    reused_rows = reused.tolist()
    for c, cav_id in enumerate(cav_ids):
        mine = by_cav[c]
        sent = [r for r in range(mine.start, mine.stop) if not reused_rows[r]]
        if not sent:
            continue
        rng_time = np.random.default_rng([cfg.seed, fidx, cav_id, _S_TIME])
        # one encode then one decode sample per object, each summed left to right
        cells = ([dataset.enc_time_samples(codec_rf[r], buckets[r]) for r in sent]
                 + [dataset.dec_time_samples(codec_rf[r], buckets[r]) for r in sent])
        draws = _draw_samples(cells, rng_time)
        for ms in draws[:len(sent)]:
            vehicle_ms[c] += ms
        for ms in draws[len(sent):]:
            server_ms[c] += ms
        if policy.upload_bytes is not None:
            continue
        if cfg.dataset_mode == "codec":
            for r in sent:
                rng_codec = np.random.default_rng([cfg.seed, fidx, cav_id, int(obj[r]), _S_CODEC])
                box = Bbox3(center=frame.centers[src[r]], extent=frame.extents[src[r]])
                box.yaw = float(frame.yaws[src[r]])  # wrapped already; a second wrap can move it
                loss[r] = _codec_loss(box, positions[c], int(counts[r]), rf_rows[r], cfg.beta,
                                      rng_codec)
        else:
            rng_loss = np.random.default_rng([cfg.seed, fidx, cav_id, _S_LOSS])
            loss[sent] = _draw_samples([dataset.loss_samples(rf_rows[r], buckets[r])
                                        for r in sent], rng_loss)

    # --- radio: realized rates with fading, shared per sector ---
    # only CAVs with data on air occupy their sector's band this frame
    sector_counts = np.bincount(np.array(sectors)[payloads > 0], minlength=cfg.sectors)
    rng_net = np.random.default_rng([cfg.seed, fidx, _S_NET])
    rates = np.zeros(n)
    for c, cav_id in enumerate(cav_ids):
        fading = draw_fading(rng_net, cfg.fading_sigma)
        share = max(1, int(sector_counts[sectors[c]]))
        rates[c] = uplink_rate(positions[c], share, cfg, fading=float(fading))
        state.prev_rates[cav_id] = float(rates[c])

    # --- edge latency ---
    rng_queue = np.random.default_rng([cfg.seed, fidx, _S_QUEUE])
    b_ms, up_ms, queue_ms = simulate_frame_latency(payloads, vehicle_ms, rates, server_ms,
                                                   cfg.servers, rng_queue, extra_b_ms=charges)
    # total: encode, uplink, queue, server, baseline, added in that order
    total_ms = (vehicle_ms + up_ms + queue_ms + server_ms + b_ms).tolist()
    vehicle_ms = (vehicle_ms + b_ms).tolist()  # encode plus baseline charge

    # --- server-side matching into the global map, in table order ---
    state.global_map.commit_frame(list(zip(observed, (~reused).tolist(), loss.tolist())), t,
                                  predicted)

    rows = []
    for c, cav_id in enumerate(cav_ids):
        mine = by_cav[c]
        rfs = rf[mine]
        rows.append(FrameRow(
            cav_id=cav_id, frame=fidx, vehicle_ms=vehicle_ms[c], uplink_ms=float(up_ms[c]),
            queue_ms=float(queue_ms[c]), server_ms=float(server_ms[c]),
            total_ms=total_ms[c], bytes=int(payloads[c]),
            loss=float(np.mean(loss[mine])) if len(rfs) else 0.0,
            rfs=tuple(rfs[rfs > 0].tolist())))
    objects = [ObjectRecord(frame=fidx, cav_id=cav_ids[c], obj_id=o, rf=r, bytes=b,
                            loss=v, reused=u)
               for c, o, r, b, v, u in zip(cav.tolist(), obj.tolist(), rf.tolist(),
                                           nbytes.tolist(), loss.tolist(), reused.tolist())]
    stats = FrameStats(
        frame=fidx, detected_pairs=detected_pairs, selected_pairs=len(cav),
        bytes_total=int(payloads.sum()), infeasible_cavs=infeasible_cavs,
        map_size=len(state.global_map))
    return rows, objects, stats, loc_errors


def run_simulation(trace, config: RunConfig,
                   dataset: MeasurementDataset | None = None) -> RunResult:
    """Run every frame of ``trace``, a valid one as ``load_trace`` or
    ``generate_trace`` returns it; ``dataset`` defaults to ``load_dataset``.
    An unset ``base_station`` becomes the frame-0 CAV centroid at 10 m
    height, and the result's config holds it."""
    if config.base_station is None:
        poses = trace[0].poses
        config = replace(config, base_station=(float(poses[:, 0].mean()),
                                                float(poses[:, 1].mean()), 10.0))
    if dataset is None:
        dataset = load_dataset(config)
    state = RunState(config)
    rows, objects, stats, loc_errors = [], [], [], []
    for frame in trace:
        r, o, s, e = run_frame(frame, state, dataset)
        rows.extend(r)
        objects.extend(o)
        stats.append(s)
        loc_errors.extend(e)
    return RunResult(config=config, rows=rows, objects=objects,
                     frame_stats=stats, loc_errors=loc_errors)


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, pct: float) -> float | None:
    """Nearest-rank percentile: rank = ceil(p/100 * n) on the sorted values;
    None, a null in summary.json, for no values."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def collect_metrics(result: RunResult) -> dict:
    cfg = result.config
    totals = [r.total_ms for r in result.rows]
    finite = [v for v in totals if math.isfinite(v)]
    losses = [r.loss for r in result.objects]
    rf_hist = {}
    for rec in result.objects:
        if rec.rf > 0:
            rf_hist[rec.rf] = rf_hist.get(rec.rf, 0) + 1
    detected = sum(s.detected_pairs for s in result.frame_stats)
    selected = sum(s.selected_pairs for s in result.frame_stats)
    frames = len(result.frame_stats)
    total_bytes = sum(s.bytes_total for s in result.frame_stats)

    summary = {
        "policy": cfg.policy,
        "seed": cfg.seed,
        "frames": frames,
        "cavs": len({r.cav_id for r in result.rows}),
        "bandwidth_hz": cfg.bandwidth_hz,
        "H_ms": cfg.H_ms,
        "latency_ms_p50": nearest_rank(totals, 50),
        "latency_ms_p90": nearest_rank(totals, 90),
        "latency_ms_p95": nearest_rank(totals, 95),
        "latency_ms_p99": nearest_rank(totals, 99),
        "frac_within_h": (float(np.mean([v <= cfg.H_ms for v in totals]))
                          if totals else None),
        "mean_loss": float(np.mean(losses)) if losses else 0.0,
        "selected_fraction": (selected / detected) if detected else 0.0,
        "mean_rf": (float(np.mean([r.rf for r in result.objects if r.rf > 0]))
                    if rf_hist else 0.0),
        "rf_histogram": {str(k): v for k, v in sorted(rf_hist.items())},
        "bytes_total": total_bytes,
        "bytes_per_frame": total_bytes / frames if frames else 0.0,
        "reused_objects": sum(1 for r in result.objects if r.reused),
        "objects_sent": len(result.objects),
        "infeasible_cav_frames": sum(s.infeasible_cavs for s in result.frame_stats),
        "loc_error_p50": nearest_rank(result.loc_errors, 50),
        "loc_error_p95": nearest_rank(result.loc_errors, 95),
        "finite_latency_rows": len(finite),
    }
    return summary


def write_frame_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in sorted(rows, key=lambda r: (r.frame, r.cav_id)):
            rfs = ";".join(str(v) for v in r.rfs)
            fh.write(f"{r.cav_id},{r.frame},{r.vehicle_ms:.6f},{r.uplink_ms:.6f},"
                     f"{r.queue_ms:.6f},{r.server_ms:.6f},{r.total_ms:.6f},"
                     f"{r.bytes},{r.loss:.6f},{rfs}\n")


def write_summary(path, summary: dict) -> None:
    """Strict JSON: a statistic over no values is null, never NaN."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
