"""End-to-end frame loop: traces, per-CAV data/control planes, the edge map.

A trace lists, per 0.1 s frame, every vehicle's pose and the other vehicles
it can see.  ``run_frame`` runs a frame as stages over one table of detection
pairs, every CAV at once: hybrid localization (``_pair_table``), object
selection (``_selected``), the reuse match against the broadcast map, RF
optimization of the rows that carry geometry (``_rf_decisions``), bytes,
losses and encode and decode charges (``_charges``); then the shared radio
and the FCFS edge queue give a latency breakdown, and each upload's observed
position is matched into the global map.  Every draw is a keyed uniform of
the run seed and its keys, so a run is reproducible byte for byte.

Policies are the rows of ``_POLICY``; each names what it does at each step
(selection, RF choice, reuse, upload size):
  adamap              density-thinned selection, optimized RF per object
  adamap-lite         every detection, at the maximum RF
  adamap-reuse        adamap, but a 32-byte delta replaces the latent when
                      the map's predicted pose is within 0.5 m; decided before
                      the RF search, which counts the deltas as fixed bytes
  select-all-lossless every detection as an entropy-coded raw cloud, zero loss
  blindspot-all       full raw cloud (a transmission-size stand-in) for every
                      object some CAV does not see: on generated traces, where
                      no CAV lists itself, every detection
"""

from __future__ import annotations

import bisect
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from itertools import accumulate, chain
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtri

from . import netsim
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
    sample_index,
    sample_tables,
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
    sector_indices,
    simulate_frame_latency,
    uplink_rate,
)
from .sampling import keyed_uniforms
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
MATCH_CELL_M = 4.0  # the map's match grid: wider than the gate, a power of two
_AROUND = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
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

# stream tags: the last key of each keyed_uniforms draw, after (seed, frame,
# CAV id) and, for a per-object draw, the object id
_S_LOC = 0  # localization, per object and per CAV
_S_TIME = 1  # per object: its loss, encode and decode picks
_S_CODEC = 3  # per object: the codec chain's two seeds
_S_OPT = 7  # per CAV: its RF subproblem's seed, 2**52 u, an integer (see keyed_uniforms)
_S_NET = 10  # per CAV: its fading factor
_S_QUEUE = 11  # per CAV: its baseline module times

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


# a trace line's templates: keys sorted and separators compact, as json.dumps writes them
_OBJECT_JSON = '{{"center":[{},{},{}],"count":{},"extent":[{},{},{}],"id":{},"yaw":{}}}'
_CAV_JSON = '{{"id":{},"objects":[{}],"pose":[{}]}}'
_STRICT_JSON = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def _json_texts(*arrays) -> list:
    """json's strict text of each number in the float64 ``arrays``, a flat list per
    array; each distinct bit pattern (-0.0 is not 0.0) renders once, a NaN or inf raises."""
    flat = np.concatenate([a.ravel() for a in arrays])
    bits, inverse = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    texts = np.array(_STRICT_JSON(bits.view(flat.dtype).tolist())[1:-1].split(","), dtype=object)
    texts, ends = texts[inverse].tolist(), list(accumulate(a.size for a in arrays))
    return [texts[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _frame_json(frame: TraceFrame) -> str:
    bounds = np.searchsorted(frame.pair_cav, np.arange(len(frame.cav_ids) + 1)).tolist()
    poses, c, e, yaws = _json_texts(frame.poses, frame.centers, frame.extents, frame.yaws)
    objects = list(map(_OBJECT_JSON.format, c[0::3], c[1::3], c[2::3], frame.counts.tolist(),
                       e[0::3], e[1::3], e[2::3], frame.obj_ids.tolist(), yaws))
    cavs = map(_CAV_JSON.format, frame.cav_ids.tolist(),
               [",".join(objects[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
               [",".join(poses[k:k + 6]) for k in range(0, len(poses), 6)])
    return (f'{{"cavs":[{",".join(cavs)}],"frame":{_STRICT_JSON(frame.index)},'
            f'"time_s":{_STRICT_JSON(frame.time_s)}}}\n')


class _Floats(dict):  # one trace line's parse_float memo: each distinct text is read once
    def __missing__(self, text: str) -> float:
        return self.setdefault(text, float(text))


def _column(name: str, values: list, width: int = 0, ints: bool = False) -> np.ndarray:
    """``values`` as a float64 (int64 with ``ints``) array, of ``width`` columns
    if given.  Not float() or int(): they read "1.5" as 1.5, 3.7 as 3, true as 1."""
    if width:
        if not set(map(len, values)) <= {width}:
            raise ValueError(f"each {name} must hold {width} numbers")
        values = list(chain.from_iterable(values))
    if not set(map(type, values)) <= ({int} if ints else {int, float}):
        raise ValueError(f"{name}s must be integers" if ints else f"{name} values must be numbers")
    column = np.array(values, dtype=np.int64 if ints else np.float64)
    return column.reshape(-1, width) if width else column


def _record_frame(rec: dict) -> TraceFrame:
    cavs = rec["cavs"]
    objects = [c["objects"] for c in cavs]
    pairs = list(chain.from_iterable(objects))
    if type(rec["frame"]) is not int:  # validate_trace checks its range
        raise ValueError("frame numbers must be integers")
    return TraceFrame(
        index=rec["frame"], time_s=float(_column("time_s", [rec["time_s"]])[0]),
        cav_ids=_column("CAV id", [c["id"] for c in cavs], ints=True),
        poses=_column("pose", [c["pose"] for c in cavs], width=6),
        pair_cav=np.repeat(np.arange(len(cavs)), list(map(len, objects))),
        obj_ids=_column("object id", [o["id"] for o in pairs], ints=True),
        centers=_column("center", [o["center"] for o in pairs], width=3),
        extents=_column("extent", [o["extent"] for o in pairs], width=3),
        yaws=wrap_yaw(_column("yaw", [o["yaw"] for o in pairs])),
        counts=_column("object count", [o["count"] for o in pairs], ints=True),
    )


def save_trace(path, frames) -> None:
    """One strict JSON line per frame, keys sorted, separators compact."""
    with open(path, "w") as fh:
        fh.writelines(map(_frame_json, frames))


def load_trace(path):
    frames = []
    with open(path) as fh:
        for line_no, line in enumerate(fh):
            if not line.strip():
                continue
            try:
                frames.append(_record_frame(json.loads(line, parse_float=_Floats().__getitem__)))
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise FrameError(f"trace line {line_no}: {exc}") from exc
    validate_trace(frames)
    return frames


def validate_trace(frames) -> None:
    """Raise FrameError unless frame numbers strictly increase, every frame
    keeps the cadence, lists each CAV and each of a CAV's objects once, and
    holds finite poses and boxes, positive extents and point counts of at
    least 1.  Frame numbers, CAV ids and object ids key the random streams,
    so each must be non-negative."""
    if not frames:
        raise FrameError("trace is empty")
    for i, frame in enumerate(frames):
        where = f"frame {frame.index}"
        if i and frame.index <= frames[i - 1].index:
            raise FrameError(f"{where}: frame numbers must strictly increase")
        if not 0 <= frame.index < 2**63:  # CAV and object ids load as int64 already
            raise FrameError(f"{where}: frame numbers must be non-negative 64-bit integers")
        for name, ids in (("CAV id", frame.cav_ids), ("object id", frame.obj_ids)):
            if (ids < 0).any():
                raise FrameError(f"{where}: {name}s must be non-negative")
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
    if cav_count < 1 or frames < 1 or seed < 0:
        raise ConfigError("cav_count and frames must be >= 1 and seed >= 0")
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


def _cells(points: np.ndarray) -> list:
    """Each row's match-grid cell, math.floor of (x, y) / MATCH_CELL_M, from
    one np.floor.  Cells are int tuples, which key dicts faster than floats;
    quotients beyond int64 take math.floor, which is exact."""
    q = np.floor(points / MATCH_CELL_M)
    if np.abs(q).max(initial=0.0) < 2.0**63:
        q = q.astype(np.int64)
        return list(zip(q[:, 0].tolist(), q[:, 1].tolist()))
    return [(math.floor(i), math.floor(j)) for i, j in q.tolist()]


def _place(near: dict, cells: list, row: int, cell: tuple) -> None:
    """Move ``row`` to grid ``cell``, a new one: list it, in row order, under
    each of the 3 x 3 cells around ``cell``, and drop it from those around
    the cell it had."""
    old, cells[row] = cells[row], cell
    if old is not None:
        for i, j in _AROUND:
            near[old[0] + i, old[1] + j].remove(row)
    for i, j in _AROUND:
        bisect.insort(near.setdefault((cell[0] + i, cell[1] + j), []), row)


class GlobalMap:
    """Server-side registry of matched objects: one row per object, in global
    id order, held as columns ``gids`` (n,), the filter ``state`` (n, 8) of
    eight-float rows (see ``kalman_init``), and ``last_seen``,
    ``has_geometry`` and ``last_loss`` (n,)."""

    def __init__(self):
        self.gids = np.zeros(0, dtype=np.int64)
        self.state = np.zeros((0, 8))
        self.last_seen = np.zeros(0)
        self.has_geometry = np.zeros(0, dtype=bool)
        self.last_loss = np.zeros(0)
        self._next_id = 0

    def predicted_positions(self, t: float) -> np.ndarray:
        """Each row's Kalman-predicted position at ``t``, (n, 2)."""
        s = self.state
        dt = t - s[:, 7]
        # position + dt * velocity, as kalman_predict computes it
        moved = s[:, :2] + dt[:, None] * s[:, 2:4]
        return np.where(dt[:, None] > 0, moved, s[:, :2])

    def commit_frame(self, observed, carries_geometry, loss, t: float, predicted):
        """Match and fold a frame's uploads, in row order.

        The uploads come as columns, one row per uploaded object: the
        ``observed`` (x, y) positions (m, 2), ``carries_geometry`` (m,) and
        ``loss`` (m,).  ``predicted`` is the map's ``predicted_positions(t)``.
        Returns the global id assigned to each upload.  Matching always runs
        against the freshest positions: a matched row takes the corrected
        position and a new row is appended, so two CAVs reporting the same new
        object within one frame land on a single row.  Every column is read
        into a list once, rows step as filter tuples, and the map's columns
        are written back once.

        An upload takes the row ``nearest_rows`` would: the first smallest
        dx*dx + dy*dy, accepted strictly within the gate.  It scans only the
        rows ``near`` lists under its grid cell, in row order: those whose
        cell is one of the 3 x 3 around it.  That is exact.  A computed
        d2 < gate^2 needs |dx| and |dy| < gate before rounding, since
        squares, sums and rounding are monotone; with MATCH_CELL_M wider than
        the gate such a row lies in a neighbouring cell, and x / MATCH_CELL_M
        rounds nothing for a power of two.  The cells of the predictions and
        of the uploads come from one ``_cells`` call each, a corrected row's
        from math.floor of the same quotient, and ``_place`` moves a row only
        when its cell changed.  The scan and the filter steps stay one upload
        at a time: an upload's match depends on the corrections before it.
        """
        side = MATCH_CELL_M
        ids, states = self.gids.tolist(), self.state.tolist()
        seen, has_geometry, last_loss = (self.last_seen.tolist(), self.has_geometry.tolist(),
                                         self.last_loss.tolist())
        px, py = predicted[:, 0].tolist(), predicted[:, 1].tolist()
        cells = _cells(predicted)
        near: dict = {}
        for row, (ci, cj) in enumerate(cells):  # rows ascend, so appends keep row order
            for i, j in _AROUND:
                near.setdefault((ci + i, cj + j), []).append(row)
        gate2 = MATCH_GATE_M * MATCH_GATE_M
        gids = []
        for x, y, cell, has_geom, upload_loss in zip(
                observed[:, 0].tolist(), observed[:, 1].tolist(), _cells(observed),
                carries_geometry.tolist(), loss.tolist()):
            row, best = -1, gate2
            for r in near.get(cell, ()):
                dx = px[r] - x
                dy = py[r] - y
                d2 = dx * dx + dy * dy
                if d2 < best:
                    row, best = r, d2
            if row < 0:  # a new row starts at the report, in the report's cell
                row, state = len(ids), kalman_init((x, y), t)
                ids.append(self._next_id)
                self._next_id += 1
                states.append(state)
                seen.append(t)
                has_geometry.append(False)
                last_loss.append(0.0)
                cells.append(None)
                px.append(state[0])
                py.append(state[1])
            else:
                state = states[row]
                dt = t - state[7]
                if dt > 0:
                    state = kalman_predict(state, dt)
                state = states[row] = kalman_correct(state, (x, y))
                px[row], py[row] = state[0], state[1]
                seen[row] = t
                cell = (math.floor(state[0] / side), math.floor(state[1] / side))
            if cell != cells[row]:
                _place(near, cells, row, cell)
            if has_geom:
                has_geometry[row] = True
                last_loss[row] = upload_loss
            gids.append(ids[row])
        columns = (np.array(ids, dtype=np.int64), np.reshape(states, (-1, 8)),
                   np.array(seen, dtype=np.float64), np.array(has_geometry, dtype=bool),
                   np.array(last_loss, dtype=np.float64))
        keep = _kept_rows(columns[1], columns[2], t)
        (self.gids, self.state, self.last_seen, self.has_geometry,
         self.last_loss) = (column[keep] for column in columns)
        return gids

    def __len__(self):
        return len(self.gids)


def _kept_rows(state: np.ndarray, last_seen: np.ndarray, t: float) -> np.ndarray:
    """The rows that stay: seen within RETIRE_AFTER_S of ``t`` and not closer
    than DEDUP_DISTANCE_M to a kept row with a smaller id."""
    keep = ~(t - last_seen > RETIRE_AFTER_S)
    pos = state[:, :2]
    dx = pos[:, 0, None] - pos[None, :, 0]
    dy = pos[:, 1, None] - pos[None, :, 1]
    close = np.triu(np.sqrt(dx * dx + dy * dy) < DEDUP_DISTANCE_M, k=1)
    rows_a, rows_b = np.nonzero(close)  # row-major, the greedy scan's order
    dropped = set()
    for a, b in zip(rows_a.tolist(), rows_b.tolist()):
        if a not in dropped and b not in dropped:
            dropped.add(b)
    keep[list(dropped)] = False
    return keep


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
    (("seed", "beta", "fading_sigma", "rate_sigma"), lambda v: v >= 0, ">= 0"),
    (("seed",), lambda v: v < 2**64, "below 2**64"),  # it keys uint64 draws
    # exp(sigma z) at a keyed draw's |z| <= 8.21 stays in 1e±36: no rate 0, no latency inf
    (("fading_sigma", "rate_sigma"), lambda v: v <= 10, "at most 10"),
)


@dataclass
class RunConfig:
    bandwidth_hz: float = 200e3
    H_ms: float = 100.0
    p: float = 0.99
    beta: float = 1e-4
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
        if not (_are_numbers(self.rf_set, numbers.Integral) and self.rf_set
                and len(set(self.rf_set)) == len(self.rf_set)):
            raise ConfigError(f"rf_set must be a non-empty list of distinct integers, "
                              f"got {self.rf_set!r}")
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
    objects: np.recarray  # one record per sent object, as run_frame returns them
    frame_stats: list
    loc_errors: np.ndarray


class RunState:
    def __init__(self, config: RunConfig):
        self.config = config
        self.localizer = HybridLocalizer()
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
                surf_seed: int, dec_seed: int) -> float:
    """Measured chain: sample surface, resample, encode, decode, compare."""
    n_raw = int(np.clip(raw_count, 256, 4096))
    surf = sample_visible_surface(bbox, viewer, n_raw, seed=surf_seed)
    cloud = resample(surf, 1024)
    lat = encode(cloud, rf)
    recon = decode(lat, seed=dec_seed)
    return reconstruction_loss(cloud.points, recon.points, beta=beta)


def _pair_table(frame: TraceFrame, state: RunState):
    """Localization of every trace pair, sorted by (CAV id, object id).  Returns
    the CAV ids ascending (C,), their positions (C, 3) and detector charges in
    ms (C,), and the published pairs as columns: the CAV's index in id order,
    the object id, the pair's row in the trace frame and the observed (x, y)."""
    cfg, fidx = state.config, frame.index
    cav_order = np.argsort(frame.cav_ids, kind="stable")
    ids = frame.cav_ids[cav_order]
    pair_rank = np.argsort(cav_order)[frame.pair_cav]  # the inverse permutation: id ranks
    by_pair = np.lexsort((frame.obj_ids, pair_rank))
    cav, obj = pair_rank[by_pair], frame.obj_ids[by_pair]
    loc = state.localizer.localize(
        frame.time_s, ids, cav, obj, frame.centers[by_pair, :2],
        keyed_uniforms(cfg.seed, fidx, ids[cav], obj, _S_LOC, n=6),
        keyed_uniforms(cfg.seed, fidx, ids, _S_LOC, n=1)[:, 0])
    kept = loc.published
    return (ids, frame.poses[cav_order, :3], loc.charged_ms, cav[kept], obj[kept],
            by_pair[kept], loc.observed[kept])


def _selected(policy: Policy, cfg: RunConfig, frame: TraceFrame, ids, positions, cav, obj,
              src) -> np.ndarray:
    """The policy's keep mask over the pair table, from the shared view."""
    if policy.select == "all":
        return np.ones(len(cav), dtype=bool)
    if policy.select == "blindspot":  # objects some CAV lacks
        _, inverse, viewers = np.unique(obj, return_inverse=True, return_counts=True)
        return viewers[inverse] < len(ids)
    # "thin": one count kernel and one mask rule over the whole table
    _, quadrants = predict_counts(frame.centers[src], frame.extents[src], frame.yaws[src],
                                  positions[cav])
    return select_objects(obj, ids[cav], quadrants, cfg.density_threshold)


def _rf_decisions(rf, state: RunState, dataset, fidx: int, ids, sectors, distances, cav, obj,
                  counts, reused) -> int:
    """Each CAV's RF subproblem over its rows that carry geometry, its reuse
    deltas as fixed bytes, solved for the whole frame at once; a CAV with
    deltas alone has none, and one without last frame's rate assumes every CAV
    shares its sector.  Writes ``rf`` and returns the infeasible count."""
    cfg = state.config
    up = np.flatnonzero(~reused)
    sent_by_cav = np.split(up, np.searchsorted(cav[up], np.arange(1, len(ids))))
    deltas = np.bincount(cav[reused], minlength=len(ids)).tolist()
    all_counts = np.bincount(sectors, minlength=cfg.sectors)
    opt_seeds = (keyed_uniforms(cfg.seed, fidx, ids, _S_OPT, n=1)[:, 0]
                 * 2**52).astype(np.int64).tolist()
    problems, owners = [], []
    for c, (cav_id, sent) in enumerate(zip(ids.tolist(), sent_by_cav)):
        if not len(sent):
            continue
        rate = state.prev_rates.get(cav_id)
        if rate is None:
            rate = uplink_rate(distances[c], max(1, int(all_counts[sectors[c]])), cfg)
        problems.append(RFProblem(obj_ids=obj[sent].tolist(), raw_counts=counts[sent].tolist(),
                                  rate_bps=rate, seed=opt_seeds[c],
                                  fixed_bytes=float(REUSE_DELTA_BYTES * deltas[c])))
        owners.append(sent)
    results = optimize_rf_batch(problems, dataset, cfg)
    for sent, res in zip(owners, results):
        rf[sent] = res.rfs
    return sum(res.infeasible for res in results)


def _charges(policy: Policy, cfg: RunConfig, dataset, frame: TraceFrame, ids, positions, cav,
             obj, src, counts, rf, reused, loss):
    """Each row's bytes and each CAV's encode and decode ms, and into ``loss``
    each latent's loss: one pick per row from its (rf, count bucket) cell by
    ``sample_index``, as the optimizer does, or in codec mode the measured
    chain's.  Raw and lossless uploads read FULL_UPLOAD_RF's cells, loss 0."""
    up = np.flatnonzero(~reused)
    codec_rf = rf[up] if policy.upload_bytes is None else np.full(len(up), FULL_UPLOAD_RF)
    buckets = bucket_index(counts[up])
    levels, _, samples, sizes = sample_tables(dataset, np.unique(codec_rf).tolist(),
                                              np.unique(buckets).tolist())
    level = np.searchsorted(levels, codec_rf)
    level_bytes = [(policy.upload_bytes or payload_bytes(r)) + DESCRIPTOR_OVERHEAD_BYTES
                   for r in levels]
    nbytes = np.where(reused, REUSE_DELTA_BYTES, 0)
    nbytes[up] = np.array(level_bytes, dtype=np.int64)[level]
    u = keyed_uniforms(cfg.seed, frame.index, ids[cav[up]], obj[up], _S_TIME, n=3)
    picked = samples[buckets[:, None], level[:, None], np.arange(3),
                     sample_index(u, sizes[buckets, level][:, None])]
    # bincount adds each CAV's times in row order, from 0.0
    vehicle_ms = np.bincount(cav[up], weights=picked[:, 1], minlength=len(ids))
    server_ms = np.bincount(cav[up], weights=picked[:, 2], minlength=len(ids))
    if policy.upload_bytes is None and cfg.dataset_mode == "codec":
        seeds = (keyed_uniforms(cfg.seed, frame.index, ids[cav[up]], obj[up], _S_CODEC, n=2)
                 * 2**31).astype(np.int64).tolist()
        for r, (surf_seed, dec_seed) in zip(up.tolist(), seeds):
            box = Bbox3(center=frame.centers[src[r]], extent=frame.extents[src[r]])
            box.yaw = float(frame.yaws[src[r]])  # wrapped already; a second wrap can move it
            loss[r] = _codec_loss(box, positions[cav[r]], int(counts[r]), int(rf[r]), cfg.beta,
                                  surf_seed, dec_seed)
    elif policy.upload_bytes is None:
        loss[up] = picked[:, 0]
    return nbytes, vehicle_ms, server_ms


def run_frame(frame: TraceFrame, state: RunState, dataset: MeasurementDataset):
    """Simulate one frame; returns (rows, objects, stats, loc_errors).

    The frame is one table of detection pairs ordered by (CAV id, object id),
    held as columns: the CAV's index in id order, the object id, the pair's
    row in the trace frame and the observed position.  Its stages, each
    reading its own ``Policy`` field:
      _pair_table    localization publishes the table
      _selected      the keep mask; the table then holds the pairs sent
      reuse          a delta replaces a row the map holds with geometry
      _rf_decisions  the RF search over the rows that carry geometry
      _charges       bytes, losses, encode and decode ms
    then radio, edge latency, the map commit and the rows.  Every draw is a
    keyed uniform of (seed, frame, CAV id, the object id of a per-object draw,
    stream tag) alone, so a CAV's draws do not depend on the other CAVs of
    its frame.  Only the map commit's scan and the codec chain go per object.
    """
    cfg = state.config
    policy = _POLICY[cfg.policy]
    t, fidx = frame.time_s, frame.index
    ids, positions, charged_ms, cav, obj, src, observed = _pair_table(frame, state)
    loc_errors = row_norms(observed - frame.centers[src, :2])
    detected_pairs, n = len(cav), len(ids)
    selected = _selected(policy, cfg, frame, ids, positions, cav, obj, src)
    # from here on the table holds the pairs that go out
    cav, obj, src, observed = cav[selected], obj[selected], src[selected], observed[selected]
    counts = frame.counts[src]

    # --- reuse against the broadcast map: a hit reuses only geometry, and no RF is read ---
    gmap = state.global_map
    predicted = gmap.predicted_positions(t)  # only the commit changes the map
    map_row = (nearest_rows(predicted, observed, REUSE_POSE_ERROR_M) if policy.reuse
               else np.full(len(cav), -1))
    reused = map_row >= 0
    reused[reused] = gmap.has_geometry[map_row[reused]]
    loss = np.zeros(len(cav))
    loss[reused] = gmap.last_loss[map_row[reused]]

    # --- RF per row, 0 where no latent goes out; then bytes, losses, codec times ---
    sectors = sector_indices(positions, cfg)
    # each CAV's distance to the base station, as np.linalg.norm gives it
    distances = row_norms(positions - np.asarray(cfg.base_station, dtype=np.float64)).tolist()
    rf = np.full(len(cav), max(cfg.rf_set) if policy.rf == "max" else 0)
    infeasible_cavs = (_rf_decisions(rf, state, dataset, fidx, ids, sectors, distances, cav, obj,
                                     counts, reused) if policy.rf == "optimize" else 0)
    rf[reused] = 0
    nbytes, vehicle_ms, server_ms = _charges(policy, cfg, dataset, frame, ids, positions, cav,
                                             obj, src, counts, rf, reused, loss)
    payloads = np.bincount(cav, weights=nbytes, minlength=n)

    # --- radio: only CAVs with data on air share their sector's band; log-normal
    # fading, one factor per CAV (sigma 0 gives exp(0) = 1 exactly) ---
    sector_counts = np.bincount(np.array(sectors)[payloads > 0], minlength=cfg.sectors).tolist()
    z = ndtri(keyed_uniforms(cfg.seed, fidx, ids, _S_NET, n=1)[:, 0])
    fading = np.exp(cfg.fading_sigma * z).tolist()
    rates = [uplink_rate(d, max(1, sector_counts[sec]), cfg, fading=f)
             for d, sec, f in zip(distances, sectors, fading)]
    state.prev_rates.update(zip(ids.tolist(), rates))

    # --- edge latency; total: encode, uplink, queue, server, baseline, added in that order ---
    u_base = keyed_uniforms(cfg.seed, fidx, ids, _S_QUEUE, n=len(netsim.MODULE_TIMES_MS))
    b_ms, up_ms, queue_ms = simulate_frame_latency(
        payloads, vehicle_ms, rates, server_ms, cfg.servers, u_base, extra_b_ms=charged_ms)
    total_ms = (vehicle_ms + up_ms + queue_ms + server_ms + b_ms).tolist()
    vehicle_ms = (vehicle_ms + b_ms).tolist()  # encode plus baseline charge

    # --- server-side matching into the global map, in table order ---
    gmap.commit_frame(observed, ~reused, loss, t, predicted)

    # --- rows: a CAV's mean loss is numpy's sum over its rows by their count, as np.mean ---
    bounds = np.searchsorted(cav, np.arange(n + 1)).tolist()
    rf_list = rf.tolist()
    rows = [FrameRow(cav_id=cav_id, frame=fidx, vehicle_ms=v_ms, uplink_ms=u_ms,
                     queue_ms=q_ms, server_ms=s_ms, total_ms=t_ms, bytes=b,
                     loss=float(loss[lo:hi].sum() / (hi - lo)) if hi > lo else 0.0,
                     rfs=tuple(filter(None, rf_list[lo:hi])))  # rf 0: no latent
            for cav_id, lo, hi, v_ms, u_ms, q_ms, s_ms, t_ms, b in zip(
                ids.tolist(), bounds, bounds[1:], vehicle_ms, up_ms.tolist(), queue_ms.tolist(),
                server_ms.tolist(), total_ms, payloads.astype(np.int64).tolist())]
    # the sent-pair table as one record per row; rf 0: no latent (lossless, raw or reuse)
    objects = np.rec.fromarrays(
        [np.full(len(cav), fidx), ids[cav], obj, rf, nbytes, loss, reused],
        names="frame,cav_id,obj_id,rf,bytes,loss,reused")
    stats = FrameStats(
        frame=fidx, detected_pairs=detected_pairs, selected_pairs=len(cav),
        bytes_total=int(payloads.sum()), infeasible_cavs=infeasible_cavs,
        map_size=len(gmap))
    return rows, objects, stats, loc_errors


def _placed(trace, config: RunConfig) -> RunConfig:
    """``config`` with an unset ``base_station`` at the frame-0 CAV centroid,
    10 m up."""
    if config.base_station is not None:
        return config
    poses = trace[0].poses
    return replace(config, base_station=(float(poses[:, 0].mean()),
                                         float(poses[:, 1].mean()), 10.0))


def check_radio(trace, config: RunConfig) -> None:
    """Raise ConfigError unless every uplink rate a run of ``trace`` can draw
    is positive and computable.  A rate falls with the CAV's distance to the
    base station and with the CAVs that share its band, and the fading
    factor is at least exp(sigma * ndtri(2**-53)), at the smallest keyed
    uniform.  So the farthest CAV, sharing its sector with every CAV of the
    largest frame, at that fading, draws the lowest rate, and the nearest
    one so sharing has the highest SNR, which must not overflow."""
    cfg = _placed(trace, config)
    distances = row_norms(np.concatenate([f.poses[:, :3] for f in trace])
                          - np.asarray(cfg.base_station, dtype=np.float64))
    sharers = max(len(f.cav_ids) for f in trace)
    try:
        netsim.uplink_rate(float(distances.min()), sharers, cfg)
        slowest = netsim.uplink_rate(float(distances.max()), sharers, cfg,
                                     fading=math.exp(cfg.fading_sigma * ndtri(2.0**-53)))
    except OverflowError:
        raise ConfigError("bandwidth_hz, carrier_ghz and base_station give an SNR "
                          "too large to compute") from None
    if not slowest > 0.0:
        raise ConfigError(f"bandwidth_hz, carrier_ghz and base_station give a CAV "
                          f"{float(distances.max()):.3g} m from the base station a rate of 0")


def run_simulation(trace, config: RunConfig,
                   dataset: MeasurementDataset | None = None) -> RunResult:
    """Run every frame of ``trace``, a valid one as ``load_trace`` or
    ``generate_trace`` returns it; ``dataset`` defaults to ``load_dataset``.
    An unset ``base_station`` becomes the frame-0 CAV centroid at 10 m
    height, and the result's config holds it."""
    config = _placed(trace, config)
    if dataset is None:
        dataset = load_dataset(config)
    state = RunState(config)
    rows, objects, stats, loc_errors = [], [], [], []
    for frame in trace:
        r, o, s, e = run_frame(frame, state, dataset)
        rows.extend(r)
        objects.append(o)
        stats.append(s)
        loc_errors.append(e)
    return RunResult(config=config, rows=rows, objects=np.concatenate(objects).view(np.recarray),
                     frame_stats=stats, loc_errors=np.concatenate(loc_errors))


# ---------------------------------------------------------------------------
# metrics


def nearest_rank(values, pct: float) -> float | None:
    """Nearest-rank percentile: rank = ceil(p/100 * n) on the sorted values;
    None, a null in summary.json, for no values."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    if not len(ordered):
        return None
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def collect_metrics(result: RunResult) -> dict:
    cfg = result.config
    totals = [r.total_ms for r in result.rows]
    finite = [v for v in totals if math.isfinite(v)]
    objects = result.objects
    # contiguous: a strided field view would sum in other chunks, with other roundoff
    losses = np.ascontiguousarray(objects.loss)
    rfs = objects.rf[objects.rf > 0]
    rf_values, rf_counts = np.unique(rfs, return_counts=True)
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
        "mean_loss": float(np.mean(losses)) if len(losses) else 0.0,
        "selected_fraction": (selected / detected) if detected else 0.0,
        "mean_rf": float(np.mean(rfs)) if len(rfs) else 0.0,
        "rf_histogram": {str(k): v for k, v in zip(rf_values.tolist(), rf_counts.tolist())},
        "bytes_total": total_bytes,
        "bytes_per_frame": total_bytes / frames if frames else 0.0,
        "reused_objects": int(np.count_nonzero(objects.reused)),
        "objects_sent": len(objects),
        "infeasible_cav_frames": sum(s.infeasible_cavs for s in result.frame_stats),
        "loc_error_p50": nearest_rank(result.loc_errors, 50),
        "loc_error_p95": nearest_rank(result.loc_errors, 95),
        "finite_latency_rows": len(finite),
    }
    return summary


def write_frame_csv(path, rows) -> None:
    joined = {}  # each distinct RF tuple joined once: a fleet's rows repeat them
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in sorted(rows, key=lambda r: (r.frame, r.cav_id)):
            rfs = joined.get(r.rfs)
            if rfs is None:
                rfs = joined[r.rfs] = ";".join([str(v) for v in r.rfs])
            fh.write(f"{r.cav_id},{r.frame},{r.vehicle_ms:.6f},{r.uplink_ms:.6f},"
                     f"{r.queue_ms:.6f},{r.server_ms:.6f},{r.total_ms:.6f},"
                     f"{r.bytes},{r.loss:.6f},{rfs}\n")


def write_summary(path, summary: dict) -> None:
    """Strict JSON, the form of every JSON file the CLI writes: a statistic
    over no values is null, never NaN, and a NaN or infinity raises."""
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
