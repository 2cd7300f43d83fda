"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles (plain loops,
exhaustive enumeration) and does not share code with the package under test.
The exceptions are the routines that array code replaced, kept as they were:
the per-face visibility loop (visible_face_weights over face_geometry, with
the box-frame transform and inside test) and the surface sampler built on
it, the per-pair point-count predictor with its projected_area over that
loop (they share Bbox3), the per-object edge thinning with its sorted
drop loop, the farthest-point walk with one temporary per step, the edge
map as a dict of entries with its predictive match and greedy dedup (it
shares the scalar filter steps and the map constants), the matrix-form
Kalman filter with its array state (it shares the noise constants), the
per-vehicle localizer loop over its objects (it shares the
detector, tracker and maneuver constants, read at call time, the charge
sampler and the row norm, and takes the same keyed uniforms), the per-CAV
RF optimizer loop (it shares the dataset, the truncated-normal sampler, the
draw tags, the module-time table, the perturbation spread and the result
type, and takes the same keyed uniforms; it reads the table and the spread
at call time, as the batch does, so a test that patches one sets both), the
scalar upload time, baseline and fading of a frame (they share the
module-time table and the truncated-normal sampler, and take the same keyed
uniforms), the sector lookup one CAV at a time, and the per-CAV loop over
a frame's encode and decode charges and losses (it shares the dataset and
the count buckets, and takes the same keyed uniforms), and the trace writer
that built each frame's record as nested dicts and lists for ``json.dumps``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from coopsim import control, netsim, tracking
from coopsim.codec import DESCRIPTOR_OVERHEAD_BYTES, bucket_index
from coopsim.control import (
    _TAG_CAV,
    _TAG_SEARCH,
    _TAG_TASK,
    DUAL_STEP,
    LAM0,
    LIDAR_RANGE_M,
    POINT_CAP,
    POINT_DENSITY_K,
    PRIMAL_STEP,
    OptimizeResult,
)
from coopsim.errors import ConfigError, InvalidViewpointError
from coopsim.geometry import Bbox3, PointCloud
from coopsim.sampling import TruncatedNormal, keyed_uniforms
from coopsim.simpipe import DEDUP_DISTANCE_M, MATCH_GATE_M, RETIRE_AFTER_S
from coopsim.tracking import (
    DEFAULT_OBS_NOISE_VAR,
    DEFAULT_PROCESS_NOISE,
    kalman_correct,
    kalman_init,
    kalman_predict,
    row_norms,
)


def brute_chamfer(a, b) -> float:
    """Chamfer distance by explicit double loops over both directions."""

    def mean_min_sq(src, dst):
        total = 0.0
        for p in src:
            best = math.inf
            for q in dst:
                d = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
                if d < best:
                    best = d
            total += best
        return total / len(src)

    return mean_min_sq(a, b) + mean_min_sq(b, a)


def enumerate_emd(a, b) -> float:
    """Exact EMD by trying every bijection; only viable for tiny sets."""
    n = len(a)
    assert n == len(b) and n <= 9
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            total += math.dist(a[i], b[j])
        if total < best:
            best = total
    return best / n


def hungarian_min_cost(cost) -> float:
    """O(n^3) optimal assignment cost via shortest augmenting paths.

    Classic potentials formulation with 1-based virtual row/column 0.
    """
    n = len(cost)
    INF = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row currently matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    total = 0.0
    for j in range(1, n + 1):
        total += cost[p[j] - 1][j - 1]
    return total


def hungarian_emd(a, b) -> float:
    n = len(a)
    cost = [[math.dist(a[i], b[j]) for j in range(n)] for i in range(n)]
    return hungarian_min_cost(cost) / n


def loop_farthest_point_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point walk, one (n, 3) temporary and reduction per step."""
    start = int(np.argmin(((points - points.mean(axis=0)) ** 2).sum(axis=1)))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start
    best = ((points - points[start]) ** 2).sum(axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(best))
        chosen[i] = nxt
        d = ((points - points[nxt]) ** 2).sum(axis=1)
        np.minimum(best, d, out=best)
    return chosen


def fcfs_waits(arrivals, services, servers: int = 1):
    """Queue waits by stepping through a literal event timeline.

    Jobs are taken in the order given (assumed already sorted by arrival).
    """
    free_at = [0.0] * servers
    waits = []
    for arr, srv in zip(arrivals, services):
        k = min(range(servers), key=lambda i: free_at[i])
        start = max(arr, free_at[k])
        waits.append(start - arr)
        free_at[k] = start + srv
    return waits


def nearest_rank_percentile(values, pct: float) -> float:
    """Nearest-rank percentile on a sorted copy, rank = ceil(p/100 * n)."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


N_SUBSPACES = 4


def thin_edges(edges, threshold: float):
    """Drop smallest edges while the remaining sum stays at or above threshold.

    ``edges`` is a list of (value, cav_id).  Equal values are removed larger
    CAV id first, so the outcome is identical on every CAV.  Returns the
    retained list.
    """
    keep = sorted(edges, key=lambda e: (e[0], -e[1]))
    total = 0
    for value, _ in keep:  # left to right: the builtin sum compensates on Python 3.12+
        total += value
    while keep and total - keep[0][0] >= threshold:
        total -= keep[0][0]
        keep = keep[1:]
    return keep


def loop_select_objects(counts_by_cav: dict, threshold: float) -> set:
    """Viewer CAVs retained for one object.

    ``counts_by_cav`` maps cav_id -> per-quadrant predicted counts (length 4).
    Each quadrant is thinned independently; a CAV stays selected if it keeps
    an edge in at least one quadrant.  CAVs predicting zero points contribute
    no edges.
    """
    selected = set()
    for q in range(N_SUBSPACES):
        edges = [(float(c[q]), cav) for cav, c in counts_by_cav.items() if c[q] > 0]
        if not edges:
            continue
        for _, cav in thin_edges(edges, threshold):
            selected.add(cav)
    return selected


def min_feasible_suffix_sum(values, threshold) -> float:
    """Brute force over every suffix of the ascending sort.

    A suffix is feasible when its sum is >= threshold.  Returns the smallest
    feasible suffix sum, or the full sum when no suffix qualifies (in which
    case nothing may be removed).
    """
    ordered = sorted(values)
    best = None
    for i in range(len(ordered) + 1):
        s = sum(ordered[i:])
        if s >= threshold and (best is None or s < best):
            best = s
    return sum(ordered) if best is None else best


# ---------------------------------------------------------------------------
# a frame's upload times, baseline, fading and charges, one CAV at a time


def uplink_ms(payload_bytes: float, rate_bps: float) -> float:
    """One CAV's upload time: nothing to send costs 0, a dead link forever."""
    if payload_bytes <= 0:
        return 0.0
    if rate_bps <= 0:
        return math.inf
    return payload_bytes * 8.0 / rate_bps * 1e3


def position_uplink_rate(position, sharers: int, cfg, fading: float = 1.0) -> float:
    """One CAV's rate from its position, as the radio took it before it
    read the CAV's distance: the 1-d np.linalg.norm of the offset from the
    base station, then Shannon over the CAV's slice of its sector's band."""
    if sharers < 1:
        raise ConfigError(f"sharers must be >= 1, got {sharers}")
    d = float(np.linalg.norm(np.asarray(position, dtype=np.float64).reshape(-1)[:3]
                             - cfg.base_station))
    band = cfg.bandwidth_hz / sharers
    return band * math.log2(1.0 + 10.0 ** (netsim.snr_db(d, band, cfg) / 10.0)) * float(fading)


def sector_index(position, cfg) -> int:
    """Sector id by azimuth around the base station, 0 at +x, counterclockwise."""
    rel = np.asarray(position, dtype=np.float64).reshape(-1)[:2] - cfg.base_station[:2]
    az = math.atan2(rel[1], rel[0]) % (2.0 * math.pi)
    return int(az // (2.0 * math.pi / cfg.sectors)) % cfg.sectors


def sample_module_times_ms(u) -> float:
    """One CAV's baseline from its uniforms ``u``, one per module in table
    order: a scalar inverse-CDF draw per module, summed."""
    total = 0.0
    for (mean, sd), x in zip(netsim.MODULE_TIMES_MS.values(), u):
        total += float(TruncatedNormal.cached(mean, sd).ppf(x))
    return total


def draw_fading(u: float, sigma: float) -> float:
    """One log-normal fading factor from the uniform ``u``; sigma 0 gives 1."""
    return float(np.exp(sigma * ndtri(u))) if sigma else 1.0


def loop_charges(cav_ids, rows, dataset, u) -> tuple:
    """Each CAV's encode and decode sums and each row's loss, one CAV and one
    row at a time, as the accounting loop that the sent table's array
    operations replaced.

    ``rows`` holds the (CAV id, rf, raw point count) of each row that
    carries geometry, in table order, and ``u`` its (loss, encode, decode)
    uniforms; ``cav_ids`` lists the frame's CAVs in id order.  A uniform x
    picks sample min(int(x * n), n - 1) of its row's cell of n.  Returns
    (encode ms per CAV, decode ms per CAV, loss per row).
    """
    vehicle, server, losses = [], [], [0.0] * len(rows)
    for cav_id in cav_ids:
        enc_ms = dec_ms = 0.0
        for r, ((owner, rf, count), draws) in enumerate(zip(rows, u)):
            if owner != cav_id:
                continue
            cell = dataset.cell(rf, bucket_index(count))
            n = cell.shape[1]
            i_loss, i_enc, i_dec = (min(int(x * n), n - 1) for x in draws)
            losses[r] = cell.item(0, i_loss)
            enc_ms += cell.item(1, i_enc)
            dec_ms += cell.item(2, i_dec)
        vehicle.append(enc_ms)
        server.append(dec_ms)
    return vehicle, server, losses


# ---------------------------------------------------------------------------
# RF optimizer, one CAV at a time


def _pick(samples: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.minimum((u * len(samples)).astype(np.int64), len(samples) - 1)
    return samples[idx]


class LoopScenarios:
    """Common-random-number draws for one CAV's RFProblem, built task by task
    from ``dataset`` under the run config ``cfg``."""

    def __init__(self, problem, dataset, cfg):
        self.levels = np.asarray(sorted(cfg.rf_set), dtype=np.int64)
        self.log_levels = np.log2(self.levels)
        s = cfg.mc_samples
        seed, ds = problem.seed, dataset
        k = len(problem.obj_ids)
        nl = len(self.levels)
        self.mean_loss = np.empty((k, nl))
        self.enc_ms = np.empty((k, nl, s))
        self.dec_ms = np.empty((k, nl, s))
        for i, (obj_id, raw_count) in enumerate(zip(problem.obj_ids, problem.raw_counts)):
            u = keyed_uniforms(seed, obj_id, _TAG_TASK, n=2 * s).reshape(2, s)
            bucket = bucket_index(raw_count)
            for j, rf in enumerate(self.levels):
                self.mean_loss[i, j] = ds.mean_loss(rf, bucket)
                self.enc_ms[i, j] = _pick(ds.cell(rf, bucket)[1], u[0])
                self.dec_ms[i, j] = _pick(ds.cell(rf, bucket)[2], u[1])
        modules = list(netsim.MODULE_TIMES_MS.values())
        ub = keyed_uniforms(seed, _TAG_CAV, n=(len(modules) + 1) * s).reshape(-1, s)
        self.b_ms = sum(
            (TruncatedNormal.cached(m, sd).ppf(ub[i]) for i, (m, sd) in enumerate(modules)),
            np.zeros(s))
        z = ndtri(ub[-1])  # the fading's row follows the modules'
        self.rate = problem.rate_bps * np.exp(cfg.rate_sigma * z)
        self.fixed_bytes = problem.fixed_bytes
        self._task_idx = np.arange(k)

    def evaluate_batch(self, x: np.ndarray):
        """(fidelity (D,), latency_s (D, S)) for log2-RF rows ``x`` of shape (D, K)."""
        lx = self.log_levels
        if len(lx) == 1:
            j = np.zeros(x.shape, dtype=np.int64)
            w = np.zeros(x.shape)
        else:
            j = np.clip(np.searchsorted(lx, x, side="right") - 1, 0, len(lx) - 2)
            w = np.clip((x - lx[j]) / (lx[j + 1] - lx[j]), 0.0, 1.0)
        jn = np.minimum(j + 1, len(lx) - 1)
        ti = self._task_idx[None, :]
        w3 = w[:, :, None]
        loss = (1.0 - w) * self.mean_loss[ti, j] + w * self.mean_loss[ti, jn]
        enc = (1.0 - w3) * self.enc_ms[ti, j] + w3 * self.enc_ms[ti, jn]
        dec = (1.0 - w3) * self.dec_ms[ti, j] + w3 * self.dec_ms[ti, jn]
        fidelity = -loss.sum(axis=1)
        payload = (1024.0 / np.exp2(x)) * 4.0 + DESCRIPTOR_OVERHEAD_BYTES
        compute_s = (enc.sum(axis=1) + dec.sum(axis=1)) / 1e3
        with np.errstate(divide="ignore"):
            uplink_s = (payload.sum(axis=1) + self.fixed_bytes)[:, None] * 8.0 / self.rate[None, :]
        latency = compute_s + uplink_s + self.b_ms[None, :] / 1e3
        return fidelity, latency

    def evaluate(self, x: np.ndarray):
        fid, latency = self.evaluate_batch(np.asarray(x)[None, :])
        return float(fid[0]), latency[0]

    def prob_within(self, x: np.ndarray, h_s: float) -> float:
        _, latency = self.evaluate(x)
        return float(np.mean(latency <= h_s))


@dataclass
class LoopResult(OptimizeResult):
    """The batch's result plus the Lagrangian after each inner step of the
    search (only when asked for)."""

    g_trace: list = field(default_factory=list)


def loop_optimize_rf(problem, dataset, cfg, record_g: bool = False,
                     corner: bool = True) -> LoopResult:
    """Primal-dual RF search for one CAV, one numpy call per step.

    Same method as ``coopsim.control.optimize_rf_batch`` for one RFProblem
    under ``dataset`` and the run config ``cfg``; the plane fit here is
    ``np.linalg.lstsq`` on one design matrix at a time.  A feasible
    subproblem first tries its fidelity-best corner (each task at its least
    mean loss, ties to the larger RF) and returns it with lam = 0 where it
    meets the bound; ``corner=False`` skips that and always searches.
    """
    if not problem.obj_ids:
        raise ConfigError("optimize_rf needs at least one task")
    levels = sorted(cfg.rf_set)
    h_s = (cfg.H_ms - cfg.h_margin_ms) / 1e3
    sc = LoopScenarios(problem, dataset, cfg)
    lx = sc.log_levels
    lo, hi = lx[0], lx[-1]
    k = len(problem.obj_ids)

    x_max = np.full(k, hi)
    prob_at_max = sc.prob_within(x_max, h_s)
    if prob_at_max < cfg.p:
        return LoopResult(
            rfs=np.full(k, levels[-1], dtype=np.int64), lam=LAM0,
            prob=prob_at_max, fidelity=sc.evaluate(x_max)[0], infeasible=True)

    if corner:
        best = np.zeros(k, dtype=np.int64)
        for i in range(k):
            for j in range(len(levels)):
                if sc.mean_loss[i, j] <= sc.mean_loss[i, best[i]]:
                    best[i] = j
        xc = lx[best]
        prob_c = sc.prob_within(xc, h_s)
        if prob_c >= cfg.p:
            return LoopResult(rfs=np.asarray(levels, dtype=np.int64)[best], lam=0.0,
                              prob=prob_c, fidelity=sc.evaluate(xc)[0], infeasible=False)

    x = np.full(k, 0.5 * (lo + hi))
    x_best, fid_best = x_max, sc.evaluate(x_max)[0]
    lam = LAM0
    g_trace = []
    design = np.ones((cfg.deviations, k + 1))
    for it in range(cfg.outer_iters):
        # task j's perturbation of deviation d at step i is entry i * deviations + d
        # of its keyed draw of the iteration
        u = keyed_uniforms(problem.seed, it, np.arange(k), _TAG_SEARCH,
                           n=cfg.inner_iters * cfg.deviations)
        noise = control.DEVIATION_SD * ndtri(u).reshape(k, cfg.inner_iters, cfg.deviations)
        for step in range(cfg.inner_iters):
            dev = np.clip(x[None, :] + noise[:, step].T, lo, hi)
            fid, latency = sc.evaluate_batch(dev)
            probs = np.mean(latency <= h_s, axis=1)
            g = fid + lam * (probs - cfg.p)
            design[:, 1:] = dev
            coef, *_ = np.linalg.lstsq(design, g, rcond=None)
            x = np.clip(x + PRIMAL_STEP * coef[1:], lo, hi)
            if record_g:
                f_cur, lat_cur = sc.evaluate(x)
                g_trace.append(f_cur + lam * (np.mean(lat_cur <= h_s) - cfg.p))
        prob = sc.prob_within(x, h_s)
        if prob >= cfg.p:
            f_cur = sc.evaluate(x)[0]
            if f_cur > fid_best:
                x_best, fid_best = x.copy(), f_cur
        else:
            x = 0.5 * (x + x_best)
        lam = max(0.0, lam - DUAL_STEP * (prob - cfg.p))

    if sc.prob_within(x, h_s) < cfg.p:
        x = x_best

    idx = np.searchsorted(lx, x - 1e-9, side="left")
    rfs = np.asarray(levels, dtype=np.int64)[np.minimum(idx, len(levels) - 1)]
    xq = np.log2(rfs)
    prob = sc.prob_within(xq, h_s)
    fid = sc.evaluate(xq)[0]
    return LoopResult(rfs=rfs, lam=lam, prob=prob, fidelity=fid,
                      infeasible=False, g_trace=g_trace)


# ---------------------------------------------------------------------------
# one vehicle's localizer as a loop over its objects, replaced by the fleet pass


@dataclass
class TrackEntry:
    maneuver: bool = False
    last_seen: float = 0.0


class LoopLocalizer:
    """One vehicle's mode latch and its tracks, an object id -> TrackEntry dict."""

    def __init__(self):
        self.detecting = True  # nothing to track before the first slot
        self.tracks: dict = {}

    def step(self, t: float, truth: dict, u: dict, u_charge: float):
        """(observations, charged_ms, detection_charged) of one slot.

        ``truth`` maps object id to the true position and ``u`` to its six
        uniforms (miss, maneuver, two detector axes, two tracker axes);
        ``observations`` maps each published id to its position.
        """
        tracks = self.tracks
        det_axis = tracking.SIGMA_DET * tracking._AXIS_FROM_MEAN
        base_err = tracking.tracker_base_error()
        det_out: dict = {}
        trk_out: dict = {}
        gaps = []  # detector minus tracker output, per object with both
        for obj_id in sorted(truth):
            pos = np.asarray(truth[obj_id], dtype=np.float64).reshape(2)
            draws = u[obj_id]
            if not draws[0] < tracking.MISS_PROB:
                det_out[obj_id] = pos + det_axis * ndtri(draws[2:4])
            entry = tracks.get(obj_id)
            if entry is not None:
                entry.maneuver = draws[1] < (tracking.MANEUVER_PERSIST if entry.maneuver
                                             else tracking.MANEUVER_ENTER)
                err_mean = base_err * (tracking.MANEUVER_ERROR_RATIO if entry.maneuver else 1.0)
                axis = err_mean * tracking._AXIS_FROM_MEAN
                trk_out[obj_id] = pos + axis * ndtri(draws[4:6])
                if obj_id in det_out:
                    gaps.append(det_out[obj_id] - trk_out[obj_id])
        rle_max = float(row_norms(np.reshape(gaps, (-1, 2))).max()) if gaps else 0.0

        detection_charged = self.detecting
        if detection_charged:
            observations = det_out
            charge = TruncatedNormal.cached(tracking.DET_TIME_MEAN_MS, tracking.DET_TIME_SD_MS)
        else:
            observations = dict(trk_out)
            for obj_id, pos in det_out.items():
                observations.setdefault(obj_id, pos)  # no track yet: ride on the detector
            charge = TruncatedNormal.cached(tracking.TRK_TIME_MEAN_MS, tracking.TRK_TIME_SD_MS)
        self.detecting = not rle_max < tracking.RLE_THRESHOLD_M

        for obj_id in observations:
            tracks.setdefault(obj_id, TrackEntry()).last_seen = t
        for obj_id in [k for k, e in tracks.items() if t - e.last_seen > tracking.TRACK_RETIRE_S]:
            del tracks[obj_id]
        return observations, charge.ppf(u_charge), detection_charged


# ---------------------------------------------------------------------------
# the Kalman filter in matrix form, replaced by scalar updates of one block

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


@dataclass
class KalmanState:
    """Position and velocity [X, Y, dX, dY], their 4x4 covariance, and time."""

    x: np.ndarray
    p: np.ndarray
    time: float

    @property
    def position(self) -> np.ndarray:
        return self.x[:2]


def kalman_floats(state: KalmanState) -> tuple:
    """The state as the package's filter row (x, y, vx, vy, a, b, c, time)."""
    p = state.p
    return (*state.x.tolist(), p.item(0, 0), p.item(0, 2), p.item(2, 2), state.time)


def kalman_state(floats) -> KalmanState:
    """The KalmanState of a filter row."""
    x, y, vx, vy, a, b, c, time = floats
    p = np.array([a, 0.0, b, 0.0, 0.0, a, 0.0, b, b, 0.0, c, 0.0, 0.0, b, 0.0, c])
    return KalmanState(x=np.array([x, y, vx, vy]), p=p.reshape(4, 4), time=time)


def float_kalman_predict(state: KalmanState, dt: float) -> KalmanState:
    """The package's predict step on a KalmanState."""
    return kalman_state(kalman_predict(kalman_floats(state), dt))


def float_kalman_correct(state: KalmanState, z,
                         r_obs: float = DEFAULT_OBS_NOISE_VAR) -> KalmanState:
    """The package's correct step on a KalmanState."""
    return kalman_state(kalman_correct(kalman_floats(state), z, r_obs))


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    return f


def process_noise(dt: float, q: float = DEFAULT_PROCESS_NOISE) -> np.ndarray:
    """White-acceleration noise integrated over dt."""
    a = dt**3 / 3.0
    b = dt**2 / 2.0
    return q * np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, dt, 0.0],
            [0.0, b, 0.0, dt],
        ]
    )


def matrix_kalman_predict(state: KalmanState, dt: float) -> KalmanState:
    if dt < 0:
        raise ValueError(f"cannot predict backwards, dt={dt}")
    f = transition_matrix(dt)
    x = f @ state.x
    p = f @ state.p @ f.T + process_noise(dt)
    return KalmanState(x=x, p=p, time=state.time + dt)


def matrix_kalman_correct(state: KalmanState, z,
                          r_obs: float = DEFAULT_OBS_NOISE_VAR) -> KalmanState:
    z = np.asarray(z, dtype=np.float64).reshape(2)
    r = r_obs * np.eye(2)
    s = _H @ state.p @ _H.T + r
    k = state.p @ _H.T @ np.linalg.inv(s)
    x = state.x + k @ (z - _H @ state.x)
    # Joseph form keeps the covariance symmetric PSD under roundoff
    ikh = np.eye(4) - k @ _H
    p = ikh @ state.p @ ikh.T + k @ r @ k.T
    return KalmanState(x=x, p=0.5 * (p + p.T), time=state.time)


# ---------------------------------------------------------------------------
# the per-face visibility loop and surface sampler that face_weights replaced

# (axis index, sign): length faces, width faces, height faces
FACES = [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)]


def to_box(bbox: Bbox3, points) -> np.ndarray:
    """Points expressed in the box-aligned frame centered on the box."""
    return (np.asarray(points, dtype=np.float64) - bbox.center) @ bbox.axes().T


def contains(bbox: Bbox3, points) -> np.ndarray:
    local = to_box(bbox, np.atleast_2d(points))
    return (np.abs(local) <= bbox.extent / 2.0 + 1e-12).all(axis=1)


def face_geometry(bbox: Bbox3):
    """Per face: (unit outward normal, face center, area), in the parent frame."""
    axes = bbox.axes()
    ext = bbox.extent
    out = []
    for axis, sign in FACES:
        normal = sign * axes[axis]
        center = bbox.center + normal * (ext[axis] / 2.0)
        others = [i for i in range(3) if i != axis]
        area = float(ext[others[0]] * ext[others[1]])
        out.append((normal, center, area))
    return out


def visible_face_weights(bbox: Bbox3, viewpoint) -> np.ndarray:
    """Projected-area weight per face; zero for faces turned away.

    A face counts as visible when the viewpoint lies beyond its plane.  The
    weight is the face area times the cosine between the outward normal and
    the direction from the box center to the viewpoint.
    """
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    if bool(contains(bbox, vp)[0]):
        raise InvalidViewpointError(f"viewpoint {vp} lies inside the box")
    view_dir = vp - bbox.center
    view_dir = view_dir / np.linalg.norm(view_dir)
    weights = np.zeros(len(FACES))
    for i, (normal, center, area) in enumerate(face_geometry(bbox)):
        if float(normal @ (vp - center)) <= 0.0:
            continue
        weights[i] = area * max(0.0, float(normal @ view_dir))
    return weights


def loop_sample_visible_surface(bbox: Bbox3, viewpoint, n: int, seed: int) -> PointCloud:
    """n points on the visible faces, spread by visible_face_weights, one
    face at a time; with plain areas if no face weighs anything."""
    weights = visible_face_weights(bbox, viewpoint)
    if weights.sum() <= 0.0:
        weights = np.array([a for _, _, a in face_geometry(bbox)])
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, weights / weights.sum())
    axes = bbox.axes()
    chunks = []
    for (axis, _), (_, center, _), cnt in zip(FACES, face_geometry(bbox), counts):
        if cnt == 0:
            continue
        others = [k for k in range(3) if k != axis]
        uv = rng.uniform(-0.5, 0.5, size=(cnt, 2))
        chunks.append(center
                      + np.outer(uv[:, 0] * bbox.extent[others[0]], axes[others[0]])
                      + np.outer(uv[:, 1] * bbox.extent[others[1]], axes[others[1]]))
    return PointCloud(np.concatenate(chunks, axis=0))


# ---------------------------------------------------------------------------
# per-pair point counts and dict-based map matching, replaced by array code

_QUADRANT_SIGNS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64)


def projected_area(bbox: Bbox3, viewpoint: np.ndarray) -> float:
    """Viewer-facing projected area of the box, in square meters."""
    return float(visible_face_weights(bbox, viewpoint).sum())


def facing_quadrants(bbox: Bbox3, viewpoint) -> list:
    """Quadrants whose outward corner direction faces the viewer; all four
    when the viewpoint is straight above or below the center."""
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    local = to_box(bbox, vp[None, :])[0][:2]
    scores = _QUADRANT_SIGNS @ local
    facing = [i for i, s in enumerate(scores) if s > 1e-12]
    return facing if facing else list(range(4))


def predict_visible_points(bbox: Bbox3, viewer, k: float = POINT_DENSITY_K,
                           cap: int = POINT_CAP,
                           max_range_m: float = LIDAR_RANGE_M) -> int:
    """Expected LiDAR return count from a viewer: k * projected_area / d^2."""
    vp = np.asarray(viewer, dtype=np.float64).reshape(3)
    d = float(np.linalg.norm(vp - bbox.center))
    if d > max_range_m:
        return 0
    area = projected_area(bbox, vp)
    return int(np.clip(k * area / (d * d), 0.0, float(cap)))


def predict_subspace_counts(bbox: Bbox3, viewer, **kwargs) -> np.ndarray:
    """Predicted count split equally across the quadrants facing the viewer."""
    total = predict_visible_points(bbox, viewer, **kwargs)
    out = np.zeros(N_SUBSPACES)
    if total <= 0:
        return out
    quads = facing_quadrants(bbox, viewer)
    out[quads] = total / len(quads)
    return out


def predictive_match(position, predicted: dict, gate: float = 3.0):
    """Nearest predicted track within the gate; ties go to the smallest id."""
    pos = np.asarray(position, dtype=np.float64).reshape(2)
    best_id, best_d2 = None, gate * gate
    for track_id in sorted(predicted):
        p = np.asarray(predicted[track_id], dtype=np.float64).reshape(2)
        d2 = float(((p - pos) ** 2).sum())
        if d2 < best_d2:
            best_id, best_d2 = track_id, d2
    return best_id


def greedy_dedup(positions: dict, dedup_m: float = DEDUP_DISTANCE_M) -> set:
    """Ids dropped by scanning ids in order: each surviving id drops every
    later surviving id closer than dedup_m."""
    gids = sorted(positions)
    drop = set()
    for i, a in enumerate(gids):
        if a in drop:
            continue
        pa = np.asarray(positions[a], dtype=np.float64)
        for b in gids[i + 1:]:
            if b in drop:
                continue
            if float(np.linalg.norm(pa - np.asarray(positions[b]))) < dedup_m:
                drop.add(b)
    return drop


@dataclass
class MapEntry:
    kalman: KalmanState
    last_seen: float
    has_geometry: bool = False
    last_loss: float = 0.0


class DictGlobalMap:
    """The global map as it matched before: a dict of entries keyed by global
    id, per-entry dict scans, greedy pairwise dedup, one Kalman prediction
    per entry for the match positions.  ``predict`` and ``correct`` are the
    filter steps it runs."""

    predict = staticmethod(float_kalman_predict)
    correct = staticmethod(float_kalman_correct)

    def __init__(self):
        self.entries: dict = {}
        self._next_id = 0

    def _predictions(self, t: float) -> dict:
        out = {}
        for gid, entry in self.entries.items():
            dt = t - entry.kalman.time
            state = self.predict(entry.kalman, dt) if dt > 0 else entry.kalman
            out[gid] = state.position
        return out

    def predicted_positions(self, t: float):
        """Each entry's predicted position at ``t``, (n, 2), in id order."""
        return np.reshape(list(self._predictions(t).values()), (-1, 2))

    def commit_frame(self, items, t: float):
        preds = self._predictions(t)
        gids = []
        for pos, has_geom, loss in items:
            gid = predictive_match(pos, preds, MATCH_GATE_M)
            if gid is None:
                gid = self._next_id
                self._next_id += 1
                self.entries[gid] = MapEntry(kalman=kalman_state(kalman_init(pos, t)),
                                             last_seen=t)
            else:
                entry = self.entries[gid]
                dt = t - entry.kalman.time
                if dt > 0:
                    entry.kalman = self.predict(entry.kalman, dt)
                entry.kalman = self.correct(entry.kalman, pos)
                entry.last_seen = t
            entry = self.entries[gid]
            if has_geom:
                entry.has_geometry = True
                entry.last_loss = loss
            preds[gid] = entry.kalman.position
            gids.append(gid)
        positions = {gid: e.kalman.position for gid, e in self.entries.items()}
        for gid in greedy_dedup(positions):
            del self.entries[gid]
        for gid in [g for g, e in self.entries.items() if t - e.last_seen > RETIRE_AFTER_S]:
            del self.entries[gid]
        return gids

    def __len__(self):
        return len(self.entries)


class MatrixFilterMap(DictGlobalMap):
    """The dict map on the matrix-form Kalman filter."""

    predict = staticmethod(matrix_kalman_predict)
    correct = staticmethod(matrix_kalman_correct)


def frame_record(frame) -> dict:
    """A trace frame as the dict of its JSON line, built from the frame's lists."""
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


def dumps_trace(frames) -> str:
    """The trace file's text, one ``json.dumps`` of each frame's record per line."""
    return "".join(json.dumps(frame_record(frame), sort_keys=True, separators=(",", ":"))
                   + "\n" for frame in frames)
