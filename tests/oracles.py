"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles (plain loops,
exhaustive enumeration) and does not share code with the package under test.
The exceptions are the routines that array code replaced, kept as they were:
the per-pair point-count predictor with its projected_area (it shares Bbox3
and visible_face_weights), the farthest-point walk with one temporary per
step, the dict-based predictive match and greedy map dedup, the matrix-form
Kalman filter (it shares KalmanState and the noise constants), and the
per-CAV RF optimizer loop (it shares the dataset, the truncated-normal
sampler, the random-stream tags, the module-time table, the perturbation
spread and the result type; it reads the last two at call time, as the
batch does, so a test that patches one sets both).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from coopsim import control
from coopsim.codec import DESCRIPTOR_OVERHEAD_BYTES, bucket_index
from coopsim.control import (
    _TAG_B,
    _TAG_FADING,
    DUAL_STEP,
    LAM0,
    LIDAR_RANGE_M,
    N_SUBSPACES,
    POINT_CAP,
    POINT_DENSITY_K,
    PRIMAL_STEP,
    OptimizeResult,
)
from coopsim.errors import ConfigError
from coopsim.geometry import Bbox3, visible_face_weights
from coopsim.sampling import TruncatedNormal
from coopsim.simpipe import DEDUP_DISTANCE_M, MATCH_GATE_M, GlobalMap, MapEntry
from coopsim.tracking import (
    DEFAULT_OBS_NOISE_VAR,
    DEFAULT_PROCESS_NOISE,
    KalmanState,
    kalman_correct,
    kalman_init,
    kalman_predict,
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
            rng = np.random.default_rng([seed, obj_id])
            u = rng.random((2, s))
            bucket = bucket_index(raw_count)
            for j, rf in enumerate(self.levels):
                self.mean_loss[i, j] = ds.mean_loss(rf, bucket)
                self.enc_ms[i, j] = _pick(ds.enc_time_samples(rf, bucket), u[0])
                self.dec_ms[i, j] = _pick(ds.dec_time_samples(rf, bucket), u[1])
        modules = list(control.MODULE_TIMES_MS.values())
        ub = np.random.default_rng([seed, _TAG_B]).random((len(modules), s))
        self.b_ms = sum(
            TruncatedNormal.cached(m, sd).ppf(ub[i])
            for i, (m, sd) in enumerate(modules)
        )
        z = np.random.default_rng([seed, _TAG_FADING]).standard_normal(s)
        self.rate = problem.rate_bps * np.exp(cfg.rate_sigma * z)
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
            uplink_s = payload.sum(axis=1)[:, None] * 8.0 / self.rate[None, :]
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
    """The batch's result plus the loop's per-step traces: the multiplier and
    Prob(latency <= H) after each outer iteration, and the Lagrangian after
    each inner step (only when asked for)."""

    lam_trace: list = field(default_factory=list)
    prob_trace: list = field(default_factory=list)
    g_trace: list = field(default_factory=list)


def loop_optimize_rf(problem, dataset, cfg, record_g: bool = False) -> LoopResult:
    """Primal-dual RF search for one CAV, one numpy call per step.

    Same method as ``coopsim.control.optimize_rf_batch`` for one RFProblem
    under ``dataset`` and the run config ``cfg``; the plane fit here is
    ``np.linalg.lstsq`` on one design matrix at a time.
    """
    if not problem.obj_ids:
        raise ConfigError("optimize_rf needs at least one task")
    levels = sorted(cfg.rf_set)
    h_s = (cfg.H_ms - cfg.h_margin_ms) / 1e3
    sc = LoopScenarios(problem, dataset, cfg)
    lx = sc.log_levels
    lo, hi = lx[0], lx[-1]
    k = len(problem.obj_ids)
    rng = np.random.default_rng([problem.seed, 1 << 21])

    x_max = np.full(k, hi)
    prob_at_max = sc.prob_within(x_max, h_s)
    if prob_at_max < cfg.p:
        return LoopResult(
            rfs=np.full(k, levels[-1], dtype=np.int64), lam=LAM0,
            prob=prob_at_max, fidelity=sc.evaluate(x_max)[0], infeasible=True,
            lam_trace=[LAM0], prob_trace=[prob_at_max])

    x = np.full(k, 0.5 * (lo + hi))
    x_best, fid_best = x_max, sc.evaluate(x_max)[0]
    lam = LAM0
    lam_trace, prob_trace, g_trace = [], [], []
    design = np.ones((cfg.deviations, k + 1))
    for _ in range(cfg.outer_iters):
        for _ in range(cfg.inner_iters):
            dev = x[None, :] + rng.normal(0.0, control.DEVIATION_SD, size=(cfg.deviations, k))
            dev = np.clip(dev, lo, hi)
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
        lam_trace.append(lam)
        prob_trace.append(prob)

    if sc.prob_within(x, h_s) < cfg.p:
        x = x_best

    idx = np.searchsorted(lx, x - 1e-9, side="left")
    rfs = np.asarray(levels, dtype=np.int64)[np.minimum(idx, len(levels) - 1)]
    xq = np.log2(rfs)
    prob = sc.prob_within(xq, h_s)
    fid = sc.evaluate(xq)[0]
    return LoopResult(rfs=rfs, lam=lam, prob=prob, fidelity=fid,
                      infeasible=False, lam_trace=lam_trace,
                      prob_trace=prob_trace, g_trace=g_trace)


# ---------------------------------------------------------------------------
# the Kalman filter in matrix form, replaced by scalar updates of one block

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


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
# per-pair point counts and dict-based map matching, replaced by array code

_QUADRANT_SIGNS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64)


def projected_area(bbox: Bbox3, viewpoint: np.ndarray) -> float:
    """Viewer-facing projected area of the box, in square meters."""
    return float(visible_face_weights(bbox, viewpoint).sum())


def facing_quadrants(bbox: Bbox3, viewpoint) -> list:
    """Quadrants whose outward corner direction faces the viewer; all four
    when the viewpoint is straight above or below the center."""
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    local = bbox.to_box(vp[None, :])[0][:2]
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


class DictGlobalMap(GlobalMap):
    """The global map as it matched before: per-entry dict scans, greedy
    pairwise dedup, one Kalman prediction per entry for the match positions.
    ``predict`` and ``correct`` are the filter steps it runs."""

    predict = staticmethod(kalman_predict)
    correct = staticmethod(kalman_correct)

    def _predictions(self, t: float) -> dict:
        out = {}
        for gid, entry in self.entries.items():
            dt = t - entry.kalman.time
            state = self.predict(entry.kalman, dt) if dt > 0 else entry.kalman
            out[gid] = state.position
        return out

    def predicted_positions(self, t: float):
        preds = self._predictions(t)
        return (np.array(list(preds), dtype=np.int64),
                np.reshape(list(preds.values()), (-1, 2)))

    def commit_frame(self, items, t: float):
        preds = self._predictions(t)
        gids = []
        for pos, has_geom, loss in items:
            gid = predictive_match(pos, preds, MATCH_GATE_M)
            if gid is None:
                gid = self._next_id
                self._next_id += 1
                self.entries[gid] = MapEntry(kalman=kalman_init(pos, t), last_seen=t)
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
        self._retire(t)
        return gids


class MatrixFilterMap(DictGlobalMap):
    """The dict map on the matrix-form Kalman filter."""

    predict = staticmethod(matrix_kalman_predict)
    correct = staticmethod(matrix_kalman_correct)
