"""Trajectory filtering and the detector/tracker localization hybrid.

The Kalman filter, used by the edge map, tracks ground-plane position and
velocity [X, Y, dX, dY] under a constant-velocity model.  Height is not
filtered; object z comes from the box geometry.

Localization runs both an oracle detector (ground truth plus configured
noise) and a tracker.  Per slot the gap between the two, the relative
localization error (RLE), decides which module's output is charged and
published in the next slot: small gaps let the cheap tracker run, large gaps
fall back to the expensive detector.  The detector always runs in the
background so the gap can be measured; only the active module's compute time
is charged.

The tracker's published positions are modeled as an error process with a
nominal state and a short-lived degraded state (hard maneuvers break the
constant-velocity assumption in bursts).  SIGMA_TRK sets the tracker's
overall mean Euclidean error across both states; the split between the states
is controlled by the MANEUVER_* constants.  A vehicle's track of an object
therefore holds only that it exists, its maneuver state and when the object
was last published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .sampling import TruncatedNormal

# mean Euclidean error of 2-d isotropic noise = sd * sqrt(pi / 2)
_AXIS_FROM_MEAN = math.sqrt(2.0 / math.pi)

DEFAULT_OBS_NOISE_VAR = 0.05  # m^2, measurement noise on each position axis
DEFAULT_PROCESS_NOISE = 1.0  # m^2/s^3, white-acceleration intensity
INIT_VEL_VAR = 25.0  # (m/s)^2, a fresh track's velocity prior
TRACK_RETIRE_S = 2.0  # a vehicle drops a track unpublished for longer


# ---------------------------------------------------------------------------
# constant-velocity Kalman filter


def kalman_init(position, t: float) -> tuple:
    """Fresh track: measured position, zero velocity, loose velocity prior.

    A filter state is the eight floats (x, y, vx, vy, a, b, c, time): the
    position and velocity [X, Y, dX, dY], the 4x4 covariance as one scalar
    block, and the time.  The covariance always has one shape: the two axes
    never correlate, and each axis holds the same (position, velocity) block
    [[a, b], [b, c]].  This prior, the white-acceleration process noise and
    the isotropic observation noise all keep that shape, so the filter
    steps update (a, b, c) as scalars.
    """
    x, y = position
    return (float(x), float(y), 0.0, 0.0, DEFAULT_OBS_NOISE_VAR, 0.0, INIT_VEL_VAR, float(t))


def kalman_predict(state, dt: float) -> tuple:
    """Constant-velocity step with white-acceleration noise integrated over dt."""
    if dt < 0:
        raise ValueError(f"cannot predict backwards, dt={dt}")
    x, y, vx, vy, a, b, c, time = state
    q = DEFAULT_PROCESS_NOISE
    return (x + dt * vx, y + dt * vy, vx, vy,
            a + 2.0 * dt * b + dt * dt * c + q * (dt**3 / 3.0),
            b + dt * c + q * (dt**2 / 2.0), c + q * dt, time + dt)


def kalman_correct(state, z, r_obs: float = DEFAULT_OBS_NOISE_VAR) -> tuple:
    """Fold in a position measurement with variance ``r_obs`` on each axis.

    Both axes share the gain k = (a, b) / (a + r_obs).  The covariance takes
    the Joseph form (I - kH) P (I - kH)^T + r_obs k k^T per axis, which keeps
    it symmetric positive semi-definite under roundoff.
    """
    x, y, vx, vy, a, b, c, time = state
    zx, zy = z
    s = a + r_obs
    k1, k2 = a / s, b / s
    ex, ey = zx - x, zy - y
    m = 1.0 - k1
    return (x + k1 * ex, y + k1 * ey, vx + k2 * ex, vy + k2 * ey,
            m * m * a + k1 * k1 * r_obs,
            m * (b - k2 * a) + k1 * k2 * r_obs,
            k2 * k2 * a - 2.0 * k2 * b + c + k2 * k2 * r_obs, time)


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``d``, bit for bit ``np.linalg.norm(row)``.

    The stacked matmul takes the same dot product as the 1-d norm; the
    plain sqrt(dx*dx + dy*dy) rounds differently on about 8% of offsets.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def nearest_rows(points, queries, gate: float) -> np.ndarray:
    """Per query, the row of the nearest point strictly within the gate, else -1.

    ``points`` is (rows, 2) and ``queries`` (Q, 2).  Squared distances are
    dx*dx + dy*dy; ties go to the first row, so points held in id order
    break ties toward the smallest id.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 2)
    if not len(pts):
        return np.full(len(q), -1, dtype=np.int64)
    dx = pts[None, :, 0] - q[:, 0, None]
    dy = pts[None, :, 1] - q[:, 1, None]
    d2 = dx * dx + dy * dy
    best = d2.argmin(axis=1)
    return np.where(d2[np.arange(len(q)), best] < gate * gate, best, -1)


# ---------------------------------------------------------------------------
# hybrid localization


# the oracle detector and the tracker; module constants, read at each step
SIGMA_DET = 0.07  # mean Euclidean detector error, m
MISS_PROB = 0.02
DET_TIME_MEAN_MS = 26.41
DET_TIME_SD_MS = 4.73
SIGMA_TRK = 0.12  # mean Euclidean tracker error across states, m
TRK_TIME_MEAN_MS = 0.73
TRK_TIME_SD_MS = 0.71
# degraded-state (maneuver) process for the tracker error
MANEUVER_ENTER = 0.0105
MANEUVER_PERSIST = 0.8
MANEUVER_ERROR_RATIO = 8.0
# an RLE at or above this, m, latches the detector for the next slot
RLE_THRESHOLD_M = 0.5


def tracker_base_error() -> float:
    """Nominal-state mean error such that the mixture mean is SIGMA_TRK.

    The maneuver chain spends MANEUVER_ENTER / (MANEUVER_ENTER + leave) of
    its time degraded, where leave = 1 - MANEUVER_PERSIST.
    """
    pi_b = MANEUVER_ENTER / (MANEUVER_ENTER + (1.0 - MANEUVER_PERSIST))
    return SIGMA_TRK / ((1.0 - pi_b) + pi_b * MANEUVER_ERROR_RATIO)


@dataclass
class LocalizeResult:
    published: np.ndarray  # (P,) bool
    observed: np.ndarray  # (P, 2) published positions; unpublished rows hold no meaning
    charged_ms: np.ndarray  # (C,)
    detection_charged: np.ndarray  # (C,) bool


class HybridLocalizer:
    """The fleet's localizers: ``detecting``, each vehicle's mode latch by
    id, and the tracks as (vehicle, object) rows sorted by both ids:
    ``track_cav``, ``track_obj``, ``maneuver`` and ``last_seen``."""

    def __init__(self):
        self.detecting: dict = {}
        self.track_cav = np.zeros(0, dtype=np.int64)
        self.track_obj = np.zeros(0, dtype=np.int64)
        self.maneuver = np.zeros(0, dtype=bool)
        self.last_seen = np.zeros(0)

    def localize(self, t: float, cav_ids, pair_cav, obj_ids, truth, u_pair,
                 u_cav) -> LocalizeResult:
        """One localization slot for every CAV of ``cav_ids`` (ascending).

        Pair k, each (CAV, object) once, is CAV row ``pair_cav[k]`` seeing
        ``obj_ids[k]`` at ``truth[k]``, with uniforms ``u_pair[k]`` (miss,
        maneuver, detector x, y, tracker x, y); CAV c's charge draws
        ``u_cav[c]``.  A CAV publishes and charges its mode's module, then
        latches the next mode from its RLE over objects both detected and
        tracked.  Untracked objects publish the detector output; tracked ones
        step the maneuver chain.  Published pairs are seen at ``t``, new ones
        opening a track; only a stepped CAV's tracks unseen for over
        TRACK_RETIRE_S retire.  A vehicle new to the fleet boots in detection.
        """
        detecting = np.array([self.detecting.get(c, True) for c in cav_ids.tolist()], dtype=bool)

        # each pair's track row, or -1: a stable sort puts a track just before its pair
        n_tracks = len(self.track_cav)
        every_cav = np.concatenate([self.track_cav, cav_ids[pair_cav]])
        every_obj = np.concatenate([self.track_obj, obj_ids])
        order = np.lexsort((every_obj, every_cav))
        twin = np.flatnonzero((every_cav[order[1:]] == every_cav[order[:-1]])
                              & (every_obj[order[1:]] == every_obj[order[:-1]]))
        row = np.full(len(obj_ids), -1)
        row[order[twin + 1] - n_tracks] = order[twin]
        at = np.flatnonzero(row >= 0)  # the tracked pairs
        rows = row[at]

        detected = ~(u_pair[:, 0] < MISS_PROB)
        observed = truth + SIGMA_DET * _AXIS_FROM_MEAN * ndtri(u_pair[:, 2:4])
        maneuver = u_pair[at, 1] < np.where(self.maneuver[rows], MANEUVER_PERSIST, MANEUVER_ENTER)
        axis = tracker_base_error() * np.where(maneuver, MANEUVER_ERROR_RATIO, 1.0) \
            * _AXIS_FROM_MEAN
        trk = truth[at] + axis[:, None] * ndtri(u_pair[at, 4:6])
        both = detected[at]
        rle = np.zeros(len(cav_ids))
        np.maximum.at(rle, pair_cav[at[both]], row_norms(observed[at[both]] - trk[both]))

        # tracking mode publishes the tracker wherever a track exists
        by_tracker = ~detecting[pair_cav[at]]
        observed[at[by_tracker]] = trk[by_tracker]
        published = detected.copy()
        published[at[by_tracker]] = True
        charged = np.where(detecting,
                           TruncatedNormal.cached(DET_TIME_MEAN_MS, DET_TIME_SD_MS).ppf(u_cav),
                           TruncatedNormal.cached(TRK_TIME_MEAN_MS, TRK_TIME_SD_MS).ppf(u_cav))

        self.detecting.update(zip(cav_ids.tolist(), (~(rle < RLE_THRESHOLD_M)).tolist()))

        # old tracks and opened pairs in sorted order, less a stepped CAV's stale ones
        maneuvers = np.concatenate([self.maneuver, np.zeros(len(obj_ids), dtype=bool)])
        maneuvers[rows] = maneuver
        seen = np.concatenate([self.last_seen, np.full(len(obj_ids), t)])
        seen[rows[published[at]]] = t
        kept = order[np.concatenate([np.ones(n_tracks, dtype=bool), published & (row < 0)])[order]]
        kept = kept[~(np.isin(every_cav[kept], cav_ids) & (t - seen[kept] > TRACK_RETIRE_S))]
        self.track_cav, self.track_obj = every_cav[kept], every_obj[kept]
        self.maneuver, self.last_seen = maneuvers[kept], seen[kept]
        return LocalizeResult(published=published, observed=observed, charged_ms=charged,
                              detection_charged=detecting)
