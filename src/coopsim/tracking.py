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
class TrackEntry:
    maneuver: bool = False
    last_seen: float = 0.0


@dataclass
class LocalizeResult:
    observations: dict  # object id -> np.ndarray (2,)
    charged_ms: float
    detection_charged: bool


class HybridLocalizer:
    """Per-vehicle localizer: the mode latch and the local tracks."""

    def __init__(self):
        self.detecting = True  # the mode latch; nothing to track before the first slot
        self.tracks: dict = {}

    def step(self, t: float, truth: dict, rng: np.random.Generator) -> LocalizeResult:
        """One localization slot over the currently visible objects.

        ``truth`` maps object id to the true ground-plane position.  The
        slot publishes and charges the module of the current mode, then
        latches the mode for the next slot from this slot's RLE.  Each
        published id is marked seen at ``t`` (new ids get a track), and ids
        unpublished for over TRACK_RETIRE_S retire.  Objects with no prior
        track always publish the detector output regardless of mode.
        """
        tracks = self.tracks
        det_axis = SIGMA_DET * _AXIS_FROM_MEAN
        base_err = tracker_base_error()

        det_out: dict = {}
        trk_out: dict = {}
        gaps = []  # detector minus tracker output, per object with both
        for obj_id in sorted(truth):
            pos = np.asarray(truth[obj_id], dtype=np.float64).reshape(2)
            missed = rng.uniform() < MISS_PROB
            noise = rng.normal(scale=det_axis, size=2)
            if not missed:
                det_out[obj_id] = pos + noise
            entry = tracks.get(obj_id)
            if entry is not None:
                u = rng.uniform()
                entry.maneuver = u < (MANEUVER_PERSIST if entry.maneuver else MANEUVER_ENTER)
                err_mean = base_err * (MANEUVER_ERROR_RATIO if entry.maneuver else 1.0)
                axis = err_mean * _AXIS_FROM_MEAN
                tnoise = rng.normal(scale=axis, size=2)
                trk_out[obj_id] = pos + tnoise
                if obj_id in det_out:
                    gaps.append(det_out[obj_id] - trk_out[obj_id])
        rle_max = float(row_norms(np.reshape(gaps, (-1, 2))).max()) if gaps else 0.0

        detection_charged = self.detecting
        if detection_charged:
            observations = det_out
            charge = TruncatedNormal.cached(DET_TIME_MEAN_MS, DET_TIME_SD_MS)
        else:
            observations = dict(trk_out)
            for obj_id, pos in det_out.items():
                # no track yet: ride on the detector
                observations.setdefault(obj_id, pos)
            charge = TruncatedNormal.cached(TRK_TIME_MEAN_MS, TRK_TIME_SD_MS)
        charged = charge.ppf(rng.random())
        self.detecting = not rle_max < RLE_THRESHOLD_M

        for obj_id in observations:
            tracks.setdefault(obj_id, TrackEntry()).last_seen = t
        for obj_id in [k for k, e in tracks.items() if t - e.last_seen > TRACK_RETIRE_S]:
            del tracks[obj_id]
        return LocalizeResult(observations=observations, charged_ms=float(charged),
                              detection_charged=detection_charged)
