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
constant-velocity assumption in bursts).  ``sigma_trk`` sets the tracker's
overall mean Euclidean error across both states; the split between the states
is controlled by the maneuver fields.  A vehicle's track of an object
therefore holds only that it exists, its maneuver state and when the object
was last published.
"""

from __future__ import annotations

import enum
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

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


@dataclass
class KalmanState:
    x: np.ndarray  # [X, Y, dX, dY]
    p: np.ndarray  # 4x4 covariance
    time: float

    @property
    def position(self) -> np.ndarray:
        return self.x[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[2:]


def kalman_init(position, t: float) -> KalmanState:
    """Fresh track: measured position, zero velocity, loose velocity prior."""
    pos = np.asarray(position, dtype=np.float64).reshape(2)
    x = np.array([pos[0], pos[1], 0.0, 0.0])
    p = np.diag([DEFAULT_OBS_NOISE_VAR, DEFAULT_OBS_NOISE_VAR,
                 INIT_VEL_VAR, INIT_VEL_VAR]).astype(np.float64)
    return KalmanState(x=x, p=p, time=float(t))


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


def kalman_predict(state: KalmanState, dt: float) -> KalmanState:
    if dt < 0:
        raise ValueError(f"cannot predict backwards, dt={dt}")
    f = transition_matrix(dt)
    x = f @ state.x
    p = f @ state.p @ f.T + process_noise(dt)
    return KalmanState(x=x, p=p, time=state.time + dt)


def kalman_correct(state: KalmanState, z, r_obs: float = DEFAULT_OBS_NOISE_VAR) -> KalmanState:
    z = np.asarray(z, dtype=np.float64).reshape(2)
    r = r_obs * np.eye(2)
    s = _H @ state.p @ _H.T + r
    k = state.p @ _H.T @ np.linalg.inv(s)
    x = state.x + k @ (z - _H @ state.x)
    # Joseph form keeps the covariance symmetric PSD under roundoff
    ikh = np.eye(4) - k @ _H
    p = ikh @ state.p @ ikh.T + k @ r @ k.T
    return KalmanState(x=x, p=0.5 * (p + p.T), time=state.time)


def nearest_rows(points, queries, gate: float = 3.0) -> np.ndarray:
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


class LocalizerMode(enum.Enum):
    DETECTION = "detection"
    TRACKING = "tracking"


@dataclass
class DetectionOracleConfig:
    sigma_det: float = 0.07  # mean Euclidean detector error, m
    miss_prob: float = 0.02
    det_time_mean_ms: float = 26.41
    det_time_sd_ms: float = 4.73
    sigma_trk: float = 0.12  # mean Euclidean tracker error across states, m
    trk_time_mean_ms: float = 0.73
    trk_time_sd_ms: float = 0.71
    # degraded-state (maneuver) process for the tracker error
    maneuver_enter: float = 0.0105
    maneuver_persist: float = 0.8
    maneuver_error_ratio: float = 8.0

    def maneuver_stationary(self) -> float:
        leave = 1.0 - self.maneuver_persist
        return self.maneuver_enter / (self.maneuver_enter + leave)

    def tracker_base_error(self) -> float:
        """Nominal-state mean error such that the mixture mean is sigma_trk."""
        pi_b = self.maneuver_stationary()
        return self.sigma_trk / ((1.0 - pi_b) + pi_b * self.maneuver_error_ratio)


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

    def __init__(self, cfg: DetectionOracleConfig | None = None,
                 rle_threshold: float = 0.5):
        self.cfg = cfg or DetectionOracleConfig()
        self.rle_threshold = rle_threshold
        self.mode = LocalizerMode.DETECTION  # nothing to track before the first slot
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
        cfg, tracks = self.cfg, self.tracks
        det_axis = cfg.sigma_det * _AXIS_FROM_MEAN
        base_err = cfg.tracker_base_error()

        det_out: dict = {}
        trk_out: dict = {}
        rle_max = 0.0
        for obj_id in sorted(truth):
            pos = np.asarray(truth[obj_id], dtype=np.float64).reshape(2)
            missed = rng.uniform() < cfg.miss_prob
            noise = rng.normal(scale=det_axis, size=2) if det_axis > 0 else np.zeros(2)
            if not missed:
                det_out[obj_id] = pos + noise
            entry = tracks.get(obj_id)
            if entry is not None:
                u = rng.uniform()
                entry.maneuver = u < (cfg.maneuver_persist if entry.maneuver
                                      else cfg.maneuver_enter)
                err_mean = base_err * (cfg.maneuver_error_ratio if entry.maneuver else 1.0)
                axis = err_mean * _AXIS_FROM_MEAN
                tnoise = rng.normal(scale=axis, size=2) if axis > 0 else np.zeros(2)
                trk_out[obj_id] = pos + tnoise
                if obj_id in det_out:
                    rle = float(np.linalg.norm(det_out[obj_id] - trk_out[obj_id]))
                    rle_max = max(rle_max, rle)

        if self.mode is LocalizerMode.TRACKING:
            observations = dict(trk_out)
            for obj_id, pos in det_out.items():
                # no track yet: ride on the detector
                observations.setdefault(obj_id, pos)
            charged = TruncatedNormal.cached(cfg.trk_time_mean_ms, cfg.trk_time_sd_ms).sample(rng)
        else:
            observations = det_out
            charged = TruncatedNormal.cached(cfg.det_time_mean_ms, cfg.det_time_sd_ms).sample(rng)
        detection_charged = self.mode is LocalizerMode.DETECTION
        self.mode = (LocalizerMode.TRACKING if rle_max < self.rle_threshold
                     else LocalizerMode.DETECTION)

        for obj_id in observations:
            tracks.setdefault(obj_id, TrackEntry()).last_seen = t
        for obj_id in [k for k, e in tracks.items() if t - e.last_seen > TRACK_RETIRE_S]:
            del tracks[obj_id]
        return LocalizeResult(observations=observations, charged_ms=float(charged),
                              detection_charged=detection_charged)
