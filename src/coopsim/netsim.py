"""Uplink radio model, FCFS edge queue, and per-frame latency assembly.

The radio side is a closed-form street-canyon path-loss plus Shannon capacity
over equal FDMA slices of the shared band, with optional log-normal fading.
Its parameters are the radio fields of the run's RunConfig: bandwidth_hz,
carrier_ghz, base_station (x, y, z) and sectors, the antenna sectors at the
base station, each of which reuses the full band for the CAVs it covers; the
transmit power and the receiver's noise figure are module constants.
The server side is an exact first-come-first-serve multi-server queue
advanced per frame.  Each CAV's server time is the caller's: the decode
samples it drew from the run's measurement dataset.
netsim also owns the vehicle's baseline module-time model, MODULE_TIMES_MS,
which the simulator charges and the RF optimizer samples, both through
module_times_ms.  Every stochastic quantity here comes from caller-supplied
uniforms, so whole runs replay bit-exactly.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .sampling import TruncatedNormal

NOISE_DBM_PER_HZ = -174.0  # thermal noise density
TX_POWER_DBM = 23.0
NOISE_FIGURE_DB = 9.0

# per-frame vehicle-side module times, ms: (mean, sd), truncated at zero
MODULE_TIMES_MS = {
    "localization": (0.061, 0.023),
    "transform": (0.006, 0.012),
    "matching": (0.014, 0.023),
}


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    """Street-canyon line-of-sight form; distances under 1 m clamp to 1 m."""
    d = max(float(distance_m), 1.0)
    return 32.4 + 21.0 * math.log10(d) + 20.0 * math.log10(carrier_ghz)


def snr_db(distance_m: float, band_hz: float, cfg) -> float:
    noise_dbm = NOISE_DBM_PER_HZ + 10.0 * math.log10(band_hz) + NOISE_FIGURE_DB
    return TX_POWER_DBM - path_loss_db(distance_m, cfg.carrier_ghz) - noise_dbm


def uplink_rate(distance_m: float, sharers: int, cfg, fading: float = 1.0) -> float:
    """Shannon rate in bits/s for one CAV ``distance_m`` from the base
    station, sharing its sector with ``sharers``.

    Equal FDMA gives each CAV a band slice with proportionally less noise.
    The caller, run_frame, takes the distance from ``tracking.row_norms``
    and draws the log-normal fading factor from the frame's network stream,
    so frames stay replayable.  The arithmetic stays scalar ``math``: numpy's
    vectorized log and power may round differently.
    """
    if sharers < 1:
        raise ValueError(f"sharers must be >= 1, got {sharers}")
    band = cfg.bandwidth_hz / sharers
    return band * math.log2(1.0 + 10.0 ** (snr_db(distance_m, band, cfg) / 10.0)) * float(fading)


def sector_indices(positions, cfg) -> list:
    """Sector id of each (N, 2+) position by azimuth around the base station,
    0 at +x, counterclockwise: one array subtraction, then scalar ``math.atan2``."""
    rel = (np.asarray(positions, dtype=np.float64)[:, :2] - cfg.base_station[:2]).tolist()
    width = 2.0 * math.pi / cfg.sectors
    return [int(math.atan2(y, x) % (2.0 * math.pi) // width) % cfg.sectors for x, y in rel]


def _fcfs_waits(arrivals: np.ndarray, services: np.ndarray, servers: int) -> np.ndarray:
    """Exact FCFS waits; jobs are served in the order given."""
    free: list[float] = [0.0] * servers
    heapq.heapify(free)
    waits = np.zeros(len(arrivals))
    for j, (arr, srv) in enumerate(zip(arrivals, services)):
        avail = heapq.heappop(free)
        start = max(arr, avail)
        waits[j] = start - arr
        heapq.heappush(free, start + srv)
    return waits


def module_times_ms(u: np.ndarray) -> np.ndarray:
    """Per-frame baseline in ms, localization + transform + matching, by inverse CDF.

    ``u`` holds uniforms, one per module of MODULE_TIMES_MS on the last
    axis in table order; the result drops that axis.  The table is read at
    the call; an empty table gives zeros.
    """
    return sum((TruncatedNormal.cached(mean, sd).ppf(u[..., k])
                for k, (mean, sd) in enumerate(MODULE_TIMES_MS.values())),
               np.zeros(u.shape[:-1]))


def simulate_frame_latency(payload_bytes, vehicle_ms, rates_bps, server_ms,
                           servers: int, u_base, extra_b_ms):
    """Per-CAV latency columns of one frame, for CAVs given in id order.

    Returns (baseline, uplink, queue) arrays in ms.  The baseline is
    ``module_times_ms`` of ``u_base``, (n, len(MODULE_TIMES_MS)) uniforms,
    plus ``extra_b_ms``, charges outside the table such as the detector when
    the hybrid localizer ran detection this frame.
    Arrival at the server is vehicle + uplink completion time; the baseline
    is not part of it.  CAVs are served in ascending arrival order, ties by
    id, over ``servers`` FCFS servers, each for its ``server_ms``.
    A zero rate with a nonzero payload yields an infinite uplink and queue.
    """
    n = len(payload_bytes)
    if not (len(vehicle_ms) == len(rates_bps) == len(server_ms) == n
            and np.shape(u_base) == (n, len(MODULE_TIMES_MS))):
        raise ValueError("per-CAV input lengths differ, or u_base is not (n, modules)")
    payload = np.asarray(payload_bytes, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # no payload: 0; a zero rate: inf
        up = np.where(payload > 0, payload * 8.0 / np.asarray(rates_bps, np.float64) * 1e3, 0.0)
    b_base = module_times_ms(np.asarray(u_base)) + np.asarray(extra_b_ms)
    arrival = np.asarray(vehicle_ms, dtype=np.float64) + up
    order = np.argsort(arrival, kind="stable")  # an infinite arrival sorts last
    finite = order[np.isfinite(arrival[order])]
    waits = np.full(n, math.inf)
    waits[finite] = _fcfs_waits(arrival[finite], np.asarray(server_ms)[finite], servers)
    return b_base, up, waits
