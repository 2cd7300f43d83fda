"""Uplink radio model, FCFS edge queue, and per-frame latency assembly.

The radio side is a closed-form street-canyon path-loss plus Shannon capacity
over equal FDMA slices of the shared band, with optional log-normal fading.
Its parameters are the radio fields of the run's RunConfig: bandwidth_hz,
carrier_ghz, tx_power_dbm, noise_figure_db, base_station (x, y, z) and
sectors, the antenna sectors at the base station, each of which reuses the
full band for the CAVs it covers.
The server side is an exact first-come-first-serve multi-server queue
advanced per frame.  Each CAV's server time is the caller's: the decode
samples it drew from the run's measurement dataset.  Every stochastic
quantity here is drawn from a caller-supplied generator so whole runs replay
bit-exactly.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ConfigError
from .sampling import TruncatedNormal

NOISE_DBM_PER_HZ = -174.0  # thermal noise density

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
    noise_dbm = NOISE_DBM_PER_HZ + 10.0 * math.log10(band_hz) + cfg.noise_figure_db
    return cfg.tx_power_dbm - path_loss_db(distance_m, cfg.carrier_ghz) - noise_dbm


def uplink_rate(position, sharers: int, cfg, fading: float = 1.0) -> float:
    """Shannon rate in bits/s for one CAV sharing its sector with ``sharers``.

    Equal FDMA gives each CAV a band slice with proportionally less noise.
    The fading factor is drawn by the caller (see draw_fading) so frames stay
    replayable.
    """
    if sharers < 1:
        raise ConfigError(f"sharers must be >= 1, got {sharers}")
    d = float(np.linalg.norm(np.asarray(position, dtype=np.float64).reshape(-1)[:3]
                             - cfg.base_station))
    band = cfg.bandwidth_hz / sharers
    return band * math.log2(1.0 + 10.0 ** (snr_db(d, band, cfg) / 10.0)) * float(fading)


def draw_fading(rng: np.random.Generator, sigma: float) -> float:
    """One log-normal fading factor; sigma 0 disables fading."""
    return float(np.exp(sigma * rng.standard_normal())) if sigma else 1.0


def sector_index(position, cfg) -> int:
    """Sector id by azimuth around the base station, 0 at +x, counterclockwise."""
    rel = np.asarray(position, dtype=np.float64).reshape(-1)[:2] - cfg.base_station[:2]
    az = math.atan2(rel[1], rel[0]) % (2.0 * math.pi)
    return int(az // (2.0 * math.pi / cfg.sectors)) % cfg.sectors


def uplink_ms(payload_bytes: float, rate_bps: float) -> float:
    if payload_bytes <= 0:
        return 0.0
    if rate_bps <= 0:
        return math.inf
    return payload_bytes * 8.0 / rate_bps * 1e3


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


def sample_module_times_ms(rng: np.random.Generator) -> float:
    """One draw of the per-frame baseline: localization + transform + matching."""
    total = 0.0
    for mean, sd in MODULE_TIMES_MS.values():
        total += float(TruncatedNormal.cached(mean, sd).sample(rng))
    return total


def simulate_frame_latency(payload_bytes, vehicle_ms, rates_bps, server_ms,
                           servers: int, rng: np.random.Generator, extra_b_ms):
    """Per-CAV latency columns of one frame, for CAVs given in id order.

    Returns (baseline, uplink, queue) arrays in ms.  The baseline is a
    module-table draw plus ``extra_b_ms``, charges outside the table such as
    the detector when the hybrid localizer ran detection this frame.
    Arrival at the server is vehicle + uplink completion time; the baseline
    is not part of it.  CAVs are served in ascending arrival order, ties by
    id, over ``servers`` FCFS servers, each for its ``server_ms``.
    A zero rate with a nonzero payload yields an infinite uplink and queue.
    """
    n = len(payload_bytes)
    if not (len(vehicle_ms) == len(rates_bps) == len(server_ms) == n):
        raise ConfigError("per-CAV input lengths differ")
    up = np.array([uplink_ms(b, r) for b, r in zip(payload_bytes, rates_bps)])
    b_base = np.array([sample_module_times_ms(rng) + extra_b_ms[i] for i in range(n)])
    arrival = np.asarray(vehicle_ms, dtype=np.float64) + up
    order = np.argsort(arrival, kind="stable")  # an infinite arrival sorts last
    finite = order[np.isfinite(arrival[order])]
    waits = np.full(n, math.inf)
    waits[finite] = _fcfs_waits(arrival[finite], np.asarray(server_ms)[finite], servers)
    return b_base, up, waits
