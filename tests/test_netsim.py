import math

import numpy as np
import pytest

from coopsim.errors import ConfigError
from coopsim.netsim import (
    LatencyBreakdown,
    MODULE_TIMES_MS,
    draw_fading,
    path_loss_db,
    sample_module_times_ms,
    sector_index,
    simulate_frame_latency,
    snr_db,
    uplink_ms,
    uplink_rate,
    _fcfs_waits,
)
from coopsim.simpipe import RunConfig
from oracles import fcfs_waits as oracle_fcfs


def cell(**overrides) -> RunConfig:
    """A run config whose radio is one sector at the origin, defaults otherwise."""
    return RunConfig(**{"base_station": (0.0, 0.0, 0.0), "sectors": 1, **overrides})


def test_path_loss_hand_values():
    assert path_loss_db(1, 1.0) == pytest.approx(32.4)
    assert path_loss_db(100, 3.5) == pytest.approx(85.28, abs=0.01)
    assert path_loss_db(10, 3.5) == pytest.approx(64.28, abs=0.01)


def test_path_loss_clamps_below_one_meter():
    assert path_loss_db(0.2, 3.5) == path_loss_db(1.0, 3.5)


def test_reference_rate_chain():
    # 100 m, 150 CAVs on the default 200 kHz cell, no fading
    radio = cell()
    band = radio.bandwidth_hz / 150
    assert band == pytest.approx(1333.33, abs=0.01)
    assert snr_db(100.0, band, radio) == pytest.approx(71.5, abs=0.1)
    rate = uplink_rate([100.0, 0.0, 0.0], 150, radio)
    assert rate == pytest.approx(31.7e3, rel=5e-3)


def test_band_halves_when_sharers_double():
    radio = cell()
    r1 = uplink_rate([50.0, 0.0, 0.0], 10, radio)
    r2 = uplink_rate([50.0, 0.0, 0.0], 20, radio)
    # rate is slightly better than half because the narrower slice sees
    # proportionally less noise
    assert r2 < r1
    assert r2 > r1 / 2


def test_rate_monotone_in_distance_and_bandwidth():
    radio = cell()
    rates = [uplink_rate([d, 0.0, 0.0], 50, radio) for d in (10, 50, 100, 300, 800)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    wide = cell(bandwidth_hz=400e3)
    assert uplink_rate([100.0, 0.0, 0.0], 50, wide) > uplink_rate([100.0, 0.0, 0.0], 50, radio)


def test_rate_vanishes_at_extreme_range():
    radio = cell()
    assert uplink_rate([1e9, 0.0, 0.0], 1, radio) < 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        uplink_rate([1.0, 0.0, 0.0], 0, cell())


def test_fading_seeded_and_degenerate():
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    a = [draw_fading(rng_a, 0.2) for _ in range(100)]
    b = [draw_fading(rng_b, 0.2) for _ in range(100)]
    assert a == b
    assert min(a) > 0 and len(set(a)) == 100
    assert draw_fading(np.random.default_rng(5), 0.0) == 1.0


def test_sector_assignment():
    radio = cell(sectors=4)
    quadrant_points = [[10, 1, 0], [-1, 10, 0], [-10, -1, 0], [1, -10, 0]]
    assert [sector_index(p, radio) for p in quadrant_points] == [0, 1, 2, 3]
    single = cell()
    assert [sector_index(p, single) for p in quadrant_points] == [0, 0, 0, 0]


def test_uplink_ms_edge_cases():
    assert uplink_ms(0, 0.0) == 0.0
    assert uplink_ms(1000, 0.0) == math.inf
    assert uplink_ms(1000, 8e6) == pytest.approx(1.0)


def test_fcfs_hand_traces():
    # 10 simultaneous jobs, 1 ms each, one server
    w = _fcfs_waits(np.zeros(10), np.ones(10), 1)
    assert w.tolist() == list(range(10))
    # second of two equal arrivals waits exactly the first's service
    w = _fcfs_waits(np.array([5.0, 5.0]), np.array([2.5, 1.0]), 1)
    assert w.tolist() == [0.0, 2.5]
    # idle server between spaced arrivals
    w = _fcfs_waits(np.array([0.0, 10.0]), np.array([1.0, 1.0]), 1)
    assert w.tolist() == [0.0, 0.0]
    # two servers absorb pairs
    w = _fcfs_waits(np.zeros(4), np.ones(4), 2)
    assert w.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_fcfs_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(1, 101))
        servers = int(rng.integers(1, 4))
        arrivals = np.sort(rng.uniform(0, 50, size=n))
        services = rng.uniform(0, 5, size=n)
        mine = _fcfs_waits(arrivals, services, servers)
        ref = oracle_fcfs(arrivals.tolist(), services.tolist(), servers)
        assert np.allclose(mine, ref, atol=1e-9)


def test_frame_single_cav_baseline_only():
    out = simulate_frame_latency([0], [0.0], [1e6], [0], 1, np.random.default_rng(0),
                                 extra_b_ms=[0.0], cav_ids=[0])
    (b,) = out
    assert b.uplink_ms == 0.0
    assert b.queue_ms == 0.0
    assert b.server_ms == 0.0
    assert b.total_ms == b.b_ms
    assert 0 < b.b_ms < 1.0
    assert math.isfinite(b.total_ms)


def test_frame_breakdown_sums_and_orders():
    # one server, tie on arrival broken by cav id: the second waits out the first
    out = simulate_frame_latency(
        payload_bytes=[1000, 1000], vehicle_ms=[1.0, 1.0], rates_bps=[8e6, 8e6],
        object_counts=[1, 1], servers=1, rng=np.random.default_rng(3),
        extra_b_ms=[0.0, 0.0], cav_ids=[0, 1])
    first, second = out
    assert first.queue_ms == 0.0
    assert second.queue_ms == pytest.approx(first.server_ms)
    for b in out:
        assert b.total_ms == pytest.approx(
            b.vehicle_ms + b.uplink_ms + b.queue_ms + b.server_ms + b.b_ms)
        assert b.server_ms > 0.0


def test_frame_zero_rate_is_infeasible_flagged():
    out = simulate_frame_latency([500, 500], [0.5, 0.5], [0.0, 1e6], [1, 1],
                                 1, np.random.default_rng(1), extra_b_ms=[0.0, 0.0],
                                 cav_ids=[0, 1])
    assert out[0].total_ms == math.inf
    assert math.isfinite(out[1].total_ms)  # the dead uplink must not block the live one
    assert out[1].queue_ms == 0.0


def test_frame_bit_exact_replay():
    args = dict(payload_bytes=[100, 400, 900], vehicle_ms=[0.3, 0.2, 0.9],
                rates_bps=[1e5, 2e5, 3e5], object_counts=[2, 0, 5],
                servers=1, extra_b_ms=[0.0, 0.0, 0.0], cav_ids=[0, 1, 2])
    a = simulate_frame_latency(rng=np.random.default_rng(42), **args)
    b = simulate_frame_latency(rng=np.random.default_rng(42), **args)
    assert [x.total_ms for x in a] == [x.total_ms for x in b]


def test_frame_extra_b_charge():
    out = simulate_frame_latency([0], [0.0], [1e6], [0], 1, np.random.default_rng(0),
                                 extra_b_ms=[26.4], cav_ids=[0])
    assert out[0].b_ms > 26.4


def test_module_time_means():
    rng = np.random.default_rng(9)
    draws = np.array([sample_module_times_ms(rng) for _ in range(3000)])
    expected = sum(m for m, _ in MODULE_TIMES_MS.values())
    assert draws.min() >= 0
    assert draws.mean() == pytest.approx(expected, abs=0.01)
