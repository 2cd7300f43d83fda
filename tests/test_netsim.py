import math

import numpy as np
import pytest

from coopsim import simpipe
from coopsim.errors import ConfigError
from coopsim.netsim import (
    MODULE_TIMES_MS,
    module_times_ms,
    path_loss_db,
    sector_indices,
    simulate_frame_latency,
    snr_db,
    uplink_rate,
    _fcfs_waits,
)
from coopsim.sampling import keyed_uniforms
from coopsim.simpipe import RunConfig, _frame_record, _record_frame, generate_trace, run_simulation
from coopsim.tracking import row_norms
from oracles import (draw_fading, position_uplink_rate, sample_module_times_ms, sector_index,
                     uplink_ms)
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
    rate = uplink_rate(100.0, 150, radio)
    assert rate == pytest.approx(31.7e3, rel=5e-3)


def test_band_halves_when_sharers_double():
    radio = cell()
    r1 = uplink_rate(50.0, 10, radio)
    r2 = uplink_rate(50.0, 20, radio)
    # rate is slightly better than half because the narrower slice sees
    # proportionally less noise
    assert r2 < r1
    assert r2 > r1 / 2


def test_rate_monotone_in_distance_and_bandwidth():
    radio = cell()
    rates = [uplink_rate(d, 50, radio) for d in (10, 50, 100, 300, 800)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    wide = cell(bandwidth_hz=400e3)
    assert uplink_rate(100.0, 50, wide) > uplink_rate(100.0, 50, radio)


def test_rate_vanishes_at_extreme_range():
    radio = cell()
    assert uplink_rate(1e9, 1, radio) < 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        uplink_rate(1.0, 0, cell())


def test_rate_from_row_norm_distances_matches_position_form():
    """The rate of each CAV's row_norms distance equals, bit for bit, the
    rate the position form computes with the 1-d np.linalg.norm, over random
    positions, base stations, sharers and fading, near and far."""
    rng = np.random.default_rng(25)
    for scale in (0.5, 30.0, 400.0, 1e5):
        positions = rng.normal(0.0, scale, size=(200, 3))
        base = tuple(rng.normal(0.0, scale, size=3).tolist())
        cfg = RunConfig(base_station=base, bandwidth_hz=float(rng.uniform(1e5, 1e6)))
        distances = row_norms(positions - np.asarray(base)).tolist()
        for position, d in zip(positions, distances):
            sharers, fading = int(rng.integers(1, 40)), float(rng.lognormal(0.0, 0.2))
            assert uplink_rate(d, sharers, cfg, fading=fading) == position_uplink_rate(
                position, sharers, cfg, fading=fading)


def uniforms(n: int, seed: int) -> np.ndarray:
    """Baseline uniforms for ``n`` CAVs, one row of MODULE_TIMES_MS's width each."""
    return np.random.default_rng(seed).random((n, len(MODULE_TIMES_MS)))


def _fading_by_frame(monkeypatch, trace, cfg) -> list:
    """The fading factor each frame's radio block passes to uplink_rate, per CAV."""
    seen = []

    def recording(distance_m, sharers, cfg, fading=1.0):
        seen.append(fading)
        return uplink_rate(distance_m, sharers, cfg, fading=fading)

    monkeypatch.setattr(simpipe, "uplink_rate", recording)
    run_simulation(trace, cfg)
    sizes = np.cumsum([0] + [len(f.cav_ids) for f in trace])
    return [seen[a:b] for a, b in zip(sizes, sizes[1:])]


def test_fading_seeded_and_degenerate(monkeypatch):
    trace = generate_trace(20, 2, seed=5)
    cfg = RunConfig(policy="adamap-lite", fading_sigma=0.2)
    a = _fading_by_frame(monkeypatch, trace, cfg)
    assert a == _fading_by_frame(monkeypatch, trace, cfg)
    assert min(map(min, a)) > 0 and len(set(a[0] + a[1])) == 40
    flat = _fading_by_frame(monkeypatch, trace, RunConfig(policy="adamap-lite",
                                                          fading_sigma=0.0))
    assert flat == [[1.0] * 20] * 2


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.35])
def test_fading_matches_scalar_oracle(monkeypatch, sigma):
    # one keyed array draw per frame gives the doubles of one keyed scalar draw per CAV
    trace = generate_trace(17, 3, seed=11)
    cfg = RunConfig(policy="adamap-lite", fading_sigma=sigma, seed=4)
    got = _fading_by_frame(monkeypatch, trace, cfg)
    want = [[draw_fading(float(keyed_uniforms(cfg.seed, f.index, c, simpipe._S_NET, n=1)[0]),
                         sigma) for c in sorted(f.cav_ids.tolist())] for f in trace]
    assert got == want


def test_a_cavs_draws_are_its_own(monkeypatch):
    """Dropping one CAV as a viewer from a frame leaves every other CAV's
    fading factor, baseline draw and object picks as they were: a draw is
    keyed by the CAV's id, not by its place in the frame."""
    trace = generate_trace(20, 3, seed=6)
    rec = _frame_record(trace[1])
    dropped = rec["cavs"].pop(7)["id"]
    cut = [trace[0], _record_frame(rec), trace[2]]
    cfg = RunConfig(policy="adamap-lite", fading_sigma=0.3, base_station=(100.0, 100.0, 10.0))

    def draws(frames) -> dict:
        """(frame, CAV id) -> (fading, baseline, encode sum, decode sum), and
        (frame, CAV id, object id) -> loss."""
        fading, columns = _fading_by_frame(monkeypatch, frames, cfg), []

        def recording(payload, vehicle_ms, rates, server_ms, servers, u, extra_b_ms):
            out = simulate_frame_latency(payload, vehicle_ms, rates, server_ms, servers, u,
                                         extra_b_ms)
            columns.append((out[0].tolist(), list(vehicle_ms), list(server_ms)))
            return out

        monkeypatch.setattr(simpipe, "simulate_frame_latency", recording)
        res = run_simulation(frames, cfg)
        out = {(rec.frame, rec.cav_id, rec.obj_id): rec.loss for rec in res.objects}
        for f, cols in zip(frames, zip(fading, columns)):
            for c, cav_id in enumerate(sorted(f.cav_ids.tolist())):
                out[f.index, cav_id] = (cols[0][c], *(col[c] for col in cols[1]))
        return out

    whole, without = draws(trace), draws(cut)
    assert len(without) < len(whole)
    others = {key: v for key, v in whole.items() if key[:2] != (1, dropped)}
    assert others == without
    assert any(len(key) == 3 and key[0] == 1 for key in without)


def test_sector_assignment():
    radio = cell(sectors=4)
    quadrant_points = [[10, 1, 0], [-1, 10, 0], [-10, -1, 0], [1, -10, 0]]
    assert sector_indices(quadrant_points, radio) == [0, 1, 2, 3]
    single = cell()
    assert sector_indices(quadrant_points, single) == [0, 0, 0, 0]


@pytest.mark.parametrize("sectors", [1, 3, 4, 12])
def test_sector_indices_match_scalar_form(sectors):
    """Equal to one sector_index call per position, on random positions and on
    the boundary azimuths, the axes and the base station itself."""
    cfg = RunConfig(base_station=(3.5, -2.25, 10.0), sectors=sectors)
    rng = np.random.default_rng(sectors)
    width = 2.0 * math.pi / sectors
    angles = np.r_[np.arange(sectors) * width, np.arange(4) * math.pi / 2]
    edges = np.c_[3.5 + 40.0 * np.cos(angles), -2.25 + 40.0 * np.sin(angles), np.zeros(len(angles))]
    positions = np.r_[rng.uniform(-500.0, 500.0, size=(2000, 3)), edges,
                      [[3.5, -2.25, 0.0], [3.5, -2.25 - 1e-9, 0.0], [-1e6, -2.25, 0.0]]]
    assert sector_indices(positions, cfg) == [sector_index(p, cfg) for p in positions]


def test_uplink_ms_edge_cases():
    _, up, _ = simulate_frame_latency([0, 1000, 1000], [0.0] * 3, [0.0, 0.0, 8e6],
                                      [0.0] * 3, 1, uniforms(3, 0), extra_b_ms=[0.0] * 3)
    assert up.tolist() == [0.0, math.inf, pytest.approx(1.0)]


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
    b_ms, up, queue = simulate_frame_latency([0], [0.0], [1e6], [0.0], 1, uniforms(1, 0),
                                             extra_b_ms=[0.0])
    assert up.tolist() == [0.0]
    assert queue.tolist() == [0.0]
    assert 0 < b_ms[0] < 1.0


def test_frame_breakdown_sums_and_orders():
    # one server, tie on arrival broken by id order: the second waits out the first
    b_ms, up, queue = simulate_frame_latency(
        payload_bytes=[1000, 1000], vehicle_ms=[1.0, 1.0], rates_bps=[8e6, 8e6],
        server_ms=[1.5, 2.0], servers=1, u_base=uniforms(2, 3), extra_b_ms=[0.0, 0.0])
    assert up.tolist() == [1.0, 1.0]
    assert queue.tolist() == [0.0, 1.5]
    assert (b_ms > 0.0).all()
    # the second arrives first once it uploads faster, and then the first waits
    _, up, queue = simulate_frame_latency([1000, 500], [1.0, 1.0], [8e6, 8e6], [1.5, 2.0], 1,
                                          uniforms(2, 3), extra_b_ms=[0.0, 0.0])
    assert queue.tolist() == [1.5, 0.0]


def test_frame_zero_rate_is_infeasible_flagged():
    b_ms, up, queue = simulate_frame_latency(
        [500, 500], [0.5, 0.5], [0.0, 1e6], [1.0, 1.0], 1, uniforms(2, 1),
        extra_b_ms=[0.0, 0.0])
    total = 0.5 + up + queue + 1.0 + b_ms
    assert total[0] == math.inf
    assert math.isfinite(total[1])  # the dead uplink must not block the live one
    assert queue[1] == 0.0


def test_frame_bit_exact_replay():
    args = dict(payload_bytes=[100, 400, 900], vehicle_ms=[0.3, 0.2, 0.9],
                rates_bps=[1e5, 2e5, 3e5], server_ms=[3.1, 0.0, 8.4],
                servers=1, extra_b_ms=[0.0, 0.0, 0.0])
    a = simulate_frame_latency(u_base=uniforms(3, 42), **args)
    b = simulate_frame_latency(u_base=uniforms(3, 42), **args)
    assert [col.tolist() for col in a] == [col.tolist() for col in b]


def test_frame_refuses_misshapen_uniforms():
    width = len(MODULE_TIMES_MS)
    for u_base in (np.zeros((2, width)), np.zeros((3, width + 1)), np.zeros(3)):
        with pytest.raises(ConfigError, match="u_base"):
            simulate_frame_latency([0] * 3, [0.0] * 3, [1e6] * 3, [0.0] * 3, 1, u_base,
                                   extra_b_ms=[0.0] * 3)


def test_frame_extra_b_charge():
    b_ms, _, _ = simulate_frame_latency([0], [0.0], [1e6], [0.0], 1, uniforms(1, 0),
                                        extra_b_ms=[26.4])
    assert b_ms[0] > 26.4


def test_module_time_means():
    draws = module_times_ms(uniforms(3000, 9))
    expected = sum(m for m, _ in MODULE_TIMES_MS.values())
    assert draws.shape == (3000,)
    assert draws.min() >= 0
    assert draws.mean() == pytest.approx(expected, abs=0.01)


def test_frame_columns_match_scalar_oracles():
    """Baseline and uplink columns equal the scalar per-CAV routines bit for bit,
    zero payloads and zero rates included."""
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 40))
        payload = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(1.0, 5e4, n).round())
        rates = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(1e3, 1e6, n))
        extra = np.where(rng.random(n) < 0.5, 0.0, rng.normal(26.41, 4.73, n))
        vehicle, server = rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 3.0, n)
        u_base = uniforms(n, trial)
        b_ms, up, _ = simulate_frame_latency(payload, vehicle, rates, server, 2, u_base,
                                             extra_b_ms=extra.tolist())
        assert b_ms.tolist() == [sample_module_times_ms(u) + e
                                 for u, e in zip(u_base.tolist(), extra.tolist())]
        assert up.tolist() == [uplink_ms(b, r) for b, r in zip(payload, rates)]
