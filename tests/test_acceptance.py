"""End-to-end acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee.  Heavyweight simulations are shared through module-scoped fixtures;
the whole file is budgeted to finish in a few minutes on one core.
"""

import math
import time

import numpy as np
import pytest

from coopsim.cli import EXIT_OK, main
from coopsim.codec import N_BUCKETS, surrogate_dataset
from coopsim.control import select_objects
from coopsim.geometry import chamfer_distance, earth_movers_distance
from coopsim.sampling import keyed_uniforms
from coopsim.simpipe import RunConfig, collect_metrics, generate_trace, run_simulation
from coopsim.tracking import (
    HybridLocalizer,
    kalman_correct,
    kalman_init,
    kalman_predict,
)

from oracles import (
    brute_chamfer,
    enumerate_emd,
    hungarian_emd,
    min_feasible_suffix_sum,
)


# ---------------------------------------------------------------------------
# shared heavyweight runs


@pytest.fixture(scope="module")
def dense_run():
    """Default 150-CAV scenario at 200 kHz, adamap policy, surrogate dataset."""
    t0 = time.perf_counter()
    trace = generate_trace(150, 10, seed=0)
    summary = collect_metrics(
        run_simulation(trace, RunConfig(policy="adamap", seed=0)))
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bandwidth_pairs():
    """Paired 200 kHz / 300 kHz runs over three trace seeds."""
    pairs = []
    for seed in (0, 1, 2):
        trace = generate_trace(80, 6, seed=seed)
        by_bw = {}
        for bw in (200e3, 300e3):
            cfg = RunConfig(policy="adamap", seed=seed, bandwidth_hz=bw)
            by_bw[bw] = collect_metrics(run_simulation(trace, cfg))
        pairs.append(by_bw)
    return pairs


@pytest.fixture(scope="module")
def policy_bytes():
    """Per-frame byte totals for the three byte-accounting policies."""
    trace = generate_trace(40, 16, seed=0)
    per = {}
    for policy in ("adamap", "adamap-reuse", "select-all-lossless"):
        res = run_simulation(trace, RunConfig(policy=policy, seed=0))
        per[policy] = {fs.frame: fs.bytes_total for fs in res.frame_stats}
    return per


@pytest.fixture(scope="module")
def h_sweep_losses():
    trace = generate_trace(90, 6, seed=0)
    losses = []
    for h in (60.0, 100.0, 200.0, 300.0):
        cfg = RunConfig(policy="adamap", seed=0, H_ms=h)
        losses.append(collect_metrics(run_simulation(trace, cfg))["mean_loss"])
    return losses


# ---------------------------------------------------------------------------
# the eleven guarantees


def test_01_distance_metrics_match_bruteforce_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    sizes = ([int(rng.integers(1, 9)) for _ in range(100)]
             + [int(rng.integers(9, 64)) for _ in range(60)]
             + [64] * 40)
    assert len(sizes) == 200
    for n in sizes:
        a = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=(n, 3))
        b = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=(n, 3)) \
            + rng.uniform(-1.0, 1.0, size=3)
        cd = chamfer_distance(a, b)
        assert cd == pytest.approx(brute_chamfer(a.tolist(), b.tolist()),
                                   rel=1e-9, abs=1e-12)
        emd = earth_movers_distance(a, b)
        exact = (enumerate_emd(a.tolist(), b.tolist()) if n <= 8
                 else hungarian_emd(a.tolist(), b.tolist()))
        assert emd == pytest.approx(exact, rel=1e-9, abs=1e-12)
        if n == 64:
            # the production path must stay within 5% of the exact value
            # at the largest fully-checked size
            assert emd <= 1.05 * exact + 1e-12
    assert time.perf_counter() - start < 30.0


def test_02_kalman_gain_and_noiseless_convergence():
    # unit prior position variance against unit observation noise: gain 1/2
    # the filter row (x, y, vx, vy, a, b, c, time) of covariance diag([1, 1, 10, 10])
    s = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 10.0, 0.0)
    out = kalman_correct(s, [1.0, 0.0], r_obs=1.0)
    assert abs(out[0] - 0.5) < 1e-12
    assert abs(out[1]) < 1e-12
    assert abs(out[4] - 0.5) < 1e-12

    v, dt = 7.3, 0.1
    s = kalman_init([0.0, 0.0], 0.0)
    sq_errors = []
    for k in range(1, 21):
        s = kalman_predict(s, dt)
        s = kalman_correct(s, [v * k * dt, 0.0], r_obs=1e-12)
        sq_errors.append((s[0] - v * k * dt) ** 2)
    assert math.sqrt(float(np.mean(sq_errors[10:]))) < 1e-6


def test_03_hybrid_localization_error_and_cost_bands():
    loc = HybridLocalizer()
    cav_ids, pair_cav, obj_ids = np.array([0]), np.array([0, 0]), np.array([0, 1])
    errors, charges, detect_slots = [], [], 0
    steps = 10_000
    for k in range(steps):
        t = k * 0.1
        truth = np.array([(10.0 * i + 3.0 * t, 2.0 * i) for i in range(2)])
        res = loc.localize(t, cav_ids, pair_cav, obj_ids, truth,
                           keyed_uniforms(12, k, 0, obj_ids, 0, n=6),
                           keyed_uniforms(12, k, 0, 0, n=1))
        for obs, pos in zip(res.observed[res.published], truth[res.published]):
            errors.append(float(np.linalg.norm(obs - pos)))
        charges.append(float(res.charged_ms[0]))
        detect_slots += int(res.detection_charged[0])
    assert 0.07 <= float(np.mean(errors)) <= 0.12
    assert float(np.mean(charges)) <= 3.0
    assert detect_slots / steps < 0.25


def kept_values(values, threshold):
    """The counts that select_objects keeps when they are one object's edges
    in one quadrant, CAV i contributing ``values[i]``."""
    quadrants = np.zeros((len(values), 4))
    quadrants[:, 0] = values
    mask = select_objects(np.zeros(len(values), dtype=np.int64), np.arange(len(values)),
                          quadrants, threshold)
    return [v for v, keep in zip(values, mask.tolist()) if keep]


def test_04_selection_hand_traces_and_suffix_optimality():
    kept = kept_values([500.0, 400.0, 300.0], 1024.0)
    assert sorted(kept) == [300.0, 400.0, 500.0]  # none removable
    kept = kept_values([800.0, 600.0, 400.0], 1024.0)
    assert sorted(kept) == [600.0, 800.0]
    kept = kept_values([2000.0], 1024.0)
    assert kept == [2000.0]  # sole edge always survives

    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        values = [float(v) for v in rng.integers(1, 2049, size=n)]
        threshold = float(rng.integers(1, 2049))
        kept = kept_values(values, threshold)
        assert sum(kept) == min_feasible_suffix_sum(values, threshold)


def test_05_dense_scenario_meets_deadline_fraction(dense_run):
    summary, elapsed = dense_run
    assert summary["cavs"] == 150
    assert summary["frac_within_h"] >= 0.85
    assert elapsed < 180.0


def test_06_more_bandwidth_lowers_rf_and_loss(bandwidth_pairs):
    rf_200 = float(np.mean([p[200e3]["mean_rf"] for p in bandwidth_pairs]))
    rf_300 = float(np.mean([p[300e3]["mean_rf"] for p in bandwidth_pairs]))
    loss_200 = float(np.mean([p[200e3]["mean_loss"] for p in bandwidth_pairs]))
    loss_300 = float(np.mean([p[300e3]["mean_loss"] for p in bandwidth_pairs]))
    assert rf_200 > rf_300
    assert (loss_200 - loss_300) / loss_200 >= 0.10


def test_07_selected_fraction_in_band(dense_run):
    summary, _ = dense_run
    assert 0.10 <= summary["selected_fraction"] <= 0.50


def test_08_transmission_reduction_ratios(policy_bytes):
    total_adamap = sum(policy_bytes["adamap"].values())
    total_lossless = sum(policy_bytes["select-all-lossless"].values())
    assert total_adamap <= total_lossless / 5.0

    late = [f for f in policy_bytes["adamap"] if f > 10]
    assert late, "trace must extend past frame 10"
    late_adamap = sum(policy_bytes["adamap"][f] for f in late)
    late_reuse = sum(policy_bytes["adamap-reuse"][f] for f in late)
    assert late_reuse <= late_adamap / 5.0


def test_09_surrogate_per_rf_means():
    targets = {4: 0.26, 8: 0.32, 16: 0.38, 32: 0.46, 64: 0.48}
    ds = surrogate_dataset(samples_per_key=1500, seed=123)
    for rf, want in targets.items():
        samples = np.concatenate(
            [ds.loss_samples(rf, b) for b in range(N_BUCKETS)])
        assert len(samples) >= 10_000
        assert abs(float(samples.mean()) - want) <= 0.02


def test_10_repeated_runs_are_byte_identical(tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main(["gen-trace", "--cavs", "8", "--frames", "3", "--seed", "2",
                 "--out", str(trace)]) == EXIT_OK
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--trace", str(trace), "--policy", "adamap-reuse",
                     "--seed", "2", "--out", str(out)]) == EXIT_OK
        outs.append(out)
    first, second = outs
    assert (first / "frames.csv").read_bytes() == (second / "frames.csv").read_bytes()
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()


def test_11_relaxing_deadline_trades_loss(h_sweep_losses):
    losses = h_sweep_losses
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-12
    assert losses[0] - losses[-1] >= 0.05
