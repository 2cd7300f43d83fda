from types import SimpleNamespace

import numpy as np
import pytest

from coopsim import tracking
from coopsim.sampling import keyed_uniforms
from coopsim.simpipe import _S_LOC
from coopsim.tracking import (
    HybridLocalizer,
    kalman_correct,
    kalman_init,
    kalman_predict,
    nearest_rows,
    row_norms,
)
from oracles import (
    LoopLocalizer,
    kalman_state,
    matrix_kalman_correct,
    matrix_kalman_predict,
    predictive_match,
    process_noise,
)


# ---------------------------------------------------------------------------
# Kalman filter


def test_predict_moves_with_velocity():
    s = (0.0, 0.0, 1.0, -2.0, 1.0, 0.0, 1.0, 0.0)  # covariance I
    out = kalman_predict(s, 1.0)
    assert np.allclose(out[:4], [1.0, -2.0, 1.0, -2.0])
    assert out[7] == 1.0


def test_process_noise_hand_matrix():
    want = np.array(
        [
            [1 / 3, 0, 1 / 2, 0],
            [0, 1 / 3, 0, 1 / 2],
            [1 / 2, 0, 1, 0],
            [0, 1 / 2, 0, 1],
        ]
    )
    assert np.allclose(process_noise(1.0, q=1.0), want, atol=1e-15)
    # from a certain state, one unit step adds exactly the process noise
    s = (1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(kalman_state(kalman_predict(s, 1.0)).p, want, atol=1e-15)
    # scales linearly in q and keeps PSD
    assert np.allclose(process_noise(0.1, q=2.0), 2.0 * process_noise(0.1, q=1.0))
    assert np.linalg.eigvalsh(process_noise(0.25)).min() >= -1e-15


def test_closed_form_matches_matrix_form():
    rng = np.random.default_rng(78)
    axis = np.array([0, 1, 0, 1])  # the axis of X, Y, dX, dY
    cross = axis[:, None] != axis[None, :]
    for _ in range(500):
        s = kalman_init(rng.normal(size=2), 0.0)
        m = kalman_state(s)
        for _ in range(20):
            if rng.uniform() < 0.5:
                dt = float(rng.uniform(0.01, 0.5))
                s, m = kalman_predict(s, dt), matrix_kalman_predict(m, dt)
            else:
                z = rng.normal(scale=5.0, size=2)
                r_obs = float(rng.uniform(1e-6, 1.0))
                s, m = kalman_correct(s, z, r_obs=r_obs), matrix_kalman_correct(m, z, r_obs=r_obs)
            # relative to each array's largest entry: an entry near 0 after
            # cancellation carries the roundoff of its larger terms
            got = kalman_state(s)
            for mine, want in ((got.x, m.x), (got.p, m.p)):
                assert np.abs(mine - want).max() <= 1e-12 * np.abs(want).max()
            assert got.time == m.time
            assert not got.p[cross].any()


def test_scalar_gain_is_half_with_equal_variances():
    # prior position variance 1 and observation variance 1: textbook gain 0.5
    s = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 10.0, 0.0)  # covariance diag([1, 1, 10, 10])
    out = kalman_correct(s, [1.0, 0.0], r_obs=1.0)
    assert abs(out[0] - 0.5) < 1e-12
    assert abs(out[1]) < 1e-12
    assert abs(out[4] - 0.5) < 1e-12


def test_noiseless_constant_velocity_converges():
    v = 7.3
    dt = 0.1
    s = kalman_init([0.0, 0.0], 0.0)
    errors = []
    for k in range(1, 31):
        t = k * dt
        s = kalman_predict(s, dt)
        s = kalman_correct(s, [v * t, 0.0], r_obs=1e-12)
        errors.append(abs(s[0] - v * t))
    assert max(errors[10:]) < 1e-6
    assert abs(s[2] - v) < 1e-3


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(77)
    for _ in range(500):
        s = kalman_init(rng.normal(size=2), 0.0)
        for _ in range(20):
            if rng.uniform() < 0.5:
                s = kalman_predict(s, float(rng.uniform(0.01, 0.5)))
            else:
                s = kalman_correct(s, rng.normal(scale=5.0, size=2),
                                   r_obs=float(rng.uniform(1e-6, 1.0)))
            p = kalman_state(s).p
            assert np.allclose(p, p.T, atol=1e-9)
            assert np.linalg.eigvalsh(p).min() >= -1e-9


def test_predict_rejects_negative_dt():
    with pytest.raises(ValueError):
        kalman_predict(kalman_init([0, 0], 0.0), -0.1)


# ---------------------------------------------------------------------------
# predictive matching


def match(position, predicted: dict, gate: float = 3.0):
    """nearest_rows over the predictions held in id order, mapped back to an id."""
    ids = sorted(predicted)
    row = int(nearest_rows([predicted[i] for i in ids], position, gate)[0])
    return None if row < 0 else ids[row]


def test_match_prefers_nearer_predicted_track():
    predicted = {1: (0.0, 0.0), 2: (1.0, 0.0)}
    assert match((0.9, 0.0), predicted) == 2
    assert match((0.1, 0.0), predicted) == 1


def test_match_crossing_tracks():
    # two tracks heading through the same point; the observation sits just
    # past the crossing on track 5's side
    predicted = {5: (1.0, 1.0), 9: (1.0, -1.0)}
    assert match((1.0, 0.4), predicted) == 5


def test_match_gate_rejects_far_observation():
    assert match((10.0, 10.0), {1: (0.0, 0.0)}, gate=3.0) is None
    # boundary: exactly at the gate is rejected (strict inequality)
    assert match((3.0, 0.0), {1: (0.0, 0.0)}, gate=3.0) is None
    assert match((0.0, 1.5), {1: (0.0, 0.0)}, gate=1.5) is None
    assert match((0.0, 1.4999), {1: (0.0, 0.0)}, gate=1.5) == 1


def test_match_tie_breaks_to_smallest_id():
    predicted = {4: (0.0, 0.0), 2: (2.0, 0.0)}
    assert match((1.0, 0.0), predicted) == 2
    # four tracks at equal distance around the observation
    ring = {7: (1.0, 0.0), 3: (0.0, 1.0), 5: (-1.0, 0.0), 6: (0.0, -1.0)}
    assert match((0.0, 0.0), ring) == 3


def test_match_empty_map():
    assert nearest_rows(np.empty((0, 2)), [[1.0, 2.0], [3.0, 4.0]], 3.0).tolist() == [-1, -1]


def test_nearest_rows_matches_dict_oracle():
    # coarse grid coordinates make exact ties and exact-gate distances common
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(0, 12))
        ids = sorted(rng.choice(1000, size=n, replace=False).tolist())
        points = rng.integers(-6, 7, size=(n, 2)) * 0.5
        queries = rng.integers(-6, 7, size=(20, 2)) * 0.5
        gate = float(rng.choice([0.5, 1.0, 3.0]))
        rows = nearest_rows(points, queries, gate)
        predicted = dict(zip(ids, points))
        for q, row in zip(queries, rows):
            want = predictive_match(q, predicted, gate)
            assert (None if row < 0 else ids[row]) == want

def test_row_norms_match_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    d = rng.normal(size=(20000, 2)) * rng.uniform(0.0, 10.0, size=(20000, 1))
    want = np.array([np.linalg.norm(row) for row in d])
    assert np.array_equal(row_norms(d), want)
    assert row_norms(np.empty((0, 2))).shape == (0,)


# ---------------------------------------------------------------------------
# hybrid localization


def _oracle(monkeypatch, sigma_det=0.0, miss_prob=0.0, sigma_trk=0.0):
    """Set the localizer's detector and tracker errors; noise-free by default."""
    for name, value in (("SIGMA_DET", sigma_det), ("MISS_PROB", miss_prob),
                        ("SIGMA_TRK", sigma_trk)):
        monkeypatch.setattr(tracking, name, value)


def _slot(loc, t, views, seed, frame):
    """One ``localize`` call over ``views``, CAV id -> {object id: (x, y)},
    with the keyed uniforms run_frame draws.  Returns the result, each
    pair's CAV row and object id, and the uniforms."""
    cav_ids = np.array(sorted(views), dtype=np.int64)
    pairs = [(c, o) for c, cav in enumerate(cav_ids.tolist()) for o in sorted(views[cav])]
    pair_cav = np.array([c for c, _ in pairs], dtype=np.int64)
    obj_ids = np.array([o for _, o in pairs], dtype=np.int64)
    truth = np.array([views[int(cav_ids[c])][o] for c, o in pairs],
                     dtype=np.float64).reshape(-1, 2)
    u_pair = keyed_uniforms(seed, frame, cav_ids[pair_cav], obj_ids, _S_LOC, n=6)
    u_cav = keyed_uniforms(seed, frame, cav_ids, _S_LOC, n=1)[:, 0]
    res = loc.localize(t, cav_ids, pair_cav, obj_ids, truth, u_pair, u_cav)
    return res, pair_cav, obj_ids, u_pair, u_cav


def _step(loc, k, truth, seed):
    """Slot k, at t = k / 10, of CAV 0 alone seeing ``truth``."""
    res, _, obj_ids, _, _ = _slot(loc, k * 0.1, {0: truth}, seed, k)
    observations = {o: pos for o, pos, pub in zip(obj_ids.tolist(), res.observed,
                                                   res.published.tolist()) if pub}
    return SimpleNamespace(observations=observations, charged_ms=float(res.charged_ms[0]),
                           detection_charged=bool(res.detection_charged[0]))


def _run_slots(loc, truths, seed):
    """Each slot's result, and whether it latched detection for the next slot."""
    results, detecting = [], []
    for k, truth in enumerate(truths):
        results.append(_step(loc, k, truth, seed))
        detecting.append(loc.detecting[0])
    return results, detecting


def test_zero_rle_switches_to_tracking_and_charges_tracker_time(monkeypatch):
    _oracle(monkeypatch)
    loc = HybridLocalizer()
    truths = [{1: (0.1 * k, 0.0), 2: (5.0, 0.1 * k)} for k in range(400)]
    results, detecting = _run_slots(loc, truths, 0)
    assert results[0].detection_charged  # boots in detection
    assert not any(detecting)
    tracked = [r.charged_ms for r in results[1:]]
    assert all(not r.detection_charged for r in results[1:])
    # charged time follows the tracker distribution (mean 0.73 ms)
    assert abs(np.mean(tracked) - 0.73) < 0.12


def test_large_gap_forces_detection_next_slot(monkeypatch):
    _oracle(monkeypatch, sigma_trk=5.0)
    loc = HybridLocalizer()
    truths = [{1: (0.0, 0.0)} for _ in range(200)]
    results, detecting = _run_slots(loc, truths, 1)
    flips = [k for k, d in enumerate(detecting[:-1]) if d]
    # slot 0 has no track, so no gap; the tracker's 5 m error opens one later
    assert flips and flips[0] > 0
    assert all(results[k + 1].detection_charged for k in flips)
    # a detection slot follows nothing but a flip
    assert all(k - 1 in flips for k, r in enumerate(results)
               if k > 0 and r.detection_charged)


def test_new_object_rides_on_detector_in_tracking_mode(monkeypatch):
    # an exact detector and a noisy tracker tell the sources apart by value
    _oracle(monkeypatch, sigma_trk=1e-4)
    loc = HybridLocalizer()
    _step(loc, 0, {1: (0.0, 0.0)}, 2)
    res = _step(loc, 1, {1: (0.0, 0.0), 7: (3.0, 3.0)}, 2)
    assert not res.detection_charged
    assert 0.0 < float(np.linalg.norm(res.observations[1])) < 0.01  # tracker
    assert np.array_equal(res.observations[7], [3.0, 3.0])  # detector
    assert loc.track_obj.tolist() == [1, 7]


def test_all_missed_detection_mode_publishes_nothing(monkeypatch):
    _oracle(monkeypatch, miss_prob=1.0)
    loc = HybridLocalizer()
    res = _step(loc, 0, {1: (0.0, 0.0)}, 3)
    assert res.observations == {}
    assert res.detection_charged  # a vehicle new to the fleet boots in detection


def test_tracks_retire_after_silence(monkeypatch):
    _oracle(monkeypatch)
    loc = HybridLocalizer()
    _step(loc, 0, {1: (0.0, 0.0)}, 4)
    assert loc.track_obj.tolist() == [1]
    for k in range(1, 30):
        _step(loc, k, {}, 4)
    assert loc.track_obj.tolist() == []


def test_tracker_error_mixture_mean_matches_sigma(monkeypatch):
    # the stationary share of the degraded state, from the two-state chain
    leave = 1.0 - tracking.MANEUVER_PERSIST
    pi_b = tracking.MANEUVER_ENTER / (tracking.MANEUVER_ENTER + leave)
    base = tracking.tracker_base_error()
    mix = (1 - pi_b) * base + pi_b * base * tracking.MANEUVER_ERROR_RATIO
    assert mix == pytest.approx(tracking.SIGMA_TRK, rel=1e-12)
    # computed at the call, so a patched sigma takes effect
    monkeypatch.setattr(tracking, "SIGMA_TRK", 2.0 * tracking.SIGMA_TRK)
    assert tracking.tracker_base_error() == pytest.approx(2.0 * base, rel=1e-12)


def test_hybrid_error_and_cost_between_pure_modes():
    # lighter rehearsal of the acceptance-scale run
    loc = HybridLocalizer()
    errs, charges, det_slots = [], [], 0
    n = 3000
    for k in range(n):
        t = k * 0.1
        truth = {i: (10.0 * i + 3.0 * t, 2.0 * i) for i in range(3)}
        res = _step(loc, k, truth, 5)
        for obj_id, obs in res.observations.items():
            errs.append(float(np.linalg.norm(obs - np.asarray(truth[obj_id]))))
        charges.append(res.charged_ms)
        det_slots += int(res.detection_charged)
    assert 0.06 < np.mean(errs) < 0.13
    assert np.mean(charges) < 3.5
    assert det_slots / n < 0.25


@pytest.mark.parametrize("seed, sigma_trk, miss_prob", [
    (0, tracking.SIGMA_TRK, tracking.MISS_PROB),
    (1, 0.6, tracking.MISS_PROB),  # gaps over the threshold flip modes often
    (2, 0.3, 0.3),
    (3, 0.6, 0.0),
])
def test_fleet_localizer_matches_loop_oracle(monkeypatch, seed, sigma_trk, miss_prob):
    """Random fleets over many slots: CAVs skip slots, views change, and
    gaps of over TRACK_RETIRE_S retire the tracks of the CAVs that step.
    Ids go beyond 32 bits.  Every output and all state equal the per-vehicle
    loop's, bit for bit."""
    _oracle(monkeypatch, tracking.SIGMA_DET, miss_prob, sigma_trk)
    rng = np.random.default_rng(seed)
    cav_pool = np.unique(rng.integers(0, 2**40, size=8)).tolist()
    obj_pool = np.unique(rng.integers(0, 2**62, size=12)).tolist()
    fleet, loops = HybridLocalizer(), {}
    t = 0.0
    for frame in range(60):
        t += float(rng.choice([0.1, 0.1, 0.1, 0.7, 2.5]))
        present = [c for c in cav_pool if rng.random() < 0.7] or cav_pool[:1]
        views = {c: {o: tuple(rng.normal(0.0, 20.0, 2)) for o in obj_pool if rng.random() < 0.5}
                 for c in present}
        res, pair_cav, obj_ids, u_pair, u_cav = _slot(fleet, t, views, seed, frame)
        for c, cav in enumerate(sorted(views)):
            mine = np.flatnonzero(pair_cav == c)
            draws = dict(zip(obj_ids[mine].tolist(), u_pair[mine]))
            obs, charged, detection = loops.setdefault(cav, LoopLocalizer()).step(
                t, views[cav], draws, u_cav[c])
            published = mine[res.published[mine]]
            assert dict(zip(obj_ids[published].tolist(), res.observed[published].tolist())) \
                == {o: pos.tolist() for o, pos in obs.items()}
            assert res.charged_ms[c] == charged
            assert res.detection_charged[c] == detection
        assert fleet.detecting == {v: loop.detecting for v, loop in loops.items()}
        tracks = list(zip(fleet.track_cav.tolist(), fleet.track_obj.tolist(),
                          fleet.maneuver.tolist(), fleet.last_seen.tolist()))
        assert tracks == [(v, o, e.maneuver, e.last_seen) for v in sorted(loops)
                          for o, e in sorted(loops[v].tracks.items())]
