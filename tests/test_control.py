"""Selection graph thinning and the percentile-constrained RF optimizer."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from coopsim import control, netsim
from coopsim.codec import (
    DEFAULT_LOSS_CALIBRATION,
    MeasurementDataset,
    N_BUCKETS,
    RF_SET,
    bucket_index,
    sample_tables,
    surrogate_dataset,
)
from coopsim.control import (
    POINT_CAP,
    RFProblem,
    _lockstep_group,
    _Scenarios,
    optimize_rf_batch,
    predict_counts,
    select_objects,
)
from coopsim.errors import InvalidViewpointError
from coopsim.geometry import Bbox3
from coopsim.netsim import uplink_rate
from coopsim.simpipe import RunConfig
from oracles import (
    LoopScenarios,
    contains,
    loop_optimize_rf,
    loop_select_objects,
    min_feasible_suffix_sum,
    predict_subspace_counts,
    predict_visible_points,
)

CAR = dict(center=[0.0, 0.0, 0.0], extent=[4.5, 1.8, 1.5])


@pytest.fixture(scope="module")
def surrogate():
    return surrogate_dataset()


def constant_dataset(loss_by_rf=None, enc_ms=1e-6, dec_ms=1e-6):
    """Dataset whose samples are all identical, for deterministic latency."""
    return MeasurementDataset.from_rows(
        (rf, bucket, 0.3 if loss_by_rf is None else loss_by_rf[rf], enc_ms, dec_ms)
        for rf in RF_SET for bucket in range(N_BUCKETS) for _ in range(4))


# ---------------------------------------------------------------------------
# point-count prediction


def count(box, viewer) -> int:
    return int(predict_counts([box.center], [box.extent], [box.yaw], [viewer])[0][0])


def quadrant_counts(box, viewer) -> np.ndarray:
    return predict_counts([box.center], [box.extent], [box.yaw], [viewer])[1][0]


def test_predicted_count_broadside():
    # side face 4.5 x 1.5 = 6.75 m^2 seen square-on at 20 m
    box = Bbox3(**CAR)
    assert count(box, [0.0, 20.0, 0.0]) == 1012


def test_predicted_count_inverse_square():
    box = Bbox3(**CAR)
    assert count(box, [0.0, 40.0, 0.0]) == 253
    assert count(box, [0.0, 50.0, 0.0]) == 162


def test_predicted_count_out_of_range():
    box = Bbox3(**CAR)
    assert count(box, [0.0, 60.0, 0.0]) == 0


def test_predicted_count_capped():
    box = Bbox3(**CAR)
    assert count(box, [0.0, 1.2, 0.0]) == 240000


def test_predicted_count_viewer_inside_raises():
    box = Bbox3(**CAR)
    with pytest.raises(InvalidViewpointError):
        count(box, [0.5, 0.2, 0.1])


def test_subspace_counts_split_between_facing_quadrants():
    box = Bbox3(**CAR)
    counts = quadrant_counts(box, [0.0, 20.0, 0.0])
    assert counts.sum() == 1012
    assert counts[0] == counts[2] == 506
    assert counts[1] == counts[3] == 0


def test_subspace_counts_diagonal_single_quadrant():
    box = Bbox3(**CAR)
    viewer = [20.0, 20.0, 0.0]
    counts = quadrant_counts(box, viewer)
    assert np.count_nonzero(counts) == 1
    assert counts[0] == count(box, viewer)


def test_subspace_counts_out_of_range_all_zero():
    box = Bbox3(**CAR)
    assert quadrant_counts(box, [0.0, 60.0, 0.0]).tolist() == [0] * 4


def test_counts_empty_batch():
    totals, quadrants = predict_counts(np.empty((0, 3)), np.empty((0, 3)), [], np.empty((0, 3)))
    assert totals.shape == (0,) and quadrants.shape == (0, 4)


def test_counts_match_per_pair_oracle():
    """Seeded scan: the batch equals the per-pair predictor on every pair."""
    rng = np.random.default_rng(2024)
    n = 60000
    centers = rng.uniform(-30.0, 30.0, size=(n, 3))
    extents = rng.uniform(0.3, 6.0, size=(n, 3))
    yaws = rng.uniform(-4.0, 4.0, size=n)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    viewers = centers + direction * rng.uniform(0.5, 70.0, size=(n, 1))
    kind = np.arange(n) % 6
    # diagonal in the frame of an unrotated box: exactly one facing quadrant
    s = rng.uniform(5.0, 40.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    t = rng.choice([-1.0, 1.0], size=n)
    viewers[kind == 1] = (centers + np.column_stack([s, t * s, rng.uniform(-3, 3, n)]))[kind == 1]
    yaws[kind == 1] = 0.0
    # straight above the center: all four quadrants
    viewers[kind == 2] = (centers + np.column_stack([np.zeros(n), np.zeros(n),
                                                     rng.uniform(3.5, 30.0, n)]))[kind == 2]
    # beyond the sensing range
    viewers[kind == 3] = (centers + direction * rng.uniform(50.5, 90.0, (n, 1)))[kind == 3]
    # just outside a face, so the count hits POINT_CAP
    viewers[kind == 4] = (centers + np.column_stack([np.zeros(n), extents[:, 1] / 2 + 0.05,
                                                     np.zeros(n)]))[kind == 4]
    yaws[kind == 4] = 0.0
    boxes = [Bbox3(center=c, extent=e, yaw=y) for c, e, y in zip(centers, extents, yaws)]
    outside = np.array([not (contains(b, v)[0]) for b, v in zip(boxes, viewers)])
    keep = np.flatnonzero(outside)
    assert len(keep) >= 50000
    totals, quadrants = predict_counts(
        centers[keep], extents[keep], [boxes[i].yaw for i in keep], viewers[keep])
    want_totals = [predict_visible_points(boxes[i], viewers[i]) for i in keep]
    want_quadrants = np.array([predict_subspace_counts(boxes[i], viewers[i]) for i in keep])
    assert totals.tolist() == want_totals
    assert np.array_equal(quadrants, want_quadrants)
    # every special case is represented
    facing = np.count_nonzero(quadrants, axis=1)
    assert (facing[kind[keep] == 1] == 1).sum() > 5000
    assert (facing[kind[keep] == 2] == 4).sum() > 5000
    assert (totals[kind[keep] == 3] == 0).all()
    assert (totals == POINT_CAP).sum() > 2000
    # a viewer inside a box fails the whole batch, as it fails the oracle
    inside = np.flatnonzero(~outside)[0]
    with pytest.raises(InvalidViewpointError):
        predict_visible_points(boxes[inside], viewers[inside])
    with pytest.raises(InvalidViewpointError):
        predict_counts(centers[[keep[0], inside]], extents[[keep[0], inside]],
                       [boxes[keep[0]].yaw, boxes[inside].yaw], viewers[[keep[0], inside]])


# ---------------------------------------------------------------------------
# edge thinning / selection


def selected(counts_by_cav: dict, threshold: float, obj_id: int = 5) -> set:
    """The viewers that one object's table keeps, given cav_id -> quadrant counts."""
    cav_ids = list(counts_by_cav)
    mask = select_objects([obj_id] * len(cav_ids), cav_ids,
                          np.array([counts_by_cav[c] for c in cav_ids], dtype=np.float64),
                          threshold)
    assert mask.dtype == bool and mask.shape == (len(cav_ids),)
    return {c for c, keep in zip(cav_ids, mask.tolist()) if keep}


def thin(values, threshold: float) -> set:
    """The CAV ids whose edges survive when CAV i's count ``values[i]`` is
    one object's edge in quadrant 0."""
    return selected({i: [v, 0, 0, 0] for i, v in enumerate(values)}, threshold)


def test_thin_edges_keeps_all_when_removal_would_break_threshold():
    assert thin([500, 400, 300], 1024) == {0, 1, 2}


def test_thin_edges_drops_smallest_first():
    assert thin([800, 600, 400], 1024) == {0, 1}


def test_thin_edges_single_large_edge_kept():
    assert selected({7: [2000, 0, 0, 0]}, 1024) == {7}


def test_thin_edges_tie_removes_larger_cav_id_first():
    assert selected({1: [500, 0, 0, 0], 2: [500, 0, 0, 0], 3: [600, 0, 0, 0]}, 1000) == {1, 3}


def test_select_objects_basic():
    counts = {1: [800, 0, 0, 0], 2: [600, 0, 0, 0], 3: [400, 0, 0, 0]}
    assert selected(counts, 1024) == {1, 2}


def test_select_objects_multi_quadrant_retention():
    # cav 3 loses its quadrant-0 edge but survives alone in quadrant 1
    counts = {
        1: [800, 0, 0, 0],
        2: [600, 0, 0, 0],
        3: [400, 2000, 0, 0],
        4: [0, 0, 0, 0],
    }
    assert selected(counts, 1024) == {1, 2, 3}


def test_select_objects_zero_counts_never_selected():
    assert selected({1: [0, 0, 0, 0], 2: [1500, 0, 0, 0]}, 1024) == {2}


def test_select_objects_empty_table():
    assert select_objects([], [], np.empty((0, 4)), 1024).tolist() == []


def test_thinning_matches_suffix_oracle():
    """Retained sum equals the minimal feasible suffix, brute forced."""
    rng = np.random.default_rng(42)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        values = rng.integers(1, 2049, size=n).tolist()
        threshold = float(rng.choice([256, 1024, 1500]))
        kept = thin(values, threshold)
        retained = sum(values[i] for i in kept)
        assert retained == min_feasible_suffix_sum(values, threshold)
        # post-state: nothing removed, or the remainder still meets the bar
        assert len(kept) == n or retained >= threshold


# the quadrants that can face a viewer together: one, an adjacent pair, or all four
_FACING = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (3, 0), (0, 1, 2, 3)]


@pytest.mark.parametrize("threshold", [256.0, 1024.0, 1500.5])
def test_selection_rule_matches_per_object_oracle_on_many_objects(threshold):
    """One call over 600 objects equals the per-object loop on each.  Counts
    are split as predict_counts splits them (halves and quarters), drawn
    from a small pool so that CAVs tie, some out of range (all quadrants
    zero) and some up to the cap; object and CAV ids are sparse and the rows
    shuffled."""
    rng = np.random.default_rng(2601)
    fleet = rng.choice(2**40, size=40, replace=False)
    pool = rng.integers(1, 2400, size=12)
    obj_ids, cav_ids, rows = [], [], []
    for obj_id in rng.choice(10**9, size=600, replace=False).tolist():
        for cav_id in rng.choice(fleet, size=int(rng.integers(1, 9)), replace=False).tolist():
            draw = rng.random()
            total = (0 if draw < 0.1 else int(rng.choice(pool)) if draw < 0.55
                     else int(rng.integers(1, 3000)) if draw < 0.95
                     else int(rng.integers(1, POINT_CAP + 1)))
            facing = list(_FACING[int(rng.integers(len(_FACING)))])
            row = np.zeros(4)
            row[facing] = total / len(facing)
            obj_ids.append(obj_id)
            cav_ids.append(cav_id)
            rows.append(row)
    shuffle = rng.permutation(len(rows))
    obj_ids = np.array(obj_ids)[shuffle]
    cav_ids = np.array(cav_ids)[shuffle]
    quadrants = np.array(rows)[shuffle]
    mask = select_objects(obj_ids, cav_ids, quadrants, threshold)

    viewers = {}
    for obj_id, cav_id, row in zip(obj_ids.tolist(), cav_ids.tolist(), quadrants):
        viewers.setdefault(obj_id, {})[cav_id] = row
    kept = {obj_id: loop_select_objects(counts, threshold) for obj_id, counts in viewers.items()}
    want = [cav_id in kept[obj_id] for obj_id, cav_id in zip(obj_ids.tolist(), cav_ids.tolist())]
    assert mask.tolist() == want
    # every case is represented
    assert 0 < mask.sum() < len(mask)
    assert sum(len(counts) == 1 for counts in viewers.values()) > 50
    assert (quadrants.sum(axis=1) == 0).sum() > 10
    fractions = {float(v % 1) for v in quadrants.ravel()}
    assert {0.25, 0.5, 0.75} <= fractions
    ties = sum(len(set(map(tuple, counts.values()))) < len(counts) for counts in viewers.values())
    assert ties > 50


# ---------------------------------------------------------------------------
# latency probability


def problem(tasks, rate, seed=0):
    """One CAV's RFProblem from (object id, raw count) pairs, with no reuse deltas."""
    return RFProblem([o for o, _ in tasks], [k for _, k in tasks], rate, seed, 0.0)


@pytest.fixture
def wide_search(monkeypatch):
    """A wider search than a run's: 10 x 20 steps and 16 deviations, set on
    control's constants for the test.  Returns a RunConfig factory of 64
    samples for Prob(latency <= 100 ms) >= 0.99, with no margin and no rate
    spread, whose ``overrides`` set other RunConfig fields."""
    for name, value in (("OUTER_ITERS", 10), ("INNER_ITERS", 20), ("DEVIATIONS", 16)):
        monkeypatch.setattr(control, name, value)
    return lambda **overrides: RunConfig(**{"H_ms": 100.0, "h_margin_ms": 0.0, "mc_samples": 64,
                                            "rate_sigma": 0.0, **overrides})


def solve(tasks, rate, dataset, cfg, seed=0):
    """One CAV's RF subproblem, solved as a batch of one."""
    return optimize_rf_batch([problem(tasks, rate, seed)], dataset, cfg)[0]


def latency_prob(wide_search, tasks, rate, dataset, rf, H_ms, seed=0):
    """Monte Carlo Prob(latency <= H_ms) with every task at ``rf``: with one
    level the optimizer can only return that decision and its estimate."""
    res = solve(tasks, rate, dataset, wide_search(H_ms=H_ms, rf_set=(rf,)), seed)
    assert res.rfs.tolist() == [rf] * len(tasks)
    return res.prob


def test_latency_prob_deterministic_fast_path(wide_search, monkeypatch):
    monkeypatch.setattr(netsim, "MODULE_TIMES_MS", {})  # no baseline modules
    assert latency_prob(wide_search, [(0, 800), (1, 300)], 1e12, constant_dataset(), 64,
                        100.0) == 1.0


def test_latency_prob_mid_range(wide_search, monkeypatch):
    # everything negligible except one baseline module ~ N(100, 10) ms,
    # so Prob(total <= 100 ms) should sit near one half
    monkeypatch.setattr(netsim, "MODULE_TIMES_MS", {"baseline": (100.0, 10.0)})
    for seed in range(4):
        prob = latency_prob(wide_search, [(0, 800)], 1e12, constant_dataset(), 64, 100.0,
                            seed=seed)
        assert 0.25 <= prob <= 0.75


def test_latency_prob_superset_monotone(surrogate, wide_search):
    """Adding objects can only hurt: per-object CRN streams keep the shared
    draws identical, so the superset's latency dominates pointwise."""
    base = [(i, 800) for i in range(3)]
    extra = base + [(i, 800) for i in range(10, 13)]
    for seed in range(10):
        p_small = latency_prob(wide_search, base, 600e3, surrogate, 16, 60.0, seed=seed)
        p_large = latency_prob(wide_search, extra, 600e3, surrogate, 16, 60.0, seed=seed)
        assert p_large <= p_small


def test_object_draws_share_no_stream_with_the_subproblem_draws(surrogate, monkeypatch):
    """Object ids are trace ids, any value up to 2**63 - 1, so an id can equal
    a key of another draw.  Whatever the ids, no uniform behind a task's
    encode and decode picks may reappear among those behind its
    subproblem's baseline modules, fading and search perturbations."""
    ids = [0, 1, 2, 1 << 20, (1 << 20) + 1, 1 << 21]
    cfg = RunConfig()
    task_u, other_u = [], []
    pick, modules = control.sample_index, netsim.module_times_ms

    def picks(u, n):
        task_u.append(np.array(u))
        return pick(u, n)

    def baseline(u):
        other_u.append(np.array(u))
        return modules(u)

    def normals(u):  # the fading's and the search's uniforms
        other_u.append(np.array(u))
        return ndtri(u)

    monkeypatch.setattr(control, "sample_index", picks)
    monkeypatch.setattr(netsim, "module_times_ms", baseline)
    monkeypatch.setattr(control, "ndtri", normals, raising=False)
    # at 1 Mb/s the fidelity-best corner misses the bound, so the search runs
    assert not solve([(o, 800) for o in ids], 1e6, surrogate, cfg).infeasible
    task = np.concatenate([u.ravel() for u in task_u])
    other = np.concatenate([u.ravel() for u in other_u])
    assert np.intersect1d(task, other).size == 0
    # and the spies saw every draw: two per object, the subproblem's, the search's
    s, k = cfg.mc_samples, len(ids)
    assert task.size == 2 * k * s
    assert other.size == s * (len(netsim.MODULE_TIMES_MS) + 1) + (
        control.OUTER_ITERS * control.INNER_ITERS * control.DEVIATIONS * k)


# ---------------------------------------------------------------------------
# optimizer


def five_tasks(seed=11):
    rng = np.random.default_rng(seed)
    return [(i, int(c)) for i, c in enumerate(rng.integers(200, 3000, 5))]


def test_optimizer_unconstrained_goes_to_min_rf(surrogate, wide_search):
    res = solve(five_tasks(), 1e9, surrogate, wide_search(H_ms=10000.0))
    assert res.rfs.tolist() == [4] * 5
    assert not res.infeasible
    assert res.lam >= 0


def test_optimizer_multiplier_decays_to_zero(surrogate, wide_search, monkeypatch):
    """Slack constraint: the fidelity-best corner meets it, so the batch
    returns that corner with the slack multiplier 0; the search alone gets
    there too, each outer iteration bleeding the multiplier down."""
    monkeypatch.setattr(control, "OUTER_ITERS", 30)
    cfg = wide_search(H_ms=10000.0)
    res = solve(five_tasks(), 1e9, surrogate, cfg)
    search = loop_optimize_rf(problem(five_tasks(), 1e9), surrogate, cfg, corner=False)
    for r in (res, search):
        assert r.lam == 0.0
        assert r.rfs.tolist() == [4] * 5


def test_optimizer_zero_rate_infeasible(surrogate, wide_search):
    res = solve(five_tasks(), 0.0, surrogate, wide_search())
    assert res.infeasible
    assert res.rfs.tolist() == [64] * 5
    assert res.prob < 0.99


def test_optimizer_output_in_rf_set(surrogate, wide_search):
    for seed, rate in ((0, 150e3), (1, 300e3), (2, 500e3)):
        res = solve(five_tasks(), rate, surrogate, wide_search(), seed=seed)
        assert set(res.rfs.tolist()) <= set(RF_SET)
    narrowed = solve(five_tasks(), 300e3, surrogate, wide_search(rf_set=(8, 32)))
    assert set(narrowed.rfs.tolist()) <= {8, 32}


def test_optimizer_rate_sweep_monotone(surrogate, wide_search):
    """More bandwidth, less compression; feasible runs meet the target."""
    prev = None
    for rate in (60e3, 120e3, 240e3, 480e3):
        res = solve(five_tasks(), rate, surrogate, wide_search())
        if not res.infeasible:
            assert res.prob >= 0.99
        mean_rf = res.rfs.mean()
        if prev is not None:
            assert mean_rf <= prev
        prev = mean_rf


def test_optimizer_bandwidth_contrast(surrogate, wide_search):
    # single-user Shannon rates at 100 m for 200 kHz vs 300 kHz carriers
    rng = np.random.default_rng(7)
    tasks = [(i, int(c)) for i, c in enumerate(rng.integers(200, 3000, 20))]
    means = []
    for bw in (200e3, 300e3):
        rate = uplink_rate(100.0, 1,
                           RunConfig(bandwidth_hz=bw, base_station=(0.0, 0.0, 0.0), sectors=1))
        res = solve(tasks, rate, surrogate, wide_search())
        assert not res.infeasible
        means.append(res.rfs.mean())
    assert means[0] > means[1]


def test_optimizer_relaxing_deadline_never_raises_rf(surrogate, wide_search):
    prev = None
    for H_ms in (60.0, 100.0, 200.0, 300.0):
        res = solve(five_tasks(), 120e3, surrogate, wide_search(H_ms=H_ms), seed=11)
        if prev is not None:
            assert np.all(res.rfs <= prev)
        prev = res.rfs


def test_optimizer_lagrangian_monotone_on_deterministic_instance(wide_search, monkeypatch):
    """With constant samples and no baseline noise the sampled surface is
    exact, so every ascent step must improve the Lagrangian.  The loop
    oracle's search, run without the corner shortcut, records it after each
    step and must end at the fidelity-best corner, which the batch returns."""
    means = {rf: m for rf, (m, _) in DEFAULT_LOSS_CALIBRATION.items()}
    ds = constant_dataset(loss_by_rf=means, enc_ms=0.5, dec_ms=0.5)
    prob = problem([(i, 800) for i in range(3)], 1e12)
    monkeypatch.setattr(netsim, "MODULE_TIMES_MS", {})  # no baseline modules
    monkeypatch.setattr(control, "OUTER_ITERS", 1)
    monkeypatch.setattr(control, "INNER_ITERS", 80)
    cfg = wide_search(H_ms=10000.0)
    ref = loop_optimize_rf(prob, ds, cfg, record_g=True, corner=False)
    trace = np.array(ref.g_trace)
    assert len(trace) == 80
    assert np.all(np.diff(trace) >= -1e-12)
    assert ref.rfs.tolist() == [4, 4, 4]
    res = optimize_rf_batch([prob], ds, cfg)[0]
    assert res.rfs.tolist() == ref.rfs.tolist() and res.lam == 0.0
    assert_same_result(res, loop_optimize_rf(prob, ds, cfg))


def test_optimizer_requires_tasks(surrogate, wide_search):
    with pytest.raises(ValueError):
        solve([], 1e6, surrogate, wide_search())


# ---------------------------------------------------------------------------
# the fidelity-best corner


def test_corner_feasible_subproblem_skips_the_search(surrogate, monkeypatch):
    """Where every task at its least mean loss meets the bound, that point is
    the optimum: the batch returns it with lam = 0 and draws no search
    perturbation.  At a rate where it misses, the search draws them."""
    draws = []  # per keyed_uniforms call: is it a search draw (seed, iteration, task, tag)?
    keyed = control.keyed_uniforms

    def spy(*keys, n):
        draws.append(len(keys) == 4 and keys[-1] == control._TAG_SEARCH)
        return keyed(*keys, n=n)

    monkeypatch.setattr(control, "keyed_uniforms", spy)
    cfg = RunConfig()
    tasks = five_tasks()
    least = [min(cfg.rf_set, key=lambda rf: (surrogate.mean_loss(rf, bucket_index(k)), -rf))
             for _, k in tasks]
    res = solve(tasks, 1e9, surrogate, cfg)
    assert res.rfs.tolist() == least == [4] * 5
    assert res.lam == 0.0 and not res.infeasible and res.prob >= cfg.p
    assert draws == [False, False]  # the subproblem's (seed, _TAG_CAV), its tasks' _TAG_TASK
    draws.clear()
    res = solve(tasks, 1e6, surrogate, cfg)
    assert res.rfs.tolist() != least and res.lam > 0.0
    assert draws.count(True) == control.OUTER_ITERS


def test_corner_takes_each_tasks_least_loss_level_ties_to_the_larger_rf(wide_search):
    """The corner is per task: the level of least mean loss in the task's
    count bucket, wherever it sits in the RF set, and of equal least losses
    the larger RF (equal fidelity, fewer bytes)."""
    cfg = wide_search(H_ms=10000.0)
    tasks = [(0, 100), (1, 800), (2, 3000)]  # count buckets 0, 3 and 5
    cases = [
        ({4: 0.5, 8: 0.3, 16: 0.2, 32: 0.4, 64: 0.6}, [16, 16, 16]),
        ({4: 0.5, 8: 0.2, 16: 0.2, 32: 0.2, 64: 0.6}, [32, 32, 32]),
        (None, [64, 64, 64]),  # one loss everywhere: all levels tie
    ]
    for loss_by_rf, want in cases:
        ds = constant_dataset(loss_by_rf=loss_by_rf)
        res = solve(tasks, 1e12, ds, cfg)
        assert res.rfs.tolist() == want and res.lam == 0.0
        assert_same_result(res, loop_optimize_rf(problem(tasks, 1e12), ds, cfg))
        search = loop_optimize_rf(problem(tasks, 1e12), ds, cfg, corner=False)
        assert res.fidelity >= search.fidelity
    # per bucket: bucket 0's least loss at RF 8, bucket 3's at 32, the rest at 64
    least = {0: 8, 3: 32}
    ds = MeasurementDataset.from_rows(
        (rf, b, 0.1 if rf == least.get(b, 64) else 0.4, 1e-6, 1e-6)
        for rf in RF_SET for b in range(N_BUCKETS) for _ in range(4))
    res = solve(tasks, 1e12, ds, cfg)
    assert res.rfs.tolist() == [8, 32, 64] and res.lam == 0.0
    assert_same_result(res, loop_optimize_rf(problem(tasks, 1e12), ds, cfg))


def test_no_feasible_result_plans_below_the_search(surrogate):
    """The corner's fidelity bounds every point's, so taking it never plans
    a lower sampled fidelity than the search alone; feasibility is decided
    at maximum compression, before either."""
    cfg = RunConfig()
    decided = 0
    for seed in (22, 23):
        problems = random_problems(56, seed)
        for prob, res in zip(problems, optimize_rf_batch(problems, surrogate, cfg)):
            ref = loop_optimize_rf(prob, surrogate, cfg, corner=False)
            assert res.infeasible == ref.infeasible
            if not res.infeasible:
                assert res.prob >= cfg.p
                assert res.fidelity >= ref.fidelity
                decided += res.lam == 0.0 and ref.lam > 0.0
    assert decided


# ---------------------------------------------------------------------------
# lockstep batch against the per-CAV loop, at a run's settings (RunConfig())


def random_problems(n, seed):
    """Seeded subproblems with k = 1..14 tasks; every seventh has zero rate.
    With DEVIATIONS = 12, k >= 12 tasks give an underdetermined plane fit."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(n):
        k = 1 + i % 14
        ids = rng.choice(500, size=k, replace=False)
        counts = rng.integers(50, 5000, size=k)
        rate = 0.0 if i % 7 == 3 else float(np.exp(rng.uniform(np.log(80e3), np.log(2e6))))
        problems.append(RFProblem(obj_ids=ids.tolist(), raw_counts=counts.tolist(),
                                  rate_bps=rate, seed=int(rng.integers(1 << 31)),
                                  fixed_bytes=0.0))
    return problems


def assert_same_result(res, ref):
    assert res.rfs.tolist() == ref.rfs.tolist()
    assert res.infeasible == ref.infeasible
    assert res.prob == ref.prob
    assert res.lam == ref.lam
    assert res.fidelity == ref.fidelity


def with_deltas(problems, seed):
    """``problems`` with 1-5 reuse deltas of 32 B, as fixed bytes, on every
    third subproblem."""
    rng = np.random.default_rng(seed)
    return [replace(p, fixed_bytes=32.0 * int(rng.integers(1, 6))) if i % 3 == 1 else p
            for i, p in enumerate(problems)]


@pytest.mark.parametrize("rf_set", [RF_SET, (8, 32), (64,)])
def test_batch_matches_loop_oracle(surrogate, rf_set):
    problems = with_deltas(random_problems(112, seed=len(rf_set)), seed=len(rf_set))
    cfg = RunConfig(rf_set=rf_set)
    results = optimize_rf_batch(problems, surrogate, cfg)
    flags_by_k: dict = {}
    for prob, res in zip(problems, results):
        assert_same_result(res, loop_optimize_rf(prob, surrogate, cfg))
        assert set(res.rfs.tolist()) <= set(rf_set)
        flags_by_k.setdefault(len(prob.obj_ids), set()).add(res.infeasible)
    assert sorted(flags_by_k) == list(range(1, 15))
    # some lockstep groups mix feasible and infeasible CAVs
    assert any(flags == {True, False} for flags in flags_by_k.values())


def test_batch_rank_deficient_plane_fit_matches_loop_oracle(surrogate, monkeypatch):
    """Deviations this wide clip almost every entry to an RF bound, so many
    designs have a constant column or two equal ones and singular normal
    equations; those rows fall back to lstsq's minimum-norm plane."""
    problems = random_problems(140, seed=15)
    monkeypatch.setattr(control, "DEVIATION_SD", 50.0)
    monkeypatch.setattr(control, "DEVIATIONS", 4)
    cfg = RunConfig()
    for prob, res in zip(problems, optimize_rf_batch(problems, surrogate, cfg)):
        ref = loop_optimize_rf(prob, surrogate, cfg)
        assert res.rfs.tolist() == ref.rfs.tolist()
        assert res.infeasible == ref.infeasible


@pytest.mark.parametrize("rf_set", [RF_SET, (8, 32), (64,)])
def test_scenario_blend_matches_loop_oracle(surrogate, rf_set):
    """The lockstep latency blend is one matmul over a folded compute-time
    table: it may differ from the per-task loop in roundoff, fidelity not."""
    cfg = RunConfig(rf_set=rf_set, rate_sigma=0.1, mc_samples=32)
    levels, k = cfg.rf_set, 5
    rng = np.random.default_rng(16)
    problems = [RFProblem(rng.choice(500, k, replace=False).tolist(),
                          rng.integers(50, 5000, k).tolist(), rate, seed, fixed)
                for seed, (rate, fixed) in enumerate(((80e3, 0.0), (300e3, 96.0), (2e6, 480.0)))]
    buckets = bucket_index(np.array([p.raw_counts for p in problems]))
    sc = _Scenarios.draw(problems, buckets.ravel(),
                         sample_tables(surrogate, levels, np.unique(buckets)), cfg)
    lx = np.log2(levels)
    x = np.concatenate([
        rng.uniform(lx[0], lx[-1], (len(problems), 6, k)),
        rng.choice(lx, (len(problems), 6, k)),  # exactly on levels
        np.full((len(problems), 1, k), lx[0]),
        np.full((len(problems), 1, k), lx[-1]),
    ], axis=1)
    fidelity, latency = sc.evaluate(x)
    for c, prob in enumerate(problems):
        fid_ref, lat_ref = LoopScenarios(prob, surrogate, cfg).evaluate_batch(x[c])
        assert fidelity[c].tolist() == fid_ref.tolist()
        np.testing.assert_allclose(latency[c], lat_ref, rtol=1e-12, atol=0)


def test_fixed_bytes_never_raise_the_latency_probability(surrogate):
    """Reuse deltas are uplink bytes whatever the RFs: at a fixed x more of
    them can only lower Prob(latency <= h).  They change no draw, and a row
    without them is bit-identical to the same row drawn alone."""
    cfg = RunConfig(rate_sigma=0.1)
    rng = np.random.default_rng(18)
    k = 4
    base = RFProblem(rng.choice(500, k, replace=False).tolist(),
                     rng.integers(50, 5000, k).tolist(), 150e3, 5, 0.0)
    # one row per fixed payload, 0 to 40 deltas, on the same draws
    rows = [replace(base, fixed_bytes=32.0 * d) for d in range(0, 41, 4)]
    buckets = bucket_index(np.array(base.raw_counts))
    tables = sample_tables(surrogate, cfg.rf_set, np.unique(buckets).tolist())
    sc = _Scenarios.draw(rows, np.tile(buckets, len(rows)), tables, cfg)
    alone = _Scenarios.draw([base], buckets, tables, cfg)
    lx = np.log2(cfg.rf_set)
    x = rng.uniform(lx[0], lx[-1], (20, k))
    fid, latency = sc.evaluate(np.broadcast_to(x, (len(rows), *x.shape)))
    fid0, latency0 = alone.evaluate(x[None])
    assert fid[0].tolist() == fid0[0].tolist() and latency[0].tolist() == latency0[0].tolist()
    assert (fid == fid[0]).all()
    np.testing.assert_allclose(latency[-1] - latency[0],
                               np.broadcast_to(32.0 * 40 * 8.0 / sc.rate[0], latency[0].shape),
                               rtol=1e-9)
    dropped = False
    for h_s in (0.04, 0.06, 0.075, 0.1):
        _, prob = sc.at(np.broadcast_to(x, (len(rows), *x.shape)), h_s)
        assert (np.diff(prob, axis=0) <= 0).all()
        dropped |= bool((prob[-1] < prob[0]).any())
    assert dropped


@pytest.mark.parametrize("rf_set", [RF_SET, (8, 32), (64,)])
def test_batch_result_same_alone_and_in_batch(surrogate, rf_set):
    """In a batch a row of k tasks is padded to its group's widest row (1-7 or
    8-11 tasks here), and its plane fit solves that larger system; alone it is
    not padded.  The roundoff of the two fits must not move any result."""
    cfg = RunConfig(rf_set=rf_set)
    for n, seed in ((42, 11), (112, 20), (112, 21)):
        problems = random_problems(n, seed)
        for prob, res in zip(problems, optimize_rf_batch(problems, surrogate, cfg)):
            assert_same_result(res, optimize_rf_batch([prob], surrogate, cfg)[0])


def test_batch_result_independent_of_order(surrogate):
    problems = random_problems(42, seed=12)
    cfg = RunConfig()
    forward = optimize_rf_batch(problems, surrogate, cfg)
    perm = np.random.default_rng(3).permutation(len(problems))
    shuffled = optimize_rf_batch([problems[i] for i in perm], surrogate, cfg)
    for j, i in enumerate(perm):
        assert_same_result(shuffled[j], forward[i])


@pytest.mark.parametrize("rf_set", [RF_SET, (8, 32), (64,)])
def test_padded_regime_matches_each_row_alone(surrogate, rf_set):
    """A lockstep group pads its rows with zero tasks to its widest row.
    Within a group numpy sums each row's task terms in the order of the row
    alone, so sampled fidelity and latency are bit-exact, padded or not."""
    cfg = RunConfig(rf_set=rf_set)
    rng = np.random.default_rng(17)
    problems = [RFProblem(rng.choice(500, k, replace=False).tolist(),
                          rng.integers(50, 5000, k).tolist(),
                          float(rng.uniform(80e3, 2e6)), int(rng.integers(1 << 31)), 0.0)
                for _ in range(2) for k in range(1, 12)]
    buckets = {id(p): bucket_index(np.array(p.raw_counts)) for p in problems}
    tables = sample_tables(surrogate, rf_set,
                            np.unique(np.concatenate(list(buckets.values()))).tolist())
    groups: dict = {}
    for p in problems:
        groups.setdefault(_lockstep_group(len(p.obj_ids)), []).append(p)
    lx = np.log2(rf_set)
    for group in groups.values():
        sc = _Scenarios.draw(group, np.concatenate([buckets[id(p)] for p in group]), tables, cfg)
        width = max(len(p.obj_ids) for p in group)
        # one point per row, as the search's checks take it, and one step's deviations
        for d in (1, control.DEVIATIONS):
            x = rng.uniform(lx[0], lx[-1], (len(group), d, width))
            x[:, 0] = rng.choice(lx, x[:, 0].shape)  # exactly on levels
            fidelity, latency = sc.evaluate(x)
            for row, p in enumerate(group):
                k = len(p.obj_ids)
                alone = _Scenarios.draw([p], buckets[id(p)], tables, cfg)
                fid, lat = alone.evaluate(x[row:row + 1, :, :k])
                assert fidelity[row].tolist() == fid[0].tolist(), (k, d)
                assert latency[row].tolist() == lat[0].tolist(), (k, d)


def test_padded_groups_fit_two_planes_per_step(surrogate, monkeypatch):
    """Subproblems of 1-7 and of 8-11 tasks step in two padded groups, so a
    step fits planes twice, not once per task count; rows with k + 1 >
    DEVIATIONS take lstsq instead."""
    calls = []
    fit = control._plane_slopes

    def counted(*args):
        calls.append(1)
        return fit(*args)

    monkeypatch.setattr(control, "_plane_slopes", counted)
    cfg = RunConfig()
    optimize_rf_batch(random_problems(112, seed=13), surrogate, cfg)
    assert len(calls) == 2 * control.OUTER_ITERS * control.INNER_ITERS


def test_batch_rejects_empty_subproblem(surrogate, wide_search):
    problems = random_problems(3, seed=14)
    problems[1] = replace(problems[1], obj_ids=[], raw_counts=[])
    with pytest.raises(ValueError):
        optimize_rf_batch(problems, surrogate, wide_search(rate_sigma=0.1))
