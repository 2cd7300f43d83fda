import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from coopsim import geometry as geo
from coopsim.codec import RF_SET, anchor_count, decode, default_profile_clouds, encode
from coopsim.control import predict_counts
from coopsim.errors import EmptyCloudError, InvalidViewpointError, SizeMismatchError

from oracles import (
    FACES,
    brute_chamfer,
    contains,
    enumerate_emd,
    hungarian_emd,
    loop_farthest_point_indices,
    loop_sample_visible_surface,
    projected_area,
    to_box,
    visible_face_weights,
)


# ---------------------------------------------------------------------------
# point clouds


def test_point_cloud_rejects_non_finite():
    with pytest.raises(ValueError):
        geo.PointCloud(np.array([[0.0, np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# chamfer distance


def test_chamfer_zero_on_identical():
    pts = np.random.default_rng(0).normal(size=(50, 3))
    assert geo.chamfer_distance(pts, pts) == 0.0


def test_chamfer_hand_case():
    a = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    b = np.array([[1.0, 0, 0]])
    # a->b: (1 + 1)/2 = 1, b->a: 1
    assert geo.chamfer_distance(a, b) == pytest.approx(2.0)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n, m = rng.integers(1, 64, size=2)
        a = rng.uniform(-5, 5, size=(n, 3))
        b = rng.uniform(-5, 5, size=(m, 3))
        got = geo.chamfer_distance(a, b)
        want = brute_chamfer(a.tolist(), b.tolist())
        assert got == pytest.approx(want, rel=1e-9)


def test_chamfer_symmetric():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(30, 3)), rng.normal(size=(20, 3))
    assert geo.chamfer_distance(a, b) == pytest.approx(geo.chamfer_distance(b, a), rel=1e-12)


def test_chamfer_empty_raises():
    with pytest.raises(EmptyCloudError):
        geo.chamfer_distance(np.zeros((0, 3)), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# earth mover's distance


def test_emd_zero_on_permutation():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(24, 3))
    b = a[rng.permutation(24)]
    assert geo.earth_movers_distance(a, b) == pytest.approx(0.0, abs=1e-12)


def test_emd_single_pair_is_distance():
    a, b = np.array([[0.0, 0, 0]]), np.array([[3.0, 4.0, 0]])
    assert geo.earth_movers_distance(a, b) == pytest.approx(5.0)


def test_emd_size_mismatch_raises():
    with pytest.raises(SizeMismatchError):
        geo.earth_movers_distance(np.zeros((3, 3)), np.zeros((4, 3)))


def test_emd_matches_enumeration_small():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a = rng.uniform(-3, 3, size=(n, 3))
        b = rng.uniform(-3, 3, size=(n, 3))
        got = geo.earth_movers_distance(a, b)
        want = enumerate_emd(a.tolist(), b.tolist())
        assert got == pytest.approx(want, rel=1e-9)


def test_emd_matches_independent_hungarian():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(9, 64))
        a = rng.uniform(-3, 3, size=(n, 3))
        b = rng.uniform(-3, 3, size=(n, 3))
        got = geo.earth_movers_distance(a, b)
        want = hungarian_emd(a.tolist(), b.tolist())
        assert got == pytest.approx(want, rel=1e-9)


def test_emd_approximation_close_to_exact():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = rng.uniform(-5, 5, size=(64, 3))
        b = a + rng.normal(scale=0.7, size=(64, 3))
        exact = hungarian_emd(a.tolist(), b.tolist())
        approx = geo.earth_movers_distance(a, b)
        assert approx >= exact - 1e-12
        assert approx <= exact * 1.05


def test_emd_subsample_path_close_to_exact_on_codec_clouds():
    """Above EMD_SUBSAMPLE points EMD matches fixed-seed subsets: beta times
    its error stays within 1e-4, and it stays above the nearest-neighbour
    lower bound of the full clouds."""
    beta = 1e-4
    clouds = [cloud for _, cloud in default_profile_clouds(seed=0, per_bucket=1)]
    assert len(clouds[0]) > geo.EMD_SUBSAMPLE
    for i, cloud in enumerate(clouds):
        for rf in (4, 64):
            a, b = cloud.points, decode(encode(cloud, rf), seed=i).points
            d = cdist(a, b)
            rows, cols = linear_sum_assignment(d)
            exact = float(d[rows, cols].mean())
            lower = max(float(d.min(axis=1).mean()), float(d.min(axis=0).mean()))
            emd = geo.earth_movers_distance(a, b)
            assert beta * abs(emd - exact) <= 1e-4
            assert abs(emd - exact) <= 0.25  # at most 0.22 m seen in a codec profile
            assert emd >= lower - 1e-9


def test_emd_bounded_by_max_pairwise_distance():
    rng = np.random.default_rng(21)
    a = rng.uniform(-4, 4, size=(32, 3))
    b = rng.uniform(-4, 4, size=(32, 3))
    from scipy.spatial.distance import cdist

    assert geo.earth_movers_distance(a, b) <= cdist(a, b).max() + 1e-12


def test_emd_scale_equivariant():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(20, 3))
    b = rng.normal(size=(20, 3))
    base = geo.earth_movers_distance(a, b)
    assert geo.earth_movers_distance(3.0 * a, 3.0 * b) == pytest.approx(3.0 * base, rel=1e-9)


def test_reconstruction_loss_combines_terms():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(16, 3))
    b = rng.normal(size=(16, 3))
    cd = geo.chamfer_distance(a, b)
    emd = geo.earth_movers_distance(a, b)
    assert geo.reconstruction_loss(a, b, beta=1e-4) == pytest.approx(cd + 1e-4 * emd)
    assert geo.reconstruction_loss(a, a) == 0.0


# ---------------------------------------------------------------------------
# resampling


def test_resample_identity_when_sizes_match():
    pts = np.random.default_rng(4).normal(size=(17, 3))
    out = geo.resample(geo.PointCloud(pts), 17)
    assert np.array_equal(out.points, pts)


def test_resample_downsample_is_subset():
    rng = np.random.default_rng(6)
    pts = rng.uniform(size=(200, 3))
    out = geo.resample(geo.PointCloud(pts), 64)
    assert len(out) == 64
    as_set = {tuple(p) for p in pts}
    assert all(tuple(p) in as_set for p in out.points)
    assert len({tuple(p) for p in out.points}) == 64


def test_resample_upsample_preserves_support():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(10, 3))
    out = geo.resample(geo.PointCloud(pts), 33)
    assert len(out) == 33
    assert {tuple(p) for p in out.points} == {tuple(p) for p in pts}
    # cyclic duplication keeps multiplicities within one of each other
    _, counts = np.unique(out.points, axis=0, return_counts=True)
    assert counts.max() - counts.min() <= 1


def test_resample_deterministic():
    pts = np.random.default_rng(12).normal(size=(300, 3))
    first = geo.resample(geo.PointCloud(pts), 100).points
    second = geo.resample(geo.PointCloud(pts), 100).points
    assert np.array_equal(first, second)


def test_resample_empty_raises():
    with pytest.raises(EmptyCloudError):
        geo.resample(geo.PointCloud(np.zeros((0, 3))), 8)


def test_farthest_point_walk_on_a_line():
    pts = np.array([[float(i), 0.0, 0.0] for i in range(10)])
    idx = geo.farthest_point_indices(pts, 3)
    # start nearest the centroid (x=4.5 -> index 4), then the extremes
    assert idx.tolist() == [4, 9, 0]


def _surface_cloud(seed, n):
    rng = np.random.default_rng(seed)
    box = geo.Bbox3(center=rng.uniform(-20, 20, size=3),
                    extent=np.array([4.5, 1.8, 1.5]) * rng.uniform(0.8, 1.2, size=3),
                    yaw=rng.uniform(-math.pi, math.pi))
    az = rng.uniform(-math.pi, math.pi)
    vp = box.center + np.array([25 * math.cos(az), 25 * math.sin(az), 1.5])
    return geo.sample_visible_surface(box, vp, n, seed=seed).points


@pytest.mark.parametrize("n", [1025, 1500, 2048, 2049, 3000, 4096])
def test_farthest_point_walk_matches_loop_oracle(n):
    pts = _surface_cloud(n, n)
    assert np.array_equal(geo.farthest_point_indices(pts, 1024),
                          loop_farthest_point_indices(pts, 1024))


def test_farthest_point_walk_matches_loop_oracle_at_anchor_counts():
    for seed in range(3):
        pts = geo.resample(geo.PointCloud(_surface_cloud(seed, 1800)), 1024).points
        for rf in RF_SET:
            k = anchor_count(rf)
            assert np.array_equal(geo.farthest_point_indices(pts, k),
                                  loop_farthest_point_indices(pts, k))


def test_farthest_point_walk_ties_go_to_first_index():
    base = _surface_cloud(7, 40)
    pts = np.concatenate([base, base, base])  # copy c of point i at c * 40 + i
    idx = geo.farthest_point_indices(pts, 60)
    assert np.array_equal(idx, loop_farthest_point_indices(pts, 60))
    # every distinct point is taken at its first copy; then all ties are 0
    assert sorted(idx[:40].tolist()) == list(range(40))
    assert idx[40:].tolist() == [0] * 20


# ---------------------------------------------------------------------------
# surface sampling


def _car_box(center=(0.0, 0.0, 0.0), yaw=0.0):
    return geo.Bbox3(center=np.array(center), extent=np.array([4.5, 1.8, 1.5]), yaw=yaw)


def test_sampled_points_lie_on_visible_faces():
    box = _car_box(center=(2.0, -1.0, 0.5), yaw=0.6)
    vp = np.array([20.0, 5.0, 1.5])
    cloud = geo.sample_visible_surface(box, vp, 500, seed=3)
    local = to_box(box, cloud.points)
    half = box.extent / 2.0
    on_face = np.isclose(np.abs(local), half, atol=1e-9).any(axis=1)
    assert on_face.all()
    assert (np.abs(local) <= half + 1e-9).all()
    # every sampled point must sit on a face whose plane the viewpoint is beyond
    vis = visible_face_weights(box, vp) > 0
    for p in cloud.points:
        lp = to_box(box, p[None, :])[0]
        hit = []
        for f, (axis, sign) in enumerate(FACES):
            if math.isclose(lp[axis], sign * half[axis], abs_tol=1e-9):
                hit.append(vis[f])
        assert any(hit)


def test_sample_visible_surface_deterministic():
    box = _car_box()
    a = geo.sample_visible_surface(box, [10.0, 10.0, 1.0], 256, seed=99).points
    b = geo.sample_visible_surface(box, [10.0, 10.0, 1.0], 256, seed=99).points
    assert np.array_equal(a, b)
    c = geo.sample_visible_surface(box, [10.0, 10.0, 1.0], 256, seed=100).points
    assert not np.array_equal(a, c)


def test_sample_visible_surface_viewpoint_inside_raises():
    with pytest.raises(InvalidViewpointError):
        geo.sample_visible_surface(_car_box(), [0.1, 0.0, 0.0], 10, seed=0)


def test_sampler_matches_loop_oracle_on_random_boxes():
    """Face weights from the count kernel give the per-face loop's points,
    bit for bit, on random boxes (yaw across +-2 pi, centers within 100 m)."""
    rng = np.random.default_rng(21)
    for _ in range(1000):
        box = geo.Bbox3(center=rng.uniform(-100, 100, 3), extent=rng.uniform(0.2, 6, 3),
                        yaw=float(rng.uniform(-2 * math.pi, 2 * math.pi)))
        vp = box.center + rng.normal(size=3) * rng.uniform(0.5, 40)
        if contains(box, vp)[0]:
            continue
        n, seed = int(rng.integers(1, 3000)), int(rng.integers(2**31))
        assert np.array_equal(geo.sample_visible_surface(box, vp, n, seed).points,
                              loop_sample_visible_surface(box, vp, n, seed).points)


@pytest.mark.parametrize("yaw, offset", [
    (0.6, [0.0, 0.0, 30.0]),  # straight above: the top face alone
    (0.0, [2.25, 10.0, 0.3]),  # exactly on the +l face's plane: that face weighs 0
    (0.0, [20.0, 20.0, 0.0]),  # on the diagonal: the +l and +w faces
    (-2.0, [-10.0, -10.0, -4.0]),  # diagonal below: three faces turned to the viewer
    (0.6, [2.25 + 1e-9, 0.4, 0.2]),  # 1e-9 m outside the +l face: that face alone
    (2.5, [0.0, -0.9 - 1e-9, 0.0]),  # 1e-9 m outside the -w face
])
def test_sampler_matches_loop_oracle_at_edge_viewpoints(yaw, offset):
    box = _car_box(center=(3.0, -2.0, 0.75), yaw=yaw)
    vp = box.center + np.asarray(offset) @ box.axes()
    for seed in range(5):
        got = geo.sample_visible_surface(box, vp, 777, seed).points
        assert np.array_equal(got, loop_sample_visible_surface(box, vp, 777, seed).points)
    # the points cover exactly the faces the per-face loop weighs
    local = to_box(box, got)
    seen = [f for f, (axis, sign) in enumerate(FACES)
            if np.isclose(local[:, axis], sign * box.extent[axis] / 2.0, rtol=0, atol=1e-9).any()]
    assert seen == np.flatnonzero(visible_face_weights(box, vp)).tolist()


@pytest.mark.parametrize("margin, inside", [(1e-13, True), (-0.3, True), (1e-9, False)])
def test_sampler_and_counts_share_the_inside_rule(margin, inside):
    """A viewpoint within 1e-12 m of a face counts as inside for the sampler
    and the count kernel alike: both raise through face_weights."""
    box = _car_box(center=(3.0, -2.0, 0.75))
    vp = box.center + np.array([2.25 + margin, 0.2, 0.1])
    calls = (lambda: geo.sample_visible_surface(box, vp, 10, seed=0),
             lambda: predict_counts(box.center, box.extent, [box.yaw], vp))
    for call in calls:
        if inside:
            with pytest.raises(InvalidViewpointError, match="lies inside the box"):
                call()
        else:
            call()


def test_face_counts_proportional_to_projected_area():
    # axis-aligned box seen from a corner direction in the ground plane
    box = geo.Bbox3(center=np.zeros(3), extent=np.array([4.0, 2.0, 2.0]), yaw=0.0)
    vp = np.array([10.0, 5.0, 0.0])
    n = 40000
    cloud = geo.sample_visible_surface(box, vp, n, seed=5)
    local = cloud.points  # box frame == world frame here
    on_px = np.isclose(local[:, 0], 2.0, atol=1e-9).sum()
    on_py = np.isclose(local[:, 1], 1.0, atol=1e-9).sum()
    assert on_px + on_py == n
    # analytic projected areas: face area times cosine to the view direction
    d = vp / np.linalg.norm(vp)
    w_x = (2.0 * 2.0) * d[0]
    w_y = (4.0 * 2.0) * d[1]
    expect_x = n * w_x / (w_x + w_y)
    assert abs(on_px - expect_x) / expect_x < 0.10


def test_projected_area_head_on_car_face():
    # a 4.5 x 1.5 side face viewed square-on shows its full area
    assert projected_area(_car_box(), [0.0, 20.0, 0.0]) == pytest.approx(6.75)


def test_projected_area_zero_weight_for_back_faces():
    box = _car_box()
    w = visible_face_weights(box, [0.0, 20.0, 0.0])
    assert (w > 0).sum() == 1


# ---------------------------------------------------------------------------
# box/viewer kernels


def _facing(box, viewer):
    local, _ = geo.box_frame_offsets(box.center[None, :], np.array([box.yaw]),
                                     np.asarray(viewer, dtype=np.float64)[None, :])
    return np.flatnonzero(geo.facing_quadrant_mask(local)[0]).tolist()


def test_facing_quadrants_hand_cases():
    box = _car_box()
    # dead ahead along +length: the two front quadrants
    assert _facing(box, [30.0, 0.0, 0.0]) == [0, 1]
    # from the +width side: the two +w quadrants
    assert _facing(box, [0.0, 30.0, 0.0]) == [0, 2]
    # diagonal: the single corner quadrant
    assert _facing(box, [30.0, 30.0, 0.0]) == [0]
    assert len(_facing(box, [-30.0, -10.0, 0.0])) <= 2
    # straight above the center: degenerate, all four
    assert _facing(box, [0.0, 0.0, 30.0]) == [0, 1, 2, 3]


def test_box_frame_offsets_match_to_box():
    rng = np.random.default_rng(8)
    boxes = [_car_box(center=tuple(rng.uniform(-30, 30, 3)), yaw=float(rng.uniform(-4, 4)))
             for _ in range(200)]
    viewers = rng.uniform(-60, 60, size=(200, 3))
    local, dist = geo.box_frame_offsets(np.array([b.center for b in boxes]),
                                        np.array([b.yaw for b in boxes]), viewers)
    for b, v, lo, d in zip(boxes, viewers, local, dist):
        assert np.allclose(lo, to_box(b, v[None, :])[0], rtol=0, atol=1e-12)
        assert d == pytest.approx(np.linalg.norm(v - b.center), rel=1e-15)


def test_projected_areas_match_per_box_routine():
    rng = np.random.default_rng(9)
    boxes = [geo.Bbox3(center=rng.uniform(-10, 10, 3), extent=rng.uniform(0.2, 5, 3),
                       yaw=float(rng.uniform(-4, 4))) for _ in range(300)]
    pairs = [(b, b.center + rng.normal(size=3) * 20) for b in boxes]
    boxes, viewers = zip(*[(b, v) for b, v in pairs if not contains(b, v)[0]])
    viewers = np.array(viewers)
    centers = np.array([b.center for b in boxes])
    extents = np.array([b.extent for b in boxes])
    local, dist = geo.box_frame_offsets(centers, np.array([b.yaw for b in boxes]), viewers)
    got = geo.face_weights(local, dist, extents).sum(axis=1)
    want = [projected_area(b, v) for b, v in zip(boxes, viewers)]
    assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_projected_areas_viewer_inside_raises():
    box = _car_box()
    local, dist = geo.box_frame_offsets(box.center[None, :], np.array([box.yaw]),
                                        np.array([[0.5, 0.2, 0.1]]))
    with pytest.raises(InvalidViewpointError):
        geo.face_weights(local, dist, box.extent[None, :])
