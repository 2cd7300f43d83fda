import re

import numpy as np
import pytest

from coopsim.codec import (
    BUCKET_EDGES,
    CODEC_INPUT_POINTS,
    DEFAULT_LOSS_CALIBRATION,
    MeasurementDataset,
    N_BUCKETS,
    RAW_OBJECT_BYTES,
    RF_SET,
    anchor_count,
    bucket_index,
    decode,
    default_profile_clouds,
    encode,
    latent_dim,
    lossless_bytes,
    payload_bytes,
    profile,
    surrogate_dataset,
)
from coopsim.errors import (
    ConfigError,
    DatasetMissError,
    DecodeError,
    ProfileIncompleteError,
    SizeMismatchError,
)
from coopsim.geometry import (
    Bbox3,
    PointCloud,
    reconstruction_loss,
    resample,
    sample_visible_surface,
)
from coopsim.sampling import TruncatedNormal


def box_cloud(seed, n=CODEC_INPUT_POINTS):
    rng = np.random.default_rng(seed)
    extent = np.array([4.5, 1.8, 1.5]) * rng.uniform(0.8, 1.2, size=3)
    box = Bbox3(center=rng.uniform(-5, 5, size=3), extent=extent,
                yaw=rng.uniform(-np.pi, np.pi))
    az = rng.uniform(-np.pi, np.pi)
    vp = box.center + np.array([30 * np.cos(az), 30 * np.sin(az), 1.5])
    raw = sample_visible_surface(box, vp, int(rng.integers(200, 3000)), seed=seed)
    return resample(raw, n)


def test_latent_dims():
    assert [latent_dim(rf) for rf in RF_SET] == [256, 128, 64, 32, 16]
    assert [anchor_count(rf) for rf in RF_SET] == [85, 42, 21, 10, 5]


def test_latent_dim_rejects_non_divisor():
    with pytest.raises(ValueError):
        latent_dim(3)
    with pytest.raises(ValueError):
        latent_dim(1)


def test_latent_dim_rejects_an_rf_without_an_anchor():
    """RF 256's 4 scalars hold one anchor and the spread; RF 512 and 1,024
    divide 1,024 but leave no room for an anchor."""
    assert (latent_dim(256), anchor_count(256)) == (4, 1)
    for rf in (512, 1024):
        with pytest.raises(ValueError, match="from 2 to 256"):
            latent_dim(rf)


def test_payload_bytes():
    assert [payload_bytes(rf) for rf in RF_SET] == [1024, 512, 256, 128, 64]
    assert RAW_OBJECT_BYTES == 12288
    assert lossless_bytes() == 6434


def test_encode_layout_and_padding():
    cloud = box_cloud(0)
    for rf, pad in [(4, 0), (8, 1), (16, 0), (32, 1), (64, 0)]:
        lat = encode(cloud, rf)
        assert lat.payload.dtype == np.float32
        assert lat.payload.shape == (latent_dim(rf),)
        k = anchor_count(rf)
        assert lat.payload[3 * k] > 0  # spread scalar
        tail = lat.payload[3 * k + 1:]
        assert tail.shape == (pad,)
        assert np.all(tail == 0)


def test_encode_rejects_wrong_size():
    cloud = box_cloud(1)
    with pytest.raises(SizeMismatchError):
        encode(PointCloud(cloud.points[:500]), 4)


def test_encode_deterministic():
    cloud = box_cloud(2)
    a = encode(cloud, 8)
    b = encode(cloud, 8)
    assert np.array_equal(a.payload, b.payload)


def test_encode_anchors_are_input_points():
    cloud = box_cloud(3)
    lat = encode(cloud, 16)
    k = anchor_count(16)
    anchors = lat.payload[: 3 * k].reshape(k, 3).astype(np.float64)
    d = np.linalg.norm(cloud.points[:, None, :] - anchors[None, :, :], axis=2)
    assert d.min(axis=0).max() < 1e-5  # float32 rounding only


def test_decode_shape_and_determinism():
    lat = encode(box_cloud(4), 32)
    a = decode(lat, seed=7)
    b = decode(lat, seed=7)
    c = decode(lat, seed=8)
    assert a.points.shape == (CODEC_INPUT_POINTS, 3)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_decode_rejects_malformed():
    lat = encode(box_cloud(6), 64)
    bad_len = lat.payload[:-1]
    with pytest.raises(DecodeError):
        decode(type(lat)(rf=64, payload=bad_len))
    nonfinite = lat.payload.copy()
    nonfinite[0] = np.nan
    with pytest.raises(DecodeError):
        decode(type(lat)(rf=64, payload=nonfinite))
    neg = lat.payload.copy()
    neg[3 * anchor_count(64)] = -0.5
    with pytest.raises(DecodeError):
        decode(type(lat)(rf=64, payload=neg))


def test_roundtrip_centroid_preserved():
    # anchor placement and jitter each contribute O(spread) centroid error,
    # so decoding must not translate the object by more than a few spreads
    trials = 40
    ratios = []
    for s in range(trials):
        cloud = box_cloud(100 + s)
        lat = encode(cloud, 16)
        spread = float(lat.payload[3 * anchor_count(16)])
        rec = decode(lat, seed=s)
        drift = np.linalg.norm(rec.points.mean(0) - cloud.points.mean(0))
        ratios.append(drift / max(spread, 1e-6))
    ratios = np.array(ratios)
    assert np.median(ratios) < 2.0
    assert ratios.max() < 6.0


@pytest.fixture(scope="module")
def paired_losses():
    """Reconstruction losses paired across RFs over shared clouds.

    All five RFs are evaluated on the first 25 clouds; the RF 4 / RF 64
    extremes on 50.  Shared because each loss costs an assignment solve.
    """
    losses = {rf: [] for rf in RF_SET}
    for s in range(50):
        cloud = box_cloud(200 + s)
        for rf in RF_SET if s < 25 else (4, 64):
            rec = decode(encode(cloud, rf), seed=s)
            losses[rf].append(reconstruction_loss(cloud, rec))
    return {rf: np.array(v) for rf, v in losses.items()}


def test_rf4_beats_rf64_in_expectation(paired_losses):
    lo, hi = paired_losses[4], paired_losses[64]
    assert len(lo) == 50
    assert lo.mean() < hi.mean()
    assert np.sum(lo < hi) >= 40


def test_loss_monotone_in_rf(paired_losses):
    # paired sign test over the 100 adjacent-RF comparisons
    wins = 0
    for lo_rf, hi_rf in zip(RF_SET, RF_SET[1:]):
        lo = paired_losses[lo_rf][:25]
        hi = paired_losses[hi_rf][:25]
        wins += int(np.sum(lo < hi))
    assert wins >= 70
    means = [paired_losses[rf][:25].mean() for rf in RF_SET]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_bucket_index():
    cases = [(0, 0), (50, 0), (127, 0), (128, 1), (255, 1), (256, 2),
             (511, 2), (512, 3), (1024, 4), (2048, 5), (4095, 5),
             (4096, 6), (240000, 6)]
    for count, expect in cases:
        assert bucket_index(count) == expect
    assert N_BUCKETS == 7
    assert len(BUCKET_EDGES) == 7


def test_dataset_add_and_stats():
    ds = MeasurementDataset.from_rows([(4, 2, 0.2, 1.0, 1.1), (4, 2, 0.4, 1.2, 1.3)])
    assert ds.count(4, 2) == 2
    assert ds.mean_loss(4, 2) == pytest.approx(0.3)
    assert ds.cell(4, 2)[1].tolist() == [1.0, 1.2]
    with pytest.raises(DatasetMissError):
        ds.loss_samples(8, 2)
    with pytest.raises(DatasetMissError):
        ds.loss_samples(4, 3)


def test_dataset_validate_reports_missing():
    ds = MeasurementDataset.from_rows((rf, b, 0.3, 1.0, 1.0) for b in range(N_BUCKETS)
                                      for rf in RF_SET for _ in range(2))
    ds.validate(min_samples=2)
    with pytest.raises(ProfileIncompleteError) as exc:
        ds.validate(min_samples=3)
    assert len(exc.value.missing) == len(RF_SET) * N_BUCKETS


def test_dataset_roundtrip(tmp_path):
    ds = surrogate_dataset(samples_per_key=5, seed=3)
    path = tmp_path / "ds.csv"
    ds.save(path)
    back = MeasurementDataset.load(path)
    assert back.keys() == ds.keys()
    for rf, b in ds.keys():
        assert np.array_equal(back.loss_samples(rf, b), ds.loss_samples(rf, b))
        assert np.array_equal(back.cell(rf, b)[2], ds.cell(rf, b)[2])


def test_dataset_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("rf,loss\n4,0.3\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:1")):
        MeasurementDataset.load(path)


def test_dataset_load_rejects_an_rf_without_an_anchor(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("rf,bucket,loss,t_enc_ms,t_dec_ms\n4,0,0.3,1.5,1.5\n512,0,0.3,1.5,1.5\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:3")):
        MeasurementDataset.load(path)


def test_surrogate_calibrated_means():
    ds = surrogate_dataset(samples_per_key=400, seed=11)
    for rf, (mean, _) in DEFAULT_LOSS_CALIBRATION.items():
        pooled = np.concatenate([ds.loss_samples(rf, b) for b in range(N_BUCKETS)])
        assert pooled.min() > 0
        assert pooled.mean() == pytest.approx(mean, abs=0.02)
    times = np.concatenate([ds.cell(4, b)[1] for b in range(N_BUCKETS)])
    assert times.mean() == pytest.approx(1.72, abs=0.1)


def test_surrogate_builds_its_truncated_normals_once(monkeypatch):
    """A second call takes its truncated normals from the cache, where each
    root find ran once, and draws the same cells."""
    first = surrogate_dataset()

    def constructed(self, mean, sd):
        raise AssertionError(f"TruncatedNormal({mean}, {sd}) built again")

    monkeypatch.setattr(TruncatedNormal, "__init__", constructed)
    second = surrogate_dataset()
    assert second.keys() == first.keys()
    for key in first.keys():
        assert np.array_equal(second.cell(*key), first.cell(*key))


def test_profile_covers_all_buckets():
    ds = profile(default_profile_clouds(seed=1, per_bucket=1), rf_set=(8, 64),
                 min_samples=1)
    assert len(ds.keys()) == 2 * N_BUCKETS
    for rf, b in ds.keys():
        assert ds.loss_samples(rf, b).min() >= 0
        assert ds.cell(rf, b)[1].min() > 0


def test_profile_incomplete_when_bucket_absent():
    clouds = [(c, cl) for c, cl in default_profile_clouds(seed=2, per_bucket=1)
              if bucket_index(c) != 3]
    with pytest.raises(ProfileIncompleteError) as exc:
        profile(clouds, rf_set=(64,), min_samples=1)
    assert (64, 3) in exc.value.missing
