"""Fixed-budget point-cloud codec and its measurement bookkeeping.

An object cloud is always resampled to 1024 points before encoding.  The
representation factor (RF) divides that budget: a latent holds exactly
``1024 / rf`` float32 scalars.  The codec itself is geometric rather than
learned: the latent stores farthest-point anchor coordinates plus one
spread scalar, and decoding replicates the anchors with isotropic jitter.
Reconstruction quality therefore degrades as RF grows, which is the property
the control plane trades against payload size.

Measured or synthetic (loss, encode time, decode time) triples live in a
``MeasurementDataset`` keyed by (rf, raw-point-count bucket); the optimizer
treats that dataset as its sampling oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    ConfigError,
    DatasetMissError,
    DecodeError,
    ProfileIncompleteError,
    SizeMismatchError,
)
from .geometry import (
    Bbox3,
    PointCloud,
    farthest_point_indices,
    reconstruction_loss,
    resample,
    sample_visible_surface,
)
from .sampling import TruncatedNormal

RF_SET = (4, 8, 16, 32, 64)
CODEC_INPUT_POINTS = 1024
DESCRIPTOR_OVERHEAD_BYTES = 128
LATENT_SCALAR_BYTES = 4  # float32
RAW_OBJECT_BYTES = CODEC_INPUT_POINTS * 3 * LATENT_SCALAR_BYTES  # uncompressed float32 xyz
LOSSLESS_RATIO = 1.91  # entropy-coder ratio applied to raw uploads

# raw point-count bucket boundaries; the last bucket is open-ended
BUCKET_EDGES = (0, 128, 256, 512, 1024, 2048, 4096)
N_BUCKETS = len(BUCKET_EDGES)
_BUCKET_UPPER = np.array(BUCKET_EDGES[1:])

# per-RF reconstruction loss calibration: rf -> (mean, sd)
DEFAULT_LOSS_CALIBRATION = {
    4: (0.26, 0.1),
    8: (0.32, 0.1),
    16: (0.38, 0.3),
    32: (0.46, 0.3),
    64: (0.48, 0.4),
}
DEFAULT_TIME_MS = (1.72, 0.53)  # one distribution for encode and decode


def latent_dim(rf: int) -> int:
    if rf < 2 or CODEC_INPUT_POINTS % rf != 0:
        raise ValueError(f"rf must divide {CODEC_INPUT_POINTS}, got {rf}")
    return CODEC_INPUT_POINTS // rf


def anchor_count(rf: int) -> int:
    """Anchors fitting the latent: 3 coords each plus one spread scalar."""
    return (latent_dim(rf) - 1) // 3


def payload_bytes(rf: int) -> int:
    """Latent wire size; the fixed descriptor overhead is accounted separately."""
    return latent_dim(rf) * LATENT_SCALAR_BYTES


def lossless_bytes() -> int:
    return int(np.ceil(RAW_OBJECT_BYTES / LOSSLESS_RATIO))


def bucket_index(raw_count):
    """Count bucket of a raw point count; an array of counts gives an array."""
    b = _BUCKET_UPPER.searchsorted(raw_count, side="right")
    return b if isinstance(b, np.ndarray) else int(b)


@dataclass
class Latent:
    rf: int
    payload: np.ndarray  # float32, length 1024 // rf


def encode(cloud: PointCloud, rf: int) -> Latent:
    """Compress a 1024-point cloud into a ``1024/rf``-scalar latent,
    deterministically."""
    dim = latent_dim(rf)
    if len(cloud) != CODEC_INPUT_POINTS:
        raise SizeMismatchError(
            f"encoder expects {CODEC_INPUT_POINTS} points, got {len(cloud)}"
        )
    k = anchor_count(rf)
    idx = farthest_point_indices(cloud.points, k)
    anchors = cloud.points[idx]
    owner = np.argmin(cdist(cloud.points, anchors, "sqeuclidean"), axis=1)
    spread = float(np.linalg.norm(cloud.points - anchors[owner], axis=1).mean())
    payload = np.zeros(dim, dtype=np.float32)
    payload[: 3 * k] = anchors.astype(np.float32).ravel()
    payload[3 * k] = spread
    return Latent(rf=rf, payload=payload)


def decode(latent: Latent, seed: int = 0) -> PointCloud:
    """Reconstruct 1024 points: anchors replicated evenly plus Gaussian jitter."""
    dim = latent_dim(latent.rf)
    payload = np.asarray(latent.payload, dtype=np.float64).ravel()
    if payload.shape[0] != dim:
        raise DecodeError(f"payload length {payload.shape[0]}, expected {dim}")
    if not np.isfinite(payload).all():
        raise DecodeError("payload contains non-finite values")
    k = anchor_count(latent.rf)
    anchors = payload[: 3 * k].reshape(k, 3)
    spread = float(payload[3 * k])
    if spread < 0:
        raise DecodeError(f"negative spread scalar {spread}")
    counts = np.full(k, CODEC_INPUT_POINTS // k, dtype=np.int64)
    counts[: CODEC_INPUT_POINTS % k] += 1
    base = np.repeat(anchors, counts, axis=0)
    rng = np.random.default_rng(seed)
    pts = base + rng.normal(scale=spread, size=base.shape)
    return PointCloud(pts)


# ---------------------------------------------------------------------------
# measurement dataset


HEADER = "rf,bucket,loss,t_enc_ms,t_dec_ms"


class MeasurementDataset:
    """Samples of (loss, encode ms, decode ms) keyed by (rf, count bucket).

    ``cells`` maps each key to a (3, n) float64 array whose rows are the
    losses, encode times and decode times of its n samples.
    """

    def __init__(self, cells: dict):
        self._cells = cells

    @classmethod
    def from_rows(cls, rows) -> "MeasurementDataset":
        """From (rf, bucket, loss, t_enc_ms, t_dec_ms) rows, in sample order."""
        lists: dict = {}
        for rf, bucket, *values in rows:
            lists.setdefault((int(rf), int(bucket)), []).append(values)
        return cls({key: np.array(v, dtype=np.float64).T.copy() for key, v in lists.items()})

    def keys(self):
        return sorted(self._cells)

    def count(self, rf: int, bucket: int) -> int:
        cell = self._cells.get((rf, bucket))
        return cell.shape[1] if cell is not None else 0

    def cell(self, rf: int, bucket: int) -> np.ndarray:
        """The (3, n) losses, encode times and decode times of one key."""
        cell = self._cells.get((rf, bucket))
        if cell is None:
            raise DatasetMissError(f"no samples for rf={rf} bucket={bucket}")
        return cell

    def loss_samples(self, rf: int, bucket: int) -> np.ndarray:
        return self.cell(rf, bucket)[0]

    def mean_loss(self, rf: int, bucket: int) -> float:
        return float(self.loss_samples(rf, bucket).mean())

    def validate(self, rf_set=RF_SET, min_samples: int = 30):
        missing = [(rf, b) for rf in rf_set for b in range(N_BUCKETS)
                   if self.count(rf, b) < min_samples]
        if missing:
            raise ProfileIncompleteError(missing)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(HEADER + "\n")
            for (rf, bucket), cell in sorted(self._cells.items()):
                for lo, te, td in cell.T.tolist():
                    fh.write(f"{rf},{bucket},{lo!r},{te!r},{td!r}\n")

    @classmethod
    def load(cls, path) -> "MeasurementDataset":
        rows = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != HEADER:
                raise ConfigError(f"{path}:1: unrecognized dataset header {header!r}")
            for line_no, line in enumerate(fh, start=2):
                try:
                    rf, bucket, *values = line.strip().split(",")
                    lo, te, td = (float(v) for v in values)
                    if not all(math.isfinite(v) and v >= 0 for v in (lo, te, td)):
                        raise ValueError("values must be finite and non-negative")
                    rf, bucket = int(rf), int(bucket)
                    if not 0 <= bucket < N_BUCKETS:  # no run can look such a key up
                        raise ValueError(f"bucket must lie in 0 ... {N_BUCKETS - 1}")
                    latent_dim(rf)
                    rows.append((rf, bucket, lo, te, td))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{line_no}: bad dataset row "
                                      f"{line.strip()!r} ({exc})") from exc
        return cls.from_rows(rows)


def sample_index(u, n):
    """The sample that a uniform ``u`` in [0, 1) picks from a cell of ``n``:
    min(floor(u * n), n - 1), over broadcast arrays.  It is the one rule by
    which a draw selects a dataset sample."""
    return np.minimum((u * n).astype(np.int64), n - 1)


def sample_tables(dataset: MeasurementDataset, levels, buckets):
    """Per-(bucket, level) mean loss and zero-padded samples of ``dataset``.

    Returns (levels, mean loss (B, L), samples (B, L, 3, N): each cell's
    losses, encode ms and decode ms, sample counts (B, L)), B = N_BUCKETS.
    Rows of buckets outside ``buckets`` hold one zero sample; a used key the
    dataset lacks raises DatasetMissError.
    """
    nl = len(levels)
    mean_tab = np.zeros((N_BUCKETS, nl))
    count_tab = np.ones((N_BUCKETS, nl), dtype=np.int64)
    cells = {}
    for b in buckets:
        for j, rf in enumerate(levels):
            mean_tab[b, j] = dataset.mean_loss(rf, b)
            cells[b, j] = dataset.cell(rf, b)
            count_tab[b, j] = cells[b, j].shape[1]
    sample_tab = np.zeros((N_BUCKETS, nl, 3, int(count_tab.max(initial=1))))
    for (b, j), cell in cells.items():
        sample_tab[b, j, :, :cell.shape[1]] = cell
    return levels, mean_tab, sample_tab, count_tab


# ---------------------------------------------------------------------------
# profiling and the synthetic stand-in


def default_profile_clouds(seed: int = 0, per_bucket: int = 30):
    """Yield (raw_count, 1024-point cloud) pairs covering every count bucket."""
    rng = np.random.default_rng(seed)
    ranges = []
    for i, lo in enumerate(BUCKET_EDGES):
        hi = BUCKET_EDGES[i + 1] if i + 1 < len(BUCKET_EDGES) else int(1.5 * lo)
        ranges.append((max(lo, 16), max(hi - 1, 17)))  # need a few points to sample
    for lo, hi in ranges:
        for _ in range(per_bucket):
            count = int(rng.integers(lo, hi + 1))
            extent = np.array([4.5, 1.8, 1.5]) * rng.uniform(0.8, 1.2, size=3)
            box = Bbox3(center=np.zeros(3), extent=extent, yaw=float(rng.uniform(-np.pi, np.pi)))
            az = rng.uniform(-np.pi, np.pi)
            dist = rng.uniform(8.0, 40.0)
            vp = np.array([dist * np.cos(az), dist * np.sin(az), rng.uniform(0.5, 2.5)])
            cloud = sample_visible_surface(box, vp, count, seed=int(rng.integers(2**31)))
            yield count, resample(cloud, CODEC_INPUT_POINTS)


def profile(clouds, rf_set=RF_SET, min_samples: int = 30) -> MeasurementDataset:
    """Measure codec loss and wall-clock timings over an input cloud stream.

    Raises ProfileIncompleteError when any (rf, bucket) key ends up with fewer
    than ``min_samples`` entries.
    """
    rows = []
    for i, (raw_count, cloud) in enumerate(clouds):
        for rf in rf_set:
            t0 = time.perf_counter()
            lat = encode(cloud, rf)
            t1 = time.perf_counter()
            rec = decode(lat, seed=i)
            t2 = time.perf_counter()
            rows.append((rf, bucket_index(raw_count), reconstruction_loss(cloud, rec),
                         (t1 - t0) * 1e3, (t2 - t1) * 1e3))
    ds = MeasurementDataset.from_rows(rows)
    ds.validate(rf_set, min_samples)
    return ds


def _stratified(tn: TruncatedNormal, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws via shuffled stratified inverse-CDF sampling.

    One draw per probability stratum keeps every key's sample mean pinned to
    the calibrated mean; plain iid draws of this size would wobble by more
    than the smallest per-RF loss gap and tilt the optimizer's surface.
    """
    u = (np.arange(n) + 0.5) / n
    return tn.ppf(rng.permutation(u))


def surrogate_dataset(samples_per_key: int = 120, seed: int = 0) -> MeasurementDataset:
    """Dataset drawn from calibrated truncated normals instead of the codec.

    Its RFs are those of DEFAULT_LOSS_CALIBRATION.  Loss samples per RF come
    from a lower-truncated normal whose realized mean equals the calibrated
    mean; all count buckets share the per-RF distribution.  Encode and
    decode times share one distribution, DEFAULT_TIME_MS.  The truncated
    normals come from ``TruncatedNormal.cached``, so a process solves for
    their locations once.
    """
    rng = np.random.default_rng(seed)
    time_tn = TruncatedNormal.cached(*DEFAULT_TIME_MS)
    cells = {}
    for rf, calibration in DEFAULT_LOSS_CALIBRATION.items():
        loss_tn = TruncatedNormal.cached(*calibration)
        for bucket in range(N_BUCKETS):
            cells[rf, bucket] = np.stack([_stratified(tn, rng, samples_per_key)
                                          for tn in (loss_tn, time_tn, time_tn)])
    return MeasurementDataset(cells)
