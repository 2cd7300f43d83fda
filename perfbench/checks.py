"""Output checks computed apart from the program.

``check_outputs`` reads one run's ``frames.csv`` and ``summary.json`` and
recomputes what it can from first principles: one row per (frame, CAV), the
latency sum, the payload rule, the RF set, nearest-rank percentiles, the
within-H share and the byte total.  It returns the CAV-frames that failed a
row check and the run-level problems; a run-level problem fails every
CAV-frame of that run.  ``check_geometry`` checks the codec chain's distances
against a KD-tree and against bounds that any correct EMD must meet.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.spatial import cKDTree

# payload rule: a latent of 1024/rf float32 scalars plus the descriptor, or a
# fixed-size delta when the broadcast map already holds the object
CODEC_POINTS = 1024
DESCRIPTOR_BYTES = 128
REUSE_DELTA_BYTES = 32
CSV_TOL = 1e-6  # frames.csv carries six decimals
PERCENTILES = (50, 90, 95, 99)
ACCEPT_WITHIN_H = 0.85  # acceptance test 05
ACCEPT_SELECTED = (0.10, 0.50)  # acceptance test 07


def latent_bytes(rf: int) -> int:
    return 4 * CODEC_POINTS // rf + DESCRIPTOR_BYTES


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in strict JSON")


def read_frames(path: str) -> list:
    with open(path, newline="") as fh:
        rows = []
        for rec in csv.DictReader(fh):
            rows.append({
                "key": (int(rec["frame"]), int(rec["cav_id"])),
                "ms": {k: float(rec[k]) for k in
                       ("vehicle_ms", "uplink_ms", "queue_ms", "server_ms", "total_ms")},
                "bytes": int(rec["bytes"]),
                "loss": float(rec["loss"]),
                "rfs": [int(v) for v in rec["rfs"].split(";") if v],
            })
    return rows


def check_outputs(frames_path: str, summary_path: str, expected_keys: set,
                  spec: dict) -> tuple:
    """Return (failed CAV-frame keys, run-level problems, recomputed figures).

    ``spec`` holds rf_set, H_ms, reuse (whether reuse deltas may appear),
    fixed_rf (every RF must equal it) and bands (apply acceptance bands).
    """
    problems = []
    try:
        with open(summary_path) as fh:
            summary = json.loads(fh.read(), parse_constant=_reject_constant)
    except ValueError as exc:
        return set(expected_keys), [f"summary.json: {exc}"], {}
    rows = read_frames(frames_path)

    bad = set()
    seen = set()
    objects = deltas = 0
    loss_weighted = 0.0
    for row in rows:
        key = row["key"]
        if key in seen or key not in expected_keys:
            problems.append(f"row {key} is duplicated or not in the trace")
        seen.add(key)
        ms = row["ms"]
        parts = ms["vehicle_ms"] + ms["uplink_ms"] + ms["queue_ms"] + ms["server_ms"]
        if not all(math.isfinite(v) and v >= 0 for v in ms.values()) \
                or abs(ms["total_ms"] - parts) > 3 * CSV_TOL:
            bad.add(key)
        if any(rf not in spec["rf_set"] for rf in row["rfs"]) or \
                (spec["fixed_rf"] and any(rf != spec["fixed_rf"] for rf in row["rfs"])):
            bad.add(key)
        rest = row["bytes"] - sum(latent_bytes(rf) for rf in row["rfs"])
        if rest < 0 or rest % REUSE_DELTA_BYTES or (rest and not spec["reuse"]):
            bad.add(key)
        n_sent = len(row["rfs"]) + max(rest, 0) // REUSE_DELTA_BYTES
        objects += n_sent
        deltas += max(rest, 0) // REUSE_DELTA_BYTES
        loss_weighted += row["loss"] * n_sent
    missing = expected_keys - seen
    if missing:
        problems.append(f"{len(missing)} (frame, CAV) rows missing")

    totals = [row["ms"]["total_ms"] for row in rows]
    h = spec["H_ms"]
    within = sum(1 for v in totals if v <= h)
    near_h = sum(1 for v in totals if abs(v - h) <= CSV_TOL)
    figures = {
        "cav_frames": len(rows),
        "within_h": within,
        "bytes_total": sum(row["bytes"] for row in rows),
        "objects_sent": objects,
        "reused_objects": deltas,
        "loss_mean": loss_weighted / objects if objects else 0.0,
    }
    figures.update({f"latency_ms_p{p}": nearest_rank(totals, p) for p in PERCENTILES})

    def differs(name, ours, tol=0.0):
        theirs = summary.get(name)
        if not isinstance(theirs, (int, float)) or abs(theirs - ours) > tol:
            problems.append(f"summary {name}={theirs!r}, recomputed {ours!r}")

    for p in PERCENTILES:
        differs(f"latency_ms_p{p}", figures[f"latency_ms_p{p}"], CSV_TOL)
    differs("frac_within_h", within / len(rows), near_h / len(rows))
    differs("bytes_total", figures["bytes_total"])
    differs("objects_sent", objects)
    differs("reused_objects", deltas)
    differs("mean_loss", figures["loss_mean"], CSV_TOL)
    differs("frames", len({k[0] for k in expected_keys}))
    differs("cavs", len({k[1] for k in expected_keys}))
    if spec["fixed_rf"]:
        differs("selected_fraction", 1.0)
    if spec["bands"]:
        if summary.get("frac_within_h", 0.0) < ACCEPT_WITHIN_H:
            problems.append(f"frac_within_h {summary.get('frac_within_h')} "
                            f"below {ACCEPT_WITHIN_H}")
        lo, hi = ACCEPT_SELECTED
        if not lo <= summary.get("selected_fraction", -1.0) <= hi:
            problems.append(f"selected_fraction {summary.get('selected_fraction')} "
                            f"outside [{lo}, {hi}]")
    figures["summary"] = summary
    return bad, problems, figures


def check_geometry(seed: int, beta: float) -> list:
    """Distances over clouds built through the public codec chain."""
    from coopsim.codec import decode, encode
    from coopsim.geometry import (
        Bbox3,
        chamfer_distance,
        earth_movers_distance,
        reconstruction_loss,
        resample,
        sample_visible_surface,
    )

    rng = np.random.default_rng([seed, 77])
    yaw = float(rng.uniform(-math.pi, math.pi))
    bearing, dist = float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(5.0, 40.0))
    box = Bbox3(center=[0.0, 0.0, 0.75], extent=(4.5, 1.8, 1.5), yaw=yaw)
    viewer = [dist * math.cos(bearing), dist * math.sin(bearing), 1.8]
    surface = sample_visible_surface(box, viewer, 2048, seed=int(rng.integers(1 << 31)))
    cloud = resample(surface, CODEC_POINTS)
    problems = []
    for rf in (4, 64):
        recon = decode(encode(cloud, rf), seed=int(rng.integers(1 << 31)))
        a, b = cloud.points, recon.points
        loss = reconstruction_loss(a, b, beta=beta)
        cd = chamfer_distance(a, b)
        emd = earth_movers_distance(a, b)
        if abs(loss - (cd + beta * emd)) > 1e-12 * max(1.0, loss):
            problems.append(f"rf={rf}: loss {loss} != chamfer + beta*emd {cd + beta * emd}")
        d_ab, _ = cKDTree(b).query(a)
        d_ba, _ = cKDTree(a).query(b)
        own_cd = float(np.mean(d_ab ** 2) + np.mean(d_ba ** 2))
        if abs(cd - own_cd) > 1e-9 * max(1.0, own_cd):
            problems.append(f"rf={rf}: chamfer {cd}, KD-tree {own_cd}")
        lower = max(float(d_ab.mean()), float(d_ba.mean()))
        upper = float(np.linalg.norm(a - b, axis=1).mean())
        if not lower - 1e-9 <= emd <= upper + 1e-9:
            problems.append(f"rf={rf}: emd {emd} outside [{lower}, {upper}]")
    return problems
