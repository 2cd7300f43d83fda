"""Spans around coopsim's layer boundaries, installed from outside the program.

A traced repeat replaces module and class attributes with wrappers that record
one span per call (name, start, end, parent) in memory, plus the counts that
need a call's arguments or result.  ``installed`` puts the wrappers in place
and restores the originals on exit.  ``layer_metrics`` turns the spans into the
per-layer table: calls and self time per layer, where self time is a span's
duration minus the time of its child spans.

Names are patched where the caller looks them up.  ``simpipe`` binds most
functions at import time, so those wrappers go on the ``simpipe`` module;
``reconstruction_loss`` finds Chamfer and EMD in ``geometry`` at call time; the
``run`` command finds trace loading and output writing in ``cli``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from coopsim import cli, geometry, simpipe, tracking

# (owner, attribute, span name); the owner is where the caller looks the name up
PATCHES = (
    (simpipe, "run_frame", "simpipe.run_frame"),
    (tracking.HybridLocalizer, "step", "tracking.localize"),
    (simpipe, "predict_subspace_counts", "control.predict_subspace_counts"),
    (simpipe, "select_objects", "control.select_objects"),
    (simpipe, "optimize_rf", "control.optimize_rf"),
    (simpipe.GlobalMap, "predicted_positions", "simpipe.predicted_positions"),
    (simpipe.GlobalMap, "commit_frame", "simpipe.commit_frame"),
    (simpipe, "predictive_match", "tracking.predictive_match"),
    (simpipe, "uplink_rate", "netsim.uplink_rate"),
    (simpipe, "simulate_frame_latency", "netsim.simulate_frame_latency"),
    (simpipe, "surrogate_dataset", "codec.surrogate_dataset"),
    (simpipe, "encode", "codec.encode"),
    (simpipe, "decode", "codec.decode"),
    (simpipe, "sample_visible_surface", "geometry.sample_visible_surface"),
    (simpipe, "resample", "geometry.resample"),
    (simpipe, "reconstruction_loss", "geometry.reconstruction_loss"),
    (geometry, "chamfer_distance", "geometry.chamfer_distance"),
    (geometry, "earth_movers_distance", "geometry.earth_movers_distance"),
    (cli, "load_trace", "simpipe.trace_io"),
    (cli, "collect_metrics", "simpipe.outputs"),
    (cli, "write_frame_csv", "simpipe.outputs"),
    (cli, "write_summary", "simpipe.outputs"),
)

# per-layer metrics: name -> (unit, better); the README maps each to the
# end-to-end metric it should move and the workload it should move on
LAYER_METRICS = {
    "control.optimize_rf.calls": ("count", "lower"),
    "control.optimize_rf.tasks": ("count", "lower"),
    "control.optimize_rf.s": ("s", "lower"),
    "control.optimize_rf.infeasible": ("count", "lower"),
    "control.optimize_rf.tasks_reused": ("count", "lower"),
    "control.predict_subspace_counts.calls": ("count", "lower"),
    "control.predict_subspace_counts.s": ("s", "lower"),
    "control.select_objects.calls": ("count", "lower"),
    "control.select_objects.s": ("s", "lower"),
    "control.selected_per_detected": ("ratio", "lower"),
    "tracking.localize.calls": ("count", "lower"),
    "tracking.localize.s": ("s", "lower"),
    "tracking.localize.detection_slots": ("count", "lower"),
    "tracking.predictive_match.calls": ("count", "lower"),
    "tracking.predictive_match.s": ("s", "lower"),
    "simpipe.commit_frame.calls": ("count", "lower"),
    "simpipe.commit_frame.items": ("count", "lower"),
    "simpipe.commit_frame.s": ("s", "lower"),
    "simpipe.map_entries_mean": ("entries", "lower"),
    "simpipe.predicted_positions.calls": ("count", "lower"),
    "simpipe.predicted_positions.s": ("s", "lower"),
    "simpipe.reuse_match.s": ("s", "lower"),
    "simpipe.reused_per_sent": ("ratio", "higher"),
    "simpipe.run_frame.s": ("s", "lower"),
    "simpipe.outputs.s": ("s", "lower"),
    "simpipe.generate_trace.s": ("s", "lower"),
    "simpipe.trace_io.s": ("s", "lower"),
    "cli.run.s": ("s", "lower"),
    "codec.surrogate_dataset.s": ("s", "lower"),
    "codec.encode.calls": ("count", "lower"),
    "codec.encode.s": ("s", "lower"),
    "codec.decode.calls": ("count", "lower"),
    "codec.decode.s": ("s", "lower"),
    "geometry.sample_visible_surface.calls": ("count", "lower"),
    "geometry.sample_visible_surface.s": ("s", "lower"),
    "geometry.resample.calls": ("count", "lower"),
    "geometry.resample.s": ("s", "lower"),
    "geometry.chamfer_distance.calls": ("count", "lower"),
    "geometry.chamfer_distance.s": ("s", "lower"),
    "geometry.earth_movers_distance.calls": ("count", "lower"),
    "geometry.earth_movers_distance.s": ("s", "lower"),
    "netsim.uplink_rate.calls": ("count", "lower"),
    "netsim.uplink_rate.s": ("s", "lower"),
    "netsim.simulate_frame_latency.calls": ("count", "lower"),
    "netsim.simulate_frame_latency.s": ("s", "lower"),
}


class Tracer:
    """Spans as [name, start, end, parent index] plus per-call observations."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: Counter = Counter()
        self._frame_tasks: list = []  # task object ids per optimize_rf call this frame

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _observe(self, name: str, args, result) -> None:
        if name == "control.optimize_rf":
            tasks = args[0]
            self.counts["optimize_rf.tasks"] += len(tasks)
            self.counts["optimize_rf.infeasible"] += int(bool(result.infeasible))
            self._frame_tasks.append(tuple(t.obj_id for t in tasks))
        elif name == "tracking.localize":
            self.counts["localize.detection_slots"] += int(result.detection_charged)
        elif name == "simpipe.commit_frame":
            self.counts["commit_frame.items"] += len(args[1])
        elif name == "simpipe.run_frame":
            _, objects, stats, _ = result
            self.counts["frames"] += 1
            self.counts["detected_pairs"] += stats.detected_pairs
            self.counts["selected_pairs"] += stats.selected_pairs
            self.counts["map_entries"] += stats.map_size
            self.counts["objects_sent"] += len(objects)
            self.counts["objects_reused"] += sum(1 for o in objects if o.reused)
            self.counts["optimize_rf.tasks_reused"] += _tasks_reused(
                self._frame_tasks, objects)
            self._frame_tasks = []


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper in PATCHES; names a program lacks are reported."""
    saved, missing = [], []
    try:
        for owner, attr, name in PATCHES:
            fn = owner.__dict__.get(attr)
            if fn is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _tasks_reused(calls: list, objects: list) -> int:
    """Optimizer tasks of one frame whose object then went out as a reuse delta.

    A call is matched to the CAV whose sent objects are exactly its tasks, in
    order; calls with equal task lists pair with those CAVs in CAV order, as
    run_frame visits them.
    """
    by_cav: dict = defaultdict(list)
    for rec in objects:
        by_cav[rec.cav_id].append(rec)
    sent: dict = defaultdict(list)  # object ids -> [reused count per CAV]
    for cav_id in sorted(by_cav):
        recs = by_cav[cav_id]
        sent[tuple(r.obj_id for r in recs)].append(sum(r.reused for r in recs))
    return sum(sent[ids].pop(0) for ids in calls if sent.get(ids))


def layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    reuse_match = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - child[i]
        calls[name] += 1
        self_s[name] += own
        if name == "tracking.predictive_match" and parent >= 0 \
                and spans[parent][0] == "simpipe.run_frame":
            reuse_match += own

    n = tracer.counts

    def ratio(num: str, den: str) -> float:
        return n[num] / n[den] if n[den] else 0.0

    values = {
        "control.optimize_rf.tasks": n["optimize_rf.tasks"],
        "control.optimize_rf.infeasible": n["optimize_rf.infeasible"],
        "control.optimize_rf.tasks_reused": n["optimize_rf.tasks_reused"],
        "control.selected_per_detected": ratio("selected_pairs", "detected_pairs"),
        "tracking.localize.detection_slots": n["localize.detection_slots"],
        "simpipe.commit_frame.items": n["commit_frame.items"],
        "simpipe.map_entries_mean": ratio("map_entries", "frames"),
        "simpipe.reuse_match.s": reuse_match,
        "simpipe.reused_per_sent": ratio("objects_reused", "objects_sent"),
    }
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        layer, kind = metric.rsplit(".", 1)
        values[metric] = calls[layer] if kind == "calls" else self_s[layer]
    return {m: {"value": values[m], "unit": LAYER_METRICS[m][0]} for m in LAYER_METRICS}


def write_spans(path: str, tracer: Tracer) -> None:
    """One JSON object per span, times in seconds from the first span's start."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": round(start - origin, 9),
                                 "end": round(end - origin, 9), "parent": parent}))
            fh.write("\n")
