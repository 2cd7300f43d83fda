#!/usr/bin/env python3
"""coopsim benchmark: fixed scenarios, host-side metrics, output checks, traces.

    python3 perfbench/run.py --workload fleet-adamap --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One repeat of a workload is what a user pays for one scenario: generate the
trace, write it, then ``coopsim run`` (read it back, build the dataset and run
state, simulate every frame, write frames.csv and summary.json).  After one
untimed warm-up, repeats run back to back for --seconds, at least MIN_REPEATS
of them.  Each repeat's host time is split at its frames into stretches, and
each stretch is scaled to the host's speed, which a kernel sampled beside the
program measures (see Clock).  A timing metric is the sum over stretch
positions of the median across repeats.  With --trace 1 three repeats run
unsampled instead: one with spans around every layer boundary, between two
plain ones that give the tracing overhead's base; the per-layer metrics are
printed.  Every
repeat's outputs are checked (checks.py) and must be byte-identical.  The last
line of standard output is one JSON object; results and spans also go to
bench-results/ at the root of the checkout.
"""

import os

BLAS_THREADS = 1  # pinned before numpy loads, so host timings do not depend on it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench-results")
MIN_REPEATS = 3  # so that each stretch has a median of three
CAL_POINTS = 64  # size of the calibration kernel's input
CAL_TABLE = 20_000  # entries of its lookup table, about 5 MB
CAL_LOOKUPS = 3000  # lookups per sample
CAL_ROUNDS = 125  # numpy rounds per sample
CAL_INTERVAL_S = 0.04  # host time between two kernel samples
CAL_REF_S = 0.0025  # one kernel sample on the reference machine at its fastest
TRACE_SEED = 0  # every workload replays one fixed trace; --seed is the run seed

TIMINGS = ("setup_stretches", "frame_stretches", "wall_s", "kernel_s")
END_TO_END = {
    "cav_frames_per_s": "cav-frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_loss_mean": "m2",
    "sim_cav_frames_within_h": "cav-frames",
}


@dataclass(frozen=True)
class Workload:
    cavs: int
    frames: int
    policy: str
    config: dict = field(default_factory=dict)
    bands: bool = False  # acceptance bands 05 and 07 apply
    geometry: bool = False  # run the codec-chain distance check


WORKLOADS = {
    "fleet-adamap": Workload(150, 3, "adamap", bands=True),
    "fleet-lite": Workload(150, 3, "adamap-lite"),
    "reuse-map": Workload(40, 8, "adamap-reuse"),
    "codec-scene": Workload(7, 2, "adamap", {"dataset_mode": "codec"}, geometry=True),
}
WARMUP = (4, 1)  # cavs, frames of the untimed warm-up repeat


def import_program():
    """Import coopsim from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "coopsim", "__init__.py")):
        raise SystemExit(f"error: no coopsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import coopsim
    if os.path.dirname(os.path.abspath(coopsim.__file__)) != os.path.join(SRC, "coopsim"):
        raise SystemExit(f"error: imported coopsim from {coopsim.__file__}, not {SRC}")
    # `coopsim run` asks git for a version; keep git inside this checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def _kernel(points, table, keys) -> float:
    """A fixed mix of small numpy calls, interpreter arithmetic and scattered
    lookups in a table larger than the CPU's near caches, like coopsim's."""
    total = 0.0
    for i in range(CAL_ROUNDS):
        d = points - points[i % len(points)]
        total += float(((d * d).sum(axis=1) ** 0.5).max())
        total += sum(j * 0.5 for j in range(24))
    for key in keys:
        total += table[key][0]
    return total


def kernel_inputs() -> tuple:
    """The kernel's fixed inputs: points, table and keys."""
    import numpy as np
    rng = np.random.default_rng(0)
    table = {int(k): [float(k), str(k)] for k in rng.permutation(CAL_TABLE)}
    keys = [int(k) for k in rng.integers(0, CAL_TABLE, CAL_LOOKUPS)]
    return rng.random((CAL_POINTS, 3)), table, keys


class Clock:
    """Host time in stretches between marks, scaled to the host's speed.

    The host's speed swings by up to 1.6x for seconds to minutes at a time,
    longer than a run can outwait.  While ``sampling``, a timer signal every
    CAL_INTERVAL_S runs a fixed kernel in this thread and times it, so the
    samples see the speed the program saw around them.  A stretch's host time
    (kernel time taken out) is scaled by CAL_REF_S over the mean sample in
    and next to it.  The wrapper on simpipe.run_frame marks each frame: the
    first one ends set-up, which splits ``coopsim run``'s trace read, dataset
    build and run state from the frames.
    """

    def __init__(self, simpipe):
        self.kernel_inputs = kernel_inputs()
        self.sampling = False
        self.marks, self.samples, self.taken = [], [], 0.0
        inner = simpipe.run_frame

        def run_frame(*args, **kwargs):
            self.mark("frame")
            return inner(*args, **kwargs)

        simpipe.run_frame = run_frame

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel(*self.kernel_inputs)
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.taken += time.perf_counter() - t0

    @contextlib.contextmanager
    def measuring(self, sampling: bool):
        """Clear the marks, and sample the host's speed if asked to."""
        self.sampling = sampling
        self.marks, self.samples, self.taken = [], [], 0.0
        if not sampling:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample(None, None)

    def mark(self, label: str):
        self.marks.append((label, time.perf_counter(), self.taken))

    def kernel_time(self, start: float, end: float) -> float:
        """Mean kernel sample within CAL_INTERVAL_S of [start, end]."""
        near = [dt for t, dt in self.samples
                if start - CAL_INTERVAL_S <= t <= end + CAL_INTERVAL_S]
        if not near:  # a long call into C held the signal back
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return sum(near) / len(near)

    def stretches(self, label: str) -> list:
        """(host seconds, scaled seconds or None) of each stretch that starts
        at a mark with this label, in order."""
        out = []
        for (name, start, taken0), (_, end, taken1) in zip(self.marks, self.marks[1:]):
            if name == label:
                host = end - start - (taken1 - taken0)
                out.append((host, host * CAL_REF_S / self.kernel_time(start, end)
                            if self.sampling else None))
        return out


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_once(wl: Workload, seed: int, work: str, clock: Clock, tracer=None,
             size=None, sampling=True) -> dict:
    """One user-visible repeat; returns its timings, paths and trace keys."""
    from coopsim import cli, simpipe
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cavs, frames = size or (wl.cavs, wl.frames)
    os.makedirs(work)
    trace_path = os.path.join(work, "trace.jsonl")
    config_path = os.path.join(work, "config.json")
    out = os.path.join(work, "out")
    with clock.measuring(sampling), span("bench.repeat"):
        clock.mark("setup")
        with span("simpipe.generate_trace"):
            trace = simpipe.generate_trace(cavs, frames, seed=TRACE_SEED)
        with span("simpipe.trace_io"):
            simpipe.save_trace(trace_path, trace)
        with open(config_path, "w") as fh:
            json.dump({"policy": wl.policy, "seed": seed, **wl.config}, fh)
        err = io.StringIO()
        with span("cli.run"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["run", "--trace", trace_path, "--config", config_path,
                             "--out", out])
        clock.mark("end")
    if code != 0:
        sys.stderr.write(err.getvalue())
    setup_st, frame_st = clock.stretches("setup"), clock.stretches("frame")
    if not frame_st:
        raise SystemExit(f"error: coopsim run exited {code} before its first frame")
    return {
        "code": code,
        "setup_stretches": setup_st,
        "frame_stretches": frame_st,
        "wall_s": sum(host for host, _ in setup_st + frame_st),
        "kernel_s": [dt for _, dt in clock.samples],
        "frames": os.path.join(out, "frames.csv"),
        "summary": os.path.join(out, "summary.json"),
        "keys": {(f.index, c.cav_id) for f in trace for c in f.cavs},
    }


def median_stretches(repeats: list, key: str) -> float:
    """Sum over stretch positions of the median scaled time across repeats."""
    return sum(statistics.median(scaled for _, scaled in col)
               for col in zip(*(r[key] for r in repeats)))


def check_repeats(wl: Workload, repeats: list) -> tuple:
    """Check every repeat; returns (failed CAV-frames, problems, figures)."""
    from checks import check_outputs
    from coopsim.simpipe import RunConfig

    cfg = RunConfig(policy=wl.policy, **wl.config)
    spec = {"rf_set": set(cfg.rf_set), "H_ms": cfg.H_ms,
            "reuse": wl.policy == "adamap-reuse",
            "fixed_rf": max(cfg.rf_set) if wl.policy == "adamap-lite" else None,
            "bands": wl.bands}
    failed, problems, figures = 0, [], None
    first_hashes = None
    for i, rep in enumerate(repeats):
        keys = rep["keys"]
        if rep["code"] != 0:
            failed += len(keys)
            problems.append(f"repeat {i}: coopsim run exited {rep['code']}")
            continue
        bad, rep_problems, figs = check_outputs(rep["frames"], rep["summary"], keys, spec)
        hashes = (sha256(rep["frames"]), sha256(rep["summary"]))
        first_hashes = first_hashes or hashes
        if hashes != first_hashes:
            rep_problems.append("outputs differ from the first repeat's")
        failed += len(keys) if rep_problems else len(bad)
        problems += [f"repeat {i}: {p}" for p in rep_problems]
        if bad:
            problems.append(f"repeat {i}: {len(bad)} CAV-frames failed row checks")
        figures = figures or figs
    return failed, problems, figures


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    from coopsim import simpipe

    wl = WORKLOADS[name]
    clock = Clock(simpipe)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        run_once(wl, seed, os.path.join(scratch, "warmup"), clock, size=WARMUP)
        repeats = []
        start = time.perf_counter()
        # a repeat starts only if one more fits in --seconds, after MIN_REPEATS;
        # a traced run times none, as the per-layer metrics need only the trace
        while not trace and (len(repeats) < MIN_REPEATS or (
                time.perf_counter() - start) * (len(repeats) + 1) / len(repeats) <= seconds):
            repeats.append(run_once(wl, seed, os.path.join(scratch, f"r{len(repeats)}"),
                                    clock))
        timed = list(repeats)
        traced, missing = None, []
        if trace:
            # the overhead's base: plain repeats on either side of the traced one
            traced = tracing.Tracer()
            repeats.append(run_once(wl, seed, os.path.join(scratch, "plain0"), clock,
                                    sampling=False))
            with tracing.installed(traced) as missing:
                repeats.append(run_once(wl, seed, os.path.join(scratch, "traced"), clock,
                                        tracer=traced, sampling=False))
            repeats.append(run_once(wl, seed, os.path.join(scratch, "plain1"), clock,
                                    sampling=False))
        failed, problems, figures = check_repeats(wl, repeats)
        if wl.geometry:
            from checks import check_geometry
            from coopsim.simpipe import RunConfig
            geo = check_geometry(seed, RunConfig().beta)
            if geo:
                failed = sum(len(r["keys"]) for r in repeats)
                problems += [f"geometry: {p}" for p in geo]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = figures or {}
    summary = figures.get("summary", {})
    metrics = {} if trace else {
        "cav_frames_per_s": len(timed[0]["keys"]) / median_stretches(timed, "frame_stretches"),
        "setup_s": median_stretches(timed, "setup_stretches"),
        "peak_rss_mb": rss_mb,
        "sim_loss_mean": summary.get("mean_loss", 0.0),
        "sim_cav_frames_within_h": figures.get("within_h", 0),
    }
    result = {
        "workload": name, "seed": seed, "trace_seed": TRACE_SEED, "seconds": seconds,
        "scenario": {"cavs": wl.cavs, "frames": wl.frames, "policy": wl.policy, **wl.config},
        "machine": machine_record(),
        "repeats": len(timed),
        "timings": [{k: r[k] for k in TIMINGS if k in r} for r in repeats],
        "attempted": sum(len(r["keys"]) for r in repeats),
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "reference": {k: summary.get(k) for k in (
            "latency_ms_p50", "latency_ms_p99", "frac_within_h", "bytes_total",
            "objects_sent", "reused_objects", "selected_fraction", "mean_rf",
            "infeasible_cav_frames")},
    }
    if trace:
        plain0, traced_rep, plain1 = repeats[-3:]
        base = (plain0["wall_s"] + plain1["wall_s"]) / 2
        overhead = traced_rep["wall_s"] - base
        result["per_layer"] = tracing.layer_metrics(traced)
        result["trace_overhead"] = {"traced_wall_s": traced_rep["wall_s"],
                                    "untraced_wall_s": base,
                                    "overhead_s": overhead,
                                    "overhead_pct": 100.0 * overhead / base,
                                    "spans": len(traced.spans), "unhooked": missing}
        spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl")
        tracing.write_spans(spans_path, traced)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    name = result["workload"]
    print(f"{name}: seed {result['seed']}, {result['repeats']} timed repeats, "
          f"{result['attempted']} CAV-frames attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    ref = result["reference"]
    print(f"  simulated: p50 {ref['latency_ms_p50']} ms, p99 {ref['latency_ms_p99']} ms, "
          f"{ref['bytes_total']} B, {ref['objects_sent']} objects sent, "
          f"{ref['reused_objects']} reused")
    metrics = result["per_layer"] if trace else result["metrics"]
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if trace:
        ov = result["trace_overhead"]
        print(f"  tracing overhead {ov['overhead_s']:.3f} s ({ov['overhead_pct']:.1f}%) "
              f"over the {ov['untraced_wall_s']:.3f} s of the plain repeats beside it, "
              f"{ov['spans']} spans")
        if ov["unhooked"]:
            print(f"  not traced (absent from the program): {', '.join(ov['unhooked'])}")
    return {"correct": result["failed"] == 0 and not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
