"""Command-line front end: traces, codec profiles, runs, and sweeps.

Outputs are machine-readable CSV/JSON only; plotting happens elsewhere.
Exit codes: 0 ok, 2 bad input, 3 incomplete profile, 4 internal failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import __version__
from .codec import default_profile_clouds, profile, surrogate_dataset
from .errors import CoopsimError, ConfigError, FrameError, ProfileIncompleteError
from .simpipe import (
    RunConfig,
    collect_metrics,
    generate_trace,
    load_dataset,
    load_trace,
    run_simulation,
    save_trace,
    write_frame_csv,
    write_summary,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROFILE = 3
EXIT_INTERNAL = 4
WORKERS_ENV = "COOPSIM_WORKERS"

SWEEP_PARAMS = ("bandwidth", "H", "cavs")
SWEEP_COLUMNS = (
    "param", "value", "policy", "seed", "version", "mean_loss", "mean_rf",
    "latency_ms_p50", "latency_ms_p90", "latency_ms_p99", "frac_within_h",
    "selected_fraction", "bytes_per_frame", "reused_objects",
    "infeasible_cav_frames",
)


def version_string() -> str:
    """Package version, suffixed with the git commit when run from a checkout."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=root, capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+g{out.stdout.strip()}"
    except OSError:
        pass
    return __version__


def _write_atomic(path: str, write, *args, sidecar: tuple | None = None) -> None:
    """``write(tmp_path, *args)``, then move the finished file into place.
    A ``sidecar`` (path, dict) is written as JSON before that move, so the
    file at ``path`` never lacks it."""
    tmp = path + ".tmp"
    try:
        write(tmp, *args)
        if sidecar is not None:
            _write_atomic(sidecar[0], write_summary, sidecar[1])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _require_fresh(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")


@contextmanager
def _output_file(path: str, force: bool):
    """Refuse an unusable ``path`` before the body works; an OSError once
    the body has begun is an internal failure (exit 4), as in ``_output_dir``."""
    _require_fresh(path, force)
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ConfigError(f"cannot write {path}: not a file in a writable directory")
    try:
        yield
    except OSError as exc:
        raise CoopsimError(f"{type(exc).__name__}: {exc}") from exc


@contextmanager
def _output_dir(path: str, force: bool):
    """Create ``path`` for the body to write in; with ``force``, first delete
    an earlier run or sweep there, so that none of its files survive next to
    the new ones.  Every input is checked before this, so whatever the body
    raises, even an OSError, is an internal failure (exit 4), not bad input."""
    _require_fresh(path, force)
    if os.path.lexists(path):
        if not any(os.path.isfile(os.path.join(path, name))
                   for name in ("manifest.json", "sweep.csv")):
            raise ConfigError(f"{path} holds no manifest.json or sweep.csv; "
                              "refusing to replace it")
        shutil.rmtree(path)
    os.makedirs(path)
    try:
        yield
    except Exception as exc:
        raise CoopsimError(f"{type(exc).__name__}: {exc}") from exc


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if getattr(args, "policy", None):
        cfg = replace(cfg, policy=args.policy)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_gen_trace(args) -> int:
    with _output_file(args.out, args.force):
        trace = generate_trace(args.cavs, args.frames, seed=args.seed)
        per_cav = np.concatenate([np.bincount(f.pair_cav, minlength=len(f.cav_ids))
                                  for f in trace])
        stats = {
            "seed": args.seed,
            "version": version_string(),
            "cavs": args.cavs,
            "frames": args.frames,
            "objects_per_frame": [len(f.obj_ids) for f in trace],
            "visible_per_cav_hist": {str(i): int(n) for i, n in enumerate(np.bincount(per_cav))
                                     if n},
            "visible_per_cav_mean": float(np.mean(per_cav)),
        }
        _write_atomic(args.out, save_trace, trace, sidecar=(args.out + ".stats.json", stats))
    print(f"wrote {args.out} ({args.cavs} cavs x {args.frames} frames, "
          f"mean visible {stats['visible_per_cav_mean']:.1f})")
    return EXIT_OK


def cmd_profile(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    with _output_file(args.out, args.force):
        if args.mode == "surrogate":
            samples = 120 if args.samples is None else args.samples
            ds = surrogate_dataset(samples_per_key=samples)
        else:
            samples = 30 if args.samples is None else args.samples
            # collection itself is allowed to finish; validation reports shortfalls
            ds = profile(default_profile_clouds(seed=0, per_bucket=samples),
                         min_samples=30)
        meta = {"mode": args.mode, "samples": samples, "seed": 0,
                "version": version_string()}
        _write_atomic(args.out, ds.save, sidecar=(args.out + ".meta.json", meta))
    print(f"wrote {args.out} ({len(ds.keys())} keys, {samples} samples each)")
    return EXIT_OK


def run_to_dir(cfg: RunConfig, trace, dataset, out_dir: str, config_name: str,
               trace_name: str) -> dict:
    """Run ``trace`` into the existing ``out_dir``; returns the summary.

    ``manifest.json`` reads "running" until ``frames.csv`` and
    ``summary.json`` are in place, then "complete".  A run that raises is
    marked "failed" with its error, leaves neither output file, and the
    exception propagates.
    """
    manifest = {"config": config_name, "trace": trace_name, "policy": cfg.policy,
                "out_dir": out_dir, "seed": cfg.seed, "version": version_string()}
    path = os.path.join(out_dir, "manifest.json")

    def mark(status: str, **extra) -> None:
        _write_atomic(path, write_summary, {**manifest, "status": status, **extra})

    mark("running")
    try:
        result = run_simulation(trace, cfg, dataset)
        summary = collect_metrics(result)
        summary["version"] = manifest["version"]
        _write_atomic(os.path.join(out_dir, "frames.csv"), write_frame_csv, result.rows)
        _write_atomic(os.path.join(out_dir, "summary.json"), write_summary, summary)
    except Exception as exc:
        mark("failed", error=f"{type(exc).__name__}: {exc}")
        raise
    mark("complete")
    return summary


def cmd_run(args) -> int:
    # every input is read and checked before the output directory exists
    cfg = _load_config(args)
    trace = load_trace(args.trace)
    dataset = load_dataset(cfg)
    with _output_dir(args.out, args.force):
        summary = run_to_dir(cfg, trace, dataset, args.out,
                             config_name=args.config or "<defaults>", trace_name=args.trace)
    infeasible = summary["infeasible_cav_frames"]
    if infeasible:
        print(f"note: {infeasible} CAV-frames had no feasible compression point",
              file=sys.stderr)
    print(f"{cfg.policy}: p99 {summary['latency_ms_p99']:.1f} ms, "
          f"mean loss {summary['mean_loss']:.4f}, "
          f"within-H {summary['frac_within_h']:.3f}")
    return EXIT_OK


def _sweep_worker(job) -> dict:
    cfg, trace, trace_name, dataset, out_dir, param, value, frames = job
    if trace is None:  # a cavs sweep generates each fleet's trace in its own job
        trace = generate_trace(value, frames, seed=cfg.seed)
    os.makedirs(out_dir, exist_ok=True)
    summary = run_to_dir(cfg, trace, dataset, out_dir, config_name="<sweep>",
                         trace_name=trace_name)
    row = {"param": param, "value": value, "policy": cfg.policy,
           "seed": cfg.seed, "version": summary["version"]}
    for key in SWEEP_COLUMNS[5:]:
        row[key] = summary[key]
    return row


def _write_sweep_csv(path: str, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in SWEEP_COLUMNS) + "\n")


def cmd_sweep(args) -> int:
    if len(args.values) < 2:
        raise ConfigError("sweep needs at least two --values")
    # a flag the sweep would not use is refused rather than dropped
    if args.param == "cavs":
        unused, why = ("trace", "cavs"), "--param cavs, which generates a trace per value"
    else:
        unused, why = ("cavs", "frames") if args.trace else (), "--trace"
    for flag in unused:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} has no use with {why}")
    cavs = 150 if args.cavs is None else args.cavs
    frames = 10 if args.frames is None else args.frames
    if frames < 1 or cavs < 1:
        raise ConfigError("--cavs and --frames must be >= 1")
    base = _load_config(args)
    values = []
    for v in args.values:
        try:
            x = float(v)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise ConfigError(f"--values entries must be finite numbers, got {v!r}")
        if args.param == "cavs":
            if x != int(x) or x < 1:
                raise ConfigError(f"cavs values must be integers >= 1, got {v}")
            x = int(x)
        values.append(x)
    # every swept config is built, and so checked, before the sweep directory exists
    field = {"bandwidth": "bandwidth_hz", "H": "H_ms"}.get(args.param)
    configs = [replace(base, **{field: v}) if field else base for v in values]
    # the swept values leave rf_set and dataset_path alone: one check, one load
    dataset = load_dataset(base)
    # a trace file is read and checked before the sweep directory exists
    base_trace = load_trace(args.trace) if args.trace else None

    env_workers = os.environ.get(WORKERS_ENV, "1")
    workers = int(env_workers) if env_workers.isdecimal() else 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be an integer >= 1, got {env_workers!r}")

    with _output_dir(args.out, args.force):
        trace_name = args.trace
        if args.param != "cavs" and base_trace is None:
            trace_name = os.path.join(args.out, "base_trace.jsonl")
            _write_atomic(trace_name, save_trace, generate_trace(cavs, frames, seed=base.seed))
            base_trace = load_trace(trace_name)

        jobs = []
        for cfg, value in zip(configs, values):
            if args.param == "cavs":
                trace_name = f"<generated cavs={value} frames={frames} seed={base.seed}>"
            sub = os.path.join(args.out, f"{args.param}-{value:g}")
            jobs.append((cfg, base_trace, trace_name, dataset, sub, args.param, value, frames))

        if workers == 1:
            rows = [_sweep_worker(j) for j in jobs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_worker, jobs))

        _write_atomic(os.path.join(args.out, "sweep.csv"), _write_sweep_csv, rows)
    for row in rows:
        print(f"{args.param}={row['value']:g}: mean loss {row['mean_loss']:.4f}, "
              f"p99 {row['latency_ms_p99']:.1f} ms")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopsim",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a synthetic mobility trace")
    p.add_argument("--cavs", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("profile", help="build a codec measurement dataset")
    p.add_argument("--mode", choices=("codec", "surrogate"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("run", help="run one policy over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--policy", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep, one row per value")
    p.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p.add_argument("--values", nargs="+", required=True)
    p.add_argument("--trace", default=None)
    # defaults 150 and 10, for a generated trace; refused where unused
    p.add_argument("--cavs", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--policy", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProfileIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROFILE
    except (ConfigError, FrameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # any other CoopsimError, or anything else, is a fault
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
