"""CLI behavior: artifacts, exit codes, overwrite refusal, sweeps."""

import csv
import errno
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from coopsim import __version__, cli, simpipe
from coopsim.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PROFILE,
    SWEEP_COLUMNS,
    main,
    version_string,
)
from coopsim.codec import DEFAULT_LOSS_CALIBRATION, MeasurementDataset, N_BUCKETS, RF_SET


def test_version_string_mentions_package_version():
    assert version_string().startswith("0.1.0")


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=cwd, check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_version_string_ignores_an_enclosing_work_tree(tmp_path, monkeypatch):
    """An installed copy under a virtualenv inside another repository reports
    the bare version, not that repository's commit; a checkout's own copy
    still reports its commit."""
    repo = tmp_path / "repo"
    (repo / "src" / "coopsim").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "README").write_text("x\n")
    _git(repo, "add", "README")
    _git(repo, "commit", "-q", "-m", "one")
    site = repo / "venv" / "lib" / "python3.11" / "site-packages" / "coopsim"
    site.mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(site / "cli.py"))
    assert version_string() == __version__
    monkeypatch.setattr(cli, "__file__", str(repo / "src" / "coopsim" / "cli.py"))
    assert version_string().startswith(f"{__version__}+g")


def test_git_timeout_still_writes_the_run(tmp_path, monkeypatch, trace_path):
    """A ``git describe`` that times out leaves the bare version, and the run
    completes with its manifest."""
    (tmp_path / "checkout" / ".git").mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "checkout" / "src" / "coopsim" / "cli.py"))

    def slow(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(cli.subprocess, "run", slow)
    assert version_string() == __version__
    out = tmp_path / "run"
    assert main(["run", "--trace", str(trace_path), "--seed", "1", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["version"] == __version__


def test_two_runs_in_one_process_ask_git_once(tmp_path, monkeypatch, trace_path):
    """``git describe`` runs once per checkout and process, not once per run."""
    (tmp_path / "checkout" / ".git").mkdir(parents=True)
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "checkout" / "src" / "coopsim" / "cli.py"))
    calls = []

    def describe(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(cli.subprocess, "run", describe)
    for name in ("one", "two"):
        out = str(tmp_path / name)
        assert main(["run", "--trace", str(trace_path), "--seed", "1", "--out", out]) == EXIT_OK
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["version"] == f"{__version__}+gabc1234"
    assert len(calls) == 1


_IMPORT_GUARD = """
import json, sys
from coopsim.cli import main

def loaded(*subpackages):
    return sorted(m for m in sys.modules if m.split(".")[:2] in
                  [["scipy", p] for p in subpackages])

out = sys.argv[1]
codes = [main(["gen-trace", "--cavs", "4", "--frames", "2", "--seed", "4",
               "--out", out + "/trace.jsonl"])]
with open(out + "/codec.json", "w") as f:
    f.write('{"dataset_mode": "codec"}')
codes.append(main(["run", "--trace", out + "/trace.jsonl", "--out", out + "/surrogate"]))
surrogate = loaded("optimize", "spatial")
codes.append(main(["run", "--trace", out + "/trace.jsonl", "--config", out + "/codec.json",
                   "--out", out + "/codec"]))
print(json.dumps({"codes": codes, "stats": loaded("stats"), "surrogate": surrogate,
                  "codec": [m for m in ("scipy.optimize", "scipy.spatial.distance")
                            if m in sys.modules]}))
"""


def test_cli_runs_never_import_scipy_stats(tmp_path):
    """A fresh interpreter that generates a trace and runs it with the
    surrogate and with the codec loads no ``scipy.stats``; up to the end of
    the surrogate run it loads no ``scipy.optimize`` or ``scipy.spatial``
    either, which the codec chain then loads on first use (pytest cannot
    check this in-process: the tests import all three)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [EXIT_OK] * 3, "stats": [], "surrogate": [],
                      "codec": ["scipy.optimize", "scipy.spatial.distance"]}


# ---------------------------------------------------------------------------
# gen-trace


def test_gen_trace_writes_trace_and_sidecar(tmp_path):
    out = tmp_path / "t.jsonl"
    assert main(["gen-trace", "--cavs", "6", "--frames", "2", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    assert out.exists()
    stats = json.loads((tmp_path / "t.jsonl.stats.json").read_text())
    assert stats["cavs"] == 6
    assert stats["frames"] == 2
    assert stats["seed"] == 3
    assert stats["version"] == version_string()
    assert len(stats["objects_per_frame"]) == 2
    assert sum(stats["visible_per_cav_hist"].values()) == 12


def test_gen_trace_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["gen-trace", "--cavs", "5", "--frames", "3", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_trace_single_cav_is_valid(tmp_path):
    out = tmp_path / "one.jsonl"
    assert main(["gen-trace", "--cavs", "1", "--frames", "2",
                 "--out", str(out)]) == EXIT_OK
    from coopsim.simpipe import load_trace
    assert len(load_trace(out)) == 2


def test_gen_trace_non_finite_value_leaves_no_file(tmp_path, monkeypatch, capsys):
    """save_trace writes strict JSON: a NaN in the last frame raises part way
    through the file, and gen-trace leaves neither the trace nor its sidecar."""
    generate = cli.generate_trace

    def broken(cavs, frames, seed):
        trace = generate(cavs, frames, seed=seed)
        trace[-1].yaws[0] = math.nan
        return trace

    monkeypatch.setattr(cli, "generate_trace", broken)
    out = tmp_path / "t.jsonl"
    assert main(["gen-trace", "--cavs", "6", "--frames", "3", "--out", str(out)]) == EXIT_INTERNAL
    assert "not JSON compliant" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_gen_trace_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    args = ["gen-trace", "--cavs", "3", "--frames", "1", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_INPUT
    assert "--force" in capsys.readouterr().err
    assert main(args + ["--force"]) == EXIT_OK


def test_gen_trace_rejects_bad_counts(tmp_path):
    assert main(["gen-trace", "--cavs", "0", "--frames", "1",
                 "--out", str(tmp_path / "t.jsonl")]) == EXIT_INPUT


def test_gen_trace_unwritable_path(tmp_path):
    out = tmp_path / "missing_dir" / "t.jsonl"
    assert main(["gen-trace", "--cavs", "3", "--frames", "1",
                 "--out", str(out)]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# profile


def test_profile_surrogate_dataset(tmp_path):
    out = tmp_path / "ds.csv"
    assert main(["profile", "--mode", "surrogate", "--out", str(out)]) == EXIT_OK
    ds = MeasurementDataset.load(out)
    assert len(ds.keys()) == len(RF_SET) * N_BUCKETS
    for rf, (mean, _sd) in DEFAULT_LOSS_CALIBRATION.items():
        per_rf = np.concatenate([ds.loss_samples(rf, b) for b in range(N_BUCKETS)])
        assert abs(per_rf.mean() - mean) <= 0.02
        assert (per_rf >= 0).all()
    meta = json.loads((tmp_path / "ds.csv.meta.json").read_text())
    assert meta["mode"] == "surrogate"
    assert meta["version"] == version_string()


def test_profile_codec_insufficient_samples(tmp_path, capsys):
    out = tmp_path / "ds.csv"
    assert main(["profile", "--mode", "codec", "--samples", "1",
                 "--out", str(out)]) == EXIT_PROFILE
    err = capsys.readouterr().err
    assert "missing" in err
    assert "(4, 0)" in err  # names the short keys
    assert not out.exists()


@pytest.mark.parametrize("mode", ["surrogate", "codec"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_profile_samples_below_one_exits_2_before_output(tmp_path, capsys, mode, samples):
    out = tmp_path / "ds.csv"
    assert main(["profile", "--mode", mode, f"--samples={samples}",
                 "--out", str(out)]) == EXIT_INPUT
    assert "--samples must be >= 1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_profile_refuses_overwrite(tmp_path):
    out = tmp_path / "ds.csv"
    args = ["profile", "--mode", "surrogate", "--samples", "40", "--out", str(out)]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_INPUT


@pytest.mark.parametrize("command, owner, attr", [
    (["gen-trace", "--cavs", "3", "--frames", "2"], cli, "save_trace"),
    (["profile", "--mode", "surrogate", "--samples", "2"], MeasurementDataset, "save"),
], ids=["gen-trace", "profile"])
def test_partial_write_leaves_no_file_at_out(tmp_path, monkeypatch, command, owner, attr):
    """The main file goes into place only once it is whole."""
    def full_disk(*args):  # (path, trace) or (dataset, path)
        with open(next(a for a in args if isinstance(a, str)), "w") as fh:
            fh.write("half a line")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(owner, attr, full_disk)
    out = tmp_path / "out"
    # the location was fine, so a fault once writing has begun is internal
    assert main([*command, "--out", str(out)]) == EXIT_INTERNAL
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, sidecar", [
    (["gen-trace", "--cavs", "3", "--frames", "2"], ".stats.json"),
    (["profile", "--mode", "surrogate", "--samples", "2"], ".meta.json"),
], ids=["gen-trace", "profile"])
def test_failed_sidecar_leaves_no_file_at_out(tmp_path, monkeypatch, command, sidecar):
    """The main file goes into place only after its sidecar, so a sidecar
    that cannot be written leaves nothing that blocks the rerun."""
    write_summary = cli.write_summary

    def full_disk(path, data):
        with open(path, "w") as fh:
            fh.write("{")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "out"
    monkeypatch.setattr(cli, "write_summary", full_disk)
    assert main([*command, "--out", str(out)]) == EXIT_INTERNAL
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(cli, "write_summary", write_summary)
    assert main([*command, "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["out", "out" + sidecar]
    assert json.loads((tmp_path / ("out" + sidecar)).read_text())["version"] == version_string()


@pytest.mark.parametrize("command", [
    ["gen-trace", "--cavs", "3", "--frames", "1"],
    ["profile", "--mode", "surrogate", "--samples", "2"],
], ids=["gen-trace", "profile"])
def test_unusable_out_exits_2_before_work(tmp_path, monkeypatch, command, capsys):
    monkeypatch.setattr(cli, "generate_trace", None)  # no work may start
    monkeypatch.setattr(cli, "surrogate_dataset", None)
    (tmp_path / "file").write_text("")
    for out in (tmp_path, tmp_path / "file" / "out", tmp_path / "missing" / "out"):
        assert main([*command, "--out", str(out), "--force"]) == EXIT_INPUT
        assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "t.jsonl"
    assert main(["gen-trace", "--cavs", "6", "--frames", "3", "--seed", "1",
                 "--out", str(path)]) == EXIT_OK
    return path


def test_run_writes_artifacts(tmp_path, trace_path):
    out = tmp_path / "run"
    assert main(["run", "--trace", str(trace_path), "--policy", "adamap",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["policy"] == "adamap"
    assert manifest["seed"] == 1
    assert manifest["version"] == version_string()
    assert manifest["trace"] == str(trace_path)
    assert manifest["status"] == "complete"
    summary = json.loads((out / "summary.json").read_text())
    for key in ("latency_ms_p99", "mean_loss", "frac_within_h", "seed", "version"):
        assert key in summary
    header = (out / "frames.csv").read_text().splitlines()[0]
    assert header.startswith("cav_id,frame,")


def test_run_same_seed_identical(tmp_path, trace_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--trace", str(trace_path), "--policy", "adamap",
                     "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "frames.csv").read_bytes() == (b / "frames.csv").read_bytes()


def test_run_lossless_zero_loss(tmp_path, trace_path):
    out = tmp_path / "run"
    assert main(["run", "--trace", str(trace_path),
                 "--policy", "select-all-lossless", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_loss"] == 0.0


def test_run_config_file_and_policy_override(tmp_path, trace_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"policy": "adamap", "H_ms": 150.0, "seed": 4}\n')
    out = tmp_path / "run"
    assert main(["run", "--trace", str(trace_path), "--config", str(cfg_path),
                 "--policy", "adamap-lite", "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["policy"] == "adamap-lite"
    assert summary["H_ms"] == 150.0
    assert summary["seed"] == 4


def test_run_missing_trace(tmp_path):
    assert main(["run", "--trace", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "run")]) == EXIT_INPUT


def test_run_bad_config(tmp_path, trace_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"policy": "adamap", "warp": 9}\n')
    assert main(["run", "--trace", str(trace_path), "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")]) == EXIT_INPUT


def test_run_bad_policy(tmp_path, trace_path):
    # an unknown name, and a policy that was removed
    for policy in ("warp", "blindspot-all"):
        out = tmp_path / policy
        assert main(["run", "--trace", str(trace_path), "--policy", policy,
                     "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()


def test_run_refuses_overwrite(tmp_path, trace_path):
    out = tmp_path / "run"
    args = ["run", "--trace", str(trace_path), "--out", str(out)]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_INPUT
    assert main(args + ["--force"]) == EXIT_OK


def test_run_force_replaces_earlier_run(tmp_path, trace_path, monkeypatch):
    out = tmp_path / "run"
    args = ["run", "--trace", str(trace_path), "--out", str(out)]
    assert main(args) == EXIT_OK
    (out / "notes.txt").write_text("left by hand\n")

    def broken(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "run_simulation", broken)
    assert main(args + ["--force"]) == EXIT_INTERNAL
    # nothing of the earlier run reads as this run's result
    assert sorted(os.listdir(out)) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_run_force_refuses_a_foreign_directory(tmp_path, trace_path, capsys):
    out = tmp_path / "mine"
    out.mkdir()
    (out / "keep.txt").write_text("not a run\n")
    assert main(["run", "--trace", str(trace_path), "--out", str(out),
                 "--force"]) == EXIT_INPUT
    assert "refusing" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["keep.txt"]


def _set_trace_value(records, field, value):
    """Put ``value`` into one ``field`` of the trace's first frames."""
    obj = next(o for c in records[0]["cavs"] for o in c["objects"])
    if field == "pose":
        records[0]["cavs"][0]["pose"][0] = value
    elif field in ("time_s", "frame"):
        records[1][field] = value
    elif field in ("center", "extent"):
        obj[field][1] = value
    else:
        obj[field] = value


@pytest.mark.parametrize("field, value, message", [
    ("pose", float("nan"), "non-finite pose"),
    ("center", float("nan"), "non-finite center"),
    ("extent", float("inf"), "non-finite extent"),
    ("extent", 0.0, "extents must be positive"),
    ("yaw", float("nan"), "non-finite yaw"),
    ("time_s", float("nan"), "time_s nan is not finite"),
    ("count", -5, "counts must be at least 1"),
    ("count", 0, "counts must be at least 1"),
    ("count", 2.5, "counts must be integers"),
    # each frame's random streams are keyed by its number
    ("frame", 0, "frame numbers must strictly increase"),
    ("frame", -1, "frame numbers must strictly increase"),
    # float() would read a numeric string as its number and true as 1.0
    *[(field, value, f"{field} values must be numbers")
      for field in ("time_s", "pose", "center", "extent", "yaw")
      for value in ("0.1" if field == "time_s" else "1.5", True)],
])
def test_run_bad_trace_value_exits_2_before_output(tmp_path, trace_path, capsys,
                                                   field, value, message):
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    _set_trace_value(records, field, value)
    bad = tmp_path / "bad.jsonl"
    # json writes NaN and Infinity, and json.loads reads them back
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = tmp_path / "run"
    assert main(["run", "--trace", str(bad), "--out", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_ragged_centers_exit_2_before_output(tmp_path, trace_path, capsys):
    """A 2-value center beside a 4-value one holds six numbers for two boxes:
    the loader checks each row's width, not only the total."""
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    first, second = [o for c in records[0]["cavs"] for o in c["objects"]][:2]
    first["center"], second["center"] = first["center"][:2], second["center"] + [0.0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = tmp_path / "run"
    assert main(["run", "--trace", str(bad), "--out", str(out)]) == EXIT_INPUT
    assert "each center must hold 3 numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [3.7, "3", True])
@pytest.mark.parametrize("field, message", [
    ("frame", "frame numbers must be integers"),
    ("cav id", "CAV ids must be integers"),
    ("object id", "object ids must be integers"),
])
def test_run_non_integer_trace_id_exits_2_before_output(tmp_path, trace_path, capsys,
                                                       field, message, value):
    """int() would read 3.7 and "3" as 3 and true as 1, silently merging
    distinct CAVs or objects; such a trace is bad input."""
    _run_with_trace_id(tmp_path, trace_path, capsys, field, value, message)


@pytest.mark.parametrize("field, value, message", [
    ("frame", -1, "frame numbers must be non-negative"),
    ("cav id", -1, "CAV ids must be non-negative"),
    ("object id", -1, "object ids must be non-negative"),
    ("frame", 2**63, "frame numbers must be non-negative 64-bit integers"),
    ("cav id", 2**63, "trace line 0"),
    ("object id", 2**64, "trace line 0"),
])
def test_run_out_of_range_trace_id_exits_2_before_output(tmp_path, trace_path, capsys,
                                                        field, value, message):
    """The ids key the random streams as unsigned 64-bit integers."""
    _run_with_trace_id(tmp_path, trace_path, capsys, field, value, message)


def _run_with_trace_id(tmp_path, trace_path, capsys, field, value, message):
    """Put ``value`` into one id of the trace's first frame; the run must
    exit 2 with ``message`` before any output."""
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    cav = next(c for c in records[0]["cavs"] if c["objects"])
    if field == "frame":
        records[0]["frame"] = value
    elif field == "cav id":
        cav["id"] = value
    else:
        cav["objects"][0]["id"] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = tmp_path / "run"
    assert main(["run", "--trace", str(bad), "--out", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_corrupt_trace(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["run", "--trace", str(bad),
                 "--out", str(tmp_path / "run")]) == EXIT_INPUT


def test_run_single_cav_summary_is_strict_json(tmp_path):
    trace = tmp_path / "one.jsonl"
    assert main(["gen-trace", "--cavs", "1", "--frames", "2",
                 "--out", str(trace)]) == EXIT_OK
    out = tmp_path / "run"
    assert main(["run", "--trace", str(trace), "--out", str(out)]) == EXIT_OK

    def reject(constant):
        raise ValueError(f"summary.json holds {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    # a lone CAV localizes nothing, so its error percentiles have no values
    assert summary["loc_error_p50"] is None
    assert summary["loc_error_p95"] is None


def test_run_failure_is_marked_failed(tmp_path, trace_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "run_simulation", broken)
    out = tmp_path / "run"
    assert main(["run", "--trace", str(trace_path), "--out", str(out)]) == EXIT_INTERNAL
    assert "simulated fault" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "simulated fault" in manifest["error"]
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_infinite_latency_run_leaves_only_the_manifest(tmp_path, capsys, monkeypatch):
    """A rate of 0 inside the frame loop, which check_radio keeps any
    accepted config from giving, makes every latency inf, and summary.json's
    strict dump raises once frames.csv is written; the failed run leaves
    neither output file."""
    trace, out = tmp_path / "t.jsonl", tmp_path / "run"
    assert main(["gen-trace", "--cavs", "20", "--frames", "2", "--seed", "0",
                 "--out", str(trace)]) == EXIT_OK
    monkeypatch.setattr(simpipe, "uplink_rate", lambda *args, **kwargs: 0.0)
    assert main(["run", "--trace", str(trace), "--policy", "adamap-lite",
                 "--out", str(out)]) == EXIT_INTERNAL
    assert "not JSON compliant: inf" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert sorted(os.listdir(out)) == ["manifest.json"]


# each gives a rate of 0 (a strict dump of inf) or an SNR that overflows
UNUSABLE_RADIOS = [{"base_station": [1e150, 0, 10]}, {"carrier_ghz": 1e300},
                   {"bandwidth_hz": 1e300}, {"bandwidth_hz": 1e-310}]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radio", UNUSABLE_RADIOS)
@pytest.mark.parametrize("command, extra, on_trace", [
    ("run", ["--policy", "adamap-lite"], True),
    ("sweep", ["--param", "H", "--values", "80", "90"], True),
    # a generated base trace, checked with each swept band: 1e300 Hz fails whatever the config
    ("sweep", ["--param", "bandwidth", "--values", "2e5", "1e300", "--cavs", "5",
               "--frames", "2"], False),
    ("sweep", ["--param", "cavs", "--values", "3", "20", "--frames", "2"], False),
])
def test_unusable_radio_exits_2_before_output(tmp_path, capsys, radio, command, extra,
                                              on_trace):
    trace, cfg, out = tmp_path / "t.jsonl", tmp_path / "cfg.json", tmp_path / "out"
    assert main(["gen-trace", "--cavs", "20", "--frames", "2", "--seed", "0",
                 "--out", str(trace)]) == EXIT_OK
    cfg.write_text(json.dumps(radio))
    trace_arg = ["--trace", str(trace)] if on_trace else []
    assert main([command, *trace_arg, "--config", str(cfg), *extra,
                 "--out", str(out)]) == EXIT_INPUT
    assert "error: bandwidth_hz, carrier_ghz and base_station give" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distant_base_station_runs_with_finite_latency(tmp_path):
    """A base station 1e9 m away leaves a tiny rate but a positive one: the
    run completes with every total_ms finite."""
    trace, cfg, out = tmp_path / "t.jsonl", tmp_path / "cfg.json", tmp_path / "run"
    assert main(["gen-trace", "--cavs", "20", "--frames", "2", "--seed", "0",
                 "--out", str(trace)]) == EXIT_OK
    cfg.write_text(json.dumps({"base_station": [1e9, 0, 10]}))
    assert main(["run", "--trace", str(trace), "--policy", "adamap-lite", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    with open(out / "frames.csv") as fh:
        totals = [float(row["total_ms"]) for row in csv.DictReader(fh)]
    assert len(totals) == 40 and all(map(math.isfinite, totals))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("policy", ["adamap", "adamap-lite"])
def test_widest_accepted_spread_runs_with_finite_latency(tmp_path, policy):
    """fading_sigma and rate_sigma at their bound of 10: the run completes,
    no numpy warning raised, with every total_ms finite."""
    trace, cfg, out = tmp_path / "t.jsonl", tmp_path / "cfg.json", tmp_path / "run"
    assert main(["gen-trace", "--cavs", "20", "--frames", "2", "--seed", "0",
                 "--out", str(trace)]) == EXIT_OK
    cfg.write_text(json.dumps({"fading_sigma": 10, "rate_sigma": 10}))
    assert main(["run", "--trace", str(trace), "--policy", policy, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    with open(out / "frames.csv") as fh:
        totals = [float(row["total_ms"]) for row in csv.DictReader(fh)]
    assert len(totals) == 40 and all(map(math.isfinite, totals))


@pytest.mark.parametrize("command, extra, out_name", [
    ("run", [], "run"),
    ("sweep", ["--param", "H", "--values", "80", "90"], "sw/H-80"),
])
def test_failed_output_write_exits_4(tmp_path, trace_path, monkeypatch, capsys,
                                     command, extra, out_name):
    """Once the output directory exists every input has been checked, so
    even an OSError, such as a full disk, is an internal failure."""
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_frame_csv", full_disk)
    out = tmp_path / out_name.split("/")[0]
    assert main([command, "--trace", str(trace_path), *extra,
                 "--out", str(out)]) == EXIT_INTERNAL
    assert "internal error: OSError" in capsys.readouterr().err
    run_dir = tmp_path / out_name
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"
    assert not (run_dir / "frames.csv").exists()


def write_profile(path, rf_set=RF_SET, extra_rows=()):
    """A dataset_path profile with one sample per (rf, bucket) key."""
    rows = [f"{rf},{b},0.3,1.5,1.5" for rf in rf_set for b in range(N_BUCKETS)]
    path.write_text("\n".join(["rf,bucket,loss,t_enc_ms,t_dec_ms", *rows, *extra_rows])
                    + "\n")


def run_with_profile(tmp_path, trace_path, profile):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_path": str(profile)}))
    return main(["run", "--trace", str(trace_path), "--config", str(cfg),
                 "--out", str(tmp_path / "run")])


def test_run_incomplete_profile_exits_3_before_output(tmp_path, trace_path, capsys):
    profile = tmp_path / "ds.csv"
    write_profile(profile, rf_set=(4, 8, 16, 32))
    assert run_with_profile(tmp_path, trace_path, profile) == EXIT_PROFILE
    err = capsys.readouterr().err
    assert all(f"(64, {b})" in err for b in range(N_BUCKETS))
    assert not (tmp_path / "run").exists()
    write_profile(profile)
    assert run_with_profile(tmp_path, trace_path, profile) == EXIT_OK


@pytest.mark.parametrize("row", [
    "4,0,abc,1,1", "4,0,0.3,1.5",
    # a negative loss or codec time
    "4,0,-0.3,1.5,1.5", "4,0,0.3,-1000,1.5", "4,0,0.3,1.5,-1e-9",
    # a key no run can look up: a bucket out of range, an RF the codec refuses
    "4,99,0.3,1.5,1.5", "4,-1,0.3,1.5,1.5", "3,0,0.3,1.5,1.5"])
def test_run_malformed_profile_row_exits_2(tmp_path, trace_path, capsys, row):
    profile = tmp_path / "ds.csv"
    write_profile(profile, extra_rows=[row])
    assert run_with_profile(tmp_path, trace_path, profile) == EXIT_INPUT
    # the header is line 1, then one row per key
    assert f"{profile}:{len(RF_SET) * N_BUCKETS + 2}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_bad_profile_header_exits_2(tmp_path, trace_path, capsys):
    profile = tmp_path / "ds.csv"
    profile.write_text("rf,loss\n4,0.3\n")
    assert run_with_profile(tmp_path, trace_path, profile) == EXIT_INPUT
    assert f"{profile}:1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_empty_frame_exits_2_before_output(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"frame":0,"time_s":0.0,"cavs":[]}\n')
    assert main(["run", "--trace", str(trace), "--out", str(tmp_path / "run")]) == EXIT_INPUT
    assert "no CAVs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_mistyped_config_value_exits_2(tmp_path, trace_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"H_ms": "100"}\n')
    assert main(["run", "--trace", str(trace_path), "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")]) == EXIT_INPUT
    assert "H_ms" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, config, extra", [
    *[("run", {key: value}, []) for key, value in (
        ("servers", 0), ("sectors", 0), ("bandwidth_hz", -1.0), ("p", 1.5),
        ("mc_samples", 0), ("density_threshold", 0.0), ("fading_sigma", -0.1),
        ("rate_sigma", -1.0), ("beta", -1.0), ("H_ms", 0.0), ("carrier_ghz", 0.0),
        ("rf_set", []), ("base_station", [0.0, 0.0]), ("rf_set", [2, 4]))],
    ("sweep", {}, ["--param", "H", "--values", "100", "-5"]),
    ("sweep", {}, ["--param", "bandwidth", "--values", "200000", "0"]),
    ("sweep", {"beta": -1.0}, ["--param", "H", "--values", "80", "90"]),
    ("run", {"seed": 2**64}, []),  # seeds key uint64 draws
    ("run", {"rf_set": [64, 64]}, []),  # a repeated level has zero width in the search
    # a wider log-normal spread could send a rate to 0 or a latency to inf
    ("run", {"fading_sigma": 10.000001}, []),
    ("run", {"rate_sigma": 10.000001}, []),
])
def test_out_of_range_config_exits_2_before_output(tmp_path, trace_path, capsys,
                                                   command, config, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = [command, "--trace", str(trace_path), "--config", str(cfg), *extra]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == EXIT_INPUT
    assert "must be" in capsys.readouterr().err
    assert not out.exists()
    # an earlier result at the target survives a --force that fails
    done = tmp_path / "done"
    done.mkdir()
    marker = done / ("sweep.csv" if command == "sweep" else "manifest.json")
    marker.write_text("earlier\n")
    assert main(args + ["--out", str(done), "--force"]) == EXIT_INPUT
    assert os.listdir(done) == [marker.name]
    assert marker.read_text() == "earlier\n"


@pytest.mark.parametrize("rf", [512, 1024])
def test_rf_without_an_anchor_exits_2_before_output(tmp_path, trace_path, capsys, rf):
    """RF 512 and 1,024 divide 1,024 but their latents hold no anchor: a
    codec-mode run whose profile holds the RF exits 2 before any output,
    where its encode once failed with exit 4 after a "failed" manifest."""
    profile = tmp_path / "ds.csv"
    write_profile(profile, rf_set=(4, 64, rf))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_mode": "codec", "policy": "adamap-lite",
                               "rf_set": [4, rf], "dataset_path": str(profile)}))
    out = tmp_path / "out"
    assert main(["run", "--trace", str(trace_path), "--config", str(cfg),
                 "--out", str(out)]) == EXIT_INPUT
    assert f"rf must be a divisor of 1024 from 2 to 256, got {rf}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("partitions", 4), ("share_mode", "fdma"),
    # capacity factors that divided only the optimizer's codec-time samples
    ("r_v", 1.0), ("r_e", 1.0),
    # settings that became module constants
    ("rle_threshold_m", 0.5), ("tx_power_dbm", 23.0), ("noise_figure_db", 9.0),
    ("outer_iters", 6), ("inner_iters", 12), ("deviations", 12)])
def test_run_retired_config_key_exits_2(tmp_path, trace_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert main(["run", "--trace", str(trace_path), "--config", str(cfg),
                 "--out", str(out)]) == EXIT_INPUT
    assert f"unknown keys ['{key}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["run", "--trace", "TRACE", "--seed", "-1"], None),
    (["run", "--trace", "TRACE"], {"seed": -3}),
    (["gen-trace", "--cavs", "3", "--frames", "1", "--seed", "-1"], None),
    (["sweep", "--param", "H", "--values", "80", "90", "--trace", "TRACE", "--seed", "-1"],
     None),
])
def test_negative_seed_exits_2_before_output(tmp_path, trace_path, capsys, argv, config):
    argv = [str(trace_path) if a == "TRACE" else a for a in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_needs_two_values(tmp_path, trace_path):
    assert main(["sweep", "--param", "H", "--values", "100",
                 "--trace", str(trace_path), "--out", str(tmp_path / "sw")]) \
        == EXIT_INPUT


def test_sweep_h_rows_and_subdirs(tmp_path, trace_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "H", "--values", "80", "160",
                 "--trace", str(trace_path), "--seed", "1",
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("H,80.0,adamap,1,")
    assert lines[2].startswith("H,160.0,adamap,1,")
    for v in ("80", "160"):
        sub = out / f"H-{v}"
        assert (sub / "manifest.json").exists()
        assert (sub / "summary.json").exists()
        assert (sub / "frames.csv").exists()


def test_sweep_cavs_generates_traces(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "cavs", "--values", "3", "6",
                 "--frames", "2", "--seed", "0", "--out", str(out)]) == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["3", "6"]
    manifest = json.loads((out / "cavs-6" / "manifest.json").read_text())
    assert "cavs=6" in manifest["trace"]


def test_sweep_cavs_rejects_fractional(tmp_path):
    assert main(["sweep", "--param", "cavs", "--values", "3.5", "6",
                 "--out", str(tmp_path / "sw")]) == EXIT_INPUT


def test_sweep_generates_base_trace_when_missing(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "bandwidth", "--values", "200e3", "300e3",
                 "--cavs", "5", "--frames", "2", "--out", str(out)]) == EXIT_OK
    assert (out / "base_trace.jsonl").exists()
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2


def test_sweep_worker_pool_matches_serial(tmp_path, trace_path, monkeypatch):
    serial, pooled = tmp_path / "s", tmp_path / "p"
    args = ["sweep", "--param", "H", "--values", "90", "180",
            "--trace", str(trace_path), "--seed", "2"]
    monkeypatch.delenv("COOPSIM_WORKERS", raising=False)
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    monkeypatch.setenv("COOPSIM_WORKERS", "2")
    assert main(args + ["--out", str(pooled)]) == EXIT_OK
    assert (serial / "sweep.csv").read_bytes() == (pooled / "sweep.csv").read_bytes()


@pytest.mark.parametrize("workers, values, pool", [
    pytest.param("64", ["80", "90"], 2, id="64-workers-2-values"),
    pytest.param("2", ["80", "90", "100"], 2, id="2-workers-3-values"),
])
def test_sweep_pool_is_no_larger_than_its_values(tmp_path, trace_path, monkeypatch,
                                                 workers, values, pool):
    """The pool gets min(COOPSIM_WORKERS, values) workers: a fork-started
    pool forks all of them at its first submit.  A recorder stands in for
    the pool and maps in this process, so no worker starts."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setenv("COOPSIM_WORKERS", workers)
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "H", "--values", *values, "--trace", str(trace_path),
                 "--out", str(out)]) == EXIT_OK
    assert sizes == [pool]
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(values)


@pytest.mark.parametrize("workers", ["abc", "0", "-3"])
def test_sweep_bad_workers_exits_2_before_output(tmp_path, trace_path, monkeypatch, capsys,
                                                 workers):
    monkeypatch.setenv("COOPSIM_WORKERS", workers)
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "H", "--values", "80", "90", "--trace", str(trace_path),
                 "--out", str(out)]) == EXIT_INPUT
    assert "COOPSIM_WORKERS must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_incomplete_profile_exits_3_before_output(tmp_path, trace_path, capsys):
    profile = tmp_path / "ds.csv"
    write_profile(profile, rf_set=(4, 8, 16, 32))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset_path": str(profile)}))
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "H", "--values", "80", "90", "--trace", str(trace_path),
                 "--config", str(cfg), "--out", str(out)]) == EXIT_PROFILE
    assert "(64, 0)" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_trace_exits_2_before_output(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "H", "--values", "80", "90", "--trace", str(bad),
                 "--out", str(out)]) == EXIT_INPUT
    assert "trace line 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cavs_with_trace_exits_2_before_output(tmp_path, trace_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "cavs", "--values", "2", "3", "--frames", "1",
                 "--trace", str(trace_path), "--out", str(out)]) == EXIT_INPUT
    assert "--param cavs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--param", "cavs", "--values", "2", "3", "--frames", "1", "--cavs", "80"],
     "--param cavs"),
    (["--param", "H", "--values", "80", "90", "--trace", "TRACE", "--cavs", "80"], "--trace"),
    (["--param", "H", "--values", "80", "90", "--trace", "TRACE", "--frames", "9"], "--trace"),
])
def test_sweep_unused_cavs_or_frames_exits_2_before_output(tmp_path, trace_path, capsys,
                                                           args, message):
    out = tmp_path / "sw"
    args = [str(trace_path) if a == "TRACE" else a for a in args]
    assert main(["sweep", *args, "--out", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--param", "cavs", "--values", "0", "3", "--frames", "2"],
    ["--param", "cavs", "--values", "3", "6", "--frames", "0"],
    ["--param", "cavs", "--values", "3", "x"],
    ["--param", "cavs", "--values", "3", "inf"],
    ["--param", "cavs", "--values", "nan", "3"],
    ["--param", "H", "--values", "80", "abc"],
])
def test_sweep_cavs_bad_counts_exit_2_before_output(tmp_path, args):
    out = tmp_path / "sw"
    assert main(["sweep", *args, "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()


def test_sweep_refuses_overwrite(tmp_path, trace_path):
    out = tmp_path / "sw"
    args = ["sweep", "--param", "H", "--values", "80", "160",
            "--trace", str(trace_path), "--out", str(out)]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_INPUT


def test_sweep_force_drops_earlier_values(tmp_path, trace_path):
    out = tmp_path / "sw"
    base = ["sweep", "--param", "H", "--trace", str(trace_path), "--out", str(out)]
    assert main(base + ["--values", "80", "90"]) == EXIT_OK
    assert main(base + ["--values", "100", "110", "--force"]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["H-100", "H-110", "sweep.csv"]
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["100.0", "110.0"]


# ---------------------------------------------------------------------------
# parser plumbing


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["teleport"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen-trace", "--cavs", "3"])
    assert exc.value.code == 2
