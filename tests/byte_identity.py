"""Hashes of the byte-identity set's outputs, to compare two checkouts.

    PYTHONPATH=src python tests/byte_identity.py [--seed N]

For each scenario of the set it writes the trace with ``coopsim gen-trace``
(trace seed 0), runs ``coopsim run`` on it with run seed N (default 0), and
prints the sha256 of ``frames.csv`` and of ``summary.json`` without its
``version`` key, which names the commit.  It also prints the sha256 of each
trace, and of each run's final edge map, which ``frames.csv`` shows only in
part: per row, in id order, the id, the filter state (x, p and time),
last_seen, has_geometry and last_loss.  Two checkouts give byte-identical
outputs when they print the same lines.  The set: 150 × 10 for each
surrogate policy, 40 × 16 ``adamap-reuse``, and 7 × 2 ``adamap`` in codec
mode.  It takes about a minute; pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

from coopsim import simpipe
from coopsim.cli import main
from coopsim.simpipe import POLICIES
from oracles import kalman_state

SCENARIOS = ([(150, 10, policy, "surrogate") for policy in POLICIES]
             + [(40, 16, "adamap-reuse", "surrogate"), (7, 2, "adamap", "codec")])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary_sha(path) -> str:
    with open(path) as fh:
        summary = json.load(fh)
    summary.pop("version")
    return _sha(json.dumps(summary, indent=2, sort_keys=True).encode())


class _KeptState(simpipe.RunState):
    """A run state that keeps its edge map for the digest after the run."""

    last_map = None

    def __init__(self, config):
        super().__init__(config)
        _KeptState.last_map = self.global_map


def _map_sha(gmap) -> str:
    sha = hashlib.sha256()
    for gid, floats, last_seen, has_geometry, last_loss in zip(
            gmap.gids.tolist(), gmap.state.tolist(), gmap.last_seen.tolist(),
            gmap.has_geometry.tolist(), gmap.last_loss.tolist()):
        k = kalman_state(floats)
        sha.update(repr((gid, k.x.tolist(), k.p.tolist(), k.time, last_seen,
                         has_geometry, last_loss)).encode())
    return sha.hexdigest()


def _run(argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the hashes
        code = main(argv)
    if code != 0:
        sys.exit(f"coopsim {' '.join(argv)} exited {code}")


def hashes(workdir: str, seed: int) -> list:
    lines = []
    traces = {}
    for cavs, frames, policy, mode in SCENARIOS:
        trace = traces.get((cavs, frames))
        if trace is None:
            trace = traces[cavs, frames] = os.path.join(workdir, f"trace-{cavs}x{frames}.jsonl")
            _run(["gen-trace", "--cavs", str(cavs), "--frames", str(frames),
                  "--seed", "0", "--out", trace])
            with open(trace, "rb") as fh:
                lines.append(f"trace {cavs}x{frames} {_sha(fh.read())}")
        name = f"{policy}-{mode}-{cavs}x{frames}"
        config = os.path.join(workdir, f"{name}.json")
        with open(config, "w") as fh:
            json.dump({"policy": policy, "seed": seed, "dataset_mode": mode}, fh)
        out = os.path.join(workdir, name)
        _run(["run", "--trace", trace, "--config", config, "--out", out])
        with open(os.path.join(out, "frames.csv"), "rb") as fh:
            lines.append(f"{name} frames.csv {_sha(fh.read())}")
        lines.append(f"{name} summary.json {_summary_sha(os.path.join(out, 'summary.json'))}")
        lines.append(f"{name} map {_map_sha(_KeptState.last_map)}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    args = parser.parse_args()
    simpipe.RunState = _KeptState  # run_simulation builds its state by this name
    with tempfile.TemporaryDirectory() as workdir:
        for line in hashes(workdir, args.seed):
            print(line, flush=True)
