"""Digest of the RF optimizer's results, to compare two checkouts.

    PYTHONPATH=src python tests/optimizer_digest.py

For each RF set (the codec's, (8, 32) and (64,)) it solves BATCHES = 10 seeded
batches of ``random_problems(112, seed)`` (seeds 0 .. 9) with
``optimize_rf_batch`` under ``RunConfig(rf_set=...)`` and prints one sha256
over every result: the RFs, the infeasible flag, and ``float.hex`` of lam,
prob and fidelity.  The output hashes of ``tests/byte_identity.py`` cannot
see lam, prob or fidelity, and a roundoff change to the search usually shows
there first.  Two checkouts solve alike when they print the same lines.  It
takes about ten seconds; pytest does not collect it.

Each line ends with how many of the RF set's 1,120 subproblems were decided
at their fidelity-best corner without a search.  Those report lam = 0; a
search starts at LAM0 = 1 and lowers lam by at most DUAL_STEP * (1 - p) =
0.05 per outer iteration, so after ``control.OUTER_ITERS`` = 6 of them it ends
at 0.7 or above, and lam = 0 on a feasible result marks a corner row.
"""

import hashlib

from coopsim.codec import RF_SET, surrogate_dataset
from coopsim.control import optimize_rf_batch
from coopsim.simpipe import RunConfig
from test_control import random_problems

RF_SETS = (RF_SET, (8, 32), (64,))
BATCHES = 10


def digest(rf_set, dataset):
    """(sha256 over every result, number of results decided at the corner)."""
    sha, corner = hashlib.sha256(), 0
    cfg = RunConfig(rf_set=rf_set)
    for seed in range(BATCHES):
        for res in optimize_rf_batch(random_problems(112, seed), dataset, cfg):
            sha.update(" ".join([*map(str, res.rfs.tolist()), str(res.infeasible),
                                 res.lam.hex(), res.prob.hex(), res.fidelity.hex()]).encode())
            sha.update(b"\n")
            corner += not res.infeasible and res.lam == 0.0
    return sha.hexdigest(), corner


if __name__ == "__main__":
    dataset = surrogate_dataset()
    for rf_set in RF_SETS:
        sha, corner = digest(rf_set, dataset)
        print(f"rf_set {','.join(map(str, rf_set))} {sha} corner {corner} of {BATCHES * 112}",
              flush=True)
