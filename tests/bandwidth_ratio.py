"""Acceptance test 06's loss ratio, on its fixture and seed by seed.

    PYTHONPATH=src python tests/bandwidth_ratio.py

Test 06 runs ``adamap`` on 80 × 6 traces at 200 and 300 kHz and asks that
the mean loss drop by at least 10%: (loss_200 - loss_300) / loss_200 >= 0.10,
with each loss the mean over trace seeds 0-2 (the run seed equals the trace
seed).  This prints that ratio for the fixture's seeds, then the ratio of
each trace seed 0-9 alone and their mean, so a change to the draws shows how
far the fixture's three seeds sit from the spread.  It takes about ten
seconds; pytest does not collect it.
"""

import numpy as np

from coopsim.simpipe import RunConfig, collect_metrics, generate_trace, run_simulation

FIXTURE_SEEDS = (0, 1, 2)
SEEDS = range(10)
BANDWIDTHS_HZ = (200e3, 300e3)


def mean_losses(seed: int) -> list:
    """Mean loss of the test's scenario at trace and run seed ``seed``, per bandwidth."""
    trace = generate_trace(80, 6, seed=seed)
    return [collect_metrics(run_simulation(
        trace, RunConfig(policy="adamap", seed=seed, bandwidth_hz=bw)))["mean_loss"]
        for bw in BANDWIDTHS_HZ]


def drop(loss_200: float, loss_300: float) -> float:
    return (loss_200 - loss_300) / loss_200


if __name__ == "__main__":
    losses = {seed: mean_losses(seed) for seed in SEEDS}
    fixture = np.mean([losses[seed] for seed in FIXTURE_SEEDS], axis=0)
    print(f"fixture seeds {FIXTURE_SEEDS[0]}-{FIXTURE_SEEDS[-1]} ratio {drop(*fixture):.4f}")
    ratios = [drop(*losses[seed]) for seed in SEEDS]
    for seed, ratio in zip(SEEDS, ratios):
        print(f"seed {seed} ratio {ratio:.4f}")
    print(f"seeds {SEEDS[0]}-{SEEDS[-1]} min {min(ratios):.4f} max {max(ratios):.4f} "
          f"mean {float(np.mean(ratios)):.4f}", flush=True)
