"""Per-CAV control plane: object selection and percentile-constrained RF search.

Selection prunes redundant viewers per object by thinning a star graph of
predicted point contributions, one ground-plane quadrant at a time.  The RF
optimizer then picks one compression level per kept object by approximated
gradient ascent on a Lagrangian of expected fidelity and the probability that
frame latency stays under the bound, with a dual multiplier enforcing the
percentile constraint.  Gradients come from least-squares planes fitted to
randomly perturbed RF vectors under common random numbers, in the manner of
SPSA (Spall 1992, IEEE TAC 37(3)).

Once each CAV has its rate prediction its RF subproblem is independent of the
others, so ``optimize_rf_batch`` solves a frame's subproblems in lockstep:
CAVs with 1-7 tasks, and with 8-15, share every numpy call of every step (one
matmul blends compute times, one solve of centred normal equations fits the
planes), shorter rows padded with zero-weight tasks.  numpy adds fewer than 8
numbers in order and 8-15 through 8 running sums, so a padded row's sampled
fidelity and latency are bit-exact; only its plane fit may round differently.

Everything here is a pure function of broadcast state plus a seed, so runs
replay exactly; through that roundoff a CAV's decision can depend on its group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import (
    DESCRIPTOR_OVERHEAD_BYTES,
    MeasurementDataset,
    N_BUCKETS,
    bucket_index,
)
from .errors import ConfigError
from .geometry import box_frame_offsets, facing_quadrant_mask, projected_areas
from .netsim import MODULE_TIMES_MS
from .sampling import TruncatedNormal

POINT_DENSITY_K = 60000.0  # points * m^2 at 1 m, calibrated to car faces
POINT_CAP = 240000
LIDAR_RANGE_M = 50.0
N_SUBSPACES = 4

# fixed child-seed tags for the common-random-number streams
_TAG_B = 1 << 20
_TAG_FADING = (1 << 20) + 1

# the RF search's primal and dual step sizes and starting multiplier
PRIMAL_STEP = 0.5
DUAL_STEP = 5.0
LAM0 = 1.0
DEVIATION_SD = 0.25  # spread of the search's perturbations, in log2-RF units


def predict_counts(centers, extents, yaws, viewers):
    """Expected LiDAR return counts for N (box, viewer) pairs, whole and per quadrant.

    A uniformly scanning sensor spreads returns over solid angle, so a count
    is POINT_DENSITY_K * projected_area / d^2, truncated to an integer and
    capped at POINT_CAP; beyond LIDAR_RANGE_M the object contributes
    nothing.  Each count is split equally across the quadrants facing its
    viewer.

    Boxes come as (N, 3) centers and full extents and (N,) yaws wrapped by
    wrap_yaw, as in Bbox3; viewers are (N, 3).  Returns the (N,) int64 counts
    and the (N, 4) per-quadrant split.
    """
    centers, extents, viewers = (np.asarray(a, dtype=np.float64).reshape(-1, 3)
                                 for a in (centers, extents, viewers))
    local, dist = box_frame_offsets(centers, np.asarray(yaws, dtype=np.float64), viewers)
    near = dist <= LIDAR_RANGE_M
    area = projected_areas(local[near], dist[near], extents[near])
    totals = np.zeros(len(dist), dtype=np.int64)
    d = dist[near]
    totals[near] = np.clip(POINT_DENSITY_K * area / (d * d), 0.0,
                           float(POINT_CAP)).astype(np.int64)
    facing = facing_quadrant_mask(local) & (totals > 0)[:, None]
    quadrants = np.where(facing, totals[:, None] / np.maximum(facing.sum(axis=1), 1)[:, None], 0.0)
    return totals, quadrants


def thin_edges(edges, threshold: float):
    """Drop smallest edges while the remaining sum stays at or above threshold.

    ``edges`` is a list of (value, cav_id).  Equal values are removed larger
    CAV id first, so the outcome is identical on every CAV.  Returns the
    retained list.
    """
    keep = sorted(edges, key=lambda e: (e[0], -e[1]))
    total = sum(e[0] for e in keep)
    while keep and total - keep[0][0] >= threshold:
        total -= keep[0][0]
        keep = keep[1:]
    return keep


def select_objects(counts_by_cav: dict, threshold: float) -> set:
    """Viewer CAVs retained for one object.

    ``counts_by_cav`` maps cav_id -> per-quadrant predicted counts (length 4).
    Each quadrant is thinned independently; a CAV stays selected if it keeps
    an edge in at least one quadrant.  CAVs predicting zero points contribute
    no edges.
    """
    selected = set()
    for q in range(N_SUBSPACES):
        edges = [(float(c[q]), cav) for cav, c in counts_by_cav.items() if c[q] > 0]
        if not edges:
            continue
        for _, cav in thin_edges(edges, threshold):
            selected.add(cav)
    return selected


# ---------------------------------------------------------------------------
# the lockstep RF search


class _Scenarios:
    """Common-random-number draws for C subproblems of up to K tasks each.

    Row c holds CAV c's draws; every array is indexed (row, task, level,
    sample) in that order.  Per-object streams are keyed by (seed, object
    id), so adding objects never disturbs the draws of existing ones; that
    makes the latency probability exactly monotone under superset selections
    with the same seed.  Fidelity is the dataset's sampled mean per level; only
    times are drawn per scenario, since the latency tail is what the
    percentile constraint cares about.
    """

    def __init__(self, log_levels, mean_loss, compute_s, base_s, rate, tasks):
        self.log_levels = log_levels  # (L,)
        self.mean_loss = mean_loss  # (C, K, L), zero on padded tasks
        self.compute_s = compute_s  # (C, K * L, S): encode + decode, in s; zero padded
        self.base_s = base_s  # (C, S) baseline module time
        self.rate = rate  # (C, S) sampled uplink rate
        self.tasks = tasks  # (C, K) bool: real, not padded
        self._first_loss = np.arange(tasks.size).reshape(len(tasks), 1, -1) * mean_loss.shape[2]

    @classmethod
    def draw(cls, problems, buckets, tables, cfg) -> "_Scenarios":
        """``cfg.mc_samples`` scenarios for ``problems`` under the run config
        ``cfg``'s rate spread, rows padded with zero tasks.
        Draws and gathers run over the real tasks alone, whose count buckets
        (T,) ``buckets`` holds row by row; ``tables`` comes from ``_sample_tables``."""
        levels, mean_tab, time_tab, count_tab = tables
        s, nl = cfg.mc_samples, len(levels)
        counts = [len(p.obj_ids) for p in problems]
        tasks = np.arange(max(counts)) < np.array(counts)[:, None]
        u = np.array([np.random.default_rng([p.seed, o]).random((2, s))
                      for p in problems for o in p.obj_ids])  # (T, 2, S)
        n = count_tab[buckets][..., None]  # (T, L, 1)

        def ms(e):  # encode (0) or decode (1) times (T, L, S), one at a time to save memory
            idx = np.minimum((u[:, None, e] * n).astype(np.int64), n - 1)
            return time_tab[buckets[:, None, None], np.arange(nl)[:, None], e, idx]
        modules = tuple(MODULE_TIMES_MS.values())
        ub = np.array([np.random.default_rng([p.seed, _TAG_B]).random((len(modules), s))
                       for p in problems])
        base_ms = sum(TruncatedNormal.cached(m, sd).ppf(ub[:, i])
                      for i, (m, sd) in enumerate(modules))
        z = np.array([np.random.default_rng([p.seed, _TAG_FADING]).standard_normal(s)
                      for p in problems])
        rate_bps = np.array([p.rate_bps for p in problems])[:, None]
        real = (ms(0) + ms(1)) / 1e3  # before the padded table
        mean_loss, compute_s = np.zeros((*tasks.shape, nl)), np.zeros((*tasks.shape, nl, s))
        mean_loss[tasks] = mean_tab[buckets]
        compute_s[tasks] = real
        return cls(np.log2(np.asarray(levels, dtype=np.float64)), mean_loss,
                   compute_s.reshape(len(problems), -1, s), base_ms / 1e3,
                   rate_bps * np.exp(cfg.rate_sigma * z), tasks)

    def take(self, rows) -> "_Scenarios":
        return _Scenarios(self.log_levels, self.mean_loss[rows], self.compute_s[rows],
                          self.base_s[rows], self.rate[rows], self.tasks[rows])

    def evaluate(self, x: np.ndarray):
        """Sampled fidelity and latency for D log2-RF rows per subproblem.

        ``x`` has shape (C, D, K).  Returns (fidelity (C, D), latency_s
        (C, D, S)).  Values between discrete levels blend the two bracketing
        levels' samples linearly, reusing the same draws, so the surface the
        regression sees is continuous in x: compute time as a matmul of the
        blend weights with ``compute_s``, fidelity summed task by task.
        """
        lx = self.log_levels
        j = np.zeros(x.shape, dtype=np.int64)
        for level in lx[1:-1]:  # the bracket: interior levels at or below x
            j += x >= level
        w = np.clip((x - lx[j]) / np.diff(lx)[j], 0.0, 1.0) if len(lx) > 1 else np.zeros(x.shape)
        jn = np.minimum(j + 1, len(lx) - 1)
        # flat offsets of level 0 per (row, dev, task); one level: j == jn, 1 - w wins
        first = np.arange(x.size).reshape(x.shape) * len(lx)
        weights = np.zeros((*x.shape, len(lx)))
        weights.reshape(-1)[first + jn] = w
        weights.reshape(-1)[first + j] = 1.0 - w
        # the weights' other levels would add exact zeros: (1 - w) a + w b per task
        loss = self.mean_loss.reshape(-1)
        fidelity = -((1.0 - w) * loss[self._first_loss + j]
                     + w * loss[self._first_loss + jn]).sum(axis=-1)
        compute_s = weights.reshape(*x.shape[:2], -1) @ self.compute_s
        del weights  # before the uplink term, for the search's peak memory
        payload = ((1024.0 / np.exp2(x)) * 4.0 + DESCRIPTOR_OVERHEAD_BYTES) * self.tasks[:, None]
        # a zero rate divides by zero: latency inf, never within the bound
        compute_s += payload.sum(axis=-1)[..., None] * 8.0 / self.rate[:, None, :]
        compute_s += self.base_s[:, None, :]  # latency: compute + uplink + baseline
        return fidelity, compute_s

    def at(self, x: np.ndarray, h_s: float):
        """Fidelity and Prob(latency <= h_s) at one point (C, K) or D points (C, D, K) per row."""
        fid, latency = self.evaluate(x.reshape(len(x), -1, x.shape[-1]))
        prob = (latency <= h_s).sum(axis=-1) / latency.shape[-1]  # np.mean's arithmetic
        return fid.reshape(x.shape[:-1]), prob.reshape(x.shape[:-1])


def _sample_tables(dataset: MeasurementDataset, levels, buckets):
    """Per-(bucket, level) mean loss and zero-padded encode/decode samples.

    Returns (levels, mean loss (B, L), encode and decode ms (B, L, 2, N),
    sample counts (B, L)).  Rows of buckets outside ``buckets`` stay empty;
    a used key the dataset lacks raises DatasetMissError.
    """
    nl = len(levels)
    mean_tab = np.zeros((N_BUCKETS, nl))
    count_tab = np.ones((N_BUCKETS, nl), dtype=np.int64)
    cells = {}
    for b in buckets:
        for j, rf in enumerate(levels):
            mean_tab[b, j] = dataset.mean_loss(rf, b)
            cells[b, j] = (dataset.enc_time_samples(rf, b), dataset.dec_time_samples(rf, b))
            count_tab[b, j] = len(cells[b, j][0])
    time_tab = np.zeros((N_BUCKETS, nl, 2, int(count_tab.max())))
    for (b, j), (enc, dec) in cells.items():
        time_tab[b, j, 0, :len(enc)] = enc
        time_tab[b, j, 1, :len(dec)] = dec
    return levels, mean_tab, time_tab, count_tab


@dataclass
class OptimizeResult:
    rfs: np.ndarray
    lam: float
    prob: float
    fidelity: float
    infeasible: bool


@dataclass
class RFProblem:
    """One CAV's RF subproblem in a frame: its kept objects' ids and raw
    point counts, its predicted uplink rate and its optimizer seed."""

    obj_ids: list
    raw_counts: list
    rate_bps: float
    seed: int


def optimize_rf_batch(problems, dataset: MeasurementDataset, cfg) -> list:
    """Solve a frame's per-CAV RF subproblems in lockstep.

    For each subproblem the outer loop updates the multiplier from the
    constraint residual; the inner loop perturbs the RF vector, fits a
    least-squares plane to the sampled Lagrangian, and steps along its
    gradient.  The continuous solution is discretized upward (more
    compression) to preserve feasibility.  When the constraint cannot be met
    even at maximum compression the result carries every object at r_max and
    an infeasible flag.

    Every subproblem samples one latency model, ``dataset``'s loss, encode
    and decode samples under the run config ``cfg``, at its own predicted
    rate; ``cfg`` also sets the RF set, the bound Prob(latency <= H_ms -
    h_margin_ms) >= p and the search's budget.  The subproblems of a
    ``_lockstep_group`` step together, one numpy call per step for all.
    Each subproblem draws its random streams, seeded by ``RFProblem.seed``, at
    its own task count, so a result depends on its own subproblem alone, up
    to last-bit roundoff in a padded row's plane fit.  Results come back in
    the order of ``problems``.
    """
    if any(not p.obj_ids for p in problems):
        raise ConfigError("every RF subproblem needs at least one task")
    buckets = bucket_index(np.array([n for p in problems for n in p.raw_counts]))
    tables = _sample_tables(dataset, cfg.rf_set, np.unique(buckets).tolist())
    by_problem = np.split(buckets, np.cumsum([len(p.obj_ids) for p in problems])[:-1])
    groups: dict = {}
    for i, p in enumerate(problems):
        groups.setdefault(_lockstep_group(len(p.obj_ids), cfg.deviations), []).append(i)
    results = [None] * len(problems)
    with np.errstate(divide="ignore"):  # a zero-rate row's uplink in _Scenarios.evaluate
        for idx in groups.values():
            group = [problems[i] for i in idx]
            # no reference kept here: the search frees the infeasible rows' draws
            for i, res in zip(idx, _solve_group(group, _Scenarios.draw(
                    group, np.concatenate([by_problem[j] for j in idx]), tables, cfg), cfg)):
                results[i] = res
    return results


def _lockstep_group(k: int, deviations: int):
    """Group of a k-task subproblem: 1-7 or 8-15 tasks, within which zero tasks
    leave numpy's task sums exact; k + 1 > deviations or k > 15 stays alone."""
    return k if k + 1 > deviations or k > 15 else "1-7" if k < 8 else "8-15"


def _plane_slopes(design, g, tasks):
    """Slopes (C, K) of the least-squares planes of g (C, D) over design
    (C, D, 1 + K), whose column 0 is ones: one batched solve of the centred
    normal equations.  A padded task (``tasks`` False) gets a zero column and a
    1 on the Gram diagonal, so its slope is 0.  Clipping can make a column
    constant or columns dependent; the Gram matrix's correlation determinant
    is then roundoff, so below sqrt(eps) a row takes lstsq's fit of its real
    columns, pinv with its cutoff.  Rows never mix."""
    eps = np.finfo(np.float64).eps
    d = g.shape[1]  # means as np.mean takes them: a sum, then / d
    xc = design[:, :, 1:] - design[:, :, 1:].sum(axis=1, keepdims=True) / d
    xc = np.where(tasks[:, None], xc, 0.0)
    xt, gc = xc.transpose(0, 2, 1), g - g.sum(axis=1, keepdims=True) / d
    gram, rhs = xt @ xc, xt @ gc[:, :, None]
    gram.reshape(len(gram), -1)[:, ::tasks.shape[1] + 1] += ~tasks  # on the diagonal
    flat = np.linalg.det(gram) <= np.sqrt(eps) * np.diagonal(gram, 0, 1, 2).prod(axis=-1)
    if not flat.any():
        return np.linalg.solve(gram, rhs)[:, :, 0]
    slopes = np.zeros(rhs.shape[:2])
    slopes[~flat] = np.linalg.solve(gram[~flat], rhs[~flat])[:, :, 0]
    for r in np.flatnonzero(flat):
        k = int(tasks[r].sum())
        slopes[r, :k] = (np.linalg.pinv(design[r, :, :1 + k], eps * d) @ g[r])[1:]
    return slopes


def _solve_group(problems, sc: _Scenarios, cfg) -> list:
    """One group's lockstep search: each step is one ``sc.evaluate`` and one
    ``_plane_slopes`` for every row.  With k + 1 > deviations a plane interpolates
    its samples and any solver but lstsq amplifies roundoff into other iterates;
    such rows are rare and keep lstsq, one at a time."""
    levels, h_s = cfg.rf_set, (cfg.H_ms - cfg.h_margin_ms) / 1e3
    lx = sc.log_levels
    lo, hi = lx[0], lx[-1]
    c, k = sc.tasks.shape
    x_max = np.full((c, k), hi)
    fid_max, prob_max = sc.at(x_max, h_s)
    results = [None] * c
    for r in np.flatnonzero(prob_max < cfg.p):
        results[r] = OptimizeResult(
            rfs=np.full(len(problems[r].obj_ids), levels[-1], dtype=np.int64), lam=LAM0,
            prob=float(prob_max[r]), fidelity=float(fid_max[r]), infeasible=True)
    rows = np.flatnonzero(prob_max >= cfg.p)
    if not rows.size:
        return results
    sc = sc.take(rows)
    m = len(rows)
    # one stream per row at its own task count: drawn per outer iteration as a whole
    streams = [(np.random.default_rng([problems[r].seed, 1 << 21]), len(problems[r].obj_ids))
               for r in rows]
    noise = np.zeros((m, cfg.inner_iters, cfg.deviations, k))

    # start mid-range: the loss surface is flattest near maximum compression,
    # so starting there wastes most of the budget crawling out of the plateau
    x = np.full((m, k), 0.5 * (lo + hi))
    x_best, fid_best = x_max[rows], fid_max[rows]  # feasible incumbents
    lam = np.full(m, LAM0)
    design = np.ones((m, cfg.deviations, k + 1))
    for _ in range(cfg.outer_iters):
        for i, (stream, kr) in enumerate(streams):
            noise[i, ..., :kr] = stream.normal(0.0, DEVIATION_SD, noise[i, ..., :kr].shape)
        for step in range(cfg.inner_iters):
            dev = np.clip(x[:, None, :] + noise[:, step], lo, hi)
            fid, probs = sc.at(dev, h_s)
            g = fid + lam[:, None] * (probs - cfg.p)
            design[:, :, 1:] = dev
            if k + 1 > cfg.deviations:
                slopes = np.array([np.linalg.lstsq(d, gi, rcond=None)[0][1:]
                                   for d, gi in zip(design, g)])
            else:
                slopes = _plane_slopes(design, g, sc.tasks)
            x = np.clip(x + PRIMAL_STEP * slopes, lo, hi)
        f_cur, prob = sc.at(x, h_s)
        feasible = prob >= cfg.p
        better = feasible & (f_cur > fid_best)
        x_best[better], fid_best[better] = x[better], f_cur[better]
        # where Prob is locally flat at 0 the regression sees only the
        # fidelity slope and walks away from feasibility; bisect toward
        # the best feasible point instead of waiting for the dual
        x[~feasible] = 0.5 * (x[~feasible] + x_best[~feasible])
        lam = np.maximum(0.0, lam - DUAL_STEP * (prob - cfg.p))

    # never return an infeasible relaxed point when a feasible one is known
    x = np.where((sc.at(x, h_s)[1] >= cfg.p)[:, None], x, x_best)

    # round up to the next discrete level: more compression, never less
    idx = np.searchsorted(lx, x - 1e-9, side="left")
    rfs = np.asarray(levels, dtype=np.int64)[np.minimum(idx, len(levels) - 1)]
    fid, prob = sc.at(np.log2(rfs), h_s)
    for i, r in enumerate(rows):
        results[r] = OptimizeResult(
            rfs=rfs[i, :len(problems[r].obj_ids)], lam=float(lam[i]), prob=float(prob[i]),
            fidelity=float(fid[i]), infeasible=False)
    return results
