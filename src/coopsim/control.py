"""Per-CAV control plane: object selection and percentile-constrained RF search.

Selection prunes redundant viewers by thinning a star graph of predicted
point contributions per (object, ground-plane quadrant); ``select_objects``
thins every star of a frame's pair table at once and returns its mask.  The RF
optimizer then picks one compression level per kept object by approximated
gradient ascent on a Lagrangian of expected fidelity and the probability that
frame latency stays under the bound, with a dual multiplier enforcing the
percentile constraint.  Gradients come from least-squares planes fitted to
randomly perturbed RF vectors under common random numbers, in the manner of
SPSA (Spall 1992, IEEE TAC 37(3)).

Two corners bracket the search.  A subproblem that misses the bound at
maximum compression is infeasible and returns there.  One that meets it with
every task at its least mean loss (of equal losses the larger RF) has its
optimum there, since sampled fidelity is a sum over tasks, and returns it
with the slack multiplier 0.  Only the rest are searched.

Once each CAV has its rate prediction its RF subproblem is independent of the
others, so ``optimize_rf_batch`` solves a frame's subproblems in lockstep:
CAVs with 1-7 tasks, and with 8-15, share every numpy call of every step (one
matmul blends compute times, one solve of centred normal equations fits the
planes), shorter rows padded with zero-weight tasks.  numpy adds fewer than 8
numbers in order and 8-15 through 8 running sums, so a padded row's sampled
fidelity and latency are bit-exact; only its plane fit may round differently.

Every draw is a keyed uniform of the subproblem's seed, so runs replay
exactly; through that roundoff a CAV's decision can depend on its group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .codec import (
    CODEC_INPUT_POINTS,
    DESCRIPTOR_OVERHEAD_BYTES,
    LATENT_SCALAR_BYTES,
    MeasurementDataset,
    bucket_index,
    sample_index,
    sample_tables,
)
from .geometry import box_frame_offsets, face_weights, facing_quadrant_mask
from .sampling import keyed_uniforms
from . import netsim

POINT_DENSITY_K = 60000.0  # points * m^2 at 1 m, calibrated to car faces
POINT_CAP = 240000
LIDAR_RANGE_M = 50.0

# tags after (seed, object id), (seed), (seed, iteration, task): unequal lengths, no shared stream
_TAG_TASK = 0
_TAG_CAV = 1
_TAG_SEARCH = 2

# the RF search's primal and dual step sizes and starting multiplier
PRIMAL_STEP = 0.5
DUAL_STEP = 5.0
LAM0 = 1.0
DEVIATION_SD = 0.25  # spread of the search's perturbations, in log2-RF units
# its budget: outer (dual) iterations, inner (primal) steps per outer, perturbations per step
OUTER_ITERS = 6
INNER_ITERS = 12
DEVIATIONS = 12


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
    area = face_weights(local[near], dist[near], extents[near]).sum(axis=1)
    totals = np.zeros(len(dist), dtype=np.int64)
    d = dist[near]
    totals[near] = np.clip(POINT_DENSITY_K * area / (d * d), 0.0,
                           float(POINT_CAP)).astype(np.int64)
    facing = facing_quadrant_mask(local) & (totals > 0)[:, None]
    quadrants = np.where(facing, totals[:, None] / np.maximum(facing.sum(axis=1), 1)[:, None], 0.0)
    return totals, quadrants


def select_objects(obj_ids, cav_ids, quadrants, threshold: float) -> np.ndarray:
    """Density thinning of a table of (object, viewer) pairs; returns the keep mask.

    Row i is CAV ``cav_ids[i]`` seeing object ``obj_ids[i]`` with the (N, 4)
    per-quadrant counts ``quadrants[i]``.  Every positive count is an edge of
    its (object, quadrant) star.  One sort takes each star's edges smallest
    first, equal counts larger CAV id first, so the outcome is identical on
    every CAV; an edge is dropped while its star's total minus the running sum
    through it stays at or above ``threshold``.  A pair is kept if it keeps an
    edge in some quadrant.  ``predict_counts``'s quadrant counts are integers
    over 1, 2 or 4, so every sum is exact and the dropped edges are the
    prefix that a one-at-a-time removal loop drops.
    """
    pair, quad = np.nonzero(quadrants > 0)
    value, obj = quadrants[pair, quad], np.asarray(obj_ids)[pair]
    order = np.lexsort((-np.asarray(cav_ids)[pair], value, quad, obj))
    pair, quad, value, obj = pair[order], quad[order], value[order], obj[order]
    ends = np.flatnonzero(np.append((obj[1:] != obj[:-1]) | (quad[1:] != quad[:-1]), True))
    star_end = ends[np.searchsorted(ends, np.arange(len(value)))]  # each edge's star's last edge
    running = np.cumsum(value)
    kept = running[star_end] - running < threshold
    selected = np.zeros(len(quadrants), dtype=bool)
    selected[pair[kept]] = True
    return selected


# ---------------------------------------------------------------------------
# the lockstep RF search


class _Scenarios:
    """Common-random-number draws for C subproblems of up to K tasks each.

    Row c holds CAV c's draws; every array is indexed (row, task, level,
    sample) in that order.  Each task's encode and decode picks are keyed
    uniforms of (seed, object id), so adding objects never disturbs the draws
    of existing ones; that makes the latency probability exactly monotone
    under superset selections with the same seed.  Fidelity is the dataset's
    sampled mean per level; only times are drawn per scenario, since the
    latency tail is what the percentile constraint cares about.
    """

    def __init__(self, log_levels, mean_loss, compute_s, base_s, rate, fixed_bytes, tasks):
        self.log_levels = log_levels  # (L,)
        self.mean_loss = mean_loss  # (C, K, L), zero on padded tasks
        self.compute_s = compute_s  # (C, K * L, S): encode + decode, in s; zero padded
        self.base_s = base_s  # (C, S) baseline module time
        self.rate = rate  # (C, S) sampled uplink rate
        self.fixed_bytes = fixed_bytes  # (C,) payload that does not depend on x
        self.tasks = tasks  # (C, K) bool: real, not padded
        self._first_loss = np.arange(tasks.size).reshape(len(tasks), 1, -1) * mean_loss.shape[2]
        # the bracket's interior levels and level widths, the same for every call
        self._interior, self._widths = log_levels[1:-1], np.diff(log_levels)

    @classmethod
    def draw(cls, problems, buckets, tables, cfg) -> "_Scenarios":
        """``cfg.mc_samples`` scenarios for ``problems`` under the run config
        ``cfg``'s rate spread, rows padded with zero tasks.
        Draws and gathers run over the real tasks alone, whose count buckets
        (T,) ``buckets`` holds row by row; ``tables`` comes from ``sample_tables``."""
        levels, mean_tab, sample_tab, count_tab = tables
        s, nl = cfg.mc_samples, len(levels)
        counts = [len(p.obj_ids) for p in problems]
        tasks = np.arange(max(counts)) < np.array(counts)[:, None]
        seeds, nm = np.array([p.seed for p in problems]), len(netsim.MODULE_TIMES_MS)
        u = keyed_uniforms(np.repeat(seeds, counts), np.concatenate([p.obj_ids for p in problems]),
                           _TAG_TASK, n=2 * s).reshape(-1, 2, s)  # (T, 2, S)
        n = count_tab[buckets][..., None]  # (T, L, 1)

        def ms(e):  # encode (1) or decode (2) times (T, L, S), one at a time to save memory
            idx = sample_index(u[:, None, e - 1], n)
            return sample_tab[buckets[:, None, None], np.arange(nl)[:, None], e, idx]
        ub = keyed_uniforms(seeds, _TAG_CAV, n=(nm + 1) * s).reshape(-1, nm + 1, s)
        base_ms = netsim.module_times_ms(np.moveaxis(ub[:, :nm], 1, -1))  # (C, S)
        z = ndtri(ub[:, nm])  # the fading's row follows the modules'
        rate_bps = np.array([p.rate_bps for p in problems])[:, None]
        real = (ms(1) + ms(2)) / 1e3  # before the padded table
        mean_loss, compute_s = np.zeros((*tasks.shape, nl)), np.zeros((*tasks.shape, nl, s))
        mean_loss[tasks] = mean_tab[buckets]
        compute_s[tasks] = real
        return cls(np.log2(np.asarray(levels, dtype=np.float64)), mean_loss,
                   compute_s.reshape(len(problems), -1, s), base_ms / 1e3,
                   rate_bps * np.exp(cfg.rate_sigma * z),
                   np.array([p.fixed_bytes for p in problems], dtype=np.float64), tasks)

    def take(self, rows) -> "_Scenarios":
        return _Scenarios(self.log_levels, self.mean_loss[rows], self.compute_s[rows],
                          self.base_s[rows], self.rate[rows], self.fixed_bytes[rows],
                          self.tasks[rows])

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
        for level in self._interior:  # the bracket: interior levels at or below x
            j += x >= level
        w = np.clip((x - lx[j]) / self._widths[j], 0.0, 1.0) if len(lx) > 1 else np.zeros(x.shape)
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
        payload = ((CODEC_INPUT_POINTS / np.exp2(x)) * LATENT_SCALAR_BYTES
                   + DESCRIPTOR_OVERHEAD_BYTES) * self.tasks[:, None]
        payload = payload.sum(axis=-1) + self.fixed_bytes[:, None]  # + 0.0 is exact
        # a zero rate divides by zero: latency inf, never within the bound
        compute_s += payload[..., None] * 8.0 / self.rate[:, None, :]
        compute_s += self.base_s[:, None, :]  # latency: compute + uplink + baseline
        return fidelity, compute_s

    def at(self, x: np.ndarray, h_s: float):
        """Fidelity and Prob(latency <= h_s) at one point (C, K) or D points (C, D, K) per row."""
        fid, latency = self.evaluate(x.reshape(len(x), -1, x.shape[-1]))
        prob = (latency <= h_s).sum(axis=-1) / latency.shape[-1]  # np.mean's arithmetic
        return fid.reshape(x.shape[:-1]), prob.reshape(x.shape[:-1])


@dataclass
class OptimizeResult:
    rfs: np.ndarray
    lam: float
    prob: float
    fidelity: float
    infeasible: bool


@dataclass
class RFProblem:
    """One CAV's RF subproblem in a frame: the ids and raw point counts of
    the objects whose latents it sends, its predicted uplink rate, its
    optimizer seed, and the bytes it uploads whatever the RFs (its reuse
    deltas), which the plan adds to every sampled payload."""

    obj_ids: list
    raw_counts: list
    rate_bps: float
    seed: int
    fixed_bytes: float


def optimize_rf_batch(problems, dataset: MeasurementDataset, cfg) -> list:
    """Solve a frame's per-CAV RF subproblems in lockstep.

    For each subproblem the outer loop updates the multiplier from the
    constraint residual; the inner loop perturbs the RF vector, fits a
    least-squares plane to the sampled Lagrangian, and steps along its
    gradient.  The continuous solution is discretized upward (more
    compression) to preserve feasibility.  When the constraint cannot be met
    even at maximum compression the result carries every object at r_max and
    an infeasible flag; when it is met with every object at its least mean
    loss, no search runs and the result is that corner with lam = 0.

    Every subproblem samples one latency model, ``dataset``'s loss, encode
    and decode samples under the run config ``cfg``, at its own predicted
    rate; ``cfg`` also sets the RF set and the bound Prob(latency <= H_ms -
    h_margin_ms) >= p, and OUTER_ITERS, INNER_ITERS and DEVIATIONS set the
    search's budget.  The subproblems of a ``_lockstep_group`` step
    together, one numpy call per step for all.
    Every draw is a keyed uniform of ``RFProblem.seed`` and, per task, its
    object id or task index, so a result depends on its own subproblem alone,
    up to last-bit roundoff in a padded row's plane fit.  Results come back in
    the order of ``problems``.
    """
    if any(not p.obj_ids for p in problems):
        raise ValueError("every RF subproblem needs at least one task")
    buckets = bucket_index(np.array([n for p in problems for n in p.raw_counts]))
    tables = sample_tables(dataset, cfg.rf_set, np.unique(buckets).tolist())
    by_problem = np.split(buckets, np.cumsum([len(p.obj_ids) for p in problems])[:-1])
    groups: dict = {}
    for i, p in enumerate(problems):
        groups.setdefault(_lockstep_group(len(p.obj_ids)), []).append(i)
    results = [None] * len(problems)
    with np.errstate(divide="ignore"):  # a zero-rate row's uplink in _Scenarios.evaluate
        for idx in groups.values():
            group = [problems[i] for i in idx]
            # no reference kept here: the search frees the infeasible rows' draws
            for i, res in zip(idx, _solve_group(group, _Scenarios.draw(
                    group, np.concatenate([by_problem[j] for j in idx]), tables, cfg), cfg)):
                results[i] = res
    return results


def _lockstep_group(k: int):
    """Group of a k-task subproblem: 1-7 or 8-15 tasks, within which zero tasks
    leave numpy's task sums exact; k + 1 > DEVIATIONS or k > 15 stays alone."""
    return k if k + 1 > DEVIATIONS or k > 15 else "1-7" if k < 8 else "8-15"


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
    ``_plane_slopes`` for every row.  With k + 1 > DEVIATIONS a plane interpolates
    its samples and any solver but lstsq amplifies roundoff into other iterates;
    such rows are rare and keep lstsq, one at a time."""
    h_s = (cfg.H_ms - cfg.h_margin_ms) / 1e3
    rf_levels, lx = np.asarray(cfg.rf_set, dtype=np.int64), sc.log_levels
    lo, hi = lx[0], lx[-1]
    c, k = sc.tasks.shape
    x_max = np.full((c, k), hi)
    fid_max, prob_max = sc.at(x_max, h_s)
    # the fidelity-best corner, the optimum where it meets the bound: each task
    # at its least mean loss, of equal losses the larger RF (fewer bytes), so a
    # padded task's zero losses sit at r_max like x_max's
    corner = len(lx) - 1 - np.argmin(sc.mean_loss[..., ::-1], axis=-1)  # (C, K) level indices
    fid_corner, prob_corner = sc.at(lx[corner], h_s)
    # each row's outcome: infeasible at r_max, the corner with lam 0, or searched
    infeasible, at_corner = prob_max < cfg.p, (prob_max >= cfg.p) & (prob_corner >= cfg.p)
    level = np.where(at_corner[:, None], corner, len(lx) - 1)
    lam_out = np.where(at_corner, 0.0, LAM0)
    prob_out = np.where(at_corner, prob_corner, prob_max)
    fid_out = np.where(at_corner, fid_corner, fid_max)
    rows = np.flatnonzero(~infeasible & ~at_corner)
    if rows.size:  # the search, over the other rows alone
        sc = sc.take(rows)
        m = len(rows)
        rr, tt = np.nonzero(sc.tasks)  # the real (row, task) pairs; padded tasks get no noise
        seeds = np.array([problems[r].seed for r in rows])[rr]
        noise = np.zeros((m, INNER_ITERS, DEVIATIONS, k))

        # start mid-range: the loss surface is flattest near maximum compression,
        # so starting there wastes most of the budget crawling out of the plateau
        x = np.full((m, k), 0.5 * (lo + hi))
        x_best, fid_best = x_max[rows], fid_max[rows]  # feasible incumbents
        lam = np.full(m, LAM0)
        design = np.ones((m, DEVIATIONS, k + 1))
        for it in range(OUTER_ITERS):
            u = keyed_uniforms(seeds, it, tt, _TAG_SEARCH, n=INNER_ITERS * DEVIATIONS)
            noise[rr, ..., tt] = (DEVIATION_SD * ndtri(u)).reshape(-1, INNER_ITERS, DEVIATIONS)
            for step in range(INNER_ITERS):
                dev = np.clip(x[:, None, :] + noise[:, step], lo, hi)
                fid, probs = sc.at(dev, h_s)
                g = fid + lam[:, None] * (probs - cfg.p)
                design[:, :, 1:] = dev
                if k + 1 > DEVIATIONS:
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
        level[rows] = np.minimum(np.searchsorted(lx, x - 1e-9, side="left"), len(lx) - 1)
        fid_out[rows], prob_out[rows] = sc.at(np.log2(rf_levels[level[rows]]), h_s)
        lam_out[rows] = lam
    rfs = rf_levels[level]
    return [OptimizeResult(rfs=rfs[r, :len(p.obj_ids)], lam=float(lam_out[r]),
                           prob=float(prob_out[r]), fidelity=float(fid_out[r]),
                           infeasible=bool(infeasible[r]))
            for r, p in enumerate(problems)]
