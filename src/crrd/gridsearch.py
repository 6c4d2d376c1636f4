"""Exhaustive grid oracles over test channels.

The oracles discretize each conditional slice p(reconstructions | x) on a
simplex grid of resolution `step`, enumerate every grid channel that meets
the distortion budgets exactly, and take the minimum of the rate
objective.  The result is an upper bound on the true minimum that
converges as the step shrinks (the feasible set is a polytope and the
objective is continuous), and it is independent of any closed form, which
is what makes it usable as a cross-check.

Enumeration is organized so the work scales with the number of *feasible*
channels rather than the full product grid: rows are prefiltered by their
own distortion contribution, partners are scanned through a cost-sorted
prefix, and a zero-rate shortcut answers loose budgets outright (if any
constant channel on the grid is feasible, the minimum is exactly 0).
The objective is `measures.GridTerms` over `HB_CR_TERMS` (or `POINT_TERMS`
for one decoder): per channel it recomputes only the mixture entropies over
side symbols seen from several source symbols and gathers everything else
from per-row precomputations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .channels import TestChannel
from .closed_form import DistortionPair
from .errors import GuardExceededError, InfeasibleBudgetError, InvalidSpecError, \
    ShapeMismatchError
from .measures import HB_CR_TERMS, POINT_TERMS, GridTerms, MITerm, entropy_rows
from .prob import DistortionMetric, FinitePmf, JointSource

__all__ = [
    "simplex_grid",
    "grid_oracle_point_cr",
    "grid_oracle_hb_cr",
    "feasible_hb_channel_batches",
]

SLACK = 1e-12
BATCH = 2_000_000

POINT_GUARD_DEFAULT = 10_000_000
#: The two-decoder grid at the default step has ~5.5e8 product points for
#: binary reconstructions, so this guard is wider than the point-to-point
#: one; feasibility pruning keeps the evaluated count far smaller.
HB_GUARD_DEFAULT = 1_000_000_000


def simplex_grid(units: int, cells: int) -> np.ndarray:
    """All nonnegative integer vectors of length `cells` summing to `units`.

    Rows are in lexicographic order; divide by `units` for grid pmfs.
    """
    if cells < 1 or units < 0:
        raise InvalidSpecError("simplex_grid needs cells >= 1 and units >= 0")
    if cells == 1:
        return np.array([[units]], dtype=np.int32)
    blocks = []
    for first in range(units + 1):
        rest = simplex_grid(units - first, cells - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int32)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def step_units(step: float) -> int:
    if not (0 < step <= 1):
        raise InvalidSpecError(f"step must lie in (0, 1], got {step}")
    k = int(round(1.0 / step))
    if abs(k * step - 1.0) > 1e-9:
        raise InvalidSpecError(f"step must divide 1 evenly, got {step}")
    return k


@dataclass
class _Slice:
    """Grid rows of one conditional slice plus everything the evaluators need."""

    cells: np.ndarray        # flat indices of allowed cells in the full space
    padded: np.ndarray       # (N, n_full) grid rows embedded in the full cell space
    costs: np.ndarray        # (n_budgets, N) distortion contribution, p(x)-weighted
    h_row: np.ndarray        # (N,) entropy of the row

    @property
    def n(self) -> int:
        return self.padded.shape[0]


def _build_slice(units: int, allowed_flat: np.ndarray, n_full: int,
                 cost_vectors: Sequence[np.ndarray]) -> _Slice:
    cells = np.flatnonzero(allowed_flat)
    if cells.size == 0:
        raise InfeasibleBudgetError("a source symbol has no allowed reconstruction")
    rows = simplex_grid(units, cells.size).astype(np.float64) / units
    padded = np.zeros((rows.shape[0], n_full))
    padded[:, cells] = rows
    costs = np.stack([rows @ cv[cells] for cv in cost_vectors])
    return _Slice(cells=cells, padded=padded, costs=costs, h_row=entropy_rows(rows))


def _zero_rate_witness(slices: list[_Slice], n_full: int, units: int,
                       cost_cells: list[list[np.ndarray]],
                       budgets: np.ndarray) -> np.ndarray | None:
    """Feasible constant channel on the grid, or None.

    cost_cells[j][x] is the p(x)-weighted distortion vector of budget j on
    the full cell space for slice x.
    """
    common = slices[0].cells
    for s in slices[1:]:
        common = np.intersect1d(common, s.cells)
    if common.size == 0:
        return None
    rows = simplex_grid(units, common.size).astype(np.float64) / units
    ok = np.ones(rows.shape[0], dtype=bool)
    for j, budget in enumerate(budgets):
        total = np.zeros(rows.shape[0])
        for x in range(len(slices)):
            total += rows @ cost_cells[j][x][common]
        ok &= total <= budget + SLACK + SLACK * abs(budget)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    row = np.zeros(n_full)
    row[common] = rows[hits[0]]   # lexicographically first feasible row
    return row


def _enumerate_feasible(slices: list[_Slice], budgets: np.ndarray,
                        emit: Callable[[tuple[np.ndarray, ...]], None],
                        batch: int = BATCH) -> int:
    """Drive `emit` over every grid channel meeting all (one or more) budgets.

    Returns the number of channels emitted.  Work scales with the number
    of feasible channels, not the full product.
    """
    nx = len(slices)
    nb = budgets.size
    slack = SLACK + SLACK * np.abs(budgets)
    lim = budgets + slack

    total = 0
    pend: list[list[np.ndarray]] = []
    pend_n = 0

    def flush():
        nonlocal pend, pend_n, total
        if pend_n == 0:
            return
        cols = tuple(np.concatenate([p[x] for p in pend]) for x in range(nx))
        for s in range(0, cols[0].size, batch):
            emit(tuple(c[s:s + batch] for c in cols))
        total += cols[0].size
        pend, pend_n = [], 0

    mins = np.array([[s.costs[j].min() for s in slices] for j in range(nb)])

    if nx == 2:
        s0, s1 = slices
        keep0 = np.ones(s0.n, dtype=bool)
        keep1 = np.ones(s1.n, dtype=bool)
        for j in range(nb):
            keep0 &= s0.costs[j] <= lim[j] - mins[j, 1]
            keep1 &= s1.costs[j] <= lim[j] - mins[j, 0]
        f0 = np.flatnonzero(keep0)
        f1 = np.flatnonzero(keep1)
        if f0.size == 0 or f1.size == 0:
            return 0
        order = f1[np.argsort(s1.costs[0][f1], kind="stable")]
        csort = s1.costs[:, order]
        # group identical cost profiles of slice 0 so the prefix scan runs
        # once per distinct budget remainder
        prof = s0.costs[:, f0].T
        uniq, inv = np.unique(prof, axis=0, return_inverse=True)
        for g in range(uniq.shape[0]):
            rows0 = f0[inv == g]
            rem = lim - uniq[g]
            if np.any(rem < mins[:, 1]):
                continue
            cut = int(np.searchsorted(csort[0], rem[0], side="right"))
            if cut == 0:
                continue
            ok = np.ones(cut, dtype=bool)
            for j in range(1, nb):
                ok &= csort[j, :cut] <= rem[j]
            js = order[:cut][ok]
            if js.size == 0:
                continue
            pend.append([np.repeat(rows0, js.size), np.tile(js, rows0.size)])
            pend_n += rows0.size * js.size
            if pend_n >= batch:
                flush()
        flush()
        return total

    # generic depth-first product for any other number of source symbols
    later_min = np.zeros((nb, nx + 1))
    for x in range(nx - 1, -1, -1):
        later_min[:, x] = later_min[:, x + 1] + mins[:, x]

    prefix = np.zeros((nx,), dtype=np.int64)

    def rec(x: int, used: np.ndarray):
        nonlocal pend_n
        rem = lim - used
        if x == nx - 1:
            ok = np.ones(slices[x].n, dtype=bool)
            for j in range(nb):
                ok &= slices[x].costs[j] <= rem[j]
            js = np.flatnonzero(ok)
            if js.size == 0:
                return
            cols = [np.full(js.size, prefix[t], dtype=np.int64) for t in range(x)]
            cols.append(js)
            pend.append(cols)
            pend_n += js.size
            if pend_n >= batch:
                flush()
            return
        ok = np.ones(slices[x].n, dtype=bool)
        for j in range(nb):
            ok &= slices[x].costs[j] <= rem[j] - later_min[j, x + 1]
        for i in np.flatnonzero(ok):
            prefix[x] = i
            rec(x + 1, used + slices[x].costs[:, i])

    rec(0, np.zeros(nb))
    flush()
    return total


class _Minimizer:
    """Tracks the smallest batch value of `terms`; ties go to the
    lexicographically smallest channel (concatenated padded rows)."""

    def __init__(self, slices: list[_Slice], terms: tuple[MITerm, ...], px: np.ndarray,
                 p_xy_by_axis: dict[int, np.ndarray], shape: tuple[int, int]):
        self.objective = GridTerms(terms, px, p_xy_by_axis, [s.padded for s in slices],
                                   [s.h_row for s in slices], shape)
        self.slices = slices
        self.best = math.inf
        self.best_idx: tuple[int, ...] | None = None

    def _key(self, idx: tuple[int, ...]) -> np.ndarray:
        return np.concatenate([s.padded[i] for s, i in zip(self.slices, idx)])

    def __call__(self, idx: tuple[np.ndarray, ...]) -> None:
        vals = self.objective.eval(idx)
        i = int(np.argmin(vals))
        v = float(vals[i])
        cand = tuple(int(col[i]) for col in idx)
        if v < self.best:
            self.best, self.best_idx = v, cand
        elif v == self.best and self.best_idx is not None:
            # exact float tie: lexicographic channel comparison
            ck, bk = self._key(cand), self._key(self.best_idx)
            if tuple(ck) < tuple(bk):
                self.best_idx = cand


def _check_guard_counts(support_sizes: list[int], units: int, guard: int) -> None:
    """Reject oversized product grids before any row array is built."""
    prod = 1
    for ns in support_sizes:
        prod *= math.comb(units + ns - 1, ns - 1)
        if prod > guard:
            raise GuardExceededError(
                f"grid has {prod}+ channels, guard is {guard}", prod, guard)


def grid_oracle_point_cr(pair_pmf: FinitePmf, metric: DistortionMetric,
                         d: float, step: float,
                         guard: int = POINT_GUARD_DEFAULT) -> float:
    """Exhaustive-grid minimum of I(X;Xhat|Y) subject to E[d(X,Xhat)] <= d.

    `pair_pmf` is the joint p(x, y).  Channels are enumerated on the
    simplex grid of resolution `step` per conditional slice; the guard
    bounds the number of product grid points.
    """
    if pair_pmf.ndim != 2:
        raise InvalidSpecError("point oracle needs a 2-axis joint p(x,y)")
    if d < 0:
        raise InvalidSpecError("distortion budget must be >= 0")
    p_xy = pair_pmf.mass
    nx = p_xy.shape[0]
    if metric.n_inputs != nx:
        raise ShapeMismatchError("metric rows must equal |X|")
    k = step_units(step)
    px = p_xy.sum(axis=1)
    n_full = metric.n_outputs
    _check_guard_counts([int(np.isfinite(metric.matrix[x]).sum())
                         for x in range(nx)], k, guard)
    cost_full = [[px[x] * np.where(np.isfinite(metric.matrix[x]),
                                   metric.matrix[x], 0.0) for x in range(nx)]]
    slices = [
        _build_slice(k, np.isfinite(metric.matrix[x]), n_full, [cost_full[0][x]])
        for x in range(nx)
    ]
    budgets = np.array([d])

    if _zero_rate_witness(slices, n_full, k, cost_full, budgets) is not None:
        return 0.0

    minimizer = _Minimizer(slices, POINT_TERMS, px, {1: p_xy}, (n_full, 1))
    n = _enumerate_feasible(slices, budgets, minimizer)
    if n == 0 or not math.isfinite(minimizer.best):
        raise InfeasibleBudgetError(
            f"no grid channel meets E[d] <= {d} at step {step}")
    return max(0.0, minimizer.best)


def _hb_slices(source: JointSource, metric1: DistortionMetric,
               metric2: DistortionMetric, k: int, guard: int):
    nx = source.nx
    if metric1.n_inputs != nx or metric2.n_inputs != nx:
        raise ShapeMismatchError("metric rows must equal |X|")
    m1, m2 = metric1.n_outputs, metric2.n_outputs
    allowed = [
        (np.isfinite(metric1.matrix[x])[:, None]
         & np.isfinite(metric2.matrix[x])[None, :]).reshape(-1)
        for x in range(nx)
    ]
    _check_guard_counts([int(a.sum()) for a in allowed], k, guard)
    px = source.x_marginal()
    d1 = np.where(np.isfinite(metric1.matrix), metric1.matrix, 0.0)
    d2 = np.where(np.isfinite(metric2.matrix), metric2.matrix, 0.0)
    cost_full = [
        [px[x] * np.repeat(d1[x], m2) for x in range(nx)],
        [px[x] * np.tile(d2[x], m1) for x in range(nx)],
    ]
    slices = [
        _build_slice(k, allowed[x], m1 * m2, [cost_full[0][x], cost_full[1][x]])
        for x in range(nx)
    ]
    return slices, cost_full, m1, m2


def grid_oracle_hb_cr(source: JointSource, metric1: DistortionMetric,
                      metric2: DistortionMetric, pair: DistortionPair,
                      step: float, guard: int = HB_GUARD_DEFAULT,
                      ) -> tuple[float, TestChannel]:
    """Exhaustive-grid minimum of the two-decoder CR objective.

    Minimizes I(X;Xh1|Y1) + I(X;Xh2|Y2,Xh1) over grid channels
    p(xh1,xh2|x) meeting both distortion budgets; returns the minimum and
    the achieving channel.
    """
    k = step_units(step)
    slices, cost_full, m1, m2 = _hb_slices(source, metric1, metric2, k, guard)
    budgets = np.array([pair.d1, pair.d2])
    nx = source.nx

    row = _zero_rate_witness(slices, m1 * m2, k, cost_full, budgets)
    if row is not None:
        cond = np.tile(row.reshape(1, m1, m2), (nx, 1, 1))
        return 0.0, TestChannel(cond)

    minimizer = _Minimizer(slices, HB_CR_TERMS, source.x_marginal(),
                           {1: source.xy1_marginal(), 2: source.xy2_marginal()}, (m1, m2))
    n = _enumerate_feasible(slices, budgets, minimizer)
    if n == 0 or not math.isfinite(minimizer.best):
        raise InfeasibleBudgetError(
            f"no grid channel meets budgets {pair} at step {step}")
    cond = np.stack([slices[x].padded[i].reshape(m1, m2)
                     for x, i in enumerate(minimizer.best_idx)])
    return max(0.0, minimizer.best), TestChannel(cond)


def feasible_hb_channel_batches(
        source: JointSource, metric1: DistortionMetric,
        metric2: DistortionMetric, pair: DistortionPair, step: float,
        guard: int = 2_000_000, batch: int = 50_000,
) -> Iterator[np.ndarray]:
    """Yield (B, |X|, m1, m2) tensors of budget-feasible grid channels.

    Used by the region samplers, which evaluate several rate bounds per
    channel.  Here the guard caps the number of feasible channels (the
    sweep must hold them all), not the product grid.
    """
    k = step_units(step)
    slices, _, m1, m2 = _hb_slices(source, metric1, metric2, k, HB_GUARD_DEFAULT)
    budgets = np.array([pair.d1, pair.d2])
    cols: list[tuple[np.ndarray, ...]] = []
    seen = 0

    def emit(idx: tuple[np.ndarray, ...]) -> None:
        nonlocal seen
        seen += idx[0].size
        if seen > guard:
            raise GuardExceededError(
                f"budget-feasible sweep exceeds {guard} channels", seen, guard)
        cols.append(tuple(c.copy() for c in idx))

    _enumerate_feasible(slices, budgets, emit, batch=batch)
    for idx in cols:
        yield np.stack([slices[x].padded[idx[x]].reshape(-1, m1, m2)
                        for x in range(source.nx)], axis=1)
