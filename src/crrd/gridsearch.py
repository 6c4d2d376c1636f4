"""Exhaustive grid oracles over test channels.

The oracles discretize each conditional slice p(reconstructions | x) on a
simplex grid of resolution `step`, enumerate every grid channel that meets
the distortion budgets exactly, and take the minimum of the rate
objective.  The result is an upper bound on the true minimum that
converges as the step shrinks (the feasible set is a polytope and the
objective is continuous), and it is independent of any closed form, which
is what makes it usable as a cross-check.

Both public oracles build a `channels.CRProblem` and run one body,
`_oracle`, on it; the point-to-point problem is the one-metric polytope,
laid out as a broadcast channel whose second reconstruction has a single
symbol.  `_oracle` takes the `simplex_grid` rows of each slice over the
problem's `ChannelPolytope` (`_build_slices`), answers loose budgets with
a zero-rate shortcut (a feasible constant channel makes the minimum
exactly 0), enumerates the budget-feasible channels depth first in
batches (`_feasible_batches`: work scales with the feasible set, memory
with the batch size) and keeps the lexicographically smallest of the
channels attaining the minimum (`_grid_argmin`).  The objective is
`measures.GridTerms` over the problem's terms and side pmfs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .channels import ChannelPolytope, CRProblem, TestChannel
from .closed_form import DistortionPair
from .errors import GuardExceededError, InfeasibleBudgetError, InvalidSpecError
from .measures import GridTerms, entropy_rows
from .prob import DistortionMetric, FinitePmf, JointSource

__all__ = [
    "simplex_grid",
    "budget_limit",
    "grid_oracle_point_cr",
    "grid_oracle_hb_cr",
    "feasible_hb_channel_batches",
]

SLACK = 1e-12
BATCH = 2_000_000
SWEEP_BATCH = 50_000

POINT_GUARD_DEFAULT = 10_000_000
#: The two-decoder grid at the default step has ~5.5e8 product points for
#: binary reconstructions, so this guard is wider than the point-to-point
#: one; feasibility pruning keeps the evaluated count far smaller.
HB_GUARD_DEFAULT = 1_000_000_000


def simplex_grid(units: int, cells: int) -> np.ndarray:
    """All nonnegative integer vectors of length `cells` summing to `units`.

    Rows are in lexicographic order; divide by `units` for grid pmfs.  The
    rows are built column by column.  Before column j the rows fall into
    runs that share their first j entries; a run with r units left holds
    one sub-run for each entry v = 0..r of column j, in that order, and the
    sub-run's length is the number of ways to spread the r - v units left
    over the remaining cells.  The last column takes what is left.
    """
    for name, value in (("units", units), ("cells", cells)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidSpecError(f"simplex_grid needs an integer {name}, got {value!r}")
    if cells < 1 or units < 0:
        raise InvalidSpecError("simplex_grid needs cells >= 1 and units >= 0")
    units, cells = int(units), int(cells)
    # column-major while filling, so that each column is one contiguous write
    rows = np.empty((math.comb(units + cells - 1, cells - 1), cells), dtype=np.int32,
                    order="F")
    left = np.array([units])  # units left in each run of equal prefixes
    for j in range(cells - 1):
        rest = cells - 1 - j
        # rows completing r units over `rest` cells, for r = 0..units
        completions = np.array([math.comb(r + rest - 1, rest - 1)
                                for r in range(units + 1)])
        spans = left + 1
        v = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans, spans)
        left = np.repeat(left, spans) - v
        rows[:, j] = np.repeat(v, completions[left])
    rows[:, -1] = left
    return np.ascontiguousarray(rows)


def budget_limit(budget: float | np.ndarray) -> float | np.ndarray:
    """Largest expected distortion that still meets `budget` (a float or an
    array of budgets): the budget plus an absolute and a relative `SLACK`,
    so rounding in a sum of grid terms never rejects a channel on the
    budget.  Every budget mask in the package compares against this."""
    return budget + SLACK + SLACK * abs(budget)


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


def _build_slices(poly: ChannelPolytope, step: float, guard: int,
                  ) -> tuple[list[_Slice], Callable[[int], np.ndarray]]:
    """One slice per source symbol x, on the cells `poly.allowed[x]` flags,
    and their grid: cells -> the pmf rows `simplex_grid(units, cells) / units`
    at `step`, built once per cell count for as long as the caller keeps it.

    Raises GuardExceededError before any row array is built when the
    product grid has more than `guard` channels.  Slices with the same
    allowed cells share one padded row array and one row-entropy vector;
    with every cell allowed, the padded array is the grid itself.
    """
    units = step_units(step)
    grid = functools.cache(lambda cells: simplex_grid(units, cells) / units)
    n_full = poly.allowed.shape[1]
    prod = 1
    for n in poly.allowed.sum(axis=1):
        prod *= math.comb(units + int(n) - 1, int(n) - 1)
        if prod > guard:
            raise GuardExceededError(
                f"grid has {prod}+ channels, guard is {guard}", prod, guard)
    shared: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    slices = []
    for x, allowed_x in enumerate(poly.allowed):
        cells = np.flatnonzero(allowed_x)
        rows = grid(cells.size)
        key = cells.tobytes()
        if key not in shared:
            padded = rows
            if cells.size < n_full:
                padded = np.zeros((rows.shape[0], n_full))
                padded[:, cells] = rows
            shared[key] = padded, entropy_rows(rows)
        padded, h_row = shared[key]
        costs = np.stack([rows @ c[x][cells] for c in poly.costs])
        slices.append(_Slice(cells=cells, padded=padded, costs=costs, h_row=h_row))
    return slices, grid


def _zero_rate_witness(slices: list[_Slice], grid: Callable[[int], np.ndarray],
                       poly: ChannelPolytope) -> np.ndarray | None:
    """Feasible constant channel slice on the grid, or None."""
    common = functools.reduce(np.intersect1d, [s.cells for s in slices])
    if common.size == 0:
        return None
    rows = grid(common.size)
    ok = np.all([sum(rows @ c[x][common] for x in range(len(slices))) <= budget_limit(b)
                 for c, b in zip(poly.costs, poly.budgets)], axis=0)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return None
    row = np.zeros(poly.allowed.shape[1])
    row[common] = rows[hits[0]]   # lexicographically first feasible row
    return row


def _feasible_batches(slices: list[_Slice], budgets: np.ndarray,
                      batch: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield index-column tuples of at most `batch` grid channels meeting
    all (one or more) budgets, each such channel once.  Pieces stay within
    `batch` (or one slice's rows), so memory is bounded by the batch size.
    """
    lim = budget_limit(budgets)
    order = np.argsort(slices[-1].costs[0], kind="stable")
    scan = (order, slices[-1].costs[:, order])
    pend: list[tuple[np.ndarray, ...]] = []
    pend_n = 0
    for piece in _pieces(slices, lim, scan, (), np.zeros(budgets.size), batch):
        pend.append(piece)
        pend_n += piece[0].size
        if pend_n >= batch:
            yield from _flush(pend, pend_n, batch)
            pend_n = 0
    yield from _flush(pend, pend_n, batch)


def _pieces(slices: list[_Slice], lim: np.ndarray, scan: tuple[np.ndarray, np.ndarray],
            prefix: tuple[np.ndarray, ...], used: np.ndarray, batch: int,
            ) -> Iterator[tuple[np.ndarray, ...]]:
    """Feasible channels that extend `prefix` (index columns of the first
    len(prefix) slices, whose rows together cost `used`), depth first.

    Rows kept from a slice leave room for the later slices' least costs;
    those sharing a cost profile are expanded once per group.  The last
    slice is scanned through a prefix of `scan` (row order by first-budget
    cost, costs in that order).  Module level, not a self-calling closure,
    so a walk leaves no reference cycle behind.
    """
    x, rem = len(prefix), lim - used
    if x == len(slices) - 1:
        order, csort = scan
        cut = int(np.searchsorted(csort[0], rem[0], side="right"))
        js = order[:cut][np.all(csort[1:, :cut] <= rem[1:, None], axis=0)]
        yield from _expand(prefix, js, batch)
        return
    later_min = np.zeros(lim.size)
    for s in reversed(slices[x + 1:]):
        later_min = later_min + s.costs.min(axis=1)
    rows = np.flatnonzero(np.all(slices[x].costs <= (rem - later_min)[:, None], axis=0))
    prof, inv, counts = np.unique(slices[x].costs[:, rows].T, axis=0,
                                  return_inverse=True, return_counts=True)
    split = np.split(rows[np.argsort(inv, kind="stable")], np.cumsum(counts)[:-1])
    for p, rows_p in zip(prof, split):
        for part in _expand(prefix, rows_p, batch):
            yield from _pieces(slices, lim, scan, part, used + p, batch)


def _expand(prefix: tuple[np.ndarray, ...], rows: np.ndarray, batch: int,
            ) -> Iterator[tuple[np.ndarray, ...]]:
    """Every prefix row (index columns; none before the first slice)
    followed by each of `rows`, in that order, cut by prefix rows into
    pieces of at most max(batch, rows.size) channels."""
    if rows.size == 0:
        return
    n = prefix[0].size if prefix else 1
    per = max(1, batch // rows.size)
    for s in range(0, n, per):
        head = tuple(np.repeat(c[s:s + per], rows.size) for c in prefix)
        yield head + (np.tile(rows, min(per, n - s)),)


def _flush(pend: list[tuple[np.ndarray, ...]], n: int, batch: int,
           ) -> Iterator[tuple[np.ndarray, ...]]:
    """Empty `pend` (`n` channels) into batches of `batch`; the last may be short."""
    cols = tuple(np.concatenate(col) for col in zip(*pend))
    pend.clear()
    for s in range(0, n, batch):
        yield tuple(c[s:s + batch] for c in cols)


def _grid_argmin(objective: GridTerms, batches: Iterator[tuple[np.ndarray, ...]],
                 ) -> tuple[float, tuple[int, ...] | None]:
    """Smallest objective value over the batches and, among the channels
    attaining it exactly, the lexicographically smallest index tuple.

    Slice rows are lexicographic, so this is the lexicographically
    smallest channel whatever the order and batching of `batches`.
    Returns (inf, None) when no batch holds a channel.
    """
    best, best_idx = math.inf, None
    for idx in batches:
        vals = objective.eval(idx)
        v = float(vals.min())
        if v <= best:
            hits = np.flatnonzero(vals == v)
            first = hits[np.lexsort([c[hits] for c in reversed(idx)])[0]]
            cand = tuple(int(c[first]) for c in idx)
            if v < best or cand < best_idx:
                best, best_idx = v, cand
        del vals, idx   # free this batch before the next one is built
    return best, best_idx


def _oracle_batch(n_full: int) -> int:
    """Channels per objective batch over `n_full` reconstruction cells:
    `BATCH` up to 4 cells, fewer beyond, so that one batch's (B, n_full)
    float64 mixture rows never outgrow a 4-cell batch of `BATCH`."""
    return max(1, min(BATCH, BATCH * 4 // n_full))


def _oracle(prob: CRProblem, step: float, guard: int) -> tuple[float, np.ndarray]:
    """Grid minimum of the sum of `prob.terms` (the oracles' problems have
    unit weights) over the channels of `prob.poly` at `step`, and a
    (|X|, m1, m2) channel attaining it.  The guard bounds the number of
    product grid points."""
    poly = prob.poly
    slices, grid = _build_slices(poly, step, guard)
    nx, m1, m2 = poly.shape
    row = _zero_rate_witness(slices, grid, poly)
    if row is not None:
        return 0.0, np.tile(row.reshape(1, m1, m2), (nx, 1, 1))
    del grid   # the enumeration keeps only what the slices hold

    objective = GridTerms(prob.terms, prob.sides, [s.padded for s in slices],
                          [s.h_row for s in slices], (m1, m2))
    best, best_idx = _grid_argmin(objective, _feasible_batches(
        slices, poly.budgets, _oracle_batch(m1 * m2)))
    if not math.isfinite(best):
        raise InfeasibleBudgetError(f"no grid channel meets budgets "
                                    f"{poly.budgets.tolist()} at step {step}")
    cond = np.stack([slices[x].padded[i].reshape(m1, m2) for x, i in enumerate(best_idx)])
    return max(0.0, best), cond


def grid_oracle_point_cr(pair_pmf: FinitePmf, metric: DistortionMetric,
                         d: float, step: float,
                         guard: int = POINT_GUARD_DEFAULT) -> float:
    """Exhaustive-grid minimum of I(X;Xhat|Y) subject to E[d(X,Xhat)] <= d.

    `pair_pmf` is the joint p(x, y).  Channels are enumerated on the
    simplex grid of resolution `step` per conditional slice; the guard
    bounds the number of product grid points.
    """
    return _oracle(CRProblem.point(pair_pmf.mass, metric, d), step, guard)[0]


def grid_oracle_hb_cr(source: JointSource, metric1: DistortionMetric,
                      metric2: DistortionMetric, pair: DistortionPair,
                      step: float, guard: int = HB_GUARD_DEFAULT,
                      ) -> tuple[float, TestChannel]:
    """Exhaustive-grid minimum of the two-decoder CR objective.

    Minimizes I(X;Xh1|Y1) + I(X;Xh2|Y2,Xh1), the HB CR rate when Y1 is
    degraded w.r.t. Y2 (not checked), over grid channels p(xh1,xh2|x)
    meeting both budgets; returns the minimum and the achieving channel.
    """
    rate, cond = _oracle(CRProblem.broadcast(source, metric1, metric2, (pair.d1, pair.d2)),
                         step, guard)
    return rate, TestChannel(cond)


def feasible_hb_channel_batches(
        source: JointSource, metric1: DistortionMetric,
        metric2: DistortionMetric, pair: DistortionPair, step: float,
        guard: int = 2_000_000,
) -> Iterator[np.ndarray]:
    """Yield (B, |X|, m1, m2) tensors of budget-feasible grid channels,
    B <= `SWEEP_BATCH`.

    Used by the region samplers, which evaluate several rate bounds per
    channel.  Here the guard caps the number of feasible channels (the
    sweep keeps a rate point per channel), not the product grid; it is
    raised when the batch that crosses it is reached.
    """
    poly = CRProblem.broadcast(source, metric1, metric2, (pair.d1, pair.d2)).poly
    slices, _ = _build_slices(poly, step, HB_GUARD_DEFAULT)
    nx, m1, m2 = poly.shape
    seen = 0
    for idx in _feasible_batches(slices, poly.budgets, SWEEP_BATCH):
        seen += idx[0].size
        if seen > guard:
            raise GuardExceededError(
                f"budget-feasible sweep exceeds {guard} channels", seen, guard)
        yield np.stack([slices[x].padded[idx[x]].reshape(-1, m1, m2)
                        for x in range(nx)], axis=1)
