"""Brute-force upper bounds for the relaxed (auxiliary-variable) problems.

These solvers minimize the same conditional-mutual-information objectives
as the common-reconstruction oracles, but over auxiliary channels
p(u | x) or p(u1, u2 | x) combined with deterministic decoder maps
xhat(u, y), and, for constrained reconstruction, encoder maps
xhat_e(u, x).  They are meant for tiny instances: the channel is swept
over a simplex grid and the maps are optimized per channel.

For the plain relaxations the decoder maps enter only through the
distortion budgets, and each budget involves one map alone, so the best
map is found cell by cell: for every (u, y) pick the reconstruction
minimizing the posterior-weighted distortion.  That pointwise choice is
exact, which collapses the map enumeration entirely.  Under constrained
reconstruction the encoder-side budget couples a decoder map's cells
across y, so decoder maps are enumerated exhaustively up to `map_budget`
combinations per decoder (the encoder map is again pointwise-exact given
the decoder map); beyond the budget a reduced candidate set is used and
the result is flagged heuristic.

Budget feasibility, not the objective, is most of the work, so it never
touches channels one by one.  `_grid_min` walks the product grid in
blocks of at most `BATCH` channels: a chunk of prefix rows (the first
|X| - 1 slices) against the rows of the last slice.  The first budget
test broadcasts per-row tables of the slices into a (prefix, last) mask;
every later test, and the objective, runs on the survivors of the tests
before it only, so memory stays bounded by `BATCH`.  Under constrained
reconstruction a decoder map whose budget tables are entrywise no smaller
than another map's is dropped before the scan (it is feasible only where
its dominator is); `ConRResult.map_counts` still counts the enumerated
maps.

The objectives and the map-optimized budgets do not change when the
labels of U1 or U2 (or U) are permuted, so the walk visits at least one
labeling of each relabeling orbit, not all of them: only channels whose
slice-0 row has nonincreasing U1 and U2 marginals (orbital symmetry
breaking; Margot, "Symmetry in integer linear programming", 2010).  That
keeps 506 of the 1,771 slice-0 rows at caps (2, 2) and step 0.05.  The
minimum is the same real number; its last bit can differ from a full
walk's, because the terms of a relabeled channel are summed in another
order.

Each solver validates its instance as a `channels.CRProblem` and runs
one body, `_relaxed_min`: `measures.GridTerms` over the problem's terms
and side pmfs, with the auxiliary in place of the reconstruction.

Because every grid channel of the matching common-reconstruction oracle
reappears here up to a relabeling (take u = xhat and identity maps),
these values never exceed the CR oracle at the same step, which the test
suite checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ConRConstraint, CRProblem
from .closed_form import DistortionPair
from .errors import GuardExceededError, InfeasibleBudgetError, InvalidSpecError, \
    ShapeMismatchError
from .gridsearch import BATCH, POINT_GUARD_DEFAULT, budget_limit, simplex_grid, step_units
from .measures import GridTerms, entropy_rows
from .prob import DistortionMetric, FinitePmf, JointSource

__all__ = [
    "ConRResult",
    "brute_force_wz",
    "brute_force_hb_nocr",
    "brute_force_conr",
]


def _u_grid(nx: int, u_caps: tuple[int, int], step: float,
            guard: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid rows of one auxiliary slice p(u1, u2 | x), shared by every x,
    and the ascending indices of its canonical rows: those whose U1 and U2
    marginals are both nonincreasing.

    Relabeling U1 or U2 maps grid rows to grid rows and permutes the
    marginals, so every row has a relabeling among the canonical rows;
    rows with tied marginals keep all their canonical relabelings.  The
    test runs on the integer units, where the marginals are exact.
    """
    k = step_units(step)
    n_cells = math.prod(u_caps)
    count = math.comb(k + n_cells - 1, n_cells - 1)
    if count ** nx > guard:
        raise GuardExceededError(
            f"auxiliary grid has {count ** nx} channels, guard is {guard}",
            count ** nx, guard)
    units = simplex_grid(k, n_cells)
    table = units.reshape(-1, *u_caps)
    canonical = np.ones(units.shape[0], dtype=bool)
    for marginal in (table.sum(axis=2), table.sum(axis=1)):
        canonical &= (np.diff(marginal, axis=1) <= 0).all(axis=1)
    return units.astype(np.float64) / k, np.flatnonzero(canonical)


def _grid_min(rows: np.ndarray, canonical: np.ndarray, nx: int, objective: GridTerms,
              first, *rest) -> float:
    """Smallest objective over the channels of the `nx`-fold product of the
    grid `rows` that pass every feasibility test (inf if none).

    The objective and the tests do not change when the auxiliary labels
    are permuted in every slice at once, so only channels whose slice-0
    row is among the `canonical` row indices are visited: each relabeling
    orbit keeps at least one member.

    The product is walked in lexicographic order, one block at a time: a
    chunk of prefix rows (index columns of the first nx - 1 slices) paired
    with a run of last-slice rows, at most `BATCH` channels in all.  The
    `first` test sees the block as index columns shaped (b0, 1) for the
    prefix and (1, nl) for the last slice, so it broadcasts per-row tables
    into a (b0, nl) mask.  Each later test, and then the objective, sees
    only the survivors of the tests before it, as 1-D index columns in
    row-major order; the per-channel arithmetic is elementwise, so a
    channel's values do not depend on which form it arrives in.  Memory is
    bounded by `BATCH`.
    """
    n = rows.shape[0]
    # slice 0 is the prefix's first column, or the last slice when nx == 1
    last_rows = canonical if nx == 1 else np.arange(n)
    n_last = min(last_rows.size, BATCH)
    b0 = BATCH // n_last
    prefix_shape = (canonical.size,) + (n,) * (nx - 2) if nx > 1 else ()
    n_prefix = math.prod(prefix_shape)
    best = math.inf
    for start in range(0, n_prefix, b0):
        pos = np.arange(start, min(start + b0, n_prefix))
        prefix = np.unravel_index(pos, prefix_shape) if nx > 1 else ()
        if prefix:
            prefix = (canonical[prefix[0]],) + prefix[1:]
        for lo in range(0, last_rows.size, n_last):
            last = last_rows[lo:lo + n_last]
            hit_prefix, hit_last = np.nonzero(
                first(tuple(col[:, None] for col in prefix) + (last[None, :],)))
            idx = tuple(col[hit_prefix] for col in prefix) + (last[hit_last],)
            for keep in rest:
                if not idx[-1].size:
                    break
                hit = keep(idx)
                idx = tuple(col[hit] for col in idx)
            if idx[-1].size:
                best = min(best, float(objective.eval(idx).min()))
    return best


def _gather_sum(tables: list[tuple[int, np.ndarray]], block: tuple[np.ndarray, ...]):
    """sum_x table_x[block[x]] over the (x, per-row table) pairs, added in
    their order; broadcasts to the block's shape."""
    total = None
    for x, table in tables:
        part = table[block[x]]
        total = part if total is None else total + part
    return total


def _decoder_budget_test(p_xy: np.ndarray, m_u: np.ndarray, metric: DistortionMetric,
                         limit: float):
    """`_grid_min` test: min over decoder maps of E[d(X, xhat(U,Y))] <= limit.

    m_u is the (N, |U|) marginal of the auxiliary on the grid rows.  The
    best map picks, for each (u, y), the reconstruction c minimizing the
    posterior-weighted distortion, which is exact because the budget is a
    sum of independent (u, y) cells.  Slice x holds the per-row table
    (p(x,y) m_u[:, u]) d(x, c) of each cell and c; a block adds the tables
    across slices, folds over c with a minimum and accumulates the cells in
    (u, y) order.  A c that some slice forbids is +inf wherever the weight
    on its forbidden slices exceeds 1e-15.
    """
    nx, ny = p_xy.shape
    fin = np.isfinite(metric.matrix)
    d0 = np.where(fin, metric.matrix, 0.0)
    cells = []   # per (u, y): per c, (cost tables, forbidden-weight tables)
    for u in range(m_u.shape[1]):
        for y in range(ny):
            xs = [x for x in range(nx) if p_xy[x, y] > 0]
            if not xs:
                continue
            w = {x: p_xy[x, y] * m_u[:, u] for x in xs}
            cells.append([([(x, w[x] * d0[x, c]) for x in xs],
                           [(x, w[x]) for x in xs if not fin[x, c]])
                          for c in range(d0.shape[1])])

    def test(block: tuple[np.ndarray, ...]) -> np.ndarray:
        total = 0.0
        for cell in cells:
            low = None
            for cost_tables, bad_tables in cell:
                cost = _gather_sum(cost_tables, block)
                if bad_tables:
                    cost = np.where(_gather_sum(bad_tables, block) > 1e-15, np.inf, cost)
                low = cost if low is None else np.minimum(low, cost)
            total = total + low
        return total <= limit
    return test


def _no_message_meets(p_xy: np.ndarray, metric: DistortionMetric, limit: float) -> bool:
    """Whether a decoder that sees only y meets `limit` (a one-symbol auxiliary)."""
    test = _decoder_budget_test(p_xy, np.ones((1, 1)), metric, limit)
    return bool(test((np.zeros(1, dtype=np.intp),) * p_xy.shape[0])[0])


def _relaxed_min(prob: CRProblem, u_caps: tuple[int, int], step: float, guard: int,
                 tests, zero_rate: bool = False) -> float:
    """Grid minimum of `prob.terms` over the auxiliary channels p(u1, u2 | x)
    with alphabets `u_caps` that pass `tests(m1_rows, m2_rows)`, the
    `_grid_min` tests built (after the guard check) from the grid rows' U1
    and U2 marginals: the relaxed counterpart of `gridsearch._oracle`.
    `zero_rate` (a decoder meets its budgets with no message) answers 0."""
    if min(u_caps) < 1:
        raise InvalidSpecError("auxiliary caps must be >= 1")
    if zero_rate:
        return 0.0
    nx = prob.poly.shape[0]
    rows, canonical = _u_grid(nx, u_caps, step, guard)
    objective = GridTerms(prob.terms, prob.sides, [rows] * nx, [entropy_rows(rows)] * nx,
                          u_caps)
    table = rows.reshape(-1, *u_caps)
    best = _grid_min(rows, canonical, nx, objective,
                     *tests(table.sum(axis=2), table.sum(axis=1)))
    if not math.isfinite(best):
        raise InfeasibleBudgetError(f"no auxiliary grid channel meets budgets "
                                    f"{prob.poly.budgets.tolist()} at step {step}")
    return max(0.0, best)


def brute_force_wz(pair_pmf: FinitePmf, metric: DistortionMetric, d: float,
                   u_cap: int, step: float,
                   guard: int = POINT_GUARD_DEFAULT) -> float:
    """Grid upper bound on min I(X;U|Y) with a decoder map xhat(u, y).

    Tiny instances only; `u_cap` bounds the auxiliary alphabet.
    """
    prob = CRProblem.point(pair_pmf.mass, metric, d)
    p_xy, limit = prob.sides[1], budget_limit(d)
    return _relaxed_min(prob, (u_cap, 1), step, guard,
                        lambda m_u, _: (_decoder_budget_test(p_xy, m_u, metric, limit),),
                        _no_message_meets(p_xy, metric, limit))


def brute_force_hb_nocr(source: JointSource, metric1: DistortionMetric,
                        metric2: DistortionMetric, pair: DistortionPair,
                        u_caps: tuple[int, int] = (2, 2), step: float = 0.1,
                        guard: int = POINT_GUARD_DEFAULT) -> float:
    """Grid upper bound on the two-decoder rate without the CR constraint.

    Minimizes I(X;U1|Y1) + I(X;U2|Y2,U1) over grid channels p(u1,u2|x)
    with decoder maps xhat_j(u_j, y_j) chosen optimally per channel: the HB
    rate when Y1 is degraded w.r.t. Y2, which is not checked.
    """
    prob = CRProblem.broadcast(source, metric1, metric2, (pair.d1, pair.d2))
    sides = [(prob.sides[j], metric, budget_limit(d))
             for j, metric, d in ((1, metric1, pair.d1), (2, metric2, pair.d2))]
    return _relaxed_min(prob, u_caps, step, guard,
                        lambda *m_u: [_decoder_budget_test(p_xy, m, metric, limit)
                                      for m, (p_xy, metric, limit) in zip(m_u, sides)],
                        all(_no_message_meets(*side) for side in sides))


@dataclass(frozen=True)
class ConRResult:
    """Rate bound plus honesty metadata for the ConR solver."""

    rate: float
    heuristic: bool
    map_counts: tuple[int, int]


def _decoder_maps(nu: int, ny: int, m: int, budget: int) -> tuple[np.ndarray, bool]:
    """All maps (u, y) -> xhat as an (M, nu, ny) int array, or a reduced
    candidate set (maps constant in y, plus maps constant in u) when the
    full count exceeds `budget`."""
    full = m ** (nu * ny)
    if full <= budget:
        maps = np.array(list(itertools.product(range(m), repeat=nu * ny)),
                        dtype=np.int64).reshape(full, nu, ny)
        return maps, False
    cands = set()
    for combo in itertools.product(range(m), repeat=nu):
        cands.add(tuple(np.repeat(combo, ny)))
    for combo in itertools.product(range(m), repeat=ny):
        cands.add(tuple(np.tile(combo, nu)))
    maps = np.array(sorted(cands), dtype=np.int64).reshape(-1, nu, ny)
    return maps, True


def _conr_cost_tables(maps: np.ndarray, p_xy: np.ndarray, px: np.ndarray,
                      metric: DistortionMetric, metric_e: DistortionMetric,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-map budget tables.

    Returns (cd, ce), both (M, nu, nx): cd[m,u,x] is the decoder-distortion
    contribution sum_y p(x,y) d(x, map[m,u,y]); ce[m,u,x] is the best
    encoder-side contribution p(x) min_v sum_y p(y|x) d_e(map[m,u,y], v).
    Entries are +inf where a forbidden pair is hit with positive weight.
    """
    n_maps, nu, ny = maps.shape
    nx = p_xy.shape[0]
    p_y_given_x = p_xy / np.where(px[:, None] > 0, px[:, None], 1.0)
    big = 1e30  # finite sentinel for forbidden hits; keeps 0-mass cells exact

    fin_d = np.isfinite(metric.matrix)
    d0 = np.where(fin_d, metric.matrix, 0.0)
    cd = np.zeros((n_maps, nu, nx))
    bad = np.zeros((n_maps, nu, nx))
    for y in range(ny):
        sel = maps[:, :, y]                      # (M, nu)
        for x in range(nx):
            if p_xy[x, y] <= 0:
                continue
            cd[:, :, x] += p_xy[x, y] * d0[x][sel]
            bad[:, :, x] += p_xy[x, y] * (~fin_d)[x][sel]
    cd = np.where(bad > 1e-15, big, cd)

    fin_e = np.isfinite(metric_e.matrix)
    e0 = np.where(fin_e, metric_e.matrix, 0.0)
    n_out = metric_e.n_outputs
    ce = np.zeros((n_maps, nu, nx))
    for x in range(nx):
        acc = np.zeros((n_maps, nu, n_out))
        badv = np.zeros((n_maps, nu, n_out))
        for y in range(ny):
            w = p_y_given_x[x, y]
            if w <= 0:
                continue
            sel = maps[:, :, y]
            acc += w * e0[sel]                   # (M, nu, n_out)
            badv += w * (~fin_e)[sel]
        acc = np.where(badv > 1e-15, big, acc)
        ce[:, :, x] = px[x] * acc.min(axis=2)
    return cd, ce


def _undominated(cd: np.ndarray, ce: np.ndarray) -> np.ndarray:
    """Ascending indices of the maps whose `_conr_cost_tables` (cd, ce) are
    not entrywise >= those of another map; of exact duplicates the first
    stays.

    Channel weights are nonnegative, so a dominated map meets both budgets
    only where its dominator does, and dropping it changes no feasibility
    test.  Maps are visited by ascending table sum (a dominator's sum is no
    larger), each checked against the maps kept so far.
    """
    flat = np.concatenate([cd.reshape(cd.shape[0], -1), ce.reshape(ce.shape[0], -1)],
                          axis=1)
    kept: list[int] = []
    for m in np.argsort(flat.sum(axis=1), kind="stable"):
        if not kept or not (flat[kept] <= flat[m]).all(axis=1).any():
            kept.append(int(m))
    return np.sort(kept)


class _SumLimit:
    """`_grid_min` test: sum_x tables[x][block[x]] <= limit, for per-row
    tables added in slice order, the last slice's last.

    Rounding is monotone, so for each prefix row the last-slice rows that
    pass form a prefix of their ascending order.  A test therefore costs a
    bisection per run of equal prefix rows (every row of a broadcast
    block; the survivors of one prefix row, which `np.nonzero` keeps
    together), on the sums exactly as the broadcast would form them, and
    one rank comparison per channel, in the narrowest integer type that
    holds the row count.
    """

    def __init__(self, tables: list[np.ndarray], limit: float):
        self.prefix = list(enumerate(tables[:-1]))
        order = np.argsort(tables[-1], kind="stable")
        self.ascending = tables[-1][order]
        self.rank = np.empty(order.size, dtype=np.min_scalar_type(order.size))
        self.rank[order] = np.arange(order.size)
        self.limit = limit

    def __call__(self, block: tuple[np.ndarray, ...]) -> np.ndarray:
        last = block[-1]
        cols = [col.ravel() for col in block[:-1]]
        size = cols[0].size if cols else 1
        fresh = np.zeros(size, dtype=bool)
        fresh[0] = True
        for col in cols:
            fresh[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(fresh)
        head = (_gather_sum(self.prefix, [col[starts] for col in cols]) if cols
                else np.zeros(1))
        # the first `lo` ascending rows pass, those from `hi` on fail
        lo = np.zeros(head.shape, dtype=np.intp)
        hi = np.full(head.shape, self.ascending.size, dtype=np.intp)
        while (open_ := lo < hi).any():
            mid = (lo + hi) // 2
            ok = head + self.ascending[np.minimum(mid, self.ascending.size - 1)] <= self.limit
            lo = np.where(open_ & ok, mid + 1, lo)
            hi = np.where(open_ & ~ok, mid, hi)
        lo = np.repeat(lo.astype(self.rank.dtype), np.diff(starts, append=size))
        return self.rank[last] < lo.reshape(block[0].shape if cols else (1,) * last.ndim)


def _side_test(m_u: np.ndarray, cd: np.ndarray, ce: np.ndarray, d_limit: float,
               e_limit: float):
    """`_grid_min` test: some decoder map of the `_conr_cost_tables` (cd, ce)
    meets both budget limits; m_u is the (N, |U|) auxiliary marginal on the
    grid rows.

    Per slice x and map, the per-row tables are m_u @ cd[map, :, x] and
    m_u @ ce[map, :, x].  The scan visits the undominated maps only and
    stops once every channel has met some map.
    """
    keep = _undominated(cd, ce)
    cd, ce = cd[keep], ce[keep]
    nx = cd.shape[2]
    # per x: (M, N), one row per map
    td = [cd[:, :, x] @ m_u.T for x in range(nx)]
    te = [ce[:, :, x] @ m_u.T for x in range(nx)]
    maps = [(_SumLimit([t[m] for t in td], d_limit), _SumLimit([t[m] for t in te], e_limit))
            for m in range(cd.shape[0])]

    def test(block: tuple[np.ndarray, ...]) -> np.ndarray:
        met = False
        for meets_d, meets_e in maps:
            met = met | (meets_d(block) & meets_e(block))
            if met.all():
                break
        return met
    return test


def brute_force_conr(source: JointSource, metric1: DistortionMetric,
                     metric2: DistortionMetric, pair: DistortionPair,
                     conr: ConRConstraint, u_caps: tuple[int, int] = (2, 2),
                     step: float = 0.05, map_budget: int = 1_000_000,
                     guard: int = POINT_GUARD_DEFAULT) -> ConRResult:
    """Grid upper bound on the two-decoder rate with constrained
    reconstruction at the encoder.

    Same objective (and hypothesis) and channel grid as
    `brute_force_hb_nocr`, but a channel is feasible only if some decoder
    map meets the decoder budget while also allowing an encoder map within
    the encoder-side budget.  `u_caps` below the exactness cardinalities
    makes this an upper bound whose tightness is the caller's
    responsibility to document.
    """
    prob = CRProblem.broadcast(source, metric1, metric2, (pair.d1, pair.d2))
    px = prob.sides[None][:, 0]
    sides = ((prob.sides[1], metric1, conr.metric_e1, pair.d1, conr.de1),
             (prob.sides[2], metric2, conr.metric_e2, pair.d2, conr.de2))
    for j, (_, metric, metric_e, _, _) in enumerate(sides, 1):
        if metric_e.n_inputs != metric.n_outputs:
            raise ShapeMismatchError(f"metric_e{j} must act on reconstruction alphabet {j}")
    maps = []   # (map count, heuristic) per decoder

    def tests(*m_u):
        out = []
        for m, nu, (p_xy, metric, metric_e, d, de) in zip(m_u, u_caps, sides):
            found, heuristic = _decoder_maps(nu, p_xy.shape[1], metric.n_outputs, map_budget)
            maps.append((found.shape[0], heuristic))
            cd, ce = _conr_cost_tables(found, p_xy, px, metric, metric_e)
            out.append(_side_test(m, cd, ce, budget_limit(d), budget_limit(de)))
        return out
    rate = _relaxed_min(prob, u_caps, step, guard, tests)
    return ConRResult(rate=rate, heuristic=maps[0][1] or maps[1][1],
                      map_counts=(maps[0][0], maps[1][0]))
