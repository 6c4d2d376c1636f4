"""Multistart projected local descent over test channels.

The problem is a `channels.CRProblem`.  Its feasible set is the
problem's `ChannelPolytope`, with any number of budget rows: the product
of per-source-symbol simplices over the polytope's allowed cells
(forbidden reconstruction pairs stay at zero) intersected with one linear
distortion half-space per row of its `costs`.  Projection onto that
intersection is computed with Dykstra's alternating-projection scheme,
which converges to the exact Euclidean projection for closed convex sets;
the stopping tolerance is 1e-10.  Inputs that have not settled after the
cycle budget fall back to plain alternating projection, which can end
outside the budgets: only the simplex constraints are guaranteed on every
output.

All starts of one descent run in lockstep: each round projects every
running start's next `_PROBES` line-search probes in one batched Dykstra
call, in which every row stops on its own test.  A halving needs no
objective value at a new point, so the probes a start would try after
rejections can be projected ahead; `descent_weighted` says how each start
walks them.

The objective is the problem's nonnegative combination of conditional
mutual informations I(X; B | Y, D), given as `MITerm`s; values and
analytic gradients come from `measures.term_value_grad`.  Convexity of the
combined objective is not assumed; the solver is a multistart local method
whose results are cross-checked against the enumeration oracles in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelPolytope, CRProblem, TestChannel
from .closed_form import DistortionPair
from .errors import InfeasibleBudgetError, InvalidSpecError
from .gridsearch import BATCH
from .measures import HB_CR_TERMS, MITerm, term_value_grad
from .prob import DistortionMetric, JointSource, linprog

__all__ = [
    "DescentResult",
    "descent_weighted",
    "descent_hb_cr",
]

_DYKSTRA_TOL = 1e-10
_BUDGET_TOL = 1e-9
#: line-search probes projected per start and round: t, t/2, ..., t/2**(_PROBES-1)
_PROBES = 3


class _Feasible:
    """Support-flattened feasible set with simplex and budget projections.

    Points are rows of a (rows, dim) stack; every projection acts on all
    rows at once and gives each row exactly the bits it would get alone.
    `cycles` counts the sweeps `project` has run on its stacks: Dykstra
    cycles plus any fallback sweeps.
    """

    def __init__(self, poly: ChannelPolytope):
        nx, m1, m2 = self.shape = poly.shape
        self.support = [np.flatnonzero(a) for a in poly.allowed]
        #: position of every flattened coordinate in q.reshape(-1)
        self.cells = np.concatenate(
            [x * m1 * m2 + s for x, s in enumerate(self.support)])
        self.dim = self.cells.size
        sizes = np.array([s.size for s in self.support])
        slices = np.split(np.arange(self.dim), np.cumsum(sizes)[:-1])
        #: (k, n) columns of the k slices with n allowed cells, per size n
        self.slice_groups = [np.stack([slices[x] for x in np.flatnonzero(sizes == n)])
                             for n in np.unique(sizes)]
        # one contiguous weight vector per budget: np.vecdot on a strided
        # row would change the bits of the projections
        weights = [c.reshape(-1)[self.cells] for c in poly.costs]
        self.halfspaces = [(w, float(b), float(w @ w))
                           for w, b in zip(weights, poly.budgets)]
        self.cycles = 0

    def flatten(self, q: np.ndarray) -> np.ndarray:
        return q.reshape(-1)[self.cells]

    def unflatten(self, z: np.ndarray) -> np.ndarray:
        q = np.zeros(self.shape).reshape(-1)
        q[self.cells] = z
        return q.reshape(self.shape)

    def project_simplices(self, z: np.ndarray) -> np.ndarray:
        """Simplex projection of every slice of every row."""
        out = np.empty_like(z)
        for cols in self.slice_groups:
            v = _project_simplex_rows(z[:, cols].reshape(-1, cols.shape[1]))
            out[:, cols] = v.reshape(z.shape[0], *cols.shape)
        return out

    def _feasible(self, z: np.ndarray) -> np.ndarray:
        return np.max([np.vecdot(z, w) - b for w, b, _ in self.halfspaces],
                      axis=0) < _BUDGET_TOL

    def project(self, z: np.ndarray, max_cycles: int = 2000) -> np.ndarray:
        """Dykstra projection of every row of a (rows, dim) stack onto the
        simplices and the budgets.

        A row stops once it both settles (1e-10 cycle movement) and meets
        the budgets within 1e-9; stopped rows leave the working arrays.
        Rows still running after `max_cycles` fall back to plain
        alternating projection until they meet the budgets, for at most
        `max_cycles` more sweeps.  Every output ends with the simplex
        projector, so slice sums are exact and no entry is negative, but
        a far-away row can leave the fallback still over a budget.
        """
        sets = [_halfspace(*h) for h in self.halfspaces] + [self.project_simplices]
        out = np.empty_like(z)
        live = np.arange(z.shape[0])
        x = z.copy()
        incr = [np.zeros_like(z) for _ in sets]
        for _ in range(max_cycles):
            self.cycles += 1
            x_prev = x
            for i, proj in enumerate(sets):
                u = x + incr[i]
                x = proj(u)
                incr[i] = u - x
            done = np.max(np.abs(x - x_prev), axis=1) < _DYKSTRA_TOL
            if not done.any():
                continue
            done &= self._feasible(x)
            out[live[done]] = x[done]
            live, x = live[~done], x[~done]
            incr = [d[~done] for d in incr]
            if not live.size:
                return out
        rest = live
        for _ in range(max_cycles):
            self.cycles += 1
            for proj in sets:
                x = proj(x)
            done = self._feasible(x)
            out[live[done]] = x[done]
            live, x = live[~done], x[~done]
            if not live.size:
                break
        out[live] = x
        out[rest] = self.project_simplices(out[rest])
        return out

    def feasible_start(self) -> np.ndarray:
        """LP pre-solve: a feasible point, or InfeasibleBudgetError."""
        nx = self.shape[0]
        a_eq = np.repeat(np.eye(nx), [s.size for s in self.support], axis=1)
        w, b, _ = zip(*self.halfspaces)
        res = linprog(np.zeros(self.dim), A_ub=np.stack(w), b_ub=np.array(b),
                      A_eq=a_eq, b_eq=np.ones(nx),
                      bounds=[(0.0, 1.0)] * self.dim, method="highs")
        if not res.success:
            raise InfeasibleBudgetError(
                "no channel meets the distortion budgets (LP pre-solve)")
        return np.asarray(res.x)


def _halfspace(w: np.ndarray, b: float, nrm2: float):
    """Projection of every row onto the half-space w . z <= b."""
    def proj(z: np.ndarray) -> np.ndarray:
        if nrm2 == 0:
            return z
        # np.vecdot reproduces the per-row `w @ z` bits; `z @ w` does not
        viol = np.vecdot(z, w) - b
        return z - np.where(viol > 0, viol / nrm2, 0.0)[:, None] * w

    return proj


def _project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of v onto the probability simplex
    (sort-based; Duchi et al., ICML 2008)."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    above = u * np.arange(1, v.shape[1] + 1) > css
    rho = v.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


@dataclass(frozen=True)
class DescentResult:
    rate: float
    witness: TestChannel
    restarts: int
    best_start: int   # index of the start that won (0 = init/LP start)
    rounds: int       # lockstep rounds, one `project` call each
    cycles: int       # projection cycles summed over those rounds


def _objective(prob: CRProblem, q: np.ndarray) -> tuple[float, np.ndarray]:
    val = 0.0
    grad = np.zeros_like(q)
    for term, w in zip(prob.terms, prob.weights):
        if w == 0:
            continue
        v, g = term_value_grad(prob.sides, q, term)
        val += w * v
        grad += w * g
    return val, grad


def descent_weighted(source: JointSource, metric1: DistortionMetric,
                     metric2: DistortionMetric, pair: DistortionPair,
                     terms: tuple[MITerm, ...], weights,
                     restarts: int = 8, tol: float = 1e-6, seed: int = 0,
                     init: TestChannel | None = None, max_iter: int = 300,
                     ) -> DescentResult:
    """Projected-gradient minimization of sum_i w_i I(X; B_i | Y_i, D_i).

    Deterministic for a fixed seed.  Starts from `init` (when given), the
    LP feasible point, and `restarts` random projected channels; returns
    the best local minimum that meets the budgets, with its witness, ties
    going to the earliest start.  The starts run in lockstep: each round
    projects, for every running start, the probes at its next `_PROBES`
    step lengths (t, t/2, t/4) in one `project` call.  Each start then
    walks its probes in order, halving on a rejection, and stops using
    them at its first accept, at its 25th halving, at `tol` or at
    `max_iter`; the probes it did not reach are dropped.  Accepting,
    halving and stopping stay per start, so every start takes the path it
    would take alone.  A probe that `project` leaves over a budget is a
    rejection.  Raises InvalidSpecError when one round's probe stack could
    exceed `gridsearch.BATCH` rows or `weights` is not one finite value
    >= 0 per term, and InfeasibleBudgetError when no start ends within the
    budgets.
    """
    if restarts < 0 or seed < 0:
        raise InvalidSpecError("restarts and seed must be >= 0")
    if (restarts + 2) * _PROBES > BATCH:
        raise InvalidSpecError(f"restarts must be at most {BATCH // _PROBES - 2}")
    prob = CRProblem.broadcast(source, metric1, metric2, (pair.d1, pair.d2),
                               terms, weights)
    feas = _Feasible(prob.poly)
    rng = np.random.default_rng(seed)

    raw: list[np.ndarray] = []
    if init is not None:
        raw.append(feas.flatten(init.cond))
    raw.append(feas.feasible_start())
    for _ in range(restarts):
        raw.append(np.concatenate([
            rng.dirichlet(np.ones(s.size)) for s in feas.support]))
    z = feas.project(np.stack(raw))

    def evaluate(z: np.ndarray) -> tuple[float, np.ndarray]:
        v, g = _objective(prob, feas.unflatten(z))
        return v, feas.flatten(g)

    def direction(g: np.ndarray) -> np.ndarray:
        # normalized direction keeps line-search probes near the
        # feasible set despite the clipped logs at zero-mass cells
        return g / max(1.0, float(np.max(np.abs(g))))

    val: list[float] = []
    gz = np.empty_like(z)
    for i in range(len(z)):
        v, g = evaluate(z[i])
        val.append(v)
        gz[i] = direction(g)
    t = np.full(len(z), 0.5)    # next probe's step length, per start
    halvings = [0] * len(z)     # failed probes at the current iterate
    accepted = [0] * len(z)

    def advance(i: int, probes: np.ndarray, feasible: np.ndarray) -> bool:
        """Start i's probes in order; False once the start stops."""
        for z_new, ok in zip(probes, feasible):
            if ok:
                v_new, g_new = evaluate(z_new)
                if v_new < val[i] - 1e-15:
                    rel = (val[i] - v_new) / max(abs(val[i]), 1e-12)
                    z[i], val[i] = z_new, v_new
                    accepted[i] += 1
                    if rel < tol or accepted[i] == max_iter:
                        return False
                    gz[i] = direction(g_new)
                    t[i] = min(max(t[i] * 2.0, 1e-6), 1.0)
                    halvings[i] = 0
                    return True
            t[i] *= 0.5
            halvings[i] += 1
            if halvings[i] == 25:
                return False
        return True

    # powers of two: t * 2**-k has the bits of t halved k times
    scale = 0.5 ** np.arange(_PROBES)
    live = list(range(len(z))) if max_iter > 0 else []
    rounds, start_cycles = 0, feas.cycles
    while live:
        rows = np.repeat(live, _PROBES)
        steps = (t[live, None] * scale).reshape(-1, 1)
        probes = feas.project(z[rows] - steps * gz[rows])
        feasible = feas._feasible(probes).reshape(len(live), _PROBES)
        probes = probes.reshape(len(live), _PROBES, -1)
        rounds += 1
        live = [i for i, p, f in zip(live, probes, feasible) if advance(i, p, f)]

    final_ok = feas._feasible(z)
    best_val, best_start = math.inf, -1
    for i, v in enumerate(val):
        if final_ok[i] and v < best_val - 1e-15:
            best_val, best_start = v, i
    if best_start < 0:
        raise InfeasibleBudgetError(
            "no descent start ended within the distortion budgets")
    witness = TestChannel(feas.unflatten(z[best_start]))
    return DescentResult(rate=max(0.0, best_val), witness=witness,
                         restarts=restarts, best_start=best_start,
                         rounds=rounds, cycles=feas.cycles - start_cycles)


def descent_hb_cr(source: JointSource, metric1: DistortionMetric,
                  metric2: DistortionMetric, pair: DistortionPair,
                  restarts: int = 20, tol: float = 1e-6, seed: int = 0,
                  init: TestChannel | None = None) -> DescentResult:
    """Multistart descent on `grid_oracle_hb_cr`'s objective (same hypothesis)."""
    return descent_weighted(source, metric1, metric2, pair,
                            HB_CR_TERMS, (1.0, 1.0), restarts=restarts,
                            tol=tol, seed=seed, init=init)
