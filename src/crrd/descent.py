"""Multistart projected local descent over test channels.

The feasible set is the product of per-source-symbol simplices (with
forbidden reconstruction pairs pinned at zero) intersected with the two
linear distortion half-spaces.  Projection onto that intersection is
computed with Dykstra's alternating-projection scheme, which converges to
the exact Euclidean projection for closed convex sets; the stopping
tolerance is 1e-10.

The objective is any nonnegative combination of conditional mutual
informations I(X; B | Y, D), given as `MITerm`s; values and analytic
gradients come from `measures.term_value_grad`.  Convexity of the
combined objective is not assumed; the solver is a multistart local method
whose results are cross-checked against the enumeration oracles in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .channels import TestChannel
from .closed_form import DistortionPair
from .errors import InfeasibleBudgetError, InvalidSpecError
from .measures import HB_CR_TERMS, MITerm, term_value_grad
from .prob import DistortionMetric, JointSource

__all__ = [
    "DescentResult",
    "feasible_channel",
    "descent_weighted",
    "descent_hb_cr",
]

_DYKSTRA_TOL = 1e-10


class _Feasible:
    """Support-flattened feasible set with simplex and budget projections."""

    def __init__(self, source: JointSource, metric1: DistortionMetric,
                 metric2: DistortionMetric, pair: DistortionPair):
        nx = source.nx
        m1, m2 = metric1.n_outputs, metric2.n_outputs
        self.shape = (nx, m1, m2)
        px = source.x_marginal()
        allowed = (np.isfinite(metric1.matrix)[:, :, None]
                   & np.isfinite(metric2.matrix)[:, None, :])
        self.support = [np.flatnonzero(allowed[x].reshape(-1)) for x in range(nx)]
        self.offsets = np.cumsum([0] + [s.size for s in self.support])
        self.dim = int(self.offsets[-1])
        d1 = np.where(np.isfinite(metric1.matrix), metric1.matrix, 0.0)
        d2 = np.where(np.isfinite(metric2.matrix), metric2.matrix, 0.0)
        w1 = np.concatenate([
            px[x] * np.repeat(d1[x], m2)[self.support[x]] for x in range(nx)])
        w2 = np.concatenate([
            px[x] * np.tile(d2[x], m1)[self.support[x]] for x in range(nx)])
        self.halfspaces = [(w1, pair.d1), (w2, pair.d2)]

    def flatten(self, q: np.ndarray) -> np.ndarray:
        return np.concatenate([
            q[x].reshape(-1)[self.support[x]] for x in range(self.shape[0])])

    def unflatten(self, z: np.ndarray) -> np.ndarray:
        q = np.zeros(self.shape)
        for x in range(self.shape[0]):
            flat = np.zeros(self.shape[1] * self.shape[2])
            flat[self.support[x]] = z[self.offsets[x]:self.offsets[x + 1]]
            q[x] = flat.reshape(self.shape[1], self.shape[2])
        return q

    def project_simplices(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        for x in range(self.shape[0]):
            seg = z[self.offsets[x]:self.offsets[x + 1]]
            out[self.offsets[x]:self.offsets[x + 1]] = _project_simplex(seg)
        return out

    def _violation(self, z: np.ndarray) -> float:
        return max((float(w @ z) - b for (w, b) in self.halfspaces), default=0.0)

    def project(self, z: np.ndarray, max_cycles: int = 2000) -> np.ndarray:
        """Dykstra projection onto simplices intersect budget half-spaces.

        Stops only when the iterate both settles (1e-10 cycle movement)
        and satisfies the budgets; a plain alternating-projection sweep
        acts as fallback for far-away inputs where Dykstra's correction
        increments make progress slow, so the output is always feasible.
        The simplex projector runs last, giving exact slice sums and no
        negative entries.
        """
        sets = [_halfspace_projector(w, b) for (w, b) in self.halfspaces]
        sets.append(self.project_simplices)
        incr = [np.zeros_like(z) for _ in sets]
        x = z.copy()
        for _ in range(max_cycles):
            x_prev = x.copy()
            for i, proj in enumerate(sets):
                y = proj(x + incr[i])
                incr[i] = x + incr[i] - y
                x = y
            if (np.max(np.abs(x - x_prev)) < _DYKSTRA_TOL
                    and self._violation(x) < 1e-9):
                return x
        for _ in range(max_cycles):
            for proj in sets:
                x = proj(x)
            if self._violation(x) < 1e-9:
                break
        return self.project_simplices(x)

    def feasible_start(self) -> np.ndarray:
        """LP pre-solve: a feasible point, or InfeasibleBudgetError."""
        nx = self.shape[0]
        a_eq = np.zeros((nx, self.dim))
        for x in range(nx):
            a_eq[x, self.offsets[x]:self.offsets[x + 1]] = 1.0
        a_ub = np.stack([w for (w, _) in self.halfspaces])
        b_ub = np.array([b for (_, b) in self.halfspaces])
        res = linprog(np.zeros(self.dim), A_ub=a_ub, b_ub=b_ub,
                      A_eq=a_eq, b_eq=np.ones(nx),
                      bounds=[(0.0, 1.0)] * self.dim, method="highs")
        if not res.success:
            raise InfeasibleBudgetError(
                "no channel meets the distortion budgets (LP pre-solve)")
        return np.asarray(res.x)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _halfspace_projector(w: np.ndarray, b: float):
    nrm2 = float(w @ w)

    def proj(z: np.ndarray) -> np.ndarray:
        viol = float(w @ z) - b
        if viol <= 0 or nrm2 == 0:
            return z
        return z - (viol / nrm2) * w

    return proj


@dataclass(frozen=True)
class DescentResult:
    rate: float
    witness: TestChannel
    restarts: int
    best_start: int   # index of the start that won (0 = init/LP start)


def _objective(source: JointSource, q: np.ndarray,
               terms: tuple[MITerm, ...], weights: np.ndarray,
               ) -> tuple[float, np.ndarray]:
    val = 0.0
    grad = np.zeros_like(q)
    for term, w in zip(terms, weights):
        if w == 0:
            continue
        v, g = term_value_grad(source, q, term)
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
    the best local minimum with its witness.
    """
    if restarts < 0 or seed < 0:
        raise InvalidSpecError("restarts and seed must be >= 0")
    weights = np.asarray(weights, dtype=float)
    feas = _Feasible(source, metric1, metric2, pair)
    rng = np.random.default_rng(seed)

    starts: list[np.ndarray] = []
    if init is not None:
        z = feas.flatten(init.cond)
        starts.append(feas.project(z))
    starts.append(feas.project(feas.feasible_start()))
    for _ in range(restarts):
        z = np.concatenate([
            rng.dirichlet(np.ones(s.size)) for s in feas.support])
        starts.append(feas.project(z))

    best_val = math.inf
    best_z = starts[0]
    best_start = 0
    for si, z0 in enumerate(starts):
        z = z0
        val, grad = _objective(source, feas.unflatten(z), terms, weights)
        step = 0.5
        for _ in range(max_iter):
            gz = feas.flatten(grad)
            # normalized direction keeps line-search probes near the
            # feasible set despite the clipped logs at zero-mass cells
            gz = gz / max(1.0, float(np.max(np.abs(gz))))
            improved = False
            t = step
            for _ in range(25):
                z_new = feas.project(z - t * gz)
                v_new, g_new = _objective(source, feas.unflatten(z_new),
                                          terms, weights)
                if v_new < val - 1e-15:
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
            rel = (val - v_new) / max(abs(val), 1e-12)
            z, val, grad = z_new, v_new, g_new
            step = min(max(t * 2.0, 1e-6), 1.0)
            if rel < tol:
                break
        if val < best_val - 1e-15:
            best_val, best_z, best_start = val, z, si
    witness = TestChannel(feas.unflatten(best_z))
    return DescentResult(rate=max(0.0, best_val), witness=witness,
                         restarts=restarts, best_start=best_start)


def feasible_channel(source: JointSource, metric1: DistortionMetric,
                     metric2: DistortionMetric, pair: DistortionPair,
                     ) -> TestChannel:
    """Any channel meeting the budgets, via the LP pre-solve."""
    feas = _Feasible(source, metric1, metric2, pair)
    return TestChannel(feas.unflatten(feas.project(feas.feasible_start())))


def descent_hb_cr(source: JointSource, metric1: DistortionMetric,
                  metric2: DistortionMetric, pair: DistortionPair,
                  restarts: int = 20, tol: float = 1e-6, seed: int = 0,
                  init: TestChannel | None = None) -> DescentResult:
    """Multistart descent on the broadcast CR objective."""
    return descent_weighted(source, metric1, metric2, pair,
                            HB_CR_TERMS, (1.0, 1.0), restarts=restarts,
                            tol=tol, seed=seed, init=init)
