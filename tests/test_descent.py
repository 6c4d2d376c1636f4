import math

import numpy as np
import pytest

import crrd
from crrd import (
    BinaryErasureSpec,
    DistortionMetric,
    DistortionPair,
    InfeasibleBudgetError,
    InvalidSpecError,
    binary_hb_test_channel,
    descent_hb_cr,
    eval_distortions,
    eval_hb_cr_objective,
    grid_oracle_hb_cr,
)
from crrd.channels import CRProblem
from crrd.descent import _PROBES, _Feasible, _objective, descent_weighted
from crrd.gridsearch import BATCH
from crrd.measures import HB_CR_TERMS, MITerm, side_pmfs, term_value_grad
from conftest import ALL_TERMS, random_channel, random_source

BSPEC = BinaryErasureSpec(1.0, 0.35)
RT_B_01005 = 0.5949139291763825


class TestTermGradients:
    @pytest.mark.parametrize("term", ALL_TERMS, ids=str)
    def test_matches_finite_differences(self, term):
        rng = np.random.default_rng(17)
        sides = side_pmfs(random_source(rng, 2, 3, 2))
        # interior channel so the logs are smooth
        q = np.stack([rng.dirichlet(np.full(4, 5.0)).reshape(2, 2) for _ in range(2)])
        val, grad = term_value_grad(sides, q, term)
        eps = 1e-6
        for x in range(2):
            for a in range(2):
                for b in range(2):
                    qp = q.copy()
                    qp[x, a, b] += eps
                    vp, _ = term_value_grad(sides, qp, term)
                    qm = q.copy()
                    qm[x, a, b] -= eps
                    vm, _ = term_value_grad(sides, qm, term)
                    num = (vp - vm) / (2 * eps)
                    assert num == pytest.approx(grad[x, a, b], abs=5e-5), (x, a, b)

    def test_value_matches_direct_cmi(self):
        rng = np.random.default_rng(23)
        src = random_source(rng, 2, 2, 3)
        ch = random_channel(rng)
        joint = crrd.compose_joint(src, ch)
        # term axes map: channel axis 1 -> joint axis 3, 2 -> 4; y1 -> 1, y2 -> 2
        v, _ = term_value_grad(side_pmfs(src), ch.cond, MITerm((2,), 2, (1,)))
        want = crrd.conditional_mutual_information(joint, (0,), (4,), (2, 3))
        assert v == pytest.approx(want, abs=1e-10)
        v, _ = term_value_grad(side_pmfs(src), ch.cond, MITerm((1, 2), 1))
        want = crrd.conditional_mutual_information(joint, (0,), (3, 4), (1,))
        assert v == pytest.approx(want, abs=1e-10)


class TestDescent:
    def test_witness_is_stationary(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        init = binary_hb_test_channel(pair, BSPEC)
        res = descent_hb_cr(erased_full, hamming2, hamming2, pair,
                            restarts=0, seed=0, init=init)
        # no improvement beyond numerical wiggle: the witness is optimal
        assert abs(res.rate - RT_B_01005) < 1e-6

    def test_multistart_reaches_closed_form(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        res = descent_hb_cr(erased_full, hamming2, hamming2, pair,
                            restarts=10, seed=1)
        assert res.rate == pytest.approx(RT_B_01005, abs=1e-3)

    def test_witness_feasible_and_consistent(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        res = descent_hb_cr(erased_full, hamming2, hamming2, pair,
                            restarts=4, seed=2)
        d1, d2 = eval_distortions(erased_full, res.witness, hamming2, hamming2)
        assert d1 <= pair.d1 + 1e-8 and d2 <= pair.d2 + 1e-8
        assert eval_hb_cr_objective(erased_full, res.witness) == pytest.approx(
            res.rate, abs=1e-9)

    def test_oracle_sandwich(self, erased_full, hamming2):
        pair = DistortionPair(0.2, 0.1)
        res = descent_hb_cr(erased_full, hamming2, hamming2, pair,
                            restarts=8, seed=3)
        grid, _ = grid_oracle_hb_cr(erased_full, hamming2, hamming2, pair, step=0.05)
        closed = crrd.rhb_cr_binary(pair, BSPEC, crrd.BinaryMetric.HAMMING).rate
        assert closed - 1e-9 <= res.rate <= grid + 1e-6

    def test_deterministic_for_fixed_seed(self, erased_full, hamming2):
        pair = DistortionPair(0.15, 0.1)
        a = descent_hb_cr(erased_full, hamming2, hamming2, pair, restarts=5, seed=9)
        b = descent_hb_cr(erased_full, hamming2, hamming2, pair, restarts=5, seed=9)
        assert a.rate == b.rate
        assert np.array_equal(a.witness.cond, b.witness.cond)

    def test_trivial_budgets_reach_zero(self, erased_full, hamming2):
        res = descent_hb_cr(erased_full, hamming2, hamming2,
                            DistortionPair(0.5, 0.5), restarts=4, seed=0)
        assert res.rate <= 1e-6

    def test_infeasible_budgets_raise(self, erased_full, hamming2):
        floor = DistortionMetric(np.array([[0.2, 1.0], [1.0, 0.2]]))
        with pytest.raises(InfeasibleBudgetError):
            descent_hb_cr(erased_full, floor, hamming2, DistortionPair(0.1, 0.5))

    def test_respects_forbidden_support(self, erased_full):
        me = DistortionMetric.erasure(2)
        pair = DistortionPair(0.4, 0.3)
        res = descent_hb_cr(erased_full, me, me, pair, restarts=3, seed=4)
        res.witness.validate_support(me, me)
        closed = crrd.rhb_cr_binary(pair, BSPEC, crrd.BinaryMetric.ERASURE).rate
        assert res.rate >= closed - 1e-9
        assert res.rate <= closed + 5e-3


class TestWeights:
    """`descent_weighted` takes one finite weight >= 0 per term."""

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, 1.0, 5.0), (1.0, -1.0),
                                         (1.0, math.nan), (1.0, math.inf), ("a", 1.0),
                                         ([1, 2], 1.0)], ids=str)
    def test_bad_weights_rejected(self, erased_full, hamming2, weights):
        with pytest.raises(InvalidSpecError):
            descent_weighted(erased_full, hamming2, hamming2, DistortionPair(0.2, 0.1),
                             HB_CR_TERMS, weights, restarts=0)

    def test_zero_weight_accepted(self, erased_full, hamming2):
        res = descent_weighted(erased_full, hamming2, hamming2, DistortionPair(0.2, 0.1),
                               HB_CR_TERMS, (1.0, 0.0), restarts=0)
        assert res.rate >= 0.0

    def test_term_side_must_be_known(self):
        p_xy = np.array([[0.4, 0.1], [0.2, 0.3]])
        point = CRProblem.point(p_xy, DistortionMetric.hamming(2), 0.1)
        with pytest.raises(InvalidSpecError):
            CRProblem(point.poly, (MITerm((1,), 2),), (1.0,), point.sides)


def _feasible_cases():
    """(name, polytope): one budget row (the point layout) and two."""
    rng = np.random.default_rng(41)
    inf = np.inf
    metric = DistortionMetric(np.array([[0.0, 1.0, 0.5], [inf, 0.0, 1.0], [1.0, 0.3, 0.0]]))
    yield "one-row", CRProblem.point(rng.dirichlet(np.ones(6)).reshape(3, 2),
                                     metric, 0.2).poly
    m2 = DistortionMetric(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 1.0]]))
    yield "two-rows", CRProblem.broadcast(random_source(rng, 3, 2, 2), metric, m2,
                                          (0.3, 0.35)).poly


class TestFeasibleRows:
    """`_Feasible` over however many budget rows its polytope has."""

    @pytest.fixture(params=list(_feasible_cases()), ids=lambda case: case[0])
    def poly(self, request):
        return request.param[1]

    @staticmethod
    def _excess(poly, q):
        """max_j (cost_j(q) - D_j), summed from the polytope's costs."""
        flat = q.reshape(poly.shape[0], -1)
        return max(sum(c[x] @ flat[x] for x in range(poly.shape[0])) - b
                   for c, b in zip(poly.costs, poly.budgets))

    def test_feasible_matches_direct_rows(self, poly):
        feas = _Feasible(poly)
        assert len(feas.halfspaces) == len(poly.budgets)
        rng = np.random.default_rng(3)
        z = np.stack([np.concatenate([rng.dirichlet(np.full(s.size, 0.2))
                                      for s in feas.support]) for _ in range(100)])
        want = [self._excess(poly, feas.unflatten(row)) < 1e-9 for row in z]
        assert 0 < sum(want) < len(want), "draws on both sides of the budgets"
        assert feas._feasible(z).tolist() == want

    def test_feasible_start_meets_every_row(self, poly):
        feas = _Feasible(poly)
        assert self._excess(poly, feas.unflatten(feas.feasible_start())) < 1e-9

    def test_projection_lands_on_slice_simplices(self, poly):
        feas = _Feasible(poly)
        rng = np.random.default_rng(5)
        out = feas.project(rng.normal(size=(6, feas.dim)))
        assert np.all(out >= 0)
        for cols in _slice_cols(feas):
            np.testing.assert_allclose(out[:, cols].sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert feas._feasible(out).all()


def _slice_cols(feas):
    """Flattened columns of each source symbol's slice, in symbol order."""
    return np.split(np.arange(feas.dim), np.cumsum([s.size for s in feas.support])[:-1])


def _reference_project(feas, z, max_cycles=2000):
    """One vector at a time: the Dykstra loop the batched projection
    replaced, kept as the bit-for-bit reference."""
    def simplex(v):
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
        return np.maximum(v - css[rho] / (rho + 1.0), 0.0)

    def simplices(x):
        return np.concatenate([simplex(x[c]) for c in _slice_cols(feas)])

    def halfspace(w, b):
        nrm2 = float(w @ w)

        def proj(x):
            viol = float(w @ x) - b
            return x if viol <= 0 or nrm2 == 0 else x - (viol / nrm2) * w

        return proj

    def violation(x):
        return max(float(w @ x) - b for w, b, _ in feas.halfspaces)

    sets = [halfspace(w, b) for w, b, _ in feas.halfspaces] + [simplices]
    incr = [np.zeros_like(z) for _ in sets]
    x = z.copy()
    for _ in range(max_cycles):
        x_prev = x.copy()
        for i, proj in enumerate(sets):
            y = proj(x + incr[i])
            incr[i] = x + incr[i] - y
            x = y
        if np.max(np.abs(x - x_prev)) < 1e-10 and violation(x) < 1e-9:
            return x
    for _ in range(max_cycles):
        for proj in sets:
            x = proj(x)
        if violation(x) < 1e-9:
            break
    return simplices(x)


def _reference_descent(source, m1, m2, pair, terms, weights, restarts, seed,
                       max_iter, tol=1e-6):
    """One start at a time, each run to its end before the next begins.

    A probe over a budget is a rejection, and only starts that end within
    the budgets can win.  Besides the rate, witness and winning start,
    returns each start's stop as (rule, tried): the rule "tol", "max_iter"
    or "halvings" that ended it, and the number of probes tried at each of
    its iterates, the last one ending on the stopping probe (None when
    max_iter is 0).
    """
    prob = CRProblem.broadcast(source, m1, m2, (pair.d1, pair.d2), terms, weights)
    feas = _Feasible(prob.poly)
    rng = np.random.default_rng(seed)

    def within_budgets(x):
        return max(float(w @ x) - b for w, b, _ in feas.halfspaces) < 1e-9

    starts = [_reference_project(feas, feas.feasible_start())]
    for _ in range(restarts):
        starts.append(_reference_project(feas, np.concatenate([
            rng.dirichlet(np.ones(s.size)) for s in feas.support])))
    best_val, best_z, best_start = math.inf, None, None
    stops = []
    for si, z in enumerate(starts):
        val, grad = _objective(prob, feas.unflatten(z))
        step = 0.5
        stop, tried = None, []
        for _ in range(max_iter):
            gz = feas.flatten(grad)
            gz = gz / max(1.0, float(np.max(np.abs(gz))))
            t = step
            for probe in range(25):
                z_new = _reference_project(feas, z - t * gz)
                if within_budgets(z_new):
                    v_new, g_new = _objective(prob, feas.unflatten(z_new))
                    if v_new < val - 1e-15:
                        break
                t *= 0.5
            else:
                tried.append(25)
                stop = ("halvings", tried)
                break
            tried.append(probe + 1)
            rel = (val - v_new) / max(abs(val), 1e-12)
            z, val, grad = z_new, v_new, g_new
            step = min(max(t * 2.0, 1e-6), 1.0)
            stop = ("tol" if rel < tol else "max_iter", tried)
            if rel < tol:
                break
        stops.append(stop)
        if within_budgets(z) and val < best_val - 1e-15:
            best_val, best_z, best_start = val, z, si
    if best_z is None:
        raise InfeasibleBudgetError("no start ended within the budgets")
    return max(0.0, best_val), feas.unflatten(best_z), best_start, stops


class TestBatchedProjection:
    """`_Feasible.project` on a stack gives every row the bits it gets alone."""

    @pytest.fixture
    def feas(self):
        rng = np.random.default_rng(31)
        src = random_source(rng, 3, 2, 3)
        inf = np.inf
        # slices of 6, 4 and 6 allowed (xh1, xh2) cells: two size groups,
        # one of them holding two slices
        m1 = DistortionMetric(np.array([[0.0, 1.0, 1.0], [inf, 0.0, 1.0], [1.0, 1.0, 0.0]]))
        m2 = DistortionMetric(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 1.0]]))
        return _Feasible(CRProblem.broadcast(src, m1, m2, (0.3, 0.25)).poly)

    def test_halfspace_weights_are_contiguous(self, feas):
        # np.vecdot gives a strided weight row other bits than a contiguous one
        for w, _, _ in feas.halfspaces:
            assert w.ndim == 1 and w.flags.c_contiguous

    @staticmethod
    def _cycles(feas, row, max_cycles):
        """Simplex steps taken projecting `row` alone."""
        calls = []
        simplices = feas.project_simplices

        def counting(z):
            calls.append(z.shape[0])
            return simplices(z)

        feas.project_simplices = counting
        try:
            feas.project(row[None], max_cycles=max_cycles)
        finally:
            del feas.project_simplices
        return len(calls)

    def _rows(self, feas):
        rng = np.random.default_rng(32)
        inside = feas.project(feas.feasible_start()[None])
        return np.concatenate([
            inside,                                           # stops at once
            inside + 1e-3 * rng.normal(size=(2, feas.dim)),   # a few cycles
            rng.dirichlet(np.ones(feas.dim), size=3),         # moderate
            5.0 * rng.normal(size=(3, feas.dim)),             # far away
        ])

    def test_slice_sizes_differ(self, feas):
        assert [g.shape for g in feas.slice_groups] == [(1, 4), (2, 6)]

    @pytest.mark.parametrize("max_cycles", [2000, 150, 4, 1])
    def test_stack_equals_rows(self, feas, max_cycles):
        rows = self._rows(feas)
        stacked = feas.project(rows, max_cycles=max_cycles)
        for i, row in enumerate(rows):
            alone = feas.project(row[None], max_cycles=max_cycles)[0]
            assert np.array_equal(stacked[i], alone), i
            assert np.array_equal(alone, _reference_project(feas, row, max_cycles)), i

    def test_rows_stop_at_different_cycles(self, feas):
        cycles = {self._cycles(feas, row, 2000) for row in self._rows(feas)}
        assert len(cycles) >= 3

    def test_fallback_rows_stop_at_different_sweeps(self, feas):
        # past max_cycles Dykstra steps a row runs fallback sweeps, each
        # ending with a simplex step, then one final simplex step
        rows = self._rows(feas)
        steps = [self._cycles(feas, row, 150) for row in rows]
        fell_back = [n for n in steps if n > 150]
        assert len(fell_back) < len(steps)
        assert len(set(fell_back)) >= 3
        out = feas.project(rows, max_cycles=150)
        sums = np.stack([out[:, c].sum(axis=1) for c in _slice_cols(feas)], axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12) and (out >= 0).all()


class TestLockstepDescent:
    """All starts in lockstep take the bits of starts run one by one."""

    # Each row makes some start stop by `rule` on the 2nd or 3rd probe of
    # a lockstep round, where the probes it did not reach are dropped.
    # The 25th halving is the 25th probe at one iterate, and 24 failed
    # probes fill whole rounds, so that stop is always a round's 1st probe.
    @pytest.mark.parametrize("case, max_iter, tol, seed, rule", [
        ("erased", 40, 1e-6, 9, "tol"),
        ("forbidden3", 40, 1e-6, 5, "tol"),
        ("erased", 3, 1e-6, 5, "max_iter"),
        ("forbidden3", 3, 1e-6, 5, "max_iter"),
        ("forbidden3", 1, 0.0, 0, "max_iter"),
        ("erased", 2, 0.0, 5, "max_iter"),
        ("forbidden3", 2, 0.0, 5, "max_iter"),
        ("forbidden3", 5, 0.0, 1, "max_iter"),
        ("erased", 300, 0.0, 5, "halvings"),
        ("forbidden3", 60, 0.0, 5, "halvings"),
    ], ids=["tol-erased", "tol-forbidden3", "max_iter-erased", "max_iter-forbidden3",
            "max_iter1-forbidden3", "max_iter2-erased", "max_iter2-forbidden3",
            "max_iter5-forbidden3", "halvings-erased", "halvings-forbidden3"])
    def test_matches_one_start_at_a_time(self, case, max_iter, tol, seed, rule,
                                         erased_full, hamming2):
        if case == "erased":
            src, m1, m2 = erased_full, hamming2, hamming2
            pair, terms, weights = DistortionPair(0.1, 0.05), HB_CR_TERMS, (1.0, 1.0)
        else:
            src = random_source(np.random.default_rng(7), 3, 2, 3)
            m1 = DistortionMetric.erasure(3)
            m2 = DistortionMetric(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, np.inf]]))
            pair = DistortionPair(0.6, 0.4)
            terms, weights = (MITerm((1, 2), 1), MITerm((2,), 2, (1,))), (0.3, 0.7)
        res = descent_weighted(src, m1, m2, pair, terms, weights, restarts=3,
                               tol=tol, seed=seed, max_iter=max_iter)
        rate, cond, best_start, stops = _reference_descent(
            src, m1, m2, pair, terms, weights, restarts=3, seed=seed,
            max_iter=max_iter, tol=tol)
        assert repr(res.rate) == repr(rate)
        assert np.array_equal(res.witness.cond, cond)
        assert res.best_start == best_start
        # a start takes ceil(n / _PROBES) rounds at an iterate where it
        # tries n probes; the lockstep runs until its longest start stops
        assert res.rounds == max(sum(-(-n // _PROBES) for n in tried)
                                 for _, tried in stops)
        positions = {(tried[-1] - 1) % _PROBES for r, tried in stops if r == rule}
        assert positions & ({0} if rule == "halvings" else {1, 2}), stops

    def test_counts_repeat_for_a_seed(self, erased_full, hamming2):
        pair = DistortionPair(0.15, 0.1)
        a, b = (descent_hb_cr(erased_full, hamming2, hamming2, pair, restarts=5, seed=9)
                for _ in range(2))
        assert (a.rounds, a.cycles) == (b.rounds, b.cycles)
        assert a.cycles >= a.rounds > 0

    def test_flat_objective_stops_at_the_25th_halving(self, erased_full, hamming2,
                                                      monkeypatch):
        # zero weights: no probe improves, so each of the 3 starts is
        # evaluated once and then rejects 25 probes
        calls = []
        monkeypatch.setattr(crrd.descent, "_objective",
                            lambda *a: calls.append(1) or _objective(*a))
        res = descent_weighted(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                               HB_CR_TERMS, (0.0, 0.0), restarts=2, seed=0)
        assert len(calls) == 3 * 26
        assert res.rounds == -(-25 // _PROBES)
        assert (res.rate, res.best_start) == (0.0, 0)

    def test_start_projection_is_not_counted(self, erased_full, hamming2):
        res = descent_weighted(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                               HB_CR_TERMS, (1.0, 1.0), restarts=2, seed=0, max_iter=0)
        assert (res.rounds, res.cycles) == (0, 0)


class TestBudgetGuard:
    """Probes and final iterates over a budget never win."""

    @staticmethod
    def _short_projection(monkeypatch, max_cycles):
        project = _Feasible.project
        monkeypatch.setattr(_Feasible, "project",
                            lambda self, z, **_: project(self, z, max_cycles=max_cycles))

    @pytest.mark.parametrize("max_cycles", [1, 2])
    def test_truncated_projection_keeps_witness_in_budget(self, monkeypatch, max_cycles,
                                                          erased_full, hamming2):
        # far from converged, many projected probes end over a budget
        self._short_projection(monkeypatch, max_cycles)
        pair = DistortionPair(0.1, 0.05)
        res = descent_hb_cr(erased_full, hamming2, hamming2, pair, restarts=4, seed=2)
        d1, d2 = eval_distortions(erased_full, res.witness, hamming2, hamming2)
        assert d1 <= pair.d1 + 1e-9 and d2 <= pair.d2 + 1e-9
        assert eval_hb_cr_objective(erased_full, res.witness) == pytest.approx(
            res.rate, abs=1e-9)

    def test_no_start_within_budgets_raises(self, monkeypatch, erased_full, hamming2):
        self._short_projection(monkeypatch, 1)
        monkeypatch.setattr(_Feasible, "_feasible",
                            lambda self, z: np.zeros(z.shape[0], dtype=bool))
        with pytest.raises(InfeasibleBudgetError):
            descent_hb_cr(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                          restarts=2, seed=0)

    def test_restarts_bounded_by_batch(self, erased_full, hamming2, monkeypatch):
        monkeypatch.setattr(_Feasible, "feasible_start", None)   # no start is drawn
        with pytest.raises(InvalidSpecError):
            descent_hb_cr(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                          restarts=BATCH // _PROBES - 1)
        with pytest.raises(InvalidSpecError):
            descent_hb_cr(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                          restarts=10**300)
