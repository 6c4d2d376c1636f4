import numpy as np
import pytest

import crrd
from crrd import (
    BinaryErasureSpec,
    DistortionMetric,
    DistortionPair,
    InfeasibleBudgetError,
    binary_hb_test_channel,
    descent_hb_cr,
    eval_distortions,
    eval_hb_cr_objective,
    feasible_channel,
    grid_oracle_hb_cr,
)
from crrd.measures import MITerm, term_value_grad
from conftest import ALL_TERMS, random_channel, random_source

BSPEC = BinaryErasureSpec(1.0, 0.35)
RT_B_01005 = 0.5949139291763825


class TestTermGradients:
    @pytest.mark.parametrize("term", ALL_TERMS, ids=str)
    def test_matches_finite_differences(self, term):
        rng = np.random.default_rng(17)
        src = random_source(rng, 2, 3, 2)
        # interior channel so the logs are smooth
        q = np.stack([rng.dirichlet(np.full(4, 5.0)).reshape(2, 2) for _ in range(2)])
        val, grad = term_value_grad(src, q, term)
        eps = 1e-6
        for x in range(2):
            for a in range(2):
                for b in range(2):
                    qp = q.copy()
                    qp[x, a, b] += eps
                    vp, _ = term_value_grad(src, qp, term)
                    qm = q.copy()
                    qm[x, a, b] -= eps
                    vm, _ = term_value_grad(src, qm, term)
                    num = (vp - vm) / (2 * eps)
                    assert num == pytest.approx(grad[x, a, b], abs=5e-5), (x, a, b)

    def test_value_matches_direct_cmi(self):
        rng = np.random.default_rng(23)
        src = random_source(rng, 2, 2, 3)
        ch = random_channel(rng)
        joint = crrd.compose_joint(src, ch)
        # term axes map: channel axis 1 -> joint axis 3, 2 -> 4; y1 -> 1, y2 -> 2
        v, _ = term_value_grad(src, ch.cond, MITerm((2,), 2, (1,)))
        want = crrd.conditional_mutual_information(joint, (0,), (4,), (2, 3))
        assert v == pytest.approx(want, abs=1e-10)
        v, _ = term_value_grad(src, ch.cond, MITerm((1, 2), 1))
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

    def test_feasible_channel_helper(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        ch = feasible_channel(erased_full, hamming2, hamming2, pair)
        d1, d2 = eval_distortions(erased_full, ch, hamming2, hamming2)
        assert d1 <= pair.d1 + 1e-8 and d2 <= pair.d2 + 1e-8

    def test_respects_forbidden_support(self, erased_full):
        me = DistortionMetric.erasure(2)
        pair = DistortionPair(0.4, 0.3)
        res = descent_hb_cr(erased_full, me, me, pair, restarts=3, seed=4)
        res.witness.validate_support(me, me)
        closed = crrd.rhb_cr_binary(pair, BSPEC, crrd.BinaryMetric.ERASURE).rate
        assert res.rate >= closed - 1e-9
        assert res.rate <= closed + 5e-3
