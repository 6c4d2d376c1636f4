import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crrd
from crrd import (
    ChannelPolytope,
    ConRConstraint,
    DistortionMetric,
    InvalidSpecError,
    ShapeMismatchError,
    TestChannel,
    compose_joint,
    eval_distortions,
    eval_hb_cr_alt_objective,
    eval_hb_cr_objective,
)
from conftest import random_channel, random_source

RT_B_01005 = 0.5949139291763825


class TestTestChannel:
    def test_slice_sums_checked(self):
        bad = np.full((2, 2, 2), 0.3)
        with pytest.raises(InvalidSpecError):
            TestChannel(bad)

    def test_negative_rejected(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 0] = 1.5
        bad[0, 1, 1] = -0.5
        with pytest.raises(InvalidSpecError):
            TestChannel(bad)

    def test_constant_builder(self):
        ch = TestChannel.constant(2, 2, 3, a=1, b=2)
        assert ch.cond[0, 1, 2] == 1.0
        assert ch.cond.sum() == 2.0

    def test_forbidden_support_validation(self):
        erasure = DistortionMetric.erasure(2)
        # mass on xhat2 = wrong bit, forbidden under erasure distortion
        ch = TestChannel.constant(2, 2, 3, a=0, b=1)
        with pytest.raises(InvalidSpecError):
            ch.validate_support(None, erasure)
        ok = TestChannel.constant(2, 2, 3, a=0, b=2)
        ok.validate_support(None, erasure)


class TestComposeJoint:
    def test_shape(self, erased_full):
        ch = TestChannel.constant(2, 2, 2)
        joint = compose_joint(erased_full, ch)
        assert joint.alphabet_sizes == [2, 3, 3, 2, 2]

    def test_mismatch_rejected(self, erased_full):
        ch = TestChannel.constant(3, 2, 2)
        with pytest.raises(ShapeMismatchError):
            compose_joint(erased_full, ch)


class TestObjectives:
    def test_constant_reconstructions_cost_nothing(self, erased_full):
        ch = TestChannel.constant(2, 2, 2)
        assert eval_hb_cr_objective(erased_full, ch) == pytest.approx(0.0, abs=1e-12)
        assert eval_hb_cr_alt_objective(erased_full, ch) == pytest.approx(0.0, abs=1e-12)

    def test_identity_reconstructions(self, erased_full):
        cond = np.zeros((2, 2, 2))
        cond[0, 0, 0] = 1.0
        cond[1, 1, 1] = 1.0
        ch = TestChannel(cond)
        # blind first decoder pays H(X) = 1; second layer is then free
        assert eval_hb_cr_objective(erased_full, ch) == pytest.approx(1.0, abs=1e-12)

    def test_witness_value(self, erased_full):
        ch = crrd.binary_hb_test_channel(crrd.DistortionPair(0.1, 0.05),
                                         crrd.BinaryErasureSpec(1.0, 0.35))
        assert eval_hb_cr_objective(erased_full, ch) == pytest.approx(
            RT_B_01005, abs=1e-9)
        assert eval_hb_cr_alt_objective(erased_full, ch) == pytest.approx(
            RT_B_01005, abs=1e-9)

    @given(st.integers(min_value=0, max_value=199))
    @settings(max_examples=40, deadline=None)
    def test_two_forms_agree_on_degraded_sources(self, seed):
        rng = np.random.default_rng(seed)
        # degraded by construction: p(x, y2) times a kernel p(y1 | y2)
        p_xy2 = rng.dirichlet(np.ones(6)).reshape(2, 3)
        kernel = rng.dirichlet(np.ones(3), size=3).T
        src = crrd.JointSource(p_xy2[:, None, :] * kernel[None, :, :])
        ch = random_channel(rng)
        a = eval_hb_cr_objective(src, ch)
        b = eval_hb_cr_alt_objective(src, ch)
        assert a == pytest.approx(b, abs=1e-9)

    def test_alt_form_requires_degradedness(self):
        rng = np.random.default_rng(3)
        src = random_source(rng)
        while crrd.check_markov_chain(src, "x-y2-y1"):
            src = random_source(rng)
        with pytest.raises(InvalidSpecError):
            eval_hb_cr_alt_objective(src, random_channel(rng))

    def test_identical_side_information_drops_second_term(self):
        # y1 == y2 makes I(Xh1; Y2 | Y1) vanish
        rng = np.random.default_rng(11)
        p_xy = rng.dirichlet(np.ones(6)).reshape(2, 3)
        mass = np.zeros((2, 3, 3))
        for y in range(3):
            mass[:, y, y] = p_xy[:, y]
        src = crrd.JointSource(mass)
        ch = random_channel(rng)
        joint = compose_joint(src, ch)
        first = crrd.conditional_mutual_information(joint, (0,), (3, 4), (2,))
        assert eval_hb_cr_alt_objective(src, ch) == pytest.approx(first, abs=1e-9)


class TestEvalDistortions:
    def test_identity_channel(self, erased_full, hamming2):
        cond = np.zeros((2, 2, 2))
        cond[0, 0, 0] = 1.0
        cond[1, 1, 1] = 1.0
        assert eval_distortions(erased_full, TestChannel(cond), hamming2, hamming2) == (0.0, 0.0)

    def test_constant_channel(self, erased_full, hamming2):
        ch = TestChannel.constant(2, 2, 2)
        d1, d2 = eval_distortions(erased_full, ch, hamming2, hamming2)
        assert d1 == pytest.approx(0.5, abs=1e-12)
        assert d2 == pytest.approx(0.5, abs=1e-12)

    def test_forbidden_mass_raises(self, erased_full, hamming2):
        erasure = DistortionMetric.erasure(2)
        bad = TestChannel.constant(2, 2, 3, a=0, b=1)
        with pytest.raises(InvalidSpecError):
            eval_distortions(erased_full, bad, hamming2, erasure)

    def test_shape_mismatch(self, erased_full, hamming2):
        ch = TestChannel.constant(2, 2, 3)
        with pytest.raises(ShapeMismatchError):
            eval_distortions(erased_full, ch, hamming2, hamming2)


def _random_metric(rng, nx, m, forbid):
    """Random metric with entries in [0, 1); with `forbid`, each row keeps
    one random cell, forbids another and each remaining one with
    probability 1/2."""
    mat = rng.uniform(0, 1, (nx, m))
    if forbid:
        keep = rng.integers(m, size=nx)
        cut = rng.uniform(size=(nx, m)) < 0.5
        cut[np.arange(nx), (keep + rng.integers(1, m, size=nx)) % m] = True
        cut[np.arange(nx), keep] = False
        mat[cut] = np.inf
    return DistortionMetric(mat)


def _polytope_instances():
    """Seeded sources with |X| <= 3 and metric pairs, erasure ones included."""
    rng = np.random.default_rng(11)
    yield (random_source(rng), DistortionMetric.erasure(2),
           DistortionMetric.erasure(2))
    yield (random_source(rng), DistortionMetric.hamming(2),
           DistortionMetric.erasure(2))
    for nx in (1, 2, 3, 3):
        src = random_source(rng, nx=nx)
        yield (src, _random_metric(rng, nx, int(rng.integers(2, 4)), forbid=True),
               _random_metric(rng, nx, int(rng.integers(2, 4)), forbid=nx > 1))


def _channel_on(allowed, shape, rng):
    """Random channel putting mass on every allowed cell and on no other."""
    cond = np.zeros(allowed.shape)
    for x, a in enumerate(allowed):
        cond[x, a] = rng.dirichlet(np.ones(int(a.sum())))
    return TestChannel(cond.reshape(shape))


class TestChannelPolytope:
    @pytest.mark.parametrize("case", range(6))
    def test_costs_match_independent_evaluator(self, case):
        source, m1, m2 = list(_polytope_instances())[case]
        poly = ChannelPolytope(source.x_marginal(), (m1, m2), (0.1, 0.2))
        assert poly.shape == (source.nx, m1.n_outputs, m2.n_outputs)
        assert poly.costs.shape == (2,) + poly.allowed.shape
        rng = np.random.default_rng(case)
        for _ in range(5):
            ch = _channel_on(poly.allowed, poly.shape, rng)
            flat = ch.cond.reshape(source.nx, -1)
            got = [sum(c[x] @ flat[x] for x in range(source.nx)) for c in poly.costs]
            want = eval_distortions(source, ch, m1, m2)
            assert got == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("case", range(6))
    def test_excluded_cells_fail_support_validation(self, case):
        source, m1, m2 = list(_polytope_instances())[case]
        poly = ChannelPolytope(source.x_marginal(), (m1, m2), (0.1, 0.2))
        excluded = np.argwhere(~poly.allowed)
        assert excluded.size, "every instance forbids some cell"
        ok = _channel_on(poly.allowed, poly.shape, np.random.default_rng(case))
        ok.validate_support(m1, m2)
        for x, cell in excluded:
            cond = ok.cond.reshape(poly.allowed.shape).copy()
            cond[x] = 0.0
            cond[x, cell] = 1.0
            with pytest.raises(InvalidSpecError):
                TestChannel(cond.reshape(poly.shape)).validate_support(m1, m2)

    def test_one_metric_layout(self):
        rng = np.random.default_rng(5)
        for nx in (1, 2, 3):
            px = rng.dirichlet(np.ones(nx))
            metric = _random_metric(rng, nx, 3, forbid=True)
            poly = ChannelPolytope(px, (metric,), (0.3,))
            assert poly.shape == (nx, 3, 1)
            assert np.array_equal(poly.allowed, np.isfinite(metric.matrix))
            assert np.array_equal(poly.costs[0],
                                  px[:, None] * np.where(poly.allowed, metric.matrix, 0.0))

    def test_wrong_row_count_rejected(self, hamming2):
        px = np.full(3, 1 / 3)
        with pytest.raises(ShapeMismatchError):
            ChannelPolytope(px, (hamming2,), (0.1,))
        with pytest.raises(ShapeMismatchError):
            ChannelPolytope(px, (DistortionMetric.hamming(3), hamming2), (0.1, 0.1))


class TestAuxTypes:
    def test_conr_constraint_square_metrics(self, hamming2):
        c = ConRConstraint(0.0, 0.1, hamming2, hamming2)
        assert c.de2 == 0.1
        rect = DistortionMetric(np.zeros((2, 3)))
        with pytest.raises(InvalidSpecError):
            ConRConstraint(0.0, 0.0, rect, hamming2)
        with pytest.raises(InvalidSpecError):
            ConRConstraint(-0.1, 0.0, hamming2, hamming2)
