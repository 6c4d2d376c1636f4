import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crrd
from crrd import (
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


class TestAuxTypes:
    def test_conr_constraint_square_metrics(self, hamming2):
        c = ConRConstraint(0.0, 0.1, hamming2, hamming2)
        assert c.de2 == 0.1
        rect = DistortionMetric(np.zeros((2, 3)))
        with pytest.raises(InvalidSpecError):
            ConRConstraint(0.0, 0.0, rect, hamming2)
        with pytest.raises(InvalidSpecError):
            ConRConstraint(-0.1, 0.0, hamming2, hamming2)
