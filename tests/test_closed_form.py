import numpy as np
import pytest

from crrd import (
    BinaryErasureSpec,
    BinaryMetric,
    DistortionPair,
    GaussianSpec,
    InvalidSpecError,
    RegionLabel,
    binary_hb_test_channel,
    cascade_region_binary,
    cascade_region_gaussian,
    eval_distortions,
    eval_hb_cr_objective,
    gaussian_hb_test_channel_params,
    rcr_point_binary,
    rcr_point_gaussian,
    rhb_cr_binary,
    rhb_cr_gaussian,
)

GSPEC = GaussianSpec(4.0, 2.0, 3.0)
BSPEC = BinaryErasureSpec(1.0, 0.35)

# frozen hand evaluations
RCR_G_431 = 0.5963225389711979        # 0.5*log2(16/7)
RT_G_21 = 0.6577509128639647          # 0.5*log2(112/45)
RCR_B_01 = 0.18585154224375156        # 0.35*(1 - H(0.1))
RT_B_01005 = 0.5949139291763825       # 1*(1-H(0.1)) + 0.35*(H(0.1)-H(0.05))
RCR_B2_005 = 0.2497610650094153       # 0.35*(1 - H(0.05))
RT_BE_0301 = 0.77                     # 1*0.7 + 0.35*0.2
Q_INNER = 0.05555555555555556         # (0.1-0.05)/(1-2*0.05)


class TestPointGaussian:
    def test_zero_at_source_variance(self):
        assert rcr_point_gaussian(4.0, 4.0, 3.0) == 0.0
        assert rcr_point_gaussian(5.0, 4.0, 3.0) == 0.0

    def test_hand_value(self):
        assert rcr_point_gaussian(1.0, 4.0, 3.0) == pytest.approx(RCR_G_431, abs=1e-12)
        assert rcr_point_gaussian(1.0, 4.0, 3.0) == pytest.approx(0.59633, abs=1e-4)

    def test_perfect_side_information_is_free(self):
        # N = 0 means Y = X: the decoder can output the source itself
        assert rcr_point_gaussian(1.0, 4.0, 0.0) == 0.0

    def test_useless_side_information_limit_is_classical(self):
        # N -> inf recovers the no-side-information rate 0.5*log2(s2/D)
        big_n = 1e12
        assert rcr_point_gaussian(1.0, 4.0, big_n) == pytest.approx(1.0, abs=1e-9)

    def test_nonincreasing(self):
        ds = np.linspace(0.05, 5.0, 60)
        rates = [rcr_point_gaussian(d, 4.0, 3.0) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_rejects_zero_distortion(self):
        with pytest.raises(InvalidSpecError):
            rcr_point_gaussian(0.0, 4.0, 3.0)


class TestBroadcastGaussian:
    def test_trivial_region(self):
        rate, label = rhb_cr_gaussian(DistortionPair(4.5, 5.0), GSPEC)
        assert rate == 0.0 and label is RegionLabel.BOTH_TRIVIAL

    def test_two_layer_hand_value(self):
        rate, label = rhb_cr_gaussian(DistortionPair(2.0, 1.0), GSPEC)
        assert label is RegionLabel.BOTH_ACTIVE
        assert rate == pytest.approx(RT_G_21, abs=1e-12)

    def test_equal_budgets_collapse(self):
        for d in (0.5, 1.0, 2.0, 3.5):
            rate, _ = rhb_cr_gaussian(DistortionPair(d, d), GSPEC)
            assert rate == pytest.approx(rcr_point_gaussian(d, 4.0, 5.0), abs=1e-12)

    def test_only_d2_branch(self):
        rate, label = rhb_cr_gaussian(DistortionPair(6.0, 1.0), GSPEC)
        assert label is RegionLabel.ONLY_D2_ACTIVE
        assert rate == pytest.approx(rcr_point_gaussian(1.0, 4.0, 3.0), abs=1e-12)

    def test_continuity_across_diagonal(self):
        for d in np.linspace(0.1, 3.9, 100):
            below, _ = rhb_cr_gaussian(DistortionPair(d, d * (1 - 1e-12)), GSPEC)
            above, _ = rhb_cr_gaussian(DistortionPair(d, d * (1 + 1e-12)), GSPEC)
            assert abs(below - above) < 1e-9

    def test_continuity_at_sigma(self):
        for d2 in np.linspace(0.1, 3.9, 100):
            left, _ = rhb_cr_gaussian(DistortionPair(4.0 * (1 - 1e-13), d2), GSPEC)
            right, _ = rhb_cr_gaussian(DistortionPair(4.0 * (1 + 1e-13), d2), GSPEC)
            assert abs(left - right) < 1e-9

    def test_no_incremental_noise_drops_first_layer(self):
        spec = GaussianSpec(4.0, 0.0, 3.0)
        for d1 in (0.5, 1.0, 2.0):
            rate, _ = rhb_cr_gaussian(DistortionPair(d1, 0.4), spec)
            assert rate == pytest.approx(rcr_point_gaussian(0.4, 4.0, 3.0), abs=1e-12)

    def test_monotone_in_each_budget(self):
        ds = np.linspace(0.2, 4.5, 25)
        for d2 in (0.5, 1.5, 3.0):
            rates = [rhb_cr_gaussian(DistortionPair(d1, d2), GSPEC).rate
                     for d1 in ds if d1 >= 0]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


class TestPointBinary:
    def test_hamming_trivial_at_half(self):
        assert rcr_point_binary(0.5, 0.35, BinaryMetric.HAMMING) == 0.0

    def test_hamming_hand_value(self):
        assert rcr_point_binary(0.1, 0.35, BinaryMetric.HAMMING) == pytest.approx(
            RCR_B_01, abs=1e-12)

    def test_erasure_values(self):
        assert rcr_point_binary(0.2, 0.35, BinaryMetric.ERASURE) == pytest.approx(
            0.28, abs=1e-12)
        assert rcr_point_binary(1.0, 0.35, BinaryMetric.ERASURE) == 0.0
        assert rcr_point_binary(1.5, 0.35, BinaryMetric.ERASURE) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidSpecError):
            rcr_point_binary(-0.1, 0.35, BinaryMetric.HAMMING)


class TestBroadcastBinary:
    def test_two_layer_hand_value(self):
        rate, label = rhb_cr_binary(DistortionPair(0.1, 0.05), BSPEC, BinaryMetric.HAMMING)
        assert label is RegionLabel.BOTH_ACTIVE
        assert rate == pytest.approx(RT_B_01005, abs=1e-12)

    def test_equal_budgets_collapse(self):
        for d in (0.05, 0.2, 0.4):
            rate, _ = rhb_cr_binary(DistortionPair(d, d), BSPEC, BinaryMetric.HAMMING)
            assert rate == pytest.approx(
                rcr_point_binary(d, 1.0, BinaryMetric.HAMMING), abs=1e-12)

    def test_erasure_two_layer(self):
        rate, label = rhb_cr_binary(DistortionPair(0.3, 0.1), BSPEC, BinaryMetric.ERASURE)
        assert label is RegionLabel.BOTH_ACTIVE
        assert rate == pytest.approx(RT_BE_0301, abs=1e-12)

    def test_erasure_trivializes_at_one_not_half(self):
        rate, label = rhb_cr_binary(DistortionPair(0.7, 0.7), BSPEC, BinaryMetric.ERASURE)
        assert label is RegionLabel.BOTH_ACTIVE or rate > 0
        assert rate == pytest.approx(1.0 * 0.3, abs=1e-12)
        rate, label = rhb_cr_binary(DistortionPair(1.0, 1.0), BSPEC, BinaryMetric.ERASURE)
        assert rate == 0.0 and label is RegionLabel.BOTH_TRIVIAL

    @pytest.mark.parametrize("metric", [BinaryMetric.HAMMING, BinaryMetric.ERASURE])
    def test_continuity(self, metric):
        thr = 0.5 if metric is BinaryMetric.HAMMING else 1.0
        for d in np.linspace(0.02, thr - 0.02, 50):
            below, _ = rhb_cr_binary(DistortionPair(d, d * (1 - 1e-12)), BSPEC, metric)
            above, _ = rhb_cr_binary(DistortionPair(d, d * (1 + 1e-12)), BSPEC, metric)
            assert abs(below - above) < 1e-9
        for d2 in np.linspace(0.02, thr - 0.02, 50):
            left, _ = rhb_cr_binary(DistortionPair(thr - 1e-13, d2), BSPEC, metric)
            right, _ = rhb_cr_binary(DistortionPair(thr + 1e-13, d2), BSPEC, metric)
            assert abs(left - right) < 1e-9

    @pytest.mark.parametrize("metric", [BinaryMetric.HAMMING, BinaryMetric.ERASURE])
    def test_monotone(self, metric):
        thr = 0.5 if metric is BinaryMetric.HAMMING else 1.0
        ds = np.linspace(0.02, thr, 20)
        for d2 in (0.05, 0.2):
            rates = [rhb_cr_binary(DistortionPair(d1, d2), BSPEC, metric).rate
                     for d1 in ds]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


class TestCascadeThresholds:
    def test_gaussian_trivial(self):
        assert cascade_region_gaussian(DistortionPair(5.0, 6.0), GSPEC) == (0.0, 0.0)

    def test_gaussian_hand_values(self):
        r1, r2 = cascade_region_gaussian(DistortionPair(2.0, 1.0), GSPEC)
        assert r1 == pytest.approx(RT_G_21, abs=1e-12)
        assert r2 == pytest.approx(RCR_G_431, abs=1e-12)
        assert r1 == pytest.approx(0.65775, abs=1e-4)
        assert r2 == pytest.approx(0.59633, abs=1e-4)

    def test_gaussian_first_hop_saturates(self):
        r1, r2 = cascade_region_gaussian(DistortionPair(5.0, 1.0), GSPEC)
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_binary_hand_values(self):
        r1, r2 = cascade_region_binary(DistortionPair(0.1, 0.05), BSPEC,
                                       BinaryMetric.HAMMING)
        assert r1 == pytest.approx(RT_B_01005, abs=1e-12)
        assert r2 == pytest.approx(RCR_B2_005, abs=1e-12)
        assert r2 == pytest.approx(0.24978, abs=1e-4)

    def test_binary_trivial(self):
        assert cascade_region_binary(DistortionPair(0.5, 0.5), BSPEC,
                                     BinaryMetric.HAMMING) == (0.0, 0.0)

    def test_binary_first_hop_saturates(self):
        r1, r2 = cascade_region_binary(DistortionPair(0.6, 0.05), BSPEC,
                                       BinaryMetric.HAMMING)
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestBinaryTestChannel:
    def test_equal_budgets_merge_layers(self):
        ch = binary_hb_test_channel(DistortionPair(0.2, 0.2), BSPEC)
        # reconstructions coincide: no mass on disagreeing cells
        assert ch.cond[0, 0, 1] == 0.0 and ch.cond[0, 1, 0] == 0.0

    def test_inner_crossover(self):
        ch = binary_hb_test_channel(DistortionPair(0.1, 0.05), BSPEC)
        # P(xh1 != xh2) equals the inner flip probability for every x
        for x in range(2):
            disagree = ch.cond[x, 0, 1] + ch.cond[x, 1, 0]
            assert disagree == pytest.approx(Q_INNER, abs=1e-12)

    def test_noiseless_second_layer(self):
        ch = binary_hb_test_channel(DistortionPair(0.1, 0.0), BSPEC)
        assert ch.cond[0, :, 1].sum() == pytest.approx(0.0, abs=1e-15)
        assert ch.cond[1, :, 0].sum() == pytest.approx(0.0, abs=1e-15)

    def test_distortions_match_budgets(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        ch = binary_hb_test_channel(pair, BSPEC)
        d1, d2 = eval_distortions(erased_full, ch, hamming2, hamming2)
        assert d1 == pytest.approx(0.1, abs=1e-12)
        assert d2 == pytest.approx(0.05, abs=1e-12)

    def test_witness_reaches_closed_form(self, erased_full):
        for d1, d2 in ((0.1, 0.05), (0.3, 0.3), (0.45, 0.1)):
            pair = DistortionPair(d1, d2)
            ch = binary_hb_test_channel(pair, BSPEC)
            want = rhb_cr_binary(pair, BSPEC, BinaryMetric.HAMMING).rate
            got = eval_hb_cr_objective(erased_full, ch)
            assert got == pytest.approx(want, abs=1e-9)

    def test_rejects_bad_ordering(self):
        with pytest.raises(InvalidSpecError):
            binary_hb_test_channel(DistortionPair(0.05, 0.1), BSPEC)
        with pytest.raises(InvalidSpecError):
            binary_hb_test_channel(DistortionPair(0.6, 0.05), BSPEC)


class TestGaussianTestChannelParams:
    def test_hand_value(self):
        assert gaussian_hb_test_channel_params(DistortionPair(2.0, 1.0), GSPEC) == (2.0, 1.0, 1.0)

    def test_degenerate_layers(self):
        v = gaussian_hb_test_channel_params(DistortionPair(1.0, 1.0), GSPEC)
        assert v[1] == 0.0
        v = gaussian_hb_test_channel_params(DistortionPair(4.0, 1.0), GSPEC)
        assert v[0] == 0.0

    def test_parts_sum_to_source_variance(self):
        for d1, d2 in ((0.5, 0.25), (3.0, 1.0), (4.0, 4.0)):
            parts = gaussian_hb_test_channel_params(DistortionPair(d1, d2), GSPEC)
            assert sum(parts) == pytest.approx(GSPEC.sigma_x2, abs=1e-12)

    def test_rejects_bad_ordering(self):
        with pytest.raises(InvalidSpecError):
            gaussian_hb_test_channel_params(DistortionPair(5.0, 1.0), GSPEC)
