import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crrd
from crrd import (
    BinaryErasureSpec,
    DistortionMetric,
    FinitePmf,
    GaussianSpec,
    InvalidSpecError,
    JointSource,
    binary_entropy,
    build_erased_source,
    check_markov_chain,
    check_stochastic_degradedness,
    conditional_mutual_information,
    entropy,
)

# frozen hand evaluations of -sum p log2 p
H_035 = 0.934068055375491
H_01 = 0.4689955935892812
DSBS_01_MI = 0.5310044064107188


class TestBinaryEntropy:
    def test_extremes(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_hand_value(self):
        assert binary_entropy(0.1) == pytest.approx(H_01, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_out_of_range(self, p):
        with pytest.raises(InvalidSpecError):
            binary_entropy(p)


class TestFinitePmf:
    def test_normalizes(self):
        pmf = FinitePmf([2.0, 2.0])
        assert abs(pmf.mass.sum() - 1.0) < 1e-12
        assert pmf.alphabet_sizes == [2]

    def test_rejects_negative(self):
        with pytest.raises(InvalidSpecError):
            FinitePmf([0.5, -0.1])

    def test_rejects_zero_mass(self):
        with pytest.raises(InvalidSpecError):
            FinitePmf([0.0, 0.0])

    def test_frozen(self):
        pmf = FinitePmf([0.5, 0.5])
        with pytest.raises(ValueError):
            pmf.mass[0] = 0.3


class TestEntropy:
    def test_uniform(self):
        assert entropy(FinitePmf([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(FinitePmf([1.0, 0.0])) == 0.0

    def test_bernoulli(self):
        assert entropy(FinitePmf([0.35, 0.65])) == pytest.approx(H_035, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6))
    def test_permutation_invariance(self, weights):
        pmf = FinitePmf(weights)
        perm = FinitePmf(list(reversed(weights)))
        assert entropy(pmf) == pytest.approx(entropy(perm), abs=1e-10)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=99))
    def test_bounded_by_log_size(self, n, seed):
        rng = np.random.default_rng(seed)
        pmf = FinitePmf(rng.dirichlet(np.ones(n)))
        h = entropy(pmf)
        assert -1e-10 <= h <= math.log2(n) + 1e-10


class TestConditionalMutualInformation:
    def test_independent(self):
        pmf = FinitePmf(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert conditional_mutual_information(pmf, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling(self):
        pmf = FinitePmf(np.eye(2) * 0.5)
        assert conditional_mutual_information(pmf, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_doubly_symmetric_binary(self):
        e = 0.1
        joint = np.array([[0.5 * (1 - e), 0.5 * e], [0.5 * e, 0.5 * (1 - e)]])
        pmf = FinitePmf(joint)
        assert conditional_mutual_information(pmf, (0,), (1,)) == pytest.approx(
            DSBS_01_MI, abs=1e-12)

    def test_overlapping_groups_rejected(self):
        pmf = FinitePmf(np.full((2, 2), 0.25))
        with pytest.raises(InvalidSpecError):
            conditional_mutual_information(pmf, (0,), (0,))

    @given(st.integers(min_value=0, max_value=199))
    @settings(max_examples=50)
    def test_chain_rule(self, seed):
        rng = np.random.default_rng(seed)
        pmf = FinitePmf(rng.dirichlet(np.ones(2 * 2 * 3)).reshape(2, 2, 3))
        lhs = conditional_mutual_information(pmf, (0,), (1, 2))
        rhs = (conditional_mutual_information(pmf, (0,), (1,))
               + conditional_mutual_information(pmf, (0,), (2,), (1,)))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(st.integers(min_value=0, max_value=199))
    @settings(max_examples=50)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        pmf = FinitePmf(rng.dirichlet(np.ones(12)).reshape(2, 3, 2))
        assert conditional_mutual_information(pmf, (0,), (1,), (2,)) >= 0.0

    def test_axis_relabeling_invariance(self):
        rng = np.random.default_rng(7)
        m = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        base = conditional_mutual_information(FinitePmf(m), (0,), (1,), (2,))
        relabeled = conditional_mutual_information(
            FinitePmf(m[::-1, :, ::-1]), (0,), (1,), (2,))
        assert base == pytest.approx(relabeled, abs=1e-10)


class TestJointSource:
    def test_prunes_zero_mass_symbols(self):
        mass = np.zeros((3, 2, 2))
        mass[0] = 0.25
        mass[2] = 0.25
        src = JointSource(mass)
        assert src.nx == 2
        assert np.all(src.x_marginal() > 0)

    def test_needs_three_axes(self):
        with pytest.raises(InvalidSpecError):
            JointSource(np.full((2, 2), 0.25))

    def test_json_round_trip(self, erased_half):
        doc = erased_half.to_json()
        back = JointSource.from_json(doc)
        assert np.allclose(back.mass, erased_half.mass)
        assert back.labels == erased_half.labels
        parsed = json.loads(doc)
        assert parsed["alphabets"] == [2, 3, 3]
        assert len(parsed["pmf"]) == 18

    def test_label_length_checked(self):
        with pytest.raises(InvalidSpecError):
            JointSource(np.full((2, 2, 2), 0.125), labels=[["a"], ["a", "b"], ["a", "b"]])


class TestDistortionMetric:
    def test_hamming(self):
        m = DistortionMetric.hamming(3)
        assert m.matrix.shape == (3, 3)
        assert m.matrix[0, 0] == 0.0 and m.matrix[0, 1] == 1.0

    def test_erasure_structure(self):
        m = DistortionMetric.erasure(2)
        assert m.n_outputs == 3
        assert m.matrix[0, 2] == 1.0
        assert not np.isfinite(m.matrix[0, 1])

    def test_every_row_needs_finite_entry(self):
        with pytest.raises(InvalidSpecError):
            DistortionMetric([[crrd.FORBIDDEN, crrd.FORBIDDEN], [0.0, 1.0]])

    def test_json_round_trip_with_inf(self):
        m = DistortionMetric.erasure(2)
        back = DistortionMetric.from_json(m.to_json())
        assert np.array_equal(np.isfinite(back.matrix), np.isfinite(m.matrix))
        fin = np.isfinite(m.matrix)
        assert np.allclose(back.matrix[fin], m.matrix[fin])
        assert '"inf"' in m.to_json()


class TestSpecs:
    def test_erasure_ordering_enforced(self):
        with pytest.raises(InvalidSpecError):
            BinaryErasureSpec(0.35, 0.5)

    def test_degraded_probability_relation(self):
        spec = BinaryErasureSpec(0.5, 0.35)
        pt1 = spec.degraded_erasure_prob
        assert pt1 == pytest.approx(0.23076923076923078, abs=1e-12)
        assert spec.p1 == pytest.approx(spec.p2 + pt1 * (1 - spec.p2), abs=1e-12)

    def test_gaussian_validation(self):
        with pytest.raises(InvalidSpecError):
            GaussianSpec(0.0, 1.0, 1.0)
        with pytest.raises(InvalidSpecError):
            GaussianSpec(1.0, -0.5, 1.0)


class TestMarkovChain:
    def test_erased_source_direction(self, erased_half):
        assert check_markov_chain(erased_half, "x-y2-y1")
        assert not check_markov_chain(erased_half, "x-y1-y2")

    def test_independent_all_orders(self):
        mass = np.einsum("i,j,k->ijk", [0.5, 0.5], [0.3, 0.7], [0.6, 0.4])
        src = JointSource(mass)
        for order in ("x-y1-y2", "x-y2-y1", "y1-x-y2"):
            assert check_markov_chain(src, order)

    def test_bad_order_rejected(self, erased_half):
        with pytest.raises(InvalidSpecError):
            check_markov_chain(erased_half, "x-x-y1")


class TestStochasticDegradedness:
    def test_erased_pair_feasible_with_known_kernel(self, erased_half):
        res = check_stochastic_degradedness(erased_half)
        assert res.feasible
        assert res.violation <= 1e-9
        # further-erasure kernel: e-row entry on the clean columns
        assert res.kernel[2, 0] == pytest.approx(0.23076923076923078, abs=1e-9)
        assert res.kernel[2, 1] == pytest.approx(0.23076923076923078, abs=1e-9)
        assert res.kernel[2, 2] == pytest.approx(1.0, abs=1e-9)

    def test_identical_side_information_identity_kernel(self):
        mass = np.zeros((2, 2, 2))
        mass[0, 0, 0] = 0.5
        mass[1, 1, 1] = 0.5
        res = check_stochastic_degradedness(JointSource(mass))
        assert res.feasible
        assert np.allclose(res.kernel, np.eye(2), atol=1e-9)

    def test_swapped_roles_infeasible(self, erased_half):
        swapped = JointSource(np.transpose(erased_half.mass, (0, 2, 1)))
        res = check_stochastic_degradedness(swapped)
        assert not res.feasible
        assert res.violation > 1e-3

    @given(st.integers(min_value=0, max_value=49))
    @settings(max_examples=25, deadline=None)
    def test_markov_implies_degradedness(self, seed):
        # build p(x, y2) and a kernel, so X - Y2 - Y1 holds by construction
        rng = np.random.default_rng(seed)
        p_xy2 = rng.dirichlet(np.ones(6)).reshape(2, 3)
        kernel = rng.dirichlet(np.ones(3), size=3).T  # p(y1|y2), columns y2
        mass = p_xy2[:, None, :] * kernel[None, :, :]
        src = JointSource(mass)
        assert check_markov_chain(src, "x-y2-y1")
        assert check_stochastic_degradedness(src).feasible


class TestBuildErasedSource:
    def test_blind_first_decoder(self):
        src = build_erased_source(BinaryErasureSpec(1.0, 0.35))
        p_y1 = src.mass.sum(axis=(0, 2))
        assert p_y1[2] == pytest.approx(1.0, abs=1e-12)
        p_y2 = src.mass.sum(axis=(0, 1))
        assert p_y2[2] == pytest.approx(0.35, abs=1e-12)

    def test_marginal_erasure_rates(self):
        spec = BinaryErasureSpec(0.5, 0.35)
        src = build_erased_source(spec)
        assert src.mass.sum(axis=(0, 2))[2] == pytest.approx(0.5, abs=1e-12)
        assert src.mass.sum(axis=(0, 1))[2] == pytest.approx(0.35, abs=1e-12)

    def test_conditional_erasure_structure(self, erased_half):
        m = erased_half.mass
        p_y1y2 = m.sum(axis=0)
        # given Y2 = e the degraded copy is always erased
        assert p_y1y2[2, 2] == pytest.approx(p_y1y2[:, 2].sum(), abs=1e-12)
        # given Y2 = X the degraded copy erases with the residual probability
        p_e_given_clean = p_y1y2[2, 0] / p_y1y2[:, 0].sum()
        assert p_e_given_clean == pytest.approx(0.23076923076923078, abs=1e-9)

    def test_markov_structure(self, erased_half):
        assert check_markov_chain(erased_half, "x-y2-y1")

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_degradation_vanishes_with_gap(self, eps):
        spec = BinaryErasureSpec(0.35 + eps, 0.35)
        assert spec.degraded_erasure_prob == pytest.approx(eps / 0.65, rel=1e-9)

    def test_kernel_recovered_by_checker(self, erased_half):
        res = check_stochastic_degradedness(erased_half)
        pt1 = BinaryErasureSpec(0.5, 0.35).degraded_erasure_prob
        assert res.kernel[2, 0] == pytest.approx(pt1, abs=1e-9)
