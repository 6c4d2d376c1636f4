import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import crrd
from crrd import (
    BinaryErasureSpec,
    BinaryMetric,
    DistortionMetric,
    DistortionPair,
    FinitePmf,
    GuardExceededError,
    InfeasibleBudgetError,
    InvalidSpecError,
    eval_distortions,
    eval_hb_cr_objective,
    grid_oracle_hb_cr,
    grid_oracle_point_cr,
    rcr_point_binary,
    rhb_cr_binary,
    simplex_grid,
)
from crrd.gridsearch import feasible_hb_channel_batches

BSPEC = BinaryErasureSpec(1.0, 0.35)
RCR_B_01 = 0.18585154224375156
RT_B_01005 = 0.5949139291763825


def erased_pair_pmf(p: float) -> FinitePmf:
    mass = np.zeros((2, 3))
    for x in range(2):
        mass[x, x] = 0.5 * (1 - p)
        mass[x, 2] = 0.5 * p
    return FinitePmf(mass)


class TestSimplexGrid:
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=4))
    def test_counts_and_sums(self, units, cells):
        g = simplex_grid(units, cells)
        assert g.shape == (math.comb(units + cells - 1, cells - 1), cells)
        assert np.all(g.sum(axis=1) == units)
        assert np.all(g >= 0)

    def test_lexicographic_order(self):
        g = simplex_grid(2, 3)
        rows = [tuple(r) for r in g]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("cells", range(1, 7))
    def test_matches_filtered_product(self, cells):
        for units in range(13):
            # each vector's last entry is fixed by the others
            want = sorted(head + (units - sum(head),)
                          for head in itertools.product(range(units + 1), repeat=cells - 1)
                          if sum(head) <= units)
            got = simplex_grid(units, cells)
            assert got.dtype == np.int32 and got.flags.c_contiguous
            assert np.array_equal(got, np.array(want).reshape(-1, cells))

    def test_large_grid_row_count(self):
        g = simplex_grid(10, 16)
        assert g.shape == (math.comb(25, 15), 16) and g.dtype == np.int32
        assert np.array_equal(g[[0, -1]], [[0] * 15 + [10], [10] + [0] * 15])

    @pytest.mark.parametrize("units, cells", [(2.0, 3), (2, 3.0), (True, 2), (2, True),
                                              ("2", 3), (-1, 2), (2, 0)])
    def test_rejects_bad_sizes(self, units, cells):
        with pytest.raises(InvalidSpecError):
            simplex_grid(units, cells)


class TestPointOracle:
    def test_zero_rate_when_constant_feasible(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        assert grid_oracle_point_cr(pmf, m, 0.5, step=0.05) == 0.0

    def test_hamming_matches_closed_form(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        rate = grid_oracle_point_cr(pmf, m, 0.1, step=0.01)
        assert rate == pytest.approx(RCR_B_01, abs=5e-3)
        assert rate >= RCR_B_01 - 1e-12  # grid min upper-bounds the true min

    def test_erasure_matches_closed_form(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.erasure(2)
        rate = grid_oracle_point_cr(pmf, m, 0.2, step=0.01)
        want = rcr_point_binary(0.2, 0.35, BinaryMetric.ERASURE)
        assert rate == pytest.approx(want, abs=5e-3)
        assert rate >= want - 1e-12

    def test_infeasible_budget_raises(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric(np.array([[0.2, 1.0], [1.0, 0.2]]))
        with pytest.raises(InfeasibleBudgetError):
            grid_oracle_point_cr(pmf, m, 0.1, step=0.1)

    def test_guard(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        with pytest.raises(GuardExceededError):
            grid_oracle_point_cr(pmf, m, 0.1, step=0.01, guard=100)


def _point_cases():
    """(pair pmf, metric, d, step): the erased source under both binary
    metrics, and seeded random pairs from 2x2 to 3x3 with square metrics
    that have one zero-cost reconstruction per source symbol.  The random
    budget is half the least cost of a constant reconstruction, so the
    rate is positive, and the zero-cost channel keeps it feasible."""
    yield erased_pair_pmf(0.35), DistortionMetric.hamming(2), 0.1, 0.05
    yield erased_pair_pmf(0.35), DistortionMetric.erasure(2), 0.2, 0.05
    rng = np.random.default_rng(7)
    for nx, ny, step in itertools.product((2, 3), (2, 3), (0.1, 0.25)):
        pmf = FinitePmf(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))
        mat = rng.uniform(0, 1, (nx, nx))
        mat[np.arange(nx), rng.permutation(nx)] = 0.0
        d = 0.5 * float((pmf.mass.sum(axis=1) @ mat).min())
        yield pmf, DistortionMetric(mat), d, step


class TestPointIsHbWithTrivialSecondDecoder:
    @pytest.mark.parametrize("case", range(10))
    def test_rates_agree(self, case):
        # a second decoder with one reconstruction symbol and zero cost adds
        # no rate, so both oracles minimize the same objective on one grid
        pmf, metric, d, step = list(_point_cases())[case]
        nx = pmf.mass.shape[0]
        source = crrd.JointSource(pmf.mass[:, :, None])
        trivial = DistortionMetric(np.zeros((nx, 1)))
        point = grid_oracle_point_cr(pmf, metric, d, step)
        hb, wit = grid_oracle_hb_cr(source, metric, trivial, DistortionPair(d, 0.0), step)
        assert point == pytest.approx(hb, abs=1e-12)
        assert wit.cond.shape == (nx, metric.n_outputs, 1)


class TestHbOracle:
    def test_spot_matches_closed_form(self, erased_full, hamming2):
        rate, wit = grid_oracle_hb_cr(erased_full, hamming2, hamming2,
                                      DistortionPair(0.1, 0.05), step=0.05)
        assert rate == pytest.approx(RT_B_01005, abs=5e-3)
        assert rate >= RT_B_01005 - 1e-12

    def test_witness_consistency(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        rate, wit = grid_oracle_hb_cr(erased_full, hamming2, hamming2, pair, step=0.05)
        # witness rate recomputed through the independent evaluator path
        assert eval_hb_cr_objective(erased_full, wit) == pytest.approx(rate, abs=1e-12)
        d1, d2 = eval_distortions(erased_full, wit, hamming2, hamming2)
        assert d1 <= pair.d1 + 1e-9 and d2 <= pair.d2 + 1e-9

    def test_trivial_budgets(self, erased_full, hamming2):
        rate, wit = grid_oracle_hb_cr(erased_full, hamming2, hamming2,
                                      DistortionPair(0.5, 0.5), step=0.05)
        assert rate == 0.0
        # constant channel: slices identical
        assert np.allclose(wit.cond[0], wit.cond[1])

    def test_swapped_budgets_use_first_branch(self, erased_full, hamming2):
        # d2 > d1: rate collapses to the single-layer form at d1
        rate, _ = grid_oracle_hb_cr(erased_full, hamming2, hamming2,
                                    DistortionPair(0.05, 0.1), step=0.05)
        want = rcr_point_binary(0.05, 1.0, BinaryMetric.HAMMING)
        assert rate <= want + 5e-3
        assert rate >= want - 1e-12

    def test_erasure_metric_grid(self, erased_full):
        me = DistortionMetric.erasure(2)
        pair = DistortionPair(0.3, 0.1)
        rate, wit = grid_oracle_hb_cr(erased_full, me, me, pair, step=0.05)
        want = rhb_cr_binary(pair, BSPEC, BinaryMetric.ERASURE).rate
        assert rate == pytest.approx(want, abs=5e-3)
        assert rate >= want - 1e-12
        wit.validate_support(me, me)

    def test_infeasible_raises(self, erased_full, hamming2):
        floor = DistortionMetric(np.array([[0.2, 1.0], [1.0, 0.2]]))
        with pytest.raises(InfeasibleBudgetError):
            grid_oracle_hb_cr(erased_full, floor, hamming2, DistortionPair(0.1, 0.5),
                              step=0.1)

    def test_side_information_monotonicity(self, hamming2):
        # removing side information at the first decoder cannot lower the rate
        src = crrd.build_erased_source(BinaryErasureSpec(0.5, 0.35))
        blind = crrd.JointSource(src.mass.sum(axis=1, keepdims=True))
        pair = DistortionPair(0.15, 0.1)
        with_y1, _ = grid_oracle_hb_cr(src, hamming2, hamming2, pair, step=0.05)
        without_y1, _ = grid_oracle_hb_cr(blind, hamming2, hamming2, pair, step=0.05)
        assert without_y1 >= with_y1 - 1e-9

    def test_causal_equivalence_independent_side_info(self, hamming2):
        # side information independent of the source buys nothing
        rng = np.random.default_rng(5)
        px = np.array([0.5, 0.5])
        py1 = rng.dirichlet(np.ones(2))
        py2 = rng.dirichlet(np.ones(2))
        indep = crrd.JointSource(np.einsum("i,j,k->ijk", px, py1, py2))
        none = crrd.JointSource((px[:, None, None] * np.ones((2, 1, 1))))
        pair = DistortionPair(0.2, 0.1)
        a, _ = grid_oracle_hb_cr(indep, hamming2, hamming2, pair, step=0.05)
        b, _ = grid_oracle_hb_cr(none, hamming2, hamming2, pair, step=0.05)
        assert a == pytest.approx(b, abs=1e-9)

    def test_exact_tie_takes_lexicographically_smallest_channel(self, erased_full,
                                                                 hamming2):
        # two grid channels attain the minimum with float-equal rates; the
        # witness is the lexicographically smaller, whatever the batch order
        _, wit = grid_oracle_hb_cr(erased_full, hamming2, hamming2,
                                   DistortionPair(0.1, 0.05), step=0.2)
        assert np.array_equal(wit.cond.reshape(2, 4), [[0.8, 0, 0.2, 0], [0, 0, 0, 1]])

    def test_determinism(self, erased_full, hamming2):
        pair = DistortionPair(0.2, 0.1)
        r1, w1 = grid_oracle_hb_cr(erased_full, hamming2, hamming2, pair, step=0.05)
        r2, w2 = grid_oracle_hb_cr(erased_full, hamming2, hamming2, pair, step=0.05)
        assert r1 == r2
        assert np.array_equal(w1.cond, w2.cond)


def _direct_feasible(source, metric1, metric2, pair, units):
    """Every budget-feasible grid channel, by a plain product over the slices."""
    m1, m2 = metric1.n_outputs, metric2.n_outputs
    d1 = np.repeat(metric1.matrix, m2, axis=1)
    d2 = np.tile(metric2.matrix, (1, m1))
    slices = []
    for x in range(source.nx):
        cells = np.flatnonzero(np.isfinite(d1[x]) & np.isfinite(d2[x]))
        rows = np.zeros((math.comb(units + cells.size - 1, cells.size - 1), m1 * m2))
        rows[:, cells] = simplex_grid(units, cells.size) / units
        slices.append(rows)
    idx = np.indices([r.shape[0] for r in slices]).reshape(source.nx, -1)
    chans = np.stack([r[i] for r, i in zip(slices, idx)], axis=1)
    px = source.x_marginal()[:, None]
    e1 = np.einsum("bxc,xc->b", chans, px * np.where(np.isfinite(d1), d1, 0.0))
    e2 = np.einsum("bxc,xc->b", chans, px * np.where(np.isfinite(d2), d2, 0.0))
    ok = (e1 <= pair.d1 + 1e-12 * (1 + pair.d1)) & (e2 <= pair.d2 + 1e-12 * (1 + pair.d2))
    return chans[ok].reshape(-1, source.nx, m1, m2)


_ONE_SYMBOL = (crrd.JointSource(np.array([[[0.3, 0.2], [0.1, 0.4]]])),
               DistortionMetric(np.array([[0.0, 1.0]])),
               DistortionMetric(np.array([[0.5, 0.0]])), DistortionPair(0.7, 0.4))
_THREE_SYMBOLS = (crrd.JointSource(np.random.default_rng(3).dirichlet(np.ones(12))
                                   .reshape(3, 2, 2)),
                  DistortionMetric(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, np.inf]])),
                  DistortionMetric(np.array([[0.0, 1.0], [0.25, 0.0], [1.0, 0.5]])),
                  DistortionPair(0.3, 0.35))


class TestChannelBatches:
    @pytest.mark.parametrize("nx", [1, 2, 3])
    def test_batches_are_feasible_and_complete(self, nx, erased_full, hamming2,
                                               monkeypatch):
        instance = {1: _ONE_SYMBOL, 2: (erased_full, hamming2, hamming2,
                                        DistortionPair(0.3, 0.25)), 3: _THREE_SYMBOLS}[nx]
        monkeypatch.setattr(crrd.gridsearch, "SWEEP_BATCH", 7)
        batches = list(feasible_hb_channel_batches(*instance, step=0.25))
        assert max(b.shape[0] for b in batches) <= 7
        got = [c.tobytes() for b in batches for c in b]
        want = {c.tobytes() for c in _direct_feasible(*instance, units=4)}
        assert len(got) == len(set(got)), "a channel was enumerated twice"
        assert set(got) == want

    def test_guard_counts_feasible_channels(self, erased_full, hamming2):
        with pytest.raises(GuardExceededError):
            list(feasible_hb_channel_batches(erased_full, hamming2, hamming2,
                                             DistortionPair(0.5, 0.5), step=0.05,
                                             guard=100))


class TestSharedGrids:
    def test_mixed_cell_counts_match_direct_minimum(self):
        # slices of 4, 4 and 2 cells: one grid per cell count within the call.
        # At these budgets the minimizer is unique (the next channel is 1.1e-3
        # bits worse); at the instance's own budgets three channels tie in
        # exact arithmetic and rounding decides which one the oracle sees lowest
        source, metric1, metric2, _ = _THREE_SYMBOLS
        pair = DistortionPair(0.5, 0.5)
        rate, wit = grid_oracle_hb_cr(source, metric1, metric2, pair, step=0.25)
        chans = _direct_feasible(source, metric1, metric2, pair, units=4)
        vals = np.array([eval_hb_cr_objective(source, crrd.TestChannel(c)) for c in chans])
        assert rate == pytest.approx(vals.min(), abs=1e-12)
        tied = [tuple(c.reshape(-1)) for c in chans[vals <= vals.min() + 1e-12]]
        assert tuple(wit.cond.reshape(-1)) == min(tied)


class TestBatchMemory:
    def test_objective_batch_shrinks_with_cell_count(self):
        # X uniform binary, no side information, 16 reconstruction cells
        # (8 allowed per symbol): 1,123,980 feasible channels at step 1/6,
        # so a batch of 2,000,000 would hold them all at once
        source = crrd.JointSource(np.full((2, 1, 1), 0.5))
        metric1 = DistortionMetric(np.array([[0, 0, np.inf, np.inf],
                                             [np.inf, np.inf, 0, 1]]))
        metric2 = DistortionMetric(np.array([[0.0, 0, 0, 0], [1, 0, 1, 0]]))
        tracemalloc.start()
        try:
            rate, _ = grid_oracle_hb_cr(source, metric1, metric2,
                                        DistortionPair(0.3, 0.3), step=1 / 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rate == pytest.approx(1.0, abs=1e-12)
        assert peak < 400 * 2**20   # 601 MiB with batches of 2,000,000
