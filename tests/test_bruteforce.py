import itertools

import numpy as np
import pytest

import crrd
from crrd import (
    ConRConstraint,
    DistortionMetric,
    DistortionPair,
    FinitePmf,
    GuardExceededError,
    InfeasibleBudgetError,
    brute_force_conr,
    brute_force_hb_nocr,
    brute_force_wz,
    grid_oracle_hb_cr,
    grid_oracle_point_cr,
)
from crrd.measures import GridTerms
from conftest import random_source

RCR_B_01 = 0.18585154224375156
RT_B_01005 = 0.5949139291763825
DSBS_01_MI = 0.5310044064107188


def erased_pair_pmf(p):
    mass = np.zeros((2, 3))
    for x in range(2):
        mass[x, x] = 0.5 * (1 - p)
        mass[x, 2] = 0.5 * p
    return FinitePmf(mass)


class TestWynerZiv:
    def test_lossless_corner_is_conditional_entropy(self):
        # D = 0 forces exact reconstruction: rate H(X|Y) = erasure prob
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        rate = brute_force_wz(pmf, m, 0.0, u_cap=2, step=0.05)
        assert rate == pytest.approx(0.35, abs=1e-9)

    def test_never_above_cr_rate(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        rate = brute_force_wz(pmf, m, 0.1, u_cap=2, step=0.05)
        assert rate <= RCR_B_01 + 1e-3

    def test_useless_side_information(self):
        # independent Y: both solvers land on the no-side-info rate exactly
        # (the budget 0.1 and the optimal crossover channel live on the grid)
        mass = np.outer([0.5, 0.5], [0.7, 0.3])
        pmf = FinitePmf(mass)
        m = DistortionMetric.hamming(2)
        wz = brute_force_wz(pmf, m, 0.1, u_cap=2, step=0.05)
        point = grid_oracle_point_cr(pmf, m, 0.1, step=0.05)
        assert wz == pytest.approx(DSBS_01_MI, abs=1e-9)
        assert point == pytest.approx(DSBS_01_MI, abs=1e-9)

    def test_trivial_budget(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        assert brute_force_wz(pmf, m, 0.5, u_cap=2, step=0.1) == 0.0

    def test_infeasible(self):
        pmf = erased_pair_pmf(0.35)
        floor = DistortionMetric(np.array([[0.2, 1.0], [1.0, 0.2]]))
        with pytest.raises(InfeasibleBudgetError):
            brute_force_wz(pmf, floor, 0.1, u_cap=2, step=0.1)

    def test_guard(self):
        pmf = erased_pair_pmf(0.35)
        m = DistortionMetric.hamming(2)
        with pytest.raises(GuardExceededError):
            brute_force_wz(pmf, m, 0.1, u_cap=6, step=0.02, guard=10_000)


class TestHbNoCr:
    def test_trivial_budgets(self, erased_full, hamming2):
        assert brute_force_hb_nocr(erased_full, hamming2, hamming2,
                                   DistortionPair(0.5, 0.5), step=0.1) == 0.0

    def test_never_above_cr(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        nocr = brute_force_hb_nocr(erased_full, hamming2, hamming2, pair, step=0.05)
        cr, _ = grid_oracle_hb_cr(erased_full, hamming2, hamming2, pair, step=0.05)
        assert nocr <= cr + 1e-12
        assert nocr <= RT_B_01005 + 1e-3

    def test_blind_decoder_reuses_first_layer(self, erased_full, hamming2):
        # at (0.1, 0.05) the second decoder can reuse the first layer, so
        # the relaxed problem collapses to the single-decoder rate 1 - H(0.1)
        rate = brute_force_hb_nocr(erased_full, hamming2, hamming2,
                                   DistortionPair(0.1, 0.05), step=0.05)
        assert rate == pytest.approx(DSBS_01_MI, abs=1e-9)

    def test_perfect_side_information(self, hamming2):
        mass = np.zeros((2, 2, 2))
        mass[0, 0, 0] = 0.5
        mass[1, 1, 1] = 0.5
        src = crrd.JointSource(mass)
        rate = brute_force_hb_nocr(src, hamming2, hamming2,
                                   DistortionPair(0.0, 0.0), step=0.1)
        assert rate == 0.0

    def test_ordering_on_random_instances(self, hamming2):
        rng = np.random.default_rng(42)
        for _ in range(3):
            src = random_source(rng)
            pair = DistortionPair(float(rng.uniform(0.1, 0.4)),
                                  float(rng.uniform(0.1, 0.4)))
            nocr = brute_force_hb_nocr(src, hamming2, hamming2, pair, step=0.1)
            cr, _ = grid_oracle_hb_cr(src, hamming2, hamming2, pair, step=0.1)
            assert nocr <= cr + 1e-9


@pytest.fixture()
def conr_zero():
    return ConRConstraint(0.0, 0.0, DistortionMetric.hamming(2),
                          DistortionMetric.hamming(2))


class TestConR:

    def test_zero_budget_recovers_cr(self, erased_full, hamming2, conr_zero):
        res = brute_force_conr(erased_full, hamming2, hamming2,
                               DistortionPair(0.1, 0.05), conr_zero,
                               u_caps=(2, 2), step=0.05)
        assert res.rate == pytest.approx(RT_B_01005, abs=1e-2)
        assert not res.heuristic
        assert res.map_counts == (64, 64)

    def test_vacuous_budget_recovers_nocr(self, erased_full, hamming2):
        conr = ConRConstraint(1.0, 1.0, DistortionMetric.hamming(2),
                              DistortionMetric.hamming(2))
        pair = DistortionPair(0.1, 0.05)
        res = brute_force_conr(erased_full, hamming2, hamming2, pair, conr,
                               u_caps=(2, 2), step=0.05)
        nocr = brute_force_hb_nocr(erased_full, hamming2, hamming2, pair, step=0.05)
        assert res.rate == pytest.approx(nocr, abs=1e-12)

    def test_monotone_in_encoder_budget(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        rates = []
        for de in (0.0, 0.05, 0.15, 0.5):
            conr = ConRConstraint(de, de, DistortionMetric.hamming(2),
                                  DistortionMetric.hamming(2))
            rates.append(brute_force_conr(erased_full, hamming2, hamming2, pair,
                                          conr, u_caps=(2, 2), step=0.05).rate)
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_heuristic_flag_on_reduced_maps(self, erased_full, hamming2, conr_zero):
        res = brute_force_conr(erased_full, hamming2, hamming2,
                               DistortionPair(0.1, 0.05), conr_zero,
                               u_caps=(2, 2), step=0.05, map_budget=10)
        assert res.heuristic
        full = brute_force_conr(erased_full, hamming2, hamming2,
                                DistortionPair(0.1, 0.05), conr_zero,
                                u_caps=(2, 2), step=0.05)
        # restricted map set can only shrink the feasible set
        assert res.rate >= full.rate - 1e-12

    def test_counts_describe_enumerated_maps(self, erased_full, hamming2, conr_zero):
        # dominated maps are dropped before the scan (64 -> 4 and 16 here),
        # but the reported counts and flag describe the enumerated map set
        undominated = [
            _ref_dominated(_ref_map_tables(p_xy, hamming2.matrix, hamming2.matrix,
                                           _ref_maps(2, 3, 2))).count(False)
            for p_xy in (erased_full.xy1_marginal(), erased_full.xy2_marginal())]
        assert undominated == [4, 16]
        pair = DistortionPair(0.1, 0.05)
        full = brute_force_conr(erased_full, hamming2, hamming2, pair, conr_zero,
                                u_caps=(2, 2), step=0.1)
        assert full.map_counts == (64, 64) and not full.heuristic
        reduced = brute_force_conr(erased_full, hamming2, hamming2, pair, conr_zero,
                                   u_caps=(2, 2), step=0.1, map_budget=10)
        assert reduced.map_counts == (10, 10) and reduced.heuristic

    def test_infeasible(self, erased_full, hamming2, conr_zero):
        floor = DistortionMetric(np.array([[0.2, 1.0], [1.0, 0.2]]))
        with pytest.raises(InfeasibleBudgetError):
            brute_force_conr(erased_full, floor, hamming2,
                             DistortionPair(0.1, 0.5), conr_zero,
                             u_caps=(2, 2), step=0.1)


class TestInstanceValidation:
    """Every relaxed solver validates its instance through `CRProblem`."""

    @pytest.mark.parametrize("wrong", [0, 1], ids=["metric1", "metric2"])
    def test_metric_rows_must_match_source(self, erased_full, hamming2, wrong):
        metrics = [hamming2, hamming2]
        metrics[wrong] = DistortionMetric.hamming(3)
        conr = ConRConstraint(0.1, 0.1, *(DistortionMetric.hamming(m.n_outputs)
                                          for m in metrics))
        pair = DistortionPair(0.2, 0.1)
        with pytest.raises(crrd.ShapeMismatchError):
            brute_force_hb_nocr(erased_full, *metrics, pair, step=0.25)
        with pytest.raises(crrd.ShapeMismatchError):
            brute_force_conr(erased_full, *metrics, pair, conr, step=0.25)

    def test_caps_checked_before_zero_rate(self, erased_full, hamming2):
        loose = DistortionPair(1.0, 1.0)
        with pytest.raises(crrd.InvalidSpecError):
            brute_force_hb_nocr(erased_full, hamming2, hamming2, loose, u_caps=(0, 2))
        with pytest.raises(crrd.InvalidSpecError):
            brute_force_wz(erased_pair_pmf(0.35), hamming2, 1.0, u_cap=0, step=0.5)

    def test_point_problems_need_two_axes(self, erased_full, hamming2):
        with pytest.raises(crrd.InvalidSpecError):
            brute_force_wz(erased_full.pmf, hamming2, 0.1, u_cap=2, step=0.5)
        with pytest.raises(crrd.InvalidSpecError):
            grid_oracle_point_cr(erased_full.pmf, hamming2, 0.1, step=0.5)

    def test_conr_maps_wait_for_the_guard(self, erased_full, hamming2, conr_zero,
                                          monkeypatch):
        def enumerate_maps(*args):
            raise AssertionError("decoder maps enumerated before the guard check")
        monkeypatch.setattr(crrd.bruteforce, "_decoder_maps", enumerate_maps)
        with pytest.raises(GuardExceededError):
            brute_force_conr(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                             conr_zero, guard=1)


def test_solvers_stay_literal_on_reversed_sources(hamming2):
    # the erased source (0.6, 0.1) with its Y axes swapped: X - Y1 - Y2.  The
    # solver minimizes the fixed-order objective, below decoder 2's Wyner-Ziv
    # floor 0.6 (1 - h(0.1 / 0.6)); with the roles swapped (what the CLI
    # does) it is back above it
    erased = crrd.build_erased_source(crrd.BinaryErasureSpec(0.6, 0.1))
    reversed_src = crrd.JointSource(erased.mass.transpose(0, 2, 1))
    floor = 0.6 * (1 - crrd.binary_entropy(0.1 / 0.6))
    pair = DistortionPair(0.1, 0.1)
    literal = brute_force_hb_nocr(reversed_src, hamming2, hamming2, pair, step=0.05)
    swapped = brute_force_hb_nocr(erased, hamming2, hamming2, pair, step=0.05)
    assert literal < floor - 0.1
    assert swapped >= floor - 1e-12


# --------------------------------------------------------------------------
# Reference solvers for the block-feasibility tests: channels enumerated with
# itertools.product, decoder maps picked cell by cell (ConR: every map), and
# information measures taken straight from the joint pmf per channel.

_TOL = 1e-9


def _ref_channels(nx: int, cells: int, step: float) -> np.ndarray:
    """(C, nx, cells): every product of grid pmfs, one per source symbol."""
    units = round(1 / step)
    rows = np.array([r for r in itertools.product(range(units + 1), repeat=cells)
                     if sum(r) == units], dtype=float) / units
    picks = np.array(list(itertools.product(range(len(rows)), repeat=nx)))
    return rows[picks]


def _ref_entropy(p: np.ndarray, keep: set[int]) -> np.ndarray:
    """Entropy in bits of the marginal on axes `keep` (axis 0 is the channel)."""
    drop = tuple(i for i in range(1, p.ndim) if i not in keep)
    m = p.sum(axis=drop).reshape(p.shape[0], -1)
    return -(m * np.log2(np.where(m > 0, m, 1.0))).sum(axis=1)


def _ref_cmi(p: np.ndarray, a: set[int], b: set[int], c: set[int]) -> np.ndarray:
    return (_ref_entropy(p, a | c) + _ref_entropy(p, b | c) - _ref_entropy(p, a | b | c)
            - (_ref_entropy(p, c) if c else 0.0))


def _ref_cell_costs(p_xy: np.ndarray, q_u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(C, nu, ny, m): sum_x p(x,y) q(u|x) d(x, k) per (u, y) cell and
    reconstruction k, +inf where a forbidden pair has positive weight."""
    w = p_xy[None, :, :, None] * q_u[:, :, None, :]            # (C, x, y, u)
    with np.errstate(invalid="ignore"):
        terms = np.where(w[..., None] > 0,
                         w[..., None] * d[None, :, None, None, :], 0.0)
    return terms.sum(axis=1).transpose(0, 2, 1, 3)


def _ref_best_map_distortion(p_xy, q_u, d) -> np.ndarray:
    return _ref_cell_costs(p_xy, q_u, d).min(axis=3).sum(axis=(1, 2))


def _ref_min_rate(rate: np.ndarray, feasible: np.ndarray) -> float:
    return max(0.0, float(rate[feasible].min())) if feasible.any() else np.inf


def _ref_hb(source, caps, step):
    """HB-objective per channel and the (x, y, u) marginal channels per side."""
    nu1, nu2 = caps
    q = _ref_channels(source.nx, nu1 * nu2, step).reshape(-1, source.nx, nu1, nu2)
    joint = (source.mass[None, :, :, :, None, None]
             * q[:, :, None, None, :, :])                      # (C, x, y1, y2, u1, u2)
    rate = _ref_cmi(joint, {1}, {4}, {2}) + _ref_cmi(joint, {1}, {5}, {3, 4})
    return rate, q.sum(axis=3), q.sum(axis=2)


def _ref_maps(nu: int, ny: int, m: int) -> list[np.ndarray]:
    return [np.array(f).reshape(nu, ny)
            for f in itertools.product(range(m), repeat=nu * ny)]


def _ref_map_tables(p_xy, d, d_e, maps):
    """Per map, the (u, x) tables of decoder distortion sum_y p(x,y) d(x, f(u,y))
    and best encoder-side distortion p(x) min_v E[d_e(f(u,Y), v) | x]."""
    px = p_xy.sum(axis=1)
    out = []
    for f in maps:
        nu, ny = f.shape
        cd = np.zeros((nu, len(px)))
        ce = np.zeros((nu, len(px)))
        for u in range(nu):
            for x in range(len(px)):
                live = p_xy[x] > 0
                cd[u, x] = (np.inf if not np.isfinite(d[x, f[u, live]]).all()
                            else float(p_xy[x, live] @ d[x, f[u, live]]))
                ce[u, x] = min(float(p_xy[x, live] @ d_e[f[u, live], v])
                               for v in range(d_e.shape[1]))
        out.append((cd, ce))
    return out


def _ref_dominated(tables) -> list[bool]:
    """Per map: some other map's tables are entrywise <= its own (of exact
    duplicates, all but the first count as dominated)."""
    def le(a, b):
        return bool((a[0] <= b[0]).all() and (a[1] <= b[1]).all())
    return [any(j != i and le(tj, ti) and (j < i or not le(ti, tj))
                for j, tj in enumerate(tables)) for i, ti in enumerate(tables)]


def _ref_conr_side(p_xy, q_u, d, d_e, budget, e_budget):
    """(C,) bool: some decoder map meets the decoder budget together with the
    best encoder map's budget."""
    nu, ny = q_u.shape[2], p_xy.shape[1]
    costs = _ref_cell_costs(p_xy, q_u, d)                     # (C, nu, ny, m)
    px = p_xy.sum(axis=1)
    feasible = np.zeros(q_u.shape[0], dtype=bool)
    for f in _ref_maps(nu, ny, d.shape[1]):
        ed = sum(costs[:, u, y, f[u, y]] for u in range(nu) for y in range(ny))
        enc = np.array([[min(sum(p_xy[x, y] / px[x] * d_e[f[u, y], v] for y in range(ny))
                             for v in range(d_e.shape[1])) for x in range(len(px))]
                        for u in range(nu)])                  # (nu, nx)
        ee = np.tensordot(q_u, px[:, None] * enc.T, axes=([1, 2], [0, 1]))
        feasible |= (ed <= budget + _TOL) & (ee <= e_budget + _TOL)
    return feasible


def _ref_nocr_feasible(source, metric, q1, q2, pair) -> np.ndarray:
    """(C,) bool: the best decoder maps meet both budgets."""
    return ((_ref_best_map_distortion(source.xy1_marginal(), q1, metric.matrix)
             <= pair.d1 + _TOL)
            & (_ref_best_map_distortion(source.xy2_marginal(), q2, metric.matrix)
               <= pair.d2 + _TOL))


def _erasure_metric(nx: int) -> DistortionMetric:
    """Outputs 0..nx-1 (exact, other symbols forbidden) plus an erasure at cost 1."""
    m = np.full((nx, nx + 1), np.inf)
    m[np.arange(nx), np.arange(nx)] = 0.0
    m[:, nx] = 1.0
    return DistortionMetric(m)


#: Per |X|: the seed of `_zero_cell_source` and a budget pair at which the
#: ConR bound at de = 0 lies above the no-CR bound (|X| = 2, 3) at both steps.
_BLOCK_CASES = {1: (0, DistortionPair(0.4, 0.3)),
                2: (11, DistortionPair(0.4, 0.3)),
                3: (8, DistortionPair(0.7, 0.6))}


def _zero_cell_source(nx: int, seed: int) -> crrd.JointSource:
    """Random p(x, y1, y2) with zero-mass (x, y1) and (x, y2) cells."""
    mass = np.random.default_rng(seed).dirichlet(np.full(nx * 4, 0.5)).reshape(nx, 2, 2)
    mass[0, 1, :] = 0.0
    mass[-1, :, 0] = 0.0
    return crrd.JointSource(mass / mass.sum())


def _rate_or_inf(solve) -> float:
    try:
        res = solve()
    except InfeasibleBudgetError:
        return np.inf
    return res.rate if isinstance(res, crrd.ConRResult) else res


@pytest.mark.parametrize("step", [0.25, 0.5])
@pytest.mark.parametrize("nx", [1, 2, 3])
class TestBlockFeasibility:
    """The orbit walk and the block cascade against unreduced per-channel
    references (every channel of the `itertools.product` grid), |X| = 1, 2, 3."""

    @pytest.mark.parametrize("u_cap", [1, 2, 3])
    def test_wz(self, nx, step, u_cap):
        seed, pair = _BLOCK_CASES[nx]
        src = _zero_cell_source(nx, seed)
        metric = _erasure_metric(nx)
        p_xy = src.xy1_marginal()
        q = _ref_channels(nx, u_cap, step)
        rate = _ref_cmi(p_xy[None, :, :, None] * q[:, :, None, :], {1}, {3}, {2})
        distortion = _ref_best_map_distortion(p_xy, q, metric.matrix)
        for d in (0.0, 0.05, pair.d2 / 2, pair.d2, pair.d1):
            got = _rate_or_inf(lambda: brute_force_wz(FinitePmf(p_xy), metric, d,
                                                      u_cap=u_cap, step=step))
            assert got == pytest.approx(_ref_min_rate(rate, distortion <= d + _TOL),
                                        abs=1e-12)

    @pytest.mark.parametrize("caps", [(2, 2), (1, 3), (3, 2)])
    def test_hb_nocr(self, nx, step, caps):
        if nx == 3 and caps == (3, 2):
            step = 0.5                         # 126 ** 3 channels at step 0.25
        seed, base = _BLOCK_CASES[nx]
        src = _zero_cell_source(nx, seed)
        metric = _erasure_metric(nx)
        rate, q1, q2 = _ref_hb(src, caps, step)
        for pair in (base, DistortionPair(base.d2, base.d1), DistortionPair(0.05, 0.02)):
            feasible = _ref_nocr_feasible(src, metric, q1, q2, pair)
            got = _rate_or_inf(lambda: brute_force_hb_nocr(src, metric, metric, pair,
                                                           u_caps=caps, step=step))
            assert got == pytest.approx(_ref_min_rate(rate, feasible), abs=1e-12)

    def test_conr(self, nx, step):
        seed, pair = _BLOCK_CASES[nx]
        src = _zero_cell_source(nx, seed)
        metric = _erasure_metric(nx)
        metric_e = DistortionMetric.hamming(nx + 1)
        rate, q1, q2 = _ref_hb(src, (2, 2), step)
        sides = ((src.xy1_marginal(), q1), (src.xy2_marginal(), q2))
        # the map sets hold dominated maps, which the solver drops
        assert any(any(_ref_dominated(_ref_map_tables(p_xy, metric.matrix, metric_e.matrix,
                                                      _ref_maps(2, p_xy.shape[1], nx + 1))))
                   for p_xy, _ in sides)
        for de in (0.0, 0.25):
            feasible = np.ones(rate.size, dtype=bool)
            for (p_xy, q_u), d in zip(sides, (pair.d1, pair.d2)):
                feasible &= _ref_conr_side(p_xy, q_u, metric.matrix, metric_e.matrix,
                                           d, de)
            conr = ConRConstraint(de, de, metric_e, metric_e)
            got = _rate_or_inf(lambda: brute_force_conr(src, metric, metric, pair,
                                                        conr, u_caps=(2, 2), step=step))
            assert got == pytest.approx(_ref_min_rate(rate, feasible), abs=_TOL)



def _rate_and_channels(solve) -> tuple[float, list[tuple[int, ...]]]:
    """The solver's rate and the sorted grid channels it evaluated."""
    seen = []
    evaluate = GridTerms.eval

    def record(self, idx):
        seen.append(np.stack(idx, axis=1))
        return evaluate(self, idx)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GridTerms, "eval", record)
        rate = _rate_or_inf(solve)
    return rate, sorted(map(tuple, np.concatenate(seen).tolist())) if seen else []


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_small_blocks_split_both_axes(nx, monkeypatch):
    # 7 channels per block at step 0.5 (6 to 21 rows per slice): prefix
    # chunks of one row and last-slice runs of up to seven, so every kind
    # of block boundary is crossed, and the later tests (ConR's second side
    # included) see short survivor runs; the same channels reach the objective
    seed, pair = _BLOCK_CASES[nx]
    src = _zero_cell_source(nx, seed)
    metric = _erasure_metric(nx)
    metric_e = DistortionMetric.hamming(nx + 1)
    conr = ConRConstraint(0.0, 0.0, metric_e, metric_e)
    loose = ConRConstraint(0.25, 0.25, metric_e, metric_e)
    solves = (
        lambda: brute_force_wz(FinitePmf(src.xy1_marginal()), metric, pair.d2,
                               u_cap=3, step=0.5),
        lambda: brute_force_hb_nocr(src, metric, metric, pair, step=0.5),
        lambda: brute_force_hb_nocr(src, metric, metric, pair, u_caps=(3, 2), step=0.5),
        lambda: brute_force_conr(src, metric, metric, pair, conr, step=0.5),
        lambda: brute_force_conr(src, metric, metric, pair, loose, step=0.5),
        lambda: brute_force_conr(src, metric, metric, pair, loose, u_caps=(1, 3),
                                 step=0.5, map_budget=10))
    whole = [_rate_and_channels(solve) for solve in solves]
    assert any(seen for _, seen in whole[3:])
    monkeypatch.setattr(crrd.bruteforce, "BATCH", 7)
    assert [_rate_and_channels(solve) for solve in solves] == whole


# --------------------------------------------------------------------------
# The orbit walk visits only channels whose slice-0 row has nonincreasing U1
# and U2 marginals; every relabeling orbit must keep a member.

def _ref_units(cells: int, units: int) -> list[tuple[int, ...]]:
    """Grid rows in integer units, in lexicographic order."""
    return [r for r in itertools.product(range(units + 1), repeat=cells) if sum(r) == units]


def _relabelings(row: tuple[int, ...], caps: tuple[int, int]) -> list[tuple[int, ...]]:
    """The row under every permutation of the U1 labels and of the U2 labels,
    in a fixed order of the permutations."""
    table = np.reshape(row, caps)
    return [tuple(table[np.ix_(p1, p2)].ravel().tolist())
            for p1 in itertools.permutations(range(caps[0]))
            for p2 in itertools.permutations(range(caps[1]))]


def _nonincreasing_marginals(row: tuple[int, ...], caps: tuple[int, int]) -> bool:
    table = np.reshape(row, caps)
    return all((np.diff(table.sum(axis=axis)) <= 0).all() for axis in (1, 0))


def _tied_marginals(row: tuple[int, ...], caps: tuple[int, int]) -> bool:
    table = np.reshape(row, caps)
    return any(len(set(m)) < len(m) for m in (table.sum(axis=1).tolist(),
                                               table.sum(axis=0).tolist()))


@pytest.mark.parametrize("step", [0.25, 0.5])
@pytest.mark.parametrize("caps", [(2, 2), (1, 3), (3, 2), (3, 1)])
def test_every_grid_row_has_a_canonical_relabeling(caps, step):
    rows, canonical = crrd.bruteforce._u_grid(1, caps, step, guard=10**6)
    units = round(1 / step)
    ref = _ref_units(caps[0] * caps[1], units)
    assert np.rint(rows * units).astype(int).tolist() == [list(r) for r in ref]
    kept = {ref[i] for i in canonical}
    # every row with nonincreasing marginals stays, so tied rows keep all
    # their canonical relabelings
    assert kept == {r for r in ref if _nonincreasing_marginals(r, caps)}
    assert all(kept.intersection(_relabelings(r, caps)) for r in ref)


def test_canonical_row_counts():
    _, canonical = crrd.bruteforce._u_grid(2, (2, 2), 0.05, guard=10**7)
    assert canonical.size == 506          # of 1,771
    _, canonical = crrd.bruteforce._u_grid(2, (3, 1), 0.025, guard=10**7)
    assert canonical.size == 154          # of 861
    # tied marginals: both labelings of the half-half row stay
    rows, canonical = crrd.bruteforce._u_grid(1, (2, 2), 0.5, guard=10**6)
    kept = rows[canonical].tolist()
    assert [0.5, 0.0, 0.0, 0.5] in kept and [0.0, 0.5, 0.5, 0.0] in kept


def test_guard_counts_the_full_product():
    # the walk visits 154 * 861 channels, but the guard sees 861 ** 2
    pmf = erased_pair_pmf(0.35)
    m = DistortionMetric.hamming(2)
    with pytest.raises(GuardExceededError) as info:
        brute_force_wz(pmf, m, 0.1, u_cap=3, step=0.025, guard=861 ** 2 - 1)
    assert (info.value.count, info.value.guard) == (861 ** 2, 861 ** 2 - 1)


def _relabeled_channels(channel: tuple[int, ...], rows: list[tuple[int, ...]],
                        caps: tuple[int, int]) -> set[tuple[int, ...]]:
    """Row indices of the channel under every joint relabeling of its slices."""
    index = {row: i for i, row in enumerate(rows)}
    return set(zip(*([index[r] for r in _relabelings(rows[i], caps)] for i in channel)))


@pytest.mark.parametrize("caps", [(2, 2), (1, 3), (3, 2), (3, 1)])
def test_visited_channels_cover_every_feasible_orbit(caps):
    # the objective sees exactly the feasible channels with a canonical
    # slice-0 row (ties included), and they meet every feasible orbit
    nx, step = 2, 0.5
    src = _zero_cell_source(nx, _BLOCK_CASES[nx][0])
    metric = _erasure_metric(nx)
    if caps[1] == 1:
        p_xy = src.xy1_marginal()
        q = _ref_channels(nx, caps[0], step)
        feasible = _ref_best_map_distortion(p_xy, q, metric.matrix) <= 0.3 + _TOL
        solve = lambda: brute_force_wz(FinitePmf(p_xy), metric, 0.3, u_cap=caps[0],  # noqa: E731
                                       step=step)
    else:
        pair = DistortionPair(0.6, 0.5)
        _, q1, q2 = _ref_hb(src, caps, step)
        feasible = _ref_nocr_feasible(src, metric, q1, q2, pair)
        solve = lambda: brute_force_hb_nocr(src, metric, metric, pair,  # noqa: E731
                                            u_caps=caps, step=step)
    rows = _ref_units(caps[0] * caps[1], round(1 / step))
    picks = list(itertools.product(range(len(rows)), repeat=nx))
    feasible_set = {c for c, ok in zip(picks, feasible) if ok}
    _, seen = _rate_and_channels(solve)
    visited = set(seen)
    assert len(visited) == len(seen)
    assert visited == {c for c in feasible_set if _nonincreasing_marginals(rows[c[0]], caps)}
    assert any(_tied_marginals(rows[c[0]], caps) for c in visited)
    assert all(_relabeled_channels(c, rows, caps) & visited for c in feasible_set)
    assert len(feasible_set) > len(visited) > 0
