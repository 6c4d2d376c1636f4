import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crrd
from crrd import (
    BinaryErasureSpec,
    DistortionPair,
    InvalidSpecError,
    RatePoint,
    SamplerConfig,
    TestChannel,
    binary_hb_test_channel,
    cascade_bounds_xy2y1,
    cascade_region_xy1y2,
    compose_joint,
    conditional_mutual_information,
    coop_region_xy1y2,
    coop_region_xy2y1,
    dominance_filter,
)
from crrd import regions
from conftest import bsc_chain_source, random_channel

RT_B_01005 = 0.5949139291763825
RCR_B2_005 = 0.2497610650094153


class TestDominanceFilter:
    @given(st.lists(st.tuples(st.floats(0, 2), st.floats(0, 2)), max_size=30))
    @settings(max_examples=60)
    def test_antichain_sorted_idempotent(self, raw):
        pts = [RatePoint(r1, r2) for r1, r2 in raw]
        out = dominance_filter(pts)
        assert list(out) == sorted(out, key=lambda p: p.r1)
        for a in out:
            for b in out:
                if a is b:
                    continue
                assert not (a.r1 <= b.r1 and a.r2 <= b.r2)
        assert dominance_filter(out) == out

    def test_drops_dominated_keeps_incomparable(self):
        pts = [RatePoint(1.0, 0.5), RatePoint(0.0, 1.0), RatePoint(1.1, 0.6),
               RatePoint(0.9, 0.9)]
        out = dominance_filter(pts)
        assert {(p.r1, p.r2) for p in out} == {(1.0, 0.5), (0.0, 1.0), (0.9, 0.9)}


class TestLowerBoundary:
    """The array boundary equals dominance_filter over every point."""

    @staticmethod
    def _cloud(rng):
        # few distinct r1 values, so equal r1 is common; r2 values sit on
        # ladders with steps of 0.5e-15, 1e-15 and 2e-15 around the
        # filter's 1e-15 tolerance; the last batch repeats the first
        r1_vals = rng.uniform(0.0, 1.0, size=5)
        base = rng.uniform(0.1, 1.0, size=2)
        r2_vals = np.concatenate([
            base + 1e-15 * k for k in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)] + [[0.0]])
        batches = []
        for k in range(int(rng.integers(1, 5))):
            n = int(rng.integers(0, 30))
            r1 = rng.choice(r1_vals, size=n)
            r2 = rng.choice(r2_vals, size=n)
            batches.append((r1, r2, f"batch{k}"))
        batches.append((batches[0][0].copy(), batches[0][1].copy(), "copy"))
        return batches

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_dominance_filter(self, seed):
        batches = self._cloud(np.random.default_rng(seed))
        points = [RatePoint(float(a), float(b), prov)
                  for r1, r2, prov in batches for a, b in zip(r1, r2)]
        assert regions._lower_boundary(batches) == dominance_filter(points)

    def test_no_points(self):
        assert regions._lower_boundary([]) == ()
        assert regions._lower_boundary([(np.empty(0), np.empty(0), "grid")]) == ()

    def test_first_of_duplicates_keeps_provenance(self):
        r = np.array([0.5])
        got = regions._lower_boundary([(r, r, "a"), (r, r.copy(), "b")])
        assert got == (RatePoint(0.5, 0.5, "a"),)


def _direct_coop_points(src, m, pair, step):
    """Independent slow enumeration of the cooperative bounds."""
    from crrd.gridsearch import simplex_grid
    k = int(round(1 / step))
    rows = simplex_grid(k, 4).astype(float) / k
    d1 = rows @ np.array([0, 0, 1, 1.0])
    d2 = rows @ np.array([0, 1, 0, 1.0])
    d1f = rows @ np.array([1, 1, 0, 0.0])
    d2f = rows @ np.array([1, 0, 1, 0.0])
    pts = []
    for i in range(rows.shape[0]):
        for j in range(rows.shape[0]):
            e1 = 0.5 * d1[i] + 0.5 * d1f[j]
            e2 = 0.5 * d2[i] + 0.5 * d2f[j]
            if e1 > pair.d1 + 1e-12 or e2 > pair.d2 + 1e-12:
                continue
            ch = TestChannel(np.stack([rows[i].reshape(2, 2), rows[j].reshape(2, 2)]))
            joint = compose_joint(src, ch)
            fa = conditional_mutual_information(joint, (0,), (3, 4), (1,))
            fb = (conditional_mutual_information(joint, (0,), (4,), (2,))
                  + conditional_mutual_information(joint, (0,), (3,), (1, 4)))
            pts.append(RatePoint(fa, max(0.0, fb - fa)))
    return dominance_filter(pts)


class TestCoopChainXY1Y2:
    def test_matches_direct_enumeration(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        pair = DistortionPair(0.2, 0.3)
        cfg = SamplerConfig(method="grid", step=0.25)
        region = coop_region_xy1y2(src, hamming2, hamming2, pair, cfg)
        direct = _direct_coop_points(src, hamming2, pair, 0.25)
        got = [(round(p.r1, 9), round(p.r2, 9)) for p in region.points]
        want = [(round(p.r1, 9), round(p.r2, 9)) for p in direct]
        assert got == want

    def test_constant_second_reconstruction_collapses(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        cond = np.zeros((2, 2, 2))
        cond[0, 0, 0] = 1.0
        cond[1, 1, 0] = 1.0   # xhat2 constant, xhat1 = x
        ch = TestChannel(cond)
        pair = DistortionPair(0.0, 0.5)
        cfg = SamplerConfig(method="grid", step=0.5, seed_channels=(ch,))
        region = coop_region_xy1y2(src, hamming2, hamming2, pair, cfg)
        joint = compose_joint(src, ch)
        want_r1 = conditional_mutual_information(joint, (0,), (3,), (1,))
        assert any(abs(p.r1 - want_r1) < 1e-9 and p.r2 == 0.0 for p in region.points)

    def test_wrong_chain_rejected(self, erased_full, hamming2):
        with pytest.raises(InvalidSpecError):
            coop_region_xy1y2(erased_full, hamming2, hamming2, DistortionPair(0.2, 0.2))

    def test_independent_y2_drops_from_sum_bound(self, hamming2):
        # Y2 independent of everything: conditioning on it changes nothing
        rng = np.random.default_rng(31)
        p_xy1 = rng.dirichlet(np.ones(4)).reshape(2, 2)
        py2 = np.array([0.4, 0.6])
        src = crrd.JointSource(p_xy1[:, :, None] * py2[None, None, :])
        ch = TestChannel(np.stack([rng.dirichlet(np.ones(4)).reshape(2, 2)
                                   for _ in range(2)]))
        joint = compose_joint(src, ch)
        with_y2 = (conditional_mutual_information(joint, (0,), (4,), (2,))
                   + conditional_mutual_information(joint, (0,), (3,), (1, 4)))
        without = (conditional_mutual_information(joint, (0,), (4,))
                   + conditional_mutual_information(joint, (0,), (3,), (1, 4)))
        assert with_y2 == pytest.approx(without, abs=1e-10)


class TestCoopChainXY2Y1:
    def test_half_plane_with_unbounded_marker(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        cfg = SamplerConfig(method="grid", step=0.05)
        region = coop_region_xy2y1(erased_full, hamming2, hamming2, pair, cfg)
        assert region.unbounded == ("r2",)
        assert len(region.points) == 1
        assert region.points[0].r2 == 0.0
        assert region.points[0].r1 == pytest.approx(RT_B_01005, abs=5e-3)

    def test_trivial_budgets(self, erased_full, hamming2):
        cfg = SamplerConfig(method="grid", step=0.1)
        region = coop_region_xy2y1(erased_full, hamming2, hamming2,
                                   DistortionPair(0.5, 0.5), cfg)
        assert region.points[0].r1 == 0.0

    def test_wrong_chain_rejected(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        with pytest.raises(InvalidSpecError):
            coop_region_xy2y1(src, hamming2, hamming2, DistortionPair(0.2, 0.2))


class TestCascadeChainXY1Y2:
    def test_merged_reconstructions_point(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        cond = np.zeros((2, 2, 2))
        cond[0, 0, 0] = 1.0
        cond[1, 1, 1] = 1.0   # xhat1 = xhat2 = x
        ch = TestChannel(cond)
        cfg = SamplerConfig(method="grid", step=0.5, seed_channels=(ch,))
        region = cascade_region_xy1y2(src, hamming2, hamming2,
                                      DistortionPair(0.0, 0.0), cfg)
        joint = compose_joint(src, ch)
        want_r1 = conditional_mutual_information(joint, (0,), (3, 4), (1,))
        want_r2 = conditional_mutual_information(joint, (0,), (4,), (2,))
        assert any(abs(p.r1 - want_r1) < 1e-9 and abs(p.r2 - want_r2) < 1e-9
                   for p in region.points)

    def test_constant_second_reconstruction(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        cond = np.zeros((2, 2, 2))
        cond[0, 0, 0] = 1.0
        cond[1, 1, 0] = 1.0   # xhat1 = x, xhat2 constant
        ch = TestChannel(cond)
        cfg = SamplerConfig(method="grid", step=0.5, seed_channels=(ch,))
        region = cascade_region_xy1y2(src, hamming2, hamming2,
                                      DistortionPair(0.0, 0.5), cfg)
        joint = compose_joint(src, ch)
        want_r1 = conditional_mutual_information(joint, (0,), (3,), (1,))
        assert any(abs(p.r1 - want_r1) < 1e-9 and p.r2 == 0.0 for p in region.points)

    def test_boundary_antichain(self, hamming2):
        src = bsc_chain_source(0.15, 0.1)
        cfg = SamplerConfig(method="grid", step=0.25)
        region = cascade_region_xy1y2(src, hamming2, hamming2,
                                      DistortionPair(0.25, 0.35), cfg)
        assert len(region.points) >= 1
        assert dominance_filter(region.points) == region.points


class TestCascadeBoundsXY2Y1:
    def test_binary_instance_coincides(self, erased_full, hamming2):
        pair = DistortionPair(0.1, 0.05)
        wit = binary_hb_test_channel(pair, BinaryErasureSpec(1.0, 0.35))
        cfg = SamplerConfig(method="grid", step=0.05, seed_channels=(wit,))
        bounds = cascade_bounds_xy2y1(erased_full, hamming2, hamming2, pair, cfg)
        corner = bounds.outer.points[0]
        assert corner.r1 == pytest.approx(RT_B_01005, abs=5e-3)
        assert corner.r2 == pytest.approx(RCR_B2_005, abs=5e-3)
        assert 0.0 <= bounds.gap < 5e-3

    def test_trivial_budgets_gap_zero(self, erased_full, hamming2):
        cfg = SamplerConfig(method="grid", step=0.1)
        bounds = cascade_bounds_xy2y1(erased_full, hamming2, hamming2,
                                      DistortionPair(0.5, 0.5), cfg)
        assert bounds.outer.points[0].r1 == 0.0
        assert bounds.outer.points[0].r2 == 0.0
        assert bounds.gap == pytest.approx(0.0, abs=1e-12)

    def test_inner_points_dominated_by_none(self, erased_full, hamming2):
        pair = DistortionPair(0.2, 0.1)
        cfg = SamplerConfig(method="grid", step=0.1)
        bounds = cascade_bounds_xy2y1(erased_full, hamming2, hamming2, pair, cfg)
        assert dominance_filter(bounds.inner.points) == bounds.inner.points
        # inner is an achievable region: every point at least the outer corner
        oc = bounds.outer.points[0]
        for p in bounds.inner.points:
            assert p.r1 >= oc.r1 - 1e-9
            assert p.r2 >= oc.r2 - 1e-9

    def test_wrong_chain_rejected(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        with pytest.raises(InvalidSpecError):
            cascade_bounds_xy2y1(src, hamming2, hamming2, DistortionPair(0.2, 0.2))


class TestScalarizedSampler:
    def test_traces_cascade_boundary(self, hamming2):
        src = bsc_chain_source(0.1, 0.2)
        pair = DistortionPair(0.2, 0.3)
        grid_cfg = SamplerConfig(method="grid", step=0.1)
        sc_cfg = SamplerConfig(method="scalarize", n_weights=7, restarts=2, seed=0)
        grid_region = cascade_region_xy1y2(src, hamming2, hamming2, pair, grid_cfg)
        sc_region = cascade_region_xy1y2(src, hamming2, hamming2, pair, sc_cfg)
        # descent boundary should weakly improve on the coarse grid corner-wise:
        # compare the best sum-rate points
        best_grid = min(p.r1 + p.r2 for p in grid_region.points)
        best_sc = min(p.r1 + p.r2 for p in sc_region.points)
        assert best_sc <= best_grid + 1e-3

    @pytest.mark.parametrize("n_weights", [0, -2])
    def test_needs_at_least_one_weight(self, n_weights):
        with pytest.raises(InvalidSpecError):
            SamplerConfig(method="scalarize", n_weights=n_weights)


def _reference_bits(joint, terms):
    """Sum of MITerms via the reference CMI on compose_joint axes
    (x=0, y1=1, y2=2, xh1=3, xh2=4)."""
    total = 0.0
    for t in terms:
        cond = tuple(i + 2 for i in t.cond_axes)
        if t.y_axis is not None:
            cond = (t.y_axis,) + cond
        total += conditional_mutual_information(
            joint, (0,), tuple(i + 2 for i in t.b_axes), cond)
    return total


class TestDeclaredBounds:
    """A seeded channel's point has the coordinates its sampler declares,
    recomputed term by term with the reference CMI."""

    @pytest.mark.parametrize("sampler, chain, terms_a, terms_b, coop", [
        (coop_region_xy1y2, "x-y1-y2", regions._COOP12_A, regions._COOP12_B, True),
        (cascade_region_xy1y2, "x-y1-y2", regions._CASC12_A, regions._CASC12_B, False),
        (cascade_bounds_xy2y1, "x-y2-y1", regions._CASC21_INNER_A,
         regions._CASC21_INNER_B, False),
    ], ids=["coop_xy1y2", "cascade_xy1y2", "cascade_bounds_xy2y1"])
    def test_seeded_point_matches_reference(self, sampler, chain, terms_a, terms_b,
                                            coop, hamming2, monkeypatch):
        mass = bsc_chain_source(0.1, 0.2).mass
        if chain == "x-y2-y1":
            mass = np.transpose(mass, (0, 2, 1))
        src = crrd.JointSource(mass)
        ch = random_channel(np.random.default_rng(41))
        seen = []
        lower_boundary = regions._lower_boundary

        def spy(batches):
            batches = list(batches)
            seen.extend(batches)
            return lower_boundary(batches)

        # the boundary's input, not dominance_filter's: a dominated seed
        # point never reaches the filter
        monkeypatch.setattr(regions, "_lower_boundary", spy)
        cfg = SamplerConfig(method="grid", step=0.5, seed_channels=(ch,))
        sampler(src, hamming2, hamming2, DistortionPair(0.3, 0.3), cfg)
        ((r1, r2, _),) = [b for b in seen if b[2] == "seed"]
        joint = compose_joint(src, ch)
        want_a = _reference_bits(joint, terms_a)
        want_b = _reference_bits(joint, terms_b)
        if coop:
            want_b = max(0.0, want_b - want_a)
        assert r1.shape == r2.shape == (1,)
        assert r1[0] == pytest.approx(want_a, abs=1e-12)
        assert r2[0] == pytest.approx(want_b, abs=1e-12)
