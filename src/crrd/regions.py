"""Rate-region samplers for the cooperative and cascade settings.

Each region is characterized by per-channel rate bounds; the samplers
sweep a set of feasible test channels (an exhaustive coarse grid, or
scalarized descent runs over a weight ladder), map every channel to its
rate point, and keep the dominance-filtered lower boundary.  The sampled
region is an inner approximation of the true union by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .channels import TestChannel
from .closed_form import DistortionPair
from .descent import descent_weighted, descent_hb_cr
from .errors import InvalidSpecError
from .gridsearch import HB_GUARD_DEFAULT, feasible_hb_channel_batches, \
    grid_oracle_hb_cr, grid_oracle_point_cr
from .measures import HB_CR_TERMS, MITerm, batch_joint, batch_terms
from .prob import DistortionMetric, FinitePmf, JointSource, check_markov_chain

__all__ = [
    "RatePoint",
    "RateRegion",
    "SamplerConfig",
    "CascadeBounds",
    "dominance_filter",
    "coop_region_xy1y2",
    "coop_region_xy2y1",
    "cascade_region_xy1y2",
    "cascade_bounds_xy2y1",
]

#: Most budget-feasible channels a grid sweep may map to rate points.
SWEEP_GUARD = 10_000_000
#: r1 tolerance used when reading the inner boundary at the outer corner.
CORNER_SLACK = 1e-6


@dataclass(frozen=True)
class RatePoint:
    r1: float
    r2: float
    provenance: str = ""


@dataclass(frozen=True)
class RateRegion:
    """Sampled lower boundary: points sorted by r1, no point dominating
    another.  `unbounded` names axes along which the region extends as a
    half-line (e.g. "r2" when any r2 >= 0 is achievable at the corner)."""

    points: tuple[RatePoint, ...]
    unbounded: tuple[str, ...] = ()


def dominance_filter(points: Iterable[RatePoint]) -> tuple[RatePoint, ...]:
    """Boundary antichain: drop any point weakly dominated by another.

    Idempotent; result sorted by (r1, r2).
    """
    pts = sorted(points, key=lambda p: (p.r1, p.r2))
    out: list[RatePoint] = []
    best_r2 = math.inf
    for p in pts:
        if p.r2 < best_r2 - 1e-15:
            out.append(p)
            best_r2 = p.r2
    return tuple(out)


def _lower_boundary(batches: Iterable[tuple[np.ndarray, np.ndarray, str]],
                    ) -> tuple[RatePoint, ...]:
    """`dominance_filter` over every point of (r1, r2, provenance) batches.

    A stable lexsort by (r1, r2) puts the points in the filter's order, and
    every point the filter keeps has r2 strictly below every point before
    it.  Only those strict prefix minima become `RatePoint`s, so the result
    is exact without building a point per swept channel.
    """
    batches = list(batches)
    r1 = np.concatenate([np.empty(0)] + [a for a, _, _ in batches])
    r2 = np.concatenate([np.empty(0)] + [b for _, b, _ in batches])
    batch = np.repeat(np.arange(len(batches)), [a.size for a, _, _ in batches])
    order = np.lexsort((r2, r1))
    s2 = r2[order]
    before = np.minimum.accumulate(np.concatenate(([math.inf], s2)))[:-1]
    return dominance_filter([RatePoint(float(r1[i]), float(r2[i]), batches[batch[i]][2])
                             for i in order[s2 < before]])


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the region samplers.

    method "grid" enumerates feasible channels at `step`; "scalarize"
    minimizes lambda-weighted combinations of the two bounds by descent
    with `n_weights` evenly spaced weights and `restarts` random starts
    per weight.
    """

    method: str = "grid"
    step: float = 0.1
    n_weights: int = 21
    restarts: int = 4
    seed: int = 0
    seed_channels: tuple[TestChannel, ...] = ()

    def __post_init__(self):
        if self.method not in ("grid", "scalarize"):
            raise InvalidSpecError("sampler method must be 'grid' or 'scalarize'")
        if self.n_weights < 1:
            raise InvalidSpecError(f"n_weights must be >= 1, got {self.n_weights}")


def _first_seed(config: SamplerConfig) -> TestChannel | None:
    """The seed channel that starts each descent, if the config has one."""
    return config.seed_channels[0] if config.seed_channels else None


def _broadcast_min(source: JointSource, metric1: DistortionMetric,
                   metric2: DistortionMetric, pair: DistortionPair,
                   config: SamplerConfig) -> float:
    """The broadcast CR minimum at `pair`: the grid oracle in grid mode,
    seeded multistart descent otherwise."""
    if config.method == "grid":
        return grid_oracle_hb_cr(source, metric1, metric2, pair, config.step)[0]
    return descent_hb_cr(source, metric1, metric2, pair, restarts=config.restarts,
                         seed=config.seed, init=_first_seed(config)).rate


def _channel_sweep(source: JointSource, metric1: DistortionMetric,
                   metric2: DistortionMetric, pair: DistortionPair,
                   config: SamplerConfig,
                   weight_terms: tuple[tuple[MITerm, ...], tuple[MITerm, ...]],
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, str]]:
    """Yield (bound_a, bound_b, provenance) per channel batch of the policy.

    `weight_terms` gives the two bound expressions as term tuples; every
    swept channel is mapped to both bounds in bits, and the scalarized
    sweep minimizes lambda * bound_a + (1 - lambda) * bound_b.
    """
    terms_a, terms_b = weight_terms

    def bounds(batch: np.ndarray, prov: str) -> tuple[np.ndarray, np.ndarray, str]:
        joint = batch_joint(source, batch)
        return batch_terms(joint, terms_a), batch_terms(joint, terms_b), prov

    for ch in config.seed_channels:
        yield bounds(ch.cond[None, :, :, :], "seed")
    if config.method == "grid":
        for batch in feasible_hb_channel_batches(
                source, metric1, metric2, pair, config.step, guard=SWEEP_GUARD):
            yield bounds(batch, f"grid(step={config.step})")
        return
    init = _first_seed(config)
    for i in range(config.n_weights):
        lam = i / (config.n_weights - 1) if config.n_weights > 1 else 0.5
        weights = [lam] * len(terms_a) + [1.0 - lam] * len(terms_b)
        res = descent_weighted(source, metric1, metric2, pair, terms_a + terms_b,
                               weights, restarts=config.restarts,
                               seed=config.seed + i, init=init)
        yield bounds(res.witness.cond[None, :, :, :], f"scalarize(lambda={lam:.2f})")


_COOP12_A = (MITerm((1, 2), 1),)
_COOP12_B = (MITerm((2,), 2), MITerm((1,), 1, (2,)))


def coop_region_xy1y2(source: JointSource, metric1: DistortionMetric,
                      metric2: DistortionMetric, pair: DistortionPair,
                      config: SamplerConfig = SamplerConfig()) -> RateRegion:
    """Cooperative-decoder region when the chain X - Y1 - Y2 holds.

    Per channel the bounds are r_a = I(X;Xh1,Xh2|Y1) on the broadcast link
    and r_ab = I(X;Xh2|Y2) + I(X;Xh1|Y1,Xh2) on the sum rate; the sampled
    point is (r_a, max(0, r_ab - r_a)).
    """
    if not check_markov_chain(source, ("x", "y1", "y2")):
        raise InvalidSpecError("cooperative region in this direction needs X - Y1 - Y2")
    sweep = _channel_sweep(source, metric1, metric2, pair, config,
                           (_COOP12_A, _COOP12_B))
    return RateRegion(points=_lower_boundary(
        (ra, np.where(rb - ra > 0.0, rb - ra, 0.0), prov) for ra, rb, prov in sweep))


def coop_region_xy2y1(source: JointSource, metric1: DistortionMetric,
                      metric2: DistortionMetric, pair: DistortionPair,
                      config: SamplerConfig = SamplerConfig()) -> RateRegion:
    """Cooperative-decoder region when the chain X - Y2 - Y1 holds.

    Cooperation is useless here: the region is the half-plane
    r1 >= broadcast CR rate, r2 >= 0, returned as the corner point plus an
    explicit unbounded-r2 marker.
    """
    if not check_markov_chain(source, ("x", "y2", "y1")):
        raise InvalidSpecError("cooperative region in this direction needs X - Y2 - Y1")
    rho = _broadcast_min(source, metric1, metric2, pair, config)
    return RateRegion(points=(RatePoint(rho, 0.0, "broadcast-min"),),
                      unbounded=("r2",))


_CASC12_A = (MITerm((1, 2), 1),)
_CASC12_B = (MITerm((2,), 2),)


def cascade_region_xy1y2(source: JointSource, metric1: DistortionMetric,
                         metric2: DistortionMetric, pair: DistortionPair,
                         config: SamplerConfig = SamplerConfig()) -> RateRegion:
    """Two-hop region when the chain X - Y1 - Y2 holds.

    Per channel: r1 = I(X;Xh1,Xh2|Y1), r2 = I(X;Xh2|Y2).
    """
    if not check_markov_chain(source, ("x", "y1", "y2")):
        raise InvalidSpecError("this cascade direction needs X - Y1 - Y2")
    return RateRegion(points=_lower_boundary(_channel_sweep(
        source, metric1, metric2, pair, config, (_CASC12_A, _CASC12_B))))


@dataclass(frozen=True)
class CascadeBounds:
    outer: RateRegion
    inner: RateRegion
    gap: float


_CASC21_INNER_A = HB_CR_TERMS
_CASC21_INNER_B = (MITerm((1, 2), 2),)


def cascade_bounds_xy2y1(source: JointSource, metric1: DistortionMetric,
                         metric2: DistortionMetric, pair: DistortionPair,
                         config: SamplerConfig = SamplerConfig()) -> CascadeBounds:
    """Outer and inner bounds for the two-hop region under X - Y2 - Y1.

    The outer region is the quadrant above (broadcast CR minimum,
    point-to-point CR minimum toward the final decoder).  The inner region
    sweeps channels with r1 = I(X;Xh1|Y1) + I(X;Xh2|Y2,Xh1) and
    r2 = I(X;Xh1,Xh2|Y2).  The gap is the worst r2 shortfall of the inner
    boundary against the outer corner; 0 certifies coincidence at the
    sampled resolution, +inf means no sampled point reached the corner's
    r1 level.
    """
    if not check_markov_chain(source, ("x", "y2", "y1")):
        raise InvalidSpecError("cascade bounds in this direction need X - Y2 - Y1")
    r1c = _broadcast_min(source, metric1, metric2, pair, config)
    # the corner minimizations prune by budget feasibility, so the point
    # oracle takes the two-decoder oracle's wider product-grid guard
    pair_xy2 = FinitePmf(source.xy2_marginal())
    r2c = grid_oracle_point_cr(pair_xy2, metric2, pair.d2, config.step,
                               guard=HB_GUARD_DEFAULT)
    outer = RateRegion(points=(RatePoint(r1c, r2c, "outer-corner"),))

    inner = RateRegion(points=_lower_boundary(_channel_sweep(
        source, metric1, metric2, pair, config,
        (_CASC21_INNER_A, _CASC21_INNER_B))))

    near = [p.r2 for p in inner.points if p.r1 <= r1c + CORNER_SLACK]
    gap = math.inf if not near else max(0.0, min(near) - r2c)
    return CascadeBounds(outer=outer, inner=inner, gap=gap)
