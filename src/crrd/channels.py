"""Test channels, their budget polytope, the CR problem over it, the
constrained-reconstruction budget, and objective evaluators.

A test channel p(xhat1, xhat2 | x) is the optimization variable of the
common-reconstruction formulas, and `ChannelPolytope` is the set every
solver searches.  `CRProblem` adds the objective, a weighted sum of
`MITerm`s, and the side pmfs it reads; the grid oracles and descent take
it.  `eval_distortions` and `TestChannel.validate_support` do not use the
polytope: they are the independent re-check of a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpecError, ShapeMismatchError
from .measures import HB_CR_TERMS, POINT_TERMS, MITerm, side_pmfs
from .prob import DistortionMetric, FinitePmf, JointSource, check_budget, \
    check_markov_chain, conditional_mutual_information

__all__ = [
    "TestChannel",
    "ChannelPolytope",
    "CRProblem",
    "ConRConstraint",
    "compose_joint",
    "eval_hb_cr_objective",
    "eval_hb_cr_alt_objective",
    "eval_distortions",
]

_SLICE_TOL = 1e-12


class TestChannel:
    """Conditional pmf p(xhat1, xhat2 | x) as a (|X|, m1, m2) tensor.

    Every x-slice must sum to 1 within 1e-12.  `validate_support` checks
    that no mass sits on reconstruction symbols a metric forbids.
    """

    __slots__ = ("cond",)
    __test__ = False  # domain type, despite the pytest-like name

    def __init__(self, cond):
        arr = np.ascontiguousarray(cond, dtype=np.float64)
        if arr.ndim != 3:
            raise InvalidSpecError("test channel tensor must have 3 axes (x, xhat1, xhat2)")
        if np.any(arr < -1e-15) or not np.all(np.isfinite(arr)):
            raise InvalidSpecError("channel entries must be finite and >= 0")
        arr = np.clip(arr, 0.0, None)
        sums = arr.sum(axis=(1, 2))
        if np.any(np.abs(sums - 1.0) > _SLICE_TOL):
            raise InvalidSpecError(f"each x-slice must sum to 1, got sums {sums}")
        arr.setflags(write=False)
        object.__setattr__(self, "cond", arr)

    @property
    def nx(self) -> int:
        return self.cond.shape[0]

    @property
    def m1(self) -> int:
        return self.cond.shape[1]

    @property
    def m2(self) -> int:
        return self.cond.shape[2]

    @classmethod
    def constant(cls, nx: int, m1: int, m2: int, a: int = 0, b: int = 0) -> "TestChannel":
        cond = np.zeros((nx, m1, m2))
        cond[:, a, b] = 1.0
        return cls(cond)

    def validate_support(self, metric1: DistortionMetric | None = None,
                         metric2: DistortionMetric | None = None) -> None:
        if metric1 is not None:
            bad = ~np.isfinite(metric1.matrix)  # (x, xhat1)
            if float((self.cond.sum(axis=2) * bad).sum()) > 0:
                raise InvalidSpecError("channel puts mass on a forbidden (x, xhat1) pair")
        if metric2 is not None:
            bad = ~np.isfinite(metric2.matrix)
            if float((self.cond.sum(axis=1) * bad).sum()) > 0:
                raise InvalidSpecError("channel puts mass on a forbidden (x, xhat2) pair")

    def __repr__(self) -> str:
        return f"TestChannel(|X|={self.nx}, {self.m1}x{self.m2})"


class ChannelPolytope:
    """Test channels p(xh1, xh2 | x) meeting linear budgets E[d_j] <= D_j.

    A channel's x-slice is flattened xh1-major, so cell a * m2 + b is
    (xh1 = a, xh2 = b); one metric gives the layout (|X|, m, 1).

    `shape` is (|X|, m1, m2); `allowed` (|X|, m1 * m2) flags the cells that
    no metric forbids; `costs` (n_budgets, |X|, m1 * m2) holds each cell's
    p(x)-weighted distortion (0 on forbidden cells), so a channel q costs
    sum_x costs[j, x] @ q[x].ravel() on budget j; `budgets` are the D_j.
    """

    __slots__ = ("shape", "allowed", "costs", "budgets")

    def __init__(self, px, metrics: Sequence[DistortionMetric],
                 budgets: Sequence[float]):
        px = np.asarray(px, dtype=np.float64)
        if len(metrics) not in (1, 2) or len(budgets) != len(metrics):
            raise InvalidSpecError("a channel polytope takes one or two metrics, "
                                   "one budget each")
        for j, (metric, budget) in enumerate(zip(metrics, budgets)):
            check_budget(f"d{j + 1}", budget)
            if metric.n_inputs != px.size:
                raise ShapeMismatchError("metric rows must equal |X|")
        m1 = metrics[0].n_outputs
        m2 = metrics[1].n_outputs if len(metrics) == 2 else 1
        self.shape = (px.size, m1, m2)
        full = [np.repeat(metrics[0].matrix, m2, axis=1)]
        if len(metrics) == 2:
            full.append(np.tile(metrics[1].matrix, (1, m1)))
        finite = np.isfinite(full)
        self.allowed = finite.all(axis=0)
        self.costs = px[:, None] * np.where(finite, full, 0.0)
        self.budgets = np.array(budgets, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class CRProblem:
    """Minimize sum_i weights[i] * terms[i] over the channels of `poly`.

    Every CR rate of the paper is one such minimum.  `sides` maps each
    term's `y_axis` to p(x, y), as built by `measures.side_pmfs`.  Raises
    InvalidSpecError unless there is one finite weight >= 0 per term and
    every term's side is in `sides`.
    """

    poly: ChannelPolytope
    terms: tuple[MITerm, ...]
    weights: tuple[float, ...]
    sides: dict[int | None, np.ndarray]

    def __post_init__(self):
        try:
            w = np.asarray(self.weights, dtype=np.float64)
        except (TypeError, ValueError):   # not numbers, or ragged
            w = np.array(np.nan)
        if w.shape != (len(self.terms),) or not np.all(np.isfinite(w) & (w >= 0)):
            raise InvalidSpecError(f"need one finite weight >= 0 per term, got "
                                   f"{len(self.terms)} terms and weights {self.weights!r}")
        if any(t.y_axis not in self.sides for t in self.terms):
            raise InvalidSpecError("a term reads a side information the problem lacks")
        object.__setattr__(self, "weights", tuple(w.tolist()))

    @classmethod
    def broadcast(cls, source: JointSource, metric1: DistortionMetric,
                  metric2: DistortionMetric, budgets: Sequence[float],
                  terms: tuple[MITerm, ...] = HB_CR_TERMS,
                  weights: Sequence[float] = (1.0, 1.0)) -> "CRProblem":
        """Two decoders, E[d_j(X, Xh_j)] <= budgets[j]; the HB CR rate by default."""
        poly = ChannelPolytope(source.x_marginal(), (metric1, metric2), budgets)
        return cls(poly, tuple(terms), weights, side_pmfs(source))

    @classmethod
    def point(cls, p_xy: np.ndarray, metric: DistortionMetric, d: float) -> "CRProblem":
        """I(X;Xh|Y) s.t. E[d(X, Xh)] <= d for a 2-axis p_xy, in the (|X|, m, 1) layout."""
        if np.ndim(p_xy) != 2:
            raise InvalidSpecError("need a 2-axis joint p(x,y)")
        sides = side_pmfs(p_xy)
        return cls(ChannelPolytope(sides[None][:, 0], (metric,), (d,)),
                   POINT_TERMS, (1.0,), sides)


@dataclass(frozen=True)
class ConRConstraint:
    """Encoder-side reproduction budgets and their square metrics."""

    de1: float
    de2: float
    metric_e1: DistortionMetric
    metric_e2: DistortionMetric

    def __post_init__(self):
        check_budget("de1", self.de1)
        check_budget("de2", self.de2)
        for name in ("metric_e1", "metric_e2"):
            m = getattr(self, name)
            if m.n_inputs != m.n_outputs:
                raise InvalidSpecError(f"{name} must be square (reconstruction vs itself)")


def compose_joint(source: JointSource, ch: TestChannel) -> FinitePmf:
    """Joint pmf over (x, y1, y2, xhat1, xhat2) = p(x,y1,y2) p(xhat1,xhat2|x)."""
    if ch.nx != source.nx:
        raise ShapeMismatchError(
            f"channel has |X|={ch.nx} but source has |X|={source.nx}")
    joint = source.mass[:, :, :, None, None] * ch.cond[:, None, None, :, :]
    return FinitePmf(joint)


def eval_hb_cr_objective(source: JointSource, ch: TestChannel) -> float:
    """Broadcast CR rate objective I(X;Xh1|Y1) + I(X;Xh2|Y2,Xh1) in bits."""
    joint = compose_joint(source, ch)
    t1 = conditional_mutual_information(joint, (0,), (3,), (1,))
    t2 = conditional_mutual_information(joint, (0,), (4,), (2, 3))
    return t1 + t2


def eval_hb_cr_alt_objective(source: JointSource, ch: TestChannel) -> float:
    """Equivalent form I(X;Xh1,Xh2|Y2) + I(Xh1;Y2|Y1).

    Only valid when the worse observation is a physically degraded copy of
    the better one (chain X - Y2 - Y1); raises otherwise.
    """
    if not check_markov_chain(source, ("x", "y2", "y1")):
        raise InvalidSpecError("alternative objective requires the chain X - Y2 - Y1")
    joint = compose_joint(source, ch)
    t1 = conditional_mutual_information(joint, (0,), (3, 4), (2,))
    t2 = conditional_mutual_information(joint, (3,), (2,), (1,))
    return t1 + t2


def eval_distortions(source: JointSource, ch: TestChannel,
                     metric1: DistortionMetric, metric2: DistortionMetric,
                     ) -> tuple[float, float]:
    """Expected distortions (E[d1(X,Xh1)], E[d2(X,Xh2)]) under p(x) p(xh|x).

    Raises if the channel places mass on a forbidden pair.
    """
    if metric1.n_inputs != source.nx or metric2.n_inputs != source.nx:
        raise ShapeMismatchError("metric row count must equal |X|")
    if metric1.n_outputs != ch.m1 or metric2.n_outputs != ch.m2:
        raise ShapeMismatchError("metric column count must match channel alphabet")
    ch.validate_support(metric1, metric2)
    px = source.x_marginal()
    w1 = ch.cond.sum(axis=2) * px[:, None]   # p(x, xhat1)
    w2 = ch.cond.sum(axis=1) * px[:, None]
    d1m = np.where(np.isfinite(metric1.matrix), metric1.matrix, 0.0)
    d2m = np.where(np.isfinite(metric2.matrix), metric2.matrix, 0.0)
    return float((w1 * d1m).sum()), float((w2 * d2m).sum())
