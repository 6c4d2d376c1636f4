"""Conditional-mutual-information terms over test channels.

Every rate expression in the package is a sum of terms I(X; B | Y, D),
where B and D are groups of reconstruction variables and Y is one of the
side informations (or absent).  `MITerm` describes one such term; this
module evaluates term lists in the three forms the solvers need:

* on one channel q = p(xh1, xh2 | x), with the analytic gradient used by
  projected descent.  For I(X;B|Y,D) the derivative with respect to
  q(a, b | x) is

      -sum_y p(x, y) log[p(b, d | y) / p(d | y)] + p(x) log[q(b, d | x) / q(d | x)]

  (in nats before the conversion to bits, logs clipped near zero mass;
  both denominators are dropped when D is empty);

* on a batch of channels, through the joint tensor with axes
  (batch, x, y1, y2, xh1, xh2), for the region samplers;

* on batches of grid channels given as row indices, in a factored form
  (`GridTerms`), for the grid oracles and the brute-force solvers.

The first and last forms read p(x, y) per side information from one dict,
built by `side_pmfs`.

`prob.conditional_mutual_information` is deliberately a separate
implementation: it is the independent reference that the evaluators in
`channels` and the tests check these values against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .prob import JointSource

__all__ = [
    "MITerm",
    "HB_CR_TERMS",
    "POINT_TERMS",
    "entropy_rows",
    "side_pmfs",
    "term_value_grad",
    "batch_joint",
    "batch_terms",
    "GridTerms",
]

_LN2 = math.log(2.0)
_TINY = 1e-18


@dataclass(frozen=True)
class MITerm:
    """One conditional-mutual-information term I(X; B | Y, D).

    `b_axes` and `cond_axes` are subsets of (1, 2) naming the
    reconstruction variables (1 = first decoder, 2 = second decoder);
    `y_axis` is 1, 2, or None for the side information in the condition.
    """

    b_axes: tuple[int, ...]
    y_axis: int | None
    cond_axes: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.b_axes or not set(self.b_axes) <= {1, 2}:
            raise InvalidSpecError("b_axes must be a nonempty subset of (1, 2)")
        if set(self.cond_axes) & set(self.b_axes):
            raise InvalidSpecError("cond_axes must be disjoint from b_axes")
        if self.y_axis not in (None, 1, 2):
            raise InvalidSpecError("y_axis must be 1, 2 or None")


#: Terms of the broadcast CR objective I(X;Xh1|Y1) + I(X;Xh2|Y2,Xh1).
HB_CR_TERMS: tuple[MITerm, ...] = (MITerm((1,), 1), MITerm((2,), 2, (1,)))

#: The point-to-point objective I(X;Xh|Y1), its reconstruction laid out as
#: an (m, 1) two-decoder channel.
POINT_TERMS: tuple[MITerm, ...] = (MITerm((1, 2), 1),)


def entropy_rows(a: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis; rows need not be normalized
    for the padded-zero cells (0 log 0 = 0 exactly)."""
    return -(a * np.log(a + (a <= 0))).sum(axis=-1) / _LN2


def _safe_log(a: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(a, _TINY))


def _sum_out(t: np.ndarray, keep: set[int], keepdims: bool = False) -> np.ndarray:
    drop = tuple(i for i in range(t.ndim) if i not in keep)
    return t.sum(axis=drop, keepdims=keepdims) if drop else t


def _entropy_of(t: np.ndarray, keep: set[int]) -> float:
    return float(entropy_rows(_sum_out(t, keep).reshape(-1)))


def side_pmfs(source: JointSource | np.ndarray) -> dict[int | None, np.ndarray]:
    """p(x, y) per side information, keyed like `MITerm.y_axis`.

    A `JointSource` gives keys 1 and 2, a 2-axis array p(x, y) key 1 alone;
    key None always holds p(x) as a (|X|, 1) side with one symbol.
    """
    if isinstance(source, JointSource):
        return {None: source.x_marginal()[:, None], 1: source.xy1_marginal(),
                2: source.xy2_marginal()}
    return {None: source.sum(axis=1)[:, None], 1: source}


def term_value_grad(sides: dict[int | None, np.ndarray], q: np.ndarray, term: MITerm,
                    ) -> tuple[float, np.ndarray]:
    """Value and gradient (both in bits) of I(X; B | Y, D) at channel q;
    `sides` as from `side_pmfs`."""
    sxy, px = sides[term.y_axis], sides[None][:, 0]
    # channel axes xh1=1, xh2=2, as in q(xh1, xh2 | x) and p(y, xh1, xh2);
    # the (x, y, xh1, xh2) tensors below hold them one axis further on
    bd, d = set(term.b_axes) | set(term.cond_axes), set(term.cond_axes)
    bd_t, d_t = {i + 1 for i in bd}, {i + 1 for i in d}
    t = np.einsum("xy,xab->xyab", sxy, q)              # p(x, y, a, b)
    px_q = (px[:, None, None] * q)[:, None, :, :]      # p(x, a, b), dummy y
    h_y = _entropy_of(t, {1} | bd_t) - _entropy_of(t, {1} | d_t)
    h_x = _entropy_of(px_q, {0} | bd_t) - _entropy_of(px_q, {0} | d_t)
    value = max(0.0, h_y - h_x)

    # gradient in nats, then converted to bits; the conditional p(b,d|y)
    # is formed as one ratio p(y,b,d) / p(y,d) (p(y) when D is empty)
    num = t.sum(axis=0)                                # p(y, a, b)
    c = (_sum_out(num, {0} | bd, keepdims=True)
         / np.maximum(_sum_out(num, {0} | d, keepdims=True), _TINY))
    g = -np.einsum("xy,yab->xab", sxy, _safe_log(c))
    q_bd = _sum_out(q, {0} | bd, keepdims=True)
    if d:
        q_bd = q_bd / np.maximum(_sum_out(q, {0} | d, keepdims=True), _TINY)
    g = g + px[:, None, None] * _safe_log(q_bd)
    return value, np.array(np.broadcast_to(g, q.shape)) / _LN2


def batch_joint(source: JointSource, batch: np.ndarray) -> np.ndarray:
    """p(x, y1, y2, xh1, xh2) per channel of a (B, |X|, m1, m2) batch."""
    return source.mass[None, :, :, :, None, None] * batch[:, :, None, None, :, :]


def _batch_term(joint: np.ndarray, term: MITerm) -> np.ndarray:
    # joint axes: batch=0, x=1, y1=2, y2=3, xh1=4, xh2=5
    b = {i + 3 for i in term.b_axes}
    c = {i + 3 for i in term.cond_axes}
    if term.y_axis is not None:
        c.add(term.y_axis + 1)

    def h(keep: set[int]) -> np.ndarray:
        m = _sum_out(joint, {0} | keep)
        return entropy_rows(m.reshape(m.shape[0], -1))

    out = h({1} | c) + h(b | c) - h({1} | b | c) - (h(c) if c else 0.0)
    return np.maximum(out, 0.0)


def batch_terms(joint: np.ndarray, terms: tuple[MITerm, ...]) -> np.ndarray:
    """Sum of the terms in bits per channel of a `batch_joint` tensor."""
    total = _batch_term(joint, terms[0])
    for term in terms[1:]:
        total = total + _batch_term(joint, term)
    return total


def _once_each(fn, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """`[fn(a) for a in arrays]`, computing `fn` once per distinct array
    object (slices with the same cells share their row array)."""
    done: dict[int, np.ndarray] = {}
    for a in arrays:
        if id(a) not in done:
            done[id(a)] = fn(a)
    return [done[id(a)] for a in arrays]


class _MixEntropyTerms:
    """Per-channel value of scale * sum_y p(y) H(mix of slice rows) for one
    side axis.

    Columns of p(x, y) seen from a single source symbol reduce to gathers
    of per-row entropies, computed for those symbols only; the rest are
    genuine mixtures.
    """

    def __init__(self, p_xy: np.ndarray, row_arrays: list[np.ndarray], scale: int = 1):
        self.rows = row_arrays
        self.pure: list[tuple[float, int]] = []
        self.mixed: list[tuple[float, np.ndarray]] = []
        py = p_xy.sum(axis=0)
        for y in range(p_xy.shape[1]):
            if py[y] <= 0:
                continue
            supp = np.flatnonzero(p_xy[:, y] > 0)
            if supp.size == 1:
                self.pure.append((scale * float(py[y]), int(supp[0])))
            else:
                self.mixed.append((scale * float(py[y]), p_xy[:, y] / py[y]))
        pure_x = sorted({x for _, x in self.pure})
        self.h_rows = dict(zip(pure_x, _once_each(entropy_rows,
                                                  [row_arrays[x] for x in pure_x])))

    def eval(self, idx: tuple[np.ndarray, ...]) -> np.ndarray:
        out = np.zeros(idx[0].size)
        for w, x in self.pure:
            out += w * self.h_rows[x][idx[x]]
        for w, cond in self.mixed:
            mix = None
            for x, wx in enumerate(cond):
                if wx <= 0:
                    continue
                part = wx * self.rows[x][idx[x]]
                mix = part if mix is None else mix + part
            out += w * entropy_rows(mix)
        return out


class GridTerms:
    """Sum of the terms in bits per channel of a batch given by row indices.

    Channel i maps x to the flattened (m1, m2) pmf `rows[x][idx[x][i]]`,
    whose entropy is `h_rows[x]`; `sides` is as from `side_pmfs`.  Each
    I(X;B|Y,D) expands to H(BD|Y) - H(D|Y) - H(BD|X) + H(D|X)
    (no D entries when D is empty) and equal entries cancel: H(Xh1|X)
    drops out of `HB_CR_TERMS`.  Y-entropies are mixture entropies over
    side symbols, X-entropies p(x)-weighted gathers; all Y-entropies are
    applied first, each group in the order the terms name them.
    """

    def __init__(self, terms: tuple[MITerm, ...], sides: dict[int | None, np.ndarray],
                 rows: list[np.ndarray], h_rows: list[np.ndarray], shape: tuple[int, int]):
        m1, m2 = shape
        full = frozenset((1, 2))

        margs = {full: rows}   # reconstruction axes -> marginal rows per x

        def marg(axes: frozenset) -> list[np.ndarray]:
            if axes not in margs:
                axis = 2 if axes == {1} else 1
                margs[axes] = _once_each(lambda r: r.reshape(-1, m1, m2).sum(axis=axis),
                                         rows)
            return margs[axes]

        side, own = Counter(), Counter()   # entropy entry -> coefficient
        for t in terms:
            bd, d = frozenset(t.b_axes + t.cond_axes), frozenset(t.cond_axes)
            side[t.y_axis, bd] += 1
            own[bd] -= 1
            if d:
                side[t.y_axis, d] -= 1
                own[d] += 1
        self.side = [_MixEntropyTerms(sides[y], marg(axes), c)
                     for (y, axes), c in side.items() if c]
        self.own = [(c * sides[None][:, 0], h_rows if axes == full
                     else _once_each(entropy_rows, marg(axes)))
                    for axes, c in own.items() if c]

    def eval(self, idx: tuple[np.ndarray, ...]) -> np.ndarray:
        f = self.side[0].eval(idx)
        for mix in self.side[1:]:
            f += mix.eval(idx)
        for w, h in self.own:
            for x, hx in enumerate(h):
                f += w[x] * hx[idx[x]]
        return f
