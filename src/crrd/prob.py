"""Exact finite-probability arithmetic.

Probability mass functions over products of finite alphabets, Shannon
information measures in bits (log base 2 throughout), Markov-chain and
stochastic-degradedness structure checks, and the canonical binary
erased-side-information source builder.

Everything here is a pure function of immutable inputs; arrays are frozen
at construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CrrdError, InvalidSpecError

__all__ = [
    "FORBIDDEN",
    "FinitePmf",
    "JointSource",
    "DistortionMetric",
    "BinaryErasureSpec",
    "GaussianSpec",
    "DegradednessResult",
    "entropy",
    "binary_entropy",
    "conditional_mutual_information",
    "check_budget",
    "check_markov_chain",
    "check_stochastic_degradedness",
    "build_erased_source",
]

_MASS_TOL = 1e-12

#: Marker for distortion entries that may never receive probability mass.
FORBIDDEN = math.inf

_AXIS_NAMES = {"x": 0, "y1": 1, "y2": 2}


def _mass_from_doc(doc) -> np.ndarray:
    """The pmf array of an {"alphabets": [...], "pmf": [...]} document."""
    try:
        return np.asarray(doc["pmf"], dtype=np.float64).reshape(doc["alphabets"])
    except KeyError as exc:
        raise InvalidSpecError(f"pmf document has no {exc} entry") from None
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpecError("pmf entries do not fit the alphabet sizes") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class FinitePmf:
    """A dense joint pmf over a product of finite alphabets.

    The constructor rescales the given nonnegative mass to total 1, so the
    stored tensor always sums to 1 within 1e-12.
    """

    __slots__ = ("mass",)

    def __init__(self, mass):
        arr = np.asarray(mass, dtype=np.float64)
        if arr.ndim == 0:
            raise InvalidSpecError("pmf needs at least one axis")
        if any(s < 1 for s in arr.shape):
            raise InvalidSpecError(f"alphabet sizes must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidSpecError("pmf entries must be finite")
        if np.any(arr < 0):
            raise InvalidSpecError("pmf entries must be nonnegative")
        total = arr.sum()
        if total <= 0:
            raise InvalidSpecError("pmf has zero total mass")
        object.__setattr__(self, "mass", _frozen(arr / total))

    @classmethod
    def from_json(cls, text: str) -> "FinitePmf":
        return cls(_mass_from_doc(json.loads(text)))

    @property
    def alphabet_sizes(self) -> list[int]:
        return list(self.mass.shape)

    @property
    def ndim(self) -> int:
        return self.mass.ndim

    def __eq__(self, other) -> bool:
        return isinstance(other, FinitePmf) and self.mass.shape == other.mass.shape \
            and np.array_equal(self.mass, other.mass)

    def __repr__(self) -> str:
        return f"FinitePmf(shape={self.mass.shape})"


def _plogp(a: np.ndarray) -> np.ndarray:
    # sum p*log2(p) with 0*log 0 := 0; the (a<=0) shift makes log(0+1)=0 exact
    return (a * np.log(a + (a <= 0))) / math.log(2.0)


def entropy(pmf: FinitePmf) -> float:
    """Shannon entropy in bits."""
    return float(-_plogp(pmf.mass).sum())


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p) for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise InvalidSpecError(f"binary_entropy needs p in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)))


def _joint_entropy_of_axes(mass: np.ndarray, axes: tuple[int, ...]) -> float:
    drop = tuple(i for i in range(mass.ndim) if i not in axes)
    m = mass.sum(axis=drop) if drop else mass
    return float(-_plogp(m).sum())


def conditional_mutual_information(
    joint: FinitePmf,
    group_a: Sequence[int],
    group_b: Sequence[int],
    group_c: Sequence[int] = (),
) -> float:
    """I(A;B|C) in bits for disjoint axis groups of `joint`.

    Axes not listed in any group are marginalized out first.  Computed as
    H(AC) + H(BC) - H(ABC) - H(C), clamped at 0 to absorb float noise.
    """
    a, b, c = set(group_a), set(group_b), set(group_c)
    if a & b or a & c or b & c:
        raise InvalidSpecError("axis groups must be disjoint")
    if not a or not b:
        raise InvalidSpecError("groups A and B must be nonempty")
    allax = a | b | c
    if any(i < 0 or i >= joint.ndim for i in allax):
        raise InvalidSpecError(f"axis out of range for {joint.ndim}-axis pmf")
    m = joint.mass
    h_ac = _joint_entropy_of_axes(m, tuple(a | c))
    h_bc = _joint_entropy_of_axes(m, tuple(b | c))
    h_abc = _joint_entropy_of_axes(m, tuple(allax))
    h_c = _joint_entropy_of_axes(m, tuple(c)) if c else 0.0
    return max(0.0, h_ac + h_bc - h_abc - h_c)


class JointSource:
    """Source plus two side-information variables: a pmf over (X, Y1, Y2).

    Source symbols with zero marginal probability are pruned at
    construction so every conditional on X is well defined.
    """

    __slots__ = ("pmf", "labels")

    def __init__(self, pmf, labels=None):
        if not isinstance(pmf, FinitePmf):
            pmf = FinitePmf(pmf)
        if pmf.ndim != 3:
            raise InvalidSpecError(f"JointSource needs exactly 3 axes, got {pmf.ndim}")
        if labels is not None:
            try:
                labels = tuple(tuple(str(s) for s in ax) for ax in labels)
            except TypeError:
                raise InvalidSpecError("labels must be three sequences, one per axis") from None
            if [len(ax) for ax in labels] != pmf.alphabet_sizes:
                raise InvalidSpecError("label lengths must match alphabet sizes")
        keep = pmf.mass.sum(axis=(1, 2)) > 0
        if not keep.all():
            pmf = FinitePmf(pmf.mass[keep])
            if labels is not None:
                labels = (tuple(s for s, k in zip(labels[0], keep) if k),) + labels[1:]
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "labels", labels)

    @property
    def mass(self) -> np.ndarray:
        return self.pmf.mass

    @property
    def nx(self) -> int:
        return self.mass.shape[0]

    @property
    def ny1(self) -> int:
        return self.mass.shape[1]

    @property
    def ny2(self) -> int:
        return self.mass.shape[2]

    def x_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=(1, 2))

    def xy1_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=2)

    def xy2_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def to_json(self) -> str:
        doc = {
            "alphabets": self.pmf.alphabet_sizes,
            "labels": [list(ax) for ax in self.labels] if self.labels else None,
            "pmf": [float(v) for v in self.mass.reshape(-1)],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "JointSource":
        doc = json.loads(text)
        return cls(_mass_from_doc(doc), labels=doc.get("labels"))

    def __repr__(self) -> str:
        return f"JointSource(|X|={self.nx}, |Y1|={self.ny1}, |Y2|={self.ny2})"


class DistortionMetric:
    """Per-symbol distortion matrix d(x, xhat) with FORBIDDEN (= inf) entries.

    Finite entries must be >= 0; every source row needs at least one finite
    entry, otherwise no reconstruction could ever be feasible.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise InvalidSpecError("distortion matrix must be 2-d")
        if np.any(np.isnan(m)) or np.any(m < 0):
            raise InvalidSpecError("distortion entries must be >= 0 or FORBIDDEN")
        finite = np.isfinite(m)
        if not np.isfinite(m).any(axis=1).all():
            raise InvalidSpecError("every source row needs a finite distortion entry")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def hamming(cls, n: int, n_out: int | None = None) -> "DistortionMetric":
        n_out = n if n_out is None else n_out
        m = np.ones((n, n_out))
        np.fill_diagonal(m, 0.0)
        return cls(m)

    @classmethod
    def erasure(cls, n: int) -> "DistortionMetric":
        """n+1 reconstruction symbols; the last is the erasure output.

        Correct symbol costs 0, erasure costs 1, any wrong hard decision is
        FORBIDDEN.
        """
        m = np.full((n, n + 1), FORBIDDEN)
        for x in range(n):
            m[x, x] = 0.0
            m[x, n] = 1.0
        return cls(m)

    def to_json(self) -> str:
        ent = ["inf" if not math.isfinite(v) else float(v) for v in self.matrix.reshape(-1)]
        return json.dumps({"rows": self.n_inputs, "cols": self.n_outputs, "entries": ent})

    @classmethod
    def from_json(cls, text: str) -> "DistortionMetric":
        doc = json.loads(text)
        try:
            vals = [math.inf if v == "inf" else float(v) for v in doc["entries"]]
            m = np.asarray(vals, dtype=np.float64).reshape(doc["rows"], doc["cols"])
        except KeyError as exc:
            raise InvalidSpecError(f"metric document has no {exc} entry") from None
        except (TypeError, ValueError, OverflowError):
            raise InvalidSpecError("metric entries do not fit rows x cols") from None
        return cls(m)

    def __repr__(self) -> str:
        return f"DistortionMetric({self.n_inputs}x{self.n_outputs})"


def check_budget(name: str, value: float) -> None:
    """Reject a distortion budget that is not finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise InvalidSpecError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class BinaryErasureSpec:
    """Erasure probabilities of the two side-information channels, p1 > p2.

    The second observer's channel is the cleaner one; the first observer
    sees a further-degraded copy with residual erasure probability
    (p1 - p2) / (1 - p2).
    """

    p1: float
    p2: float

    def __post_init__(self):
        if not (0.0 <= self.p2 <= 1.0 and 0.0 <= self.p1 <= 1.0):
            raise InvalidSpecError("erasure probabilities must lie in [0,1]")
        if not self.p1 > self.p2:
            raise InvalidSpecError(f"need p1 > p2, got p1={self.p1}, p2={self.p2}")

    @property
    def degraded_erasure_prob(self) -> float:
        """Residual erasure probability of the worse observer given the better one."""
        return (self.p1 - self.p2) / (1.0 - self.p2)


@dataclass(frozen=True)
class GaussianSpec:
    """Variance parameters of the jointly Gaussian source model.

    Source variance sigma_x2; the cleaner observation adds noise of
    variance n2, the degraded one adds independent noise of variance
    n1 + n2 in total (n1 is the incremental part).
    """

    sigma_x2: float
    n1: float
    n2: float

    def __post_init__(self):
        for name in ("sigma_x2", "n1", "n2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidSpecError(f"{name} must be finite")
        if self.sigma_x2 <= 0:
            raise InvalidSpecError("sigma_x2 must be > 0")
        if self.n1 < 0 or self.n2 < 0:
            raise InvalidSpecError("noise variances must be >= 0")


def _parse_order(order) -> tuple[int, int, int]:
    if isinstance(order, str):
        parts = [p.strip().lower() for p in order.replace("-", " ").split()]
    else:
        parts = [str(p).strip().lower() for p in order]
    try:
        axes = tuple(_AXIS_NAMES[p] for p in parts)
    except KeyError as exc:
        raise InvalidSpecError(f"unknown axis name in order {order!r}") from exc
    if sorted(axes) != [0, 1, 2]:
        raise InvalidSpecError(f"order must be a permutation of (x, y1, y2), got {order!r}")
    return axes  # type: ignore[return-value]


def check_markov_chain(source: JointSource, order) -> bool:
    """True iff the chain A - B - C holds entrywise within 1e-10.

    `order` names the chain, e.g. "x-y2-y1" or ("x", "y2", "y1").
    """
    a, b, c = _parse_order(order)
    m = np.moveaxis(source.mass, (a, b, c), (0, 1, 2))
    p_ab = m.sum(axis=2)
    p_bc = m.sum(axis=0)
    p_b = m.sum(axis=(0, 2))
    # p(a,b,c) * p(b) == p(a,b) * p(b,c) entrywise
    lhs = m * p_b[None, :, None]
    rhs = p_ab[:, :, None] * p_bc[None, :, :]
    return bool(np.max(np.abs(lhs - rhs)) < 1e-10)


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call.

    The package's two LPs (`check_stochastic_degradedness` and descent's
    feasible start) are its only use of scipy, so `import crrd` loads
    numpy alone and a process that never solves an LP never pays for
    `scipy.optimize`.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


@dataclass(frozen=True)
class DegradednessResult:
    """Outcome of the stochastic-degradedness feasibility check.

    `violation` is the smallest achievable total-variation distance between
    p(x, y1) and any column-stochastic kernel applied to p(x, y2); feasible
    means it is below 1e-9.  `kernel` has shape (|Y1|, |Y2|) with columns
    indexed by y2.
    """

    feasible: bool
    kernel: np.ndarray
    violation: float


def check_stochastic_degradedness(source: JointSource) -> DegradednessResult:
    """Does a kernel q(y1|y2) exist with p(x,y1) = sum_y2 p(x,y2) q(y1|y2)?

    Solved as an exact linear program: minimize the L1 mismatch over
    column-stochastic kernels.  Infeasibility is a verdict (positive
    violation), never an exception.
    """
    p_xy1 = source.xy1_marginal()
    p_xy2 = source.xy2_marginal()
    nx, ny1 = p_xy1.shape
    ny2 = p_xy2.shape[1]

    nk = ny1 * ny2          # kernel vars, column-major by y2: q[y1, y2]
    nt = nx * ny1           # residual slack vars
    # predicted p(x,y1) = sum_y2 p(x,y2) q(y1|y2): linear map A @ vec(q)
    a_map = np.zeros((nt, nk))
    for x in range(nx):
        for y1 in range(ny1):
            row = x * ny1 + y1
            for y2 in range(ny2):
                a_map[row, y1 * ny2 + y2] = p_xy2[x, y2]
    b = p_xy1.reshape(-1)

    # |A q - b| <= t  as two inequality blocks; columns of q sum to 1
    a_ub = np.block([[a_map, -np.eye(nt)], [-a_map, -np.eye(nt)]])
    b_ub = np.concatenate([b, -b])
    a_eq = np.zeros((ny2, nk + nt))
    for y2 in range(ny2):
        for y1 in range(ny1):
            a_eq[y2, y1 * ny2 + y2] = 1.0
    b_eq = np.ones(ny2)
    cost = np.concatenate([np.zeros(nk), np.ones(nt)])
    bounds = [(0.0, 1.0)] * nk + [(0.0, None)] * nt

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise CrrdError(f"degradedness LP failed unexpectedly: {res.message}")
    kernel = res.x[:nk].reshape(ny1, ny2)
    # clean tiny negatives and renormalize columns
    kernel = np.clip(kernel, 0.0, None)
    colsum = kernel.sum(axis=0)
    kernel = kernel / np.where(colsum > 0, colsum, 1.0)
    violation = 0.5 * float(np.abs(a_map @ kernel.reshape(-1) - b).sum())
    return DegradednessResult(feasible=violation <= 1e-9, kernel=_frozen(kernel),
                              violation=violation)


def build_erased_source(spec: BinaryErasureSpec) -> JointSource:
    """Uniform binary source with two erased observations, built degraded.

    Y2 erases X with probability p2; Y1 is obtained from Y2 by a further
    erasure with probability (p1-p2)/(1-p2), so the chain X - Y2 - Y1
    holds and the marginal erasure rates are exactly p1 and p2.
    Symbol order on each side-information axis is (0, 1, e).
    """
    pt1 = spec.degraded_erasure_prob
    k2 = np.zeros((2, 3))  # p(y2 | x)
    k1 = np.zeros((3, 3))  # p(y1 | y2)
    for x in range(2):
        k2[x, x] = 1.0 - spec.p2
        k2[x, 2] = spec.p2
    for y2 in range(2):
        k1[y2, y2] = 1.0 - pt1
        k1[y2, 2] = pt1
    k1[2, 2] = 1.0
    mass = 0.5 * k2[:, None, :] * np.transpose(k1)[None, :, :]  # (x, y1, y2)
    labels = (("0", "1"), ("0", "1", "e"), ("0", "1", "e"))
    return JointSource(mass, labels=labels)
