"""Analytic rate-distortion evaluators for the two tractable source families.

Covers the point-to-point and two-decoder broadcast (Heegard-Berger)
problems under a common-reconstruction constraint, for

* a Gaussian source with two noisy observations and quadratic distortion,
* a uniform binary source with two erased observations and Hamming or
  erasure distortion,

plus the cascade (two-hop) rate thresholds built from them, and the
achievability test channels that witness the broadcast formulas.  Each
broadcast evaluator also classifies which distortion budget is active,
mirroring the four-region split of the distortion plane.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import TestChannel
from .errors import InvalidSpecError
from .prob import BinaryErasureSpec, GaussianSpec, binary_entropy, check_budget

__all__ = [
    "DistortionPair",
    "RegionLabel",
    "BinaryMetric",
    "RegionRate",
    "rcr_point_gaussian",
    "rhb_cr_gaussian",
    "rcr_point_binary",
    "rhb_cr_binary",
    "cascade_region_gaussian",
    "cascade_region_binary",
    "binary_hb_test_channel",
    "gaussian_hb_test_channel_params",
]


@dataclass(frozen=True)
class DistortionPair:
    """Distortion budgets for the two decoders."""

    d1: float
    d2: float

    def __post_init__(self):
        check_budget("d1", self.d1)
        check_budget("d2", self.d2)


class RegionLabel(enum.Enum):
    """Which distortion constraints shape the rate at a budget pair."""

    BOTH_TRIVIAL = "both_trivial"
    ONLY_D1_ACTIVE = "only_d1_active"
    ONLY_D2_ACTIVE = "only_d2_active"
    BOTH_ACTIVE = "both_active"


class BinaryMetric(enum.Enum):
    HAMMING = "hamming"
    ERASURE = "erasure"


class RegionRate(NamedTuple):
    rate: float
    label: RegionLabel


def rcr_point_gaussian(d: float, sigma_x2: float, n: float) -> float:
    """Point-to-point CR rate for a Gaussian source, quadratic distortion.

    0.5*log2( sigma^2/(sigma^2+N) * (D+N)/D ) for D <= sigma^2, else 0.
    The rate is unbounded as D -> 0, so D <= 0 is rejected.
    """
    if sigma_x2 <= 0:
        raise InvalidSpecError("sigma_x2 must be > 0")
    if n < 0:
        raise InvalidSpecError("noise variance must be >= 0")
    if d <= 0:
        raise InvalidSpecError("d must be > 0 (rate is unbounded at d = 0)")
    if d >= sigma_x2:
        return 0.0
    return 0.5 * math.log2(sigma_x2 / (sigma_x2 + n) * (d + n) / d)


def _rhb_tilde_gaussian(d1: float, d2: float, spec: GaussianSpec) -> float:
    s, n1, n2 = spec.sigma_x2, spec.n1, spec.n2
    return 0.5 * math.log2(
        s / (s + n1 + n2) * (d1 + n1 + n2) * (d2 + n2) / ((d1 + n2) * d2)
    )


def rhb_cr_gaussian(pair: DistortionPair, spec: GaussianSpec) -> RegionRate:
    """Broadcast CR rate for the Gaussian pair, with region classification.

    Piecewise over the (D1, D2) plane, in this case order:
    zero when both budgets exceed the source variance; a single
    point-to-point rate when only one budget binds; and the two-layer
    rate when D2 <= D1 <= sigma^2.  The formula is continuous across all
    region boundaries.
    """
    d1, d2 = pair.d1, pair.d2
    if d1 <= 0 or d2 <= 0:
        raise InvalidSpecError("distortions must be > 0 for the Gaussian forms")
    s = spec.sigma_x2
    if d1 >= s and d2 >= s:
        return RegionRate(0.0, RegionLabel.BOTH_TRIVIAL)
    if d1 <= s and d2 >= min(d1, s):
        return RegionRate(rcr_point_gaussian(d1, s, spec.n1 + spec.n2),
                          RegionLabel.ONLY_D1_ACTIVE)
    if d1 >= s and d2 <= s:
        return RegionRate(rcr_point_gaussian(d2, s, spec.n2),
                          RegionLabel.ONLY_D2_ACTIVE)
    return RegionRate(_rhb_tilde_gaussian(d1, d2, spec), RegionLabel.BOTH_ACTIVE)


def rcr_point_binary(d: float, p: float, metric: BinaryMetric) -> float:
    """Point-to-point CR rate, uniform binary source, erased side info.

    Hamming: p*(1 - H(D)) for D <= 1/2, else 0.
    Erasure: p*(1 - D), clamped at 0 for D >= 1.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidSpecError("erasure probability must lie in [0,1]")
    if d < 0:
        raise InvalidSpecError("distortion must be >= 0")
    if metric is BinaryMetric.HAMMING:
        if d >= 0.5:
            return 0.0
        return p * (1.0 - binary_entropy(d))
    return p * max(0.0, 1.0 - d)


def _trivial_distortion(metric: BinaryMetric) -> float:
    # budget beyond which a decoder needs no information at all
    return 0.5 if metric is BinaryMetric.HAMMING else 1.0


def rhb_cr_binary(pair: DistortionPair, spec: BinaryErasureSpec,
                  metric: BinaryMetric) -> RegionRate:
    """Broadcast CR rate for the erased binary pair, with region label.

    Same four-region split as the Gaussian case, with the trivialization
    threshold at 1/2 for Hamming distortion and at 1 for erasure
    distortion.  In the two-layer region,

    Hamming: p1*(1 - H(D1)) + p2*(H(D1) - H(D2)),
    erasure: p1*(1 - D1) + p2*(D1 - D2).
    """
    d1, d2 = pair.d1, pair.d2
    p1, p2 = spec.p1, spec.p2
    thr = _trivial_distortion(metric)
    if d1 >= thr and d2 >= thr:
        return RegionRate(0.0, RegionLabel.BOTH_TRIVIAL)
    if d1 <= thr and d2 >= min(d1, thr):
        return RegionRate(rcr_point_binary(d1, p1, metric), RegionLabel.ONLY_D1_ACTIVE)
    if d1 >= thr and d2 <= thr:
        return RegionRate(rcr_point_binary(d2, p2, metric), RegionLabel.ONLY_D2_ACTIVE)
    if metric is BinaryMetric.HAMMING:
        h1, h2 = binary_entropy(d1), binary_entropy(d2)
        rate = p1 * (1.0 - h1) + p2 * (h1 - h2)
    else:
        rate = p1 * (1.0 - d1) + p2 * (d1 - d2)
    return RegionRate(rate, RegionLabel.BOTH_ACTIVE)


def cascade_region_gaussian(pair: DistortionPair,
                            spec: GaussianSpec) -> tuple[float, float]:
    """Two-hop rate thresholds (r1_min, r2_min) for the Gaussian model.

    First hop pays the full broadcast rate; second hop pays the
    point-to-point rate toward the final decoder.
    """
    r1 = rhb_cr_gaussian(pair, spec).rate
    r2 = 0.0 if pair.d2 >= spec.sigma_x2 else rcr_point_gaussian(
        pair.d2, spec.sigma_x2, spec.n2)
    return (r1, r2)


def cascade_region_binary(pair: DistortionPair, spec: BinaryErasureSpec,
                          metric: BinaryMetric) -> tuple[float, float]:
    """Two-hop rate thresholds (r1_min, r2_min) for the erased binary model
    under `metric`: the broadcast rate on the first hop, the
    point-to-point rate toward the final decoder on the second."""
    r1 = rhb_cr_binary(pair, spec, metric).rate
    r2 = rcr_point_binary(pair.d2, spec.p2, metric)
    return (r1, r2)


def binary_hb_test_channel(pair: DistortionPair,
                           spec: BinaryErasureSpec) -> TestChannel:
    """Two-layer achievability channel for the binary broadcast problem.

    Builds p(xhat1, xhat2 | x) from the backward chain: xhat1 uniform,
    xhat2 = xhat1 XOR Q1, x = xhat2 XOR Q2 with Q2 ~ Ber(D2) and Q1 ~ Ber(q)
    where q solves the binary convolution q(1-D2) + D2(1-q) = D1, so the
    end-to-end flip X XOR Xhat1 is Ber(D1) exactly.  Requires
    D2 <= D1 <= 1/2.

    Evaluating the broadcast objective at this channel on the matching
    erased source reproduces the closed form exactly; it doubles as a
    descent initializer.
    """
    d1, d2 = pair.d1, pair.d2
    if not (0.0 <= d2 <= d1 <= 0.5):
        raise InvalidSpecError(f"need 0 <= D2 <= D1 <= 1/2, got {pair}")
    if d1 == d2:
        q = 0.0
    else:
        if d2 >= 0.5:
            raise InvalidSpecError("D2 must be < 1/2 when D1 > D2")
        q = (d1 - d2) / (1.0 - 2.0 * d2)
    cond = np.empty((2, 2, 2))
    for x in range(2):
        for a in range(2):
            for b in range(2):
                q1 = q if a != b else 1.0 - q
                q2 = d2 if b != x else 1.0 - d2
                cond[x, a, b] = q1 * q2
    return TestChannel(cond)


def gaussian_hb_test_channel_params(
        pair: DistortionPair, spec: GaussianSpec) -> tuple[float, float, float]:
    """Variance split (var_xhat1, var_q1, var_q2) of the Gaussian two-layer
    test channel; the three parts sum to the source variance."""
    d1, d2 = pair.d1, pair.d2
    if not (d2 <= d1 <= spec.sigma_x2):
        raise InvalidSpecError(f"need D2 <= D1 <= sigma_x2, got {pair}")
    return (spec.sigma_x2 - d1, d1 - d2, d2)
