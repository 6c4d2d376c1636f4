"""Rate-distortion functions and regions for multiterminal source coding
with common-reconstruction constraints.

The package pairs closed-form evaluators (Gaussian and binary
erased-side-information models) with independent finite-alphabet
optimizers (exhaustive grid oracles, multistart descent, brute-force
auxiliary-variable solvers) so each side can certify the other.
"""

from .bruteforce import ConRResult, brute_force_conr, brute_force_hb_nocr, \
    brute_force_wz
from .channels import ChannelPolytope, ConRConstraint, TestChannel, compose_joint, \
    eval_distortions, eval_hb_cr_alt_objective, eval_hb_cr_objective
from .closed_form import BinaryMetric, DistortionPair, RegionLabel, RegionRate, \
    binary_hb_test_channel, cascade_region_binary, cascade_region_gaussian, \
    gaussian_hb_test_channel_params, rcr_point_binary, rcr_point_gaussian, \
    rhb_cr_binary, rhb_cr_gaussian
from .descent import DescentResult, descent_hb_cr, descent_weighted
from .errors import CrrdError, GuardExceededError, InfeasibleBudgetError, \
    InvalidSpecError, ShapeMismatchError
from .gridsearch import grid_oracle_hb_cr, grid_oracle_point_cr, simplex_grid
from .measures import MITerm
from .prob import FORBIDDEN, BinaryErasureSpec, DegradednessResult, \
    DistortionMetric, FinitePmf, GaussianSpec, JointSource, binary_entropy, \
    build_erased_source, check_markov_chain, check_stochastic_degradedness, \
    conditional_mutual_information, entropy
from .regions import CascadeBounds, RatePoint, RateRegion, SamplerConfig, \
    cascade_bounds_xy2y1, cascade_region_xy1y2, coop_region_xy1y2, \
    coop_region_xy2y1, dominance_filter

__version__ = "0.1.0"

__all__ = [
    "FORBIDDEN",
    "BinaryErasureSpec",
    "BinaryMetric",
    "CascadeBounds",
    "ChannelPolytope",
    "ConRConstraint",
    "ConRResult",
    "CrrdError",
    "DegradednessResult",
    "DescentResult",
    "DistortionMetric",
    "DistortionPair",
    "FinitePmf",
    "GaussianSpec",
    "GuardExceededError",
    "InfeasibleBudgetError",
    "InvalidSpecError",
    "JointSource",
    "MITerm",
    "RatePoint",
    "RateRegion",
    "RegionLabel",
    "RegionRate",
    "SamplerConfig",
    "ShapeMismatchError",
    "TestChannel",
    "binary_entropy",
    "binary_hb_test_channel",
    "brute_force_conr",
    "brute_force_hb_nocr",
    "brute_force_wz",
    "build_erased_source",
    "cascade_bounds_xy2y1",
    "cascade_region_binary",
    "cascade_region_gaussian",
    "cascade_region_xy1y2",
    "check_markov_chain",
    "check_stochastic_degradedness",
    "compose_joint",
    "conditional_mutual_information",
    "coop_region_xy1y2",
    "coop_region_xy2y1",
    "descent_hb_cr",
    "descent_weighted",
    "dominance_filter",
    "entropy",
    "eval_distortions",
    "eval_hb_cr_alt_objective",
    "eval_hb_cr_objective",
    "gaussian_hb_test_channel_params",
    "grid_oracle_hb_cr",
    "grid_oracle_point_cr",
    "rcr_point_binary",
    "rcr_point_gaussian",
    "rhb_cr_binary",
    "rhb_cr_gaussian",
    "simplex_grid",
]
