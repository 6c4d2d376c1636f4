"""The benchmark's workloads: fixed lists of certified solver operations.

An operation (op) is one public `crrd` solver call plus its correctness
gate.  Gates never trust the solver under test:

* a grid or descent witness is re-evaluated with `channels.eval_distortions`
  and `channels.eval_hb_cr_objective`, which share no code with the
  factored evaluator in `gridsearch`: budgets must hold within 1e-9 and
  the objective must match the reported rate within 1e-9;
* rates are compared with the closed forms where the paper has them, and
  with the ordering facts (no-CR <= CR, WZ <= point oracle, ConR monotone
  in the encoder budget, cascade gap small) where it does not;
* ops that do not depend on the seed are compared with the values recorded
  in `reference.json`: a rate may drift by at most 1e-12 bits, and a grid
  witness or region boundary must not change.

The workload seed picks only the seeds of the `descent_hb_cr` ops and the
random criterion-7-style instances; budgets, steps, sizes and the sampler
seed of `cascade_bounds_xy2y1` are fixed here.  Solvers are called
through their module attribute (for example `gridsearch.grid_oracle_hb_cr`)
so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from crrd import bruteforce, channels, cli, closed_form, descent, gridsearch, \
    regions
from crrd.channels import ConRConstraint, TestChannel
from crrd.closed_form import BinaryMetric, DistortionPair
from crrd.prob import BinaryErasureSpec, DistortionMetric, FinitePmf, JointSource, \
    build_erased_source

REFERENCE_PATH = Path(__file__).with_name("reference.json")
WORKLOADS = ("hb-oracle", "relaxed", "regions")

#: Tolerance of the independent witness re-check (budgets and objective).
WITNESS_TOL = 1e-9
#: Largest drift from a recorded reference value.
REFERENCE_TOL = 1e-12
#: Slack of the ordering facts, which hold exactly on a shared grid.
ORDER_TOL = 1e-9


_TIGHT = tuple((d1, round(d1 * r, 10)) for d1 in (0.1, 0.2)
               for r in (0.2, 0.4, 0.6, 0.8, 1.0))

# Budgets and sizes of the op lists, the same in every configuration.
HB_PAIRS = _TIGHT + ((0.5, 0.5),)
HB_LOOSE = ((0.3, 0.24), (0.4, 0.32))
POINT_D = 0.05
CLI_PAIR = (0.1, 0.05)
CONR_PAIR = (0.1, 0.05)
CONR_DES = (0.0, 0.15)
NOCR_PAIRS = ((0.05, 0.05), (0.1, 0.05), (0.2, 0.05), (0.1, 0.3), (0.2, 0.3))
WZ_DS = (0.03, 0.05, 0.1, 0.15)
WZ_CAP = 3
RANDOM_INSTANCES = 2
REGION_PAIR = (0.3, 0.3)
BOUNDS_PAIR = (0.1, 0.05)
DESCENT_PAIRS = ((0.1, 0.05), (0.2, 0.1))


@dataclass(frozen=True)
class Config:
    """Steps, effort and gate tolerances: what the smoke configuration
    changes."""

    hb_step: float
    grid_tol: float            # grid rate minus closed form, upper bound
    brute_step: float          # no-CR and ConR grid step
    conr_tol: float            # |ConR(de=0) - closed form|
    nocr_tol: float            # no-CR grid bound minus the CR closed form
    wz_step: float
    random_step: float
    region_step: float
    bounds_step: float
    bounds_weights: int
    bounds_restarts: int
    gap_tol: float
    descent_seeds: int         # descent ops per budget pair
    descent_restarts: int
    descent_tol: float         # |descent rate - closed form|
    use_reference: bool


FULL = Config(
    hb_step=0.02,
    grid_tol=5e-3,
    brute_step=0.05,
    conr_tol=1e-2,
    nocr_tol=ORDER_TOL,
    wz_step=0.025,
    random_step=0.1,
    region_step=0.04,
    bounds_step=0.02,
    bounds_weights=11,
    bounds_restarts=4,
    gap_tol=5e-3,
    descent_seeds=6,
    descent_restarts=8,
    descent_tol=1e-6,
    use_reference=True,
)

#: Same op lists at coarse steps and few restarts: a few seconds per
#: workload, for the benchmark's self-tests.  Closed-form tolerances are
#: wider because coarse grids sit further above the true minimum.
SMOKE = Config(
    hb_step=0.1,
    grid_tol=0.1,
    brute_step=0.1,
    conr_tol=0.5,
    nocr_tol=0.1,
    wz_step=0.25,
    random_step=0.25,
    region_step=0.25,
    bounds_step=0.1,
    bounds_weights=3,
    bounds_restarts=1,
    gap_tol=0.1,
    descent_seeds=1,
    descent_restarts=1,
    descent_tol=1e-4,
    use_reference=False,
)


class GateError(Exception):
    """An op's result failed its correctness gate."""


@dataclass(frozen=True)
class Op:
    """One solver call plus gate.  `run(done)` gets the records of the ops
    already finished in this pass and returns this op's record."""

    id: str
    run: Callable[[dict[str, dict]], dict]
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    probe: Callable[[], Any] | None = None   # extra call made in traced runs


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def _pair(p: tuple[float, float]) -> DistortionPair:
    return DistortionPair(*p)


def check_witness(source: JointSource, metric1: DistortionMetric,
                  metric2: DistortionMetric, pair: DistortionPair,
                  rate: float, witness: TestChannel) -> None:
    """Budgets and objective of `witness`, from the independent evaluators."""
    e1, e2 = channels.eval_distortions(source, witness, metric1, metric2)
    _require(e1 <= pair.d1 + WITNESS_TOL and e2 <= pair.d2 + WITNESS_TOL,
             f"witness distortions ({e1!r}, {e2!r}) exceed budgets "
             f"({pair.d1}, {pair.d2})")
    obj = channels.eval_hb_cr_objective(source, witness)
    _require(abs(obj - rate) <= WITNESS_TOL,
             f"witness objective {obj!r} differs from reported rate {rate!r}")


def _check_above_closed(rate: float, closed: float, tol: float, what: str) -> None:
    _require(closed - REFERENCE_TOL <= rate <= closed + tol,
             f"{what} {rate!r} not within [0, {tol}] above closed form {closed!r}")


def matches_reference(got: Any, want: Any) -> bool:
    """Numbers within REFERENCE_TOL, lists elementwise, all else equal."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches_reference(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) or (isinstance(want, int)
                                   and not isinstance(want, bool)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= REFERENCE_TOL)
    return type(got) is type(want) and got == want


def check_reference(op_id: str, record: dict, reference: dict[str, dict]) -> None:
    want = reference.get(op_id)
    _require(want is not None, "no reference value recorded for this op")
    for key, value in want.items():
        _require(matches_reference(record.get(key), value),
                 f"{key} differs from the reference value")


def _spread(base: list[Op], groups: list[list[Op]]) -> list[Op]:
    """`base` with each group inserted whole at evenly spaced positions.

    Mixing cheap and costly ops over the pass keeps a slow spell of a
    shared machine from landing on one kind of op only.
    """
    out = list(base)
    for i in reversed(range(len(groups))):
        pos = (i + 1) * len(base) // (len(groups) + 1)
        out[pos:pos] = groups[i]
    return out


def _gated(op_id: str, body: Callable[[dict], dict], reference: dict | None,
           seeded: bool = False) -> Op:
    def run(done: dict[str, dict]) -> dict:
        record = body(done)
        if reference is not None and not seeded:
            check_reference(op_id, record, reference)
        return record
    return Op(op_id, run, seeded)


def load_reference() -> dict[str, dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# hb-oracle: the criterion-1 cross-check on the erased source


def _hb_oracle_ops(cfg: Config, ref: dict | None) -> list[Op]:
    bspec = BinaryErasureSpec(1.0, 0.35)
    src = build_erased_source(bspec)
    ham = DistortionMetric.hamming(2)
    pmf2 = FinitePmf(src.xy2_marginal())
    ops = []

    def grid_op(p: tuple[float, float]) -> Callable[[dict], dict]:
        pair = _pair(p)

        def body(done: dict) -> dict:
            rate, witness = gridsearch.grid_oracle_hb_cr(src, ham, ham, pair,
                                                         step=cfg.hb_step)
            check_witness(src, ham, ham, pair, rate, witness)
            closed = closed_form.rhb_cr_binary(pair, bspec, BinaryMetric.HAMMING).rate
            _check_above_closed(rate, closed, cfg.grid_tol, "grid rate")
            return {"rate": rate, "witness": witness.cond.tolist()}
        return body

    for p in HB_PAIRS:
        ops.append(_gated(f"hb:{p[0]},{p[1]}", grid_op(p), ref))
    loose = [[_gated(f"hb:{p[0]},{p[1]}", grid_op(p), ref)] for p in HB_LOOSE]

    def point_body(done: dict) -> dict:
        rate = gridsearch.grid_oracle_point_cr(pmf2, ham, POINT_D,
                                               step=cfg.hb_step)
        closed = closed_form.rcr_point_binary(POINT_D, bspec.p2,
                                              BinaryMetric.HAMMING)
        _check_above_closed(rate, closed, cfg.grid_tol, "point rate")
        return {"rate": rate}

    ops.append(_gated(f"point:{POINT_D}", point_body, ref))

    def cli_body(done: dict) -> dict:
        d1, d2 = CLI_PAIR
        argv = ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", str(d1),
                "--d2", str(d2), "--solver", "grid", "--step", str(cfg.hb_step)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        _require(code == 0, f"crrd exited {code}: {err.getvalue().strip()}")
        lines = out.getvalue().splitlines()
        _require(len(lines) == 2 and lines[0] == "sweep_var,value,rate_bits,solver,flag",
                 f"unexpected CSV output {out.getvalue()!r}")
        rate = float(lines[1].split(",")[2])
        closed = closed_form.rhb_cr_binary(_pair(CLI_PAIR), bspec,
                                           BinaryMetric.HAMMING).rate
        # the CSV carries 6 significant digits
        _check_above_closed(rate, closed - 1e-6, cfg.grid_tol + 1e-6, "CLI rate")
        return {"rate": rate, "stdout": out.getvalue()}

    ops.append(_gated("cli:hb-cr", cli_body, ref))
    return _spread(ops, loose)


def _simplex_probe() -> Any:
    return gridsearch.simplex_grid(50, 4)


# --------------------------------------------------------------------------
# relaxed: brute-force auxiliary-variable solvers


def _relaxed_ops(cfg: Config, ref: dict | None, rng: np.random.Generator) -> list[Op]:
    bspec = BinaryErasureSpec(1.0, 0.35)
    src = build_erased_source(bspec)
    ham = DistortionMetric.hamming(2)
    pmf2 = FinitePmf(src.xy2_marginal())

    def closed_hb(pair: DistortionPair) -> float:
        return closed_form.rhb_cr_binary(pair, bspec, BinaryMetric.HAMMING).rate

    def nocr_body(p: tuple[float, float]) -> Callable[[dict], dict]:
        pair = _pair(p)

        def body(done: dict) -> dict:
            rate = bruteforce.brute_force_hb_nocr(src, ham, ham, pair, u_caps=(2, 2),
                                                  step=cfg.brute_step)
            cr = closed_hb(pair)
            _require(0.0 <= rate <= cr + cfg.nocr_tol,
                     f"no-CR rate {rate!r} above the CR closed form {cr!r}")
            return {"rate": rate}
        return body

    nocr_ops = [_gated(f"nocr:{p[0]},{p[1]}", nocr_body(p), ref)
                for p in NOCR_PAIRS]

    nocr_id = f"nocr:{CONR_PAIR[0]},{CONR_PAIR[1]}"
    conr_ids = [f"conr:de={de}" for de in CONR_DES]

    def conr_body(i: int) -> Callable[[dict], dict]:
        de = CONR_DES[i]
        pair = _pair(CONR_PAIR)

        def body(done: dict) -> dict:
            res = bruteforce.brute_force_conr(src, ham, ham, pair,
                                              ConRConstraint(de, de, ham, ham),
                                              u_caps=(2, 2), step=cfg.brute_step)
            _require(not res.heuristic, "map enumeration fell back to heuristic")
            if de == 0.0:
                closed = closed_hb(pair)
                _require(abs(res.rate - closed) <= cfg.conr_tol,
                         f"ConR at de=0 {res.rate!r} not within {cfg.conr_tol} "
                         f"of the closed form {closed!r}")
            if i > 0:
                prev = done[conr_ids[i - 1]]["rate"]
                _require(res.rate <= prev + ORDER_TOL,
                         f"ConR not monotone in de: {res.rate!r} > {prev!r}")
            # the ConR feasible set lies inside the no-CR one on the same grid
            nocr = done[nocr_id]["rate"]
            _require(res.rate >= nocr - ORDER_TOL,
                     f"ConR {res.rate!r} below no-CR {nocr!r}")
            return {"rate": res.rate, "heuristic": res.heuristic,
                    "map_counts": list(res.map_counts)}
        return body

    conr_ops = [[_gated(op_id, conr_body(i), ref)] for i, op_id in enumerate(conr_ids)]

    def wz_body(d: float, pmf: FinitePmf, metric: DistortionMetric, cap: int,
                step: float, closed: float | None) -> Callable[[dict], dict]:
        def body(done: dict) -> dict:
            rate = bruteforce.brute_force_wz(pmf, metric, d, u_cap=cap, step=step)
            point = gridsearch.grid_oracle_point_cr(pmf, metric, d, step=step)
            _require(0.0 <= rate <= point + ORDER_TOL,
                     f"WZ rate {rate!r} above the point oracle {point!r}")
            if closed is not None:
                _require(point >= closed - REFERENCE_TOL,
                         f"point oracle {point!r} below closed form {closed!r}")
            return {"rate": rate, "point": point}
        return body

    wz_ops = [_gated(f"wz:{d}", wz_body(d, pmf2, ham, WZ_CAP, cfg.wz_step,
                                        closed_form.rcr_point_binary(
                                            d, bspec.p2, BinaryMetric.HAMMING)),
                     ref)
              for d in WZ_DS]

    # criterion-7-style random instances: CR >= no-CR and point >= WZ
    random_ops = []
    for i in range(RANDOM_INSTANCES):
        rsrc = JointSource(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
        pair = DistortionPair(float(rng.uniform(0.1, 0.45)),
                              float(rng.uniform(0.1, 0.45)))
        rpmf = FinitePmf(rsrc.xy2_marginal())
        cr_id = f"random{i}:cr"

        def cr_body(done: dict, rsrc=rsrc, pair=pair) -> dict:
            rate, witness = gridsearch.grid_oracle_hb_cr(rsrc, ham, ham, pair,
                                                         step=cfg.random_step)
            check_witness(rsrc, ham, ham, pair, rate, witness)
            return {"rate": rate}

        def rnocr_body(done: dict, rsrc=rsrc, pair=pair, cr_id=cr_id) -> dict:
            rate = bruteforce.brute_force_hb_nocr(rsrc, ham, ham, pair, u_caps=(2, 2),
                                                  step=cfg.random_step)
            cr = done[cr_id]["rate"]
            _require(0.0 <= rate <= cr + ORDER_TOL,
                     f"no-CR rate {rate!r} above the CR oracle {cr!r}")
            return {"rate": rate}

        random_ops.append([
            _gated(cr_id, cr_body, ref, seeded=True),
            _gated(f"random{i}:nocr", rnocr_body, ref, seeded=True),
            _gated(f"random{i}:wz", wz_body(pair.d2, rpmf, ham, 2, cfg.random_step,
                                            None), ref, seeded=True),
        ])
    light = [op for pair in itertools.zip_longest(nocr_ops, wz_ops)
             for op in pair if op is not None]
    # ConR needs the no-CR op at its budget pair, and the previous ConR op
    return _spread(_spread(light, random_ops), conr_ops)


# --------------------------------------------------------------------------
# regions: region materialization, dominance filtering and descent


def bsc_chain_source(e1: float, e2: float) -> JointSource:
    """X ~ Ber(1/2), Y1 = BSC(e1)(X), Y2 = BSC(e2)(Y1)."""
    mass = np.zeros((2, 2, 2))
    for x in range(2):
        for y1 in range(2):
            for y2 in range(2):
                p1 = 1 - e1 if y1 == x else e1
                p2 = 1 - e2 if y2 == y1 else e2
                mass[x, y1, y2] = 0.5 * p1 * p2
    return JointSource(mass)


def _check_antichain(points) -> list[list[float]]:
    pts = [[float(p.r1), float(p.r2)] for p in points]
    _require(len(pts) > 0, "empty region")
    _require(all(math.isfinite(a) and math.isfinite(b) and a >= 0 and b >= 0
                 for a, b in pts), "region has a negative or non-finite rate")
    _require(all(a[0] < b[0] and a[1] > b[1] for a, b in zip(pts, pts[1:])),
             "boundary points are not a sorted antichain")
    return pts


def _regions_ops(cfg: Config, ref: dict | None, rng: np.random.Generator) -> list[Op]:
    bspec = BinaryErasureSpec(1.0, 0.35)
    erased = build_erased_source(bspec)
    chain = bsc_chain_source(0.1, 0.2)
    ham = DistortionMetric.hamming(2)
    rpair = _pair(REGION_PAIR)
    grid_cfg = regions.SamplerConfig(method="grid", step=cfg.region_step)

    def coop_body(done: dict) -> dict:
        region = regions.coop_region_xy1y2(chain, ham, ham, rpair, grid_cfg)
        return {"points": _check_antichain(region.points)}

    def cascade_body(done: dict) -> dict:
        region = regions.cascade_region_xy1y2(chain, ham, ham, rpair, grid_cfg)
        pts = _check_antichain(region.points)
        # r2 = I(X;Xh2|Y2) over channels meeting both budgets cannot beat
        # the point oracle, which only has to meet d2 on the same grid
        point = gridsearch.grid_oracle_point_cr(FinitePmf(chain.xy2_marginal()),
                                                ham, rpair.d2, step=cfg.region_step)
        _require(pts[-1][1] >= point - ORDER_TOL,
                 f"cascade r2 {pts[-1][1]!r} below the point oracle {point!r}")
        return {"points": pts}

    bpair = _pair(BOUNDS_PAIR)

    def bounds_body(done: dict) -> dict:
        wit = closed_form.binary_hb_test_channel(bpair, bspec)
        scfg = regions.SamplerConfig(method="scalarize", step=cfg.bounds_step,
                                     n_weights=cfg.bounds_weights,
                                     restarts=cfg.bounds_restarts, seed=0,
                                     seed_channels=(wit,))
        b = regions.cascade_bounds_xy2y1(erased, ham, ham, bpair, scfg)
        _require(0.0 <= b.gap < cfg.gap_tol, f"cascade gap {b.gap!r} not below {cfg.gap_tol}")
        corner = b.outer.points[0]
        r1 = closed_form.rhb_cr_binary(bpair, bspec, BinaryMetric.HAMMING).rate
        r2 = closed_form.rcr_point_binary(bpair.d2, bspec.p2, BinaryMetric.HAMMING)
        _require(abs(corner.r1 - r1) <= cfg.descent_tol,
                 f"outer corner r1 {corner.r1!r} vs closed form {r1!r}")
        _check_above_closed(corner.r2, r2, cfg.grid_tol, "outer corner r2")
        return {"gap": b.gap, "corner": [float(corner.r1), float(corner.r2)],
                "inner": _check_antichain(b.inner.points)}

    def descent_body(p: tuple[float, float], seed: int) -> Callable[[dict], dict]:
        pair = _pair(p)

        def body(done: dict) -> dict:
            res = descent.descent_hb_cr(erased, ham, ham, pair,
                                        restarts=cfg.descent_restarts, seed=seed)
            rate = float(res.rate)
            check_witness(erased, ham, ham, pair, rate, res.witness)
            closed = closed_form.rhb_cr_binary(pair, bspec, BinaryMetric.HAMMING).rate
            _require(abs(rate - closed) <= cfg.descent_tol,
                     f"descent rate {rate!r} not within {cfg.descent_tol} "
                     f"of the closed form {closed!r}")
            return {"rate": rate, "seed": seed}
        return body

    descents = []
    for _ in range(cfg.descent_seeds):
        for p in DESCENT_PAIRS:
            seed = int(rng.integers(2**31))
            descents.append(_gated(f"descent:{p[0]},{p[1]}:seed={seed}",
                                   descent_body(p, seed), ref, seeded=True))
    return _spread(descents, [[_gated("coop_xy1y2", coop_body, ref)],
                              [_gated("cascade_xy1y2", cascade_body, ref)],
                              [_gated("cascade_bounds_xy2y1", bounds_body, ref)]])


def build(name: str, seed: int, cfg: Config = FULL) -> Workload:
    """The op list of workload `name`; `seed` only feeds seeded ops."""
    ref = load_reference() if cfg.use_reference else None
    rng = np.random.default_rng(seed)
    if name == "hb-oracle":
        return Workload(name, tuple(_hb_oracle_ops(cfg, ref)),
                        probe=_simplex_probe)
    if name == "relaxed":
        return Workload(name, tuple(_relaxed_ops(cfg, ref, rng)))
    if name == "regions":
        return Workload(name, tuple(_regions_ops(cfg, ref, rng)))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
