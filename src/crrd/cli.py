"""Command-line front end.

Parses a problem description (JSON spec file and/or flags; flags win),
dispatches to the closed forms and numerical solvers, and emits the
resulting curve or region as CSV or JSON.  Output is byte-identical for
identical spec and seed: rows follow the sweep order, numbers are printed
with 6 significant digits, files use LF endings and UTF-8, and volatile
data such as wall time goes to stderr only.

Exit codes: 0 success, 2 spec error, 3 infeasible budgets, 4 enumeration
guard exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from typing import Any, Callable

import numpy as np

from .bruteforce import brute_force_conr, brute_force_hb_nocr, brute_force_wz
from .channels import ConRConstraint, TestChannel
from .closed_form import BinaryMetric, DistortionPair, binary_hb_test_channel, \
    cascade_region_binary, cascade_region_gaussian, rcr_point_binary, \
    rcr_point_gaussian, rhb_cr_binary, rhb_cr_gaussian
from .descent import descent_hb_cr
from .errors import CrrdError, GuardExceededError, InfeasibleBudgetError, \
    InvalidSpecError
from .gridsearch import HB_GUARD_DEFAULT, grid_oracle_hb_cr, grid_oracle_point_cr
from .prob import BinaryErasureSpec, DistortionMetric, FinitePmf, GaussianSpec, \
    JointSource, build_erased_source, check_markov_chain, \
    check_stochastic_degradedness
from .regions import SamplerConfig, cascade_bounds_xy2y1, cascade_region_xy1y2, \
    coop_region_xy1y2, coop_region_xy2y1

__all__ = ["main", "run_command", "emit_csv", "emit_json"]

_SCALAR_COLUMNS = ["sweep_var", "value", "rate_bits", "solver", "flag"]
_REGION_COLUMNS = ["sweep_var", "value", "r1_bits", "r2_bits", "solver", "flag",
                   "provenance"]
#: Most points one sweep may ask for; each point is a separate solve.
_MAX_SWEEP_POINTS = 10_000


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def emit_csv(doc: dict, path: str | None) -> None:
    """Write the result table; 6 significant digits, LF endings, UTF-8."""
    lines = [",".join(doc["columns"])]
    for row in doc["rows"]:
        lines.append(",".join(_fmt(v) for v in row))
    _write("\n".join(lines) + "\n", path)


def emit_json(doc: dict, path: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def _number(value: Any, field: str, kind: type = float) -> Any:
    """`kind(value)`, or InvalidSpecError naming the spec field.  Booleans
    are not numbers here, and an `int` field takes integral values only."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        if kind is int and not isinstance(value, str) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpecError(
            f"{field} must be {kind.__name__}, got {value!r}") from None


def _get(spec: dict, key: str, default: Any, kind: type = float) -> Any:
    """Numeric spec field `key` (or `default` when absent) as `kind`."""
    return _number(spec.get(key, default), key, kind)


def _parse_model(text: str) -> dict:
    if not isinstance(text, str) or ":" not in text:
        raise InvalidSpecError(f"model must look like name:args, got {text!r}")
    name, args = text.split(":", 1)
    name = name.strip().lower().replace("_", "-")
    if name == "custom":
        with open(args, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InvalidSpecError("custom model file must hold a JSON object")
        return {"kind": "custom", "doc": doc}
    vals = [v for v in args.split(",") if v.strip() != ""]
    if name in ("gaussian", "g"):
        fields = {2: ("sigma_x2", "n2"), 3: ("sigma_x2", "n1", "n2")}.get(len(vals))
        if fields is None:
            raise InvalidSpecError("gaussian model needs sigma_x2,n or sigma_x2,n1,n2")
        model = {"kind": "gaussian", "n1": 0.0}
    elif name in ("binary-erased", "binary", "b"):
        fields = {1: ("p",), 2: ("p1", "p2")}.get(len(vals))
        if fields is None:
            raise InvalidSpecError("binary model needs p or p1,p2")
        model = {"kind": "binary"}
    else:
        raise InvalidSpecError(f"unknown model {name!r}")
    for key, v in zip(fields, vals):
        model[key] = _number(v, f"{name} model field {key}")
    return model


def _binary_metric(spec: dict) -> BinaryMetric:
    """The spec's `metric` (default hamming), in any letter case."""
    name = spec.get("metric", "hamming")
    try:
        return BinaryMetric[str(name).strip().upper()]
    except KeyError:
        raise InvalidSpecError(
            f"metric must be hamming or erasure, got {name!r}") from None


def _metric_objects(kind: BinaryMetric) -> DistortionMetric:
    if kind is BinaryMetric.HAMMING:
        return DistortionMetric.hamming(2)
    return DistortionMetric.erasure(2)


def _erased_pair_pmf(p: float) -> FinitePmf:
    mass = np.zeros((2, 3))
    for x in range(2):
        mass[x, x] = 0.5 * (1.0 - p)
        mass[x, 2] = 0.5 * p
    return FinitePmf(mass)


def _sweep_values(spec: dict) -> tuple[str, list[float]]:
    sw = spec.get("sweep")
    if not sw:
        return "d1", [_get(spec, "d1", 0.0)]
    if isinstance(sw, str):
        parts = sw.split(":")
        if len(parts) != 4:
            raise InvalidSpecError("sweep must be var:from:to:count")
    elif isinstance(sw, dict) and {"var", "from", "to", "count"} <= sw.keys():
        parts = [sw["var"], sw["from"], sw["to"], sw["count"]]
    else:
        raise InvalidSpecError("sweep must be var:from:to:count or an object with "
                               "var, from, to and count")
    var = parts[0]
    lo = _number(parts[1], "sweep from")
    hi = _number(parts[2], "sweep to")
    count = _number(parts[3], "sweep count", int)
    if var not in ("d1", "d2"):
        raise InvalidSpecError(f"unsupported sweep variable {var!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidSpecError("sweep from and to must be finite")
    if not 1 <= count <= _MAX_SWEEP_POINTS:
        raise InvalidSpecError(f"sweep count must be in 1..{_MAX_SWEEP_POINTS}")
    return var, [float(v) for v in np.linspace(lo, hi, count)]


def _budget_pair(spec: dict, var: str, value: float) -> DistortionPair:
    pair = {"d1": _get(spec, "d1", 0.0), "d2": _get(spec, "d2", 0.0)}
    pair[var] = value
    return DistortionPair(**pair)


def _solver_list(spec: dict, allowed: tuple[str, ...], default: str) -> list[str]:
    """The spec's `solver`, with "both" meaning closed_form then grid, each
    checked against the command's `allowed` solvers."""
    solver = str(spec.get("solver", default)).lower()
    chosen = ["closed_form", "grid"] if solver == "both" else [solver]
    for s in chosen:
        if s not in allowed:
            raise InvalidSpecError(
                f"solver {s!r} not valid here (allowed: {', '.join(allowed)})")
    return chosen


def _erased(model: dict) -> BinaryErasureSpec:
    """The erasure probabilities of a two-decoder binary-erased model."""
    if "p1" not in model:
        raise InvalidSpecError("two-decoder problems need binary-erased:p1,p2")
    return BinaryErasureSpec(model["p1"], model["p2"])


def _custom_entry(model: dict, key: str, parse: Callable[[str], Any]) -> Any:
    """Entry `key` of a custom model file, read by `parse` (a `from_json`)."""
    try:
        entry = model["doc"][key]
    except KeyError:
        raise InvalidSpecError(f"custom model file has no {key!r} entry") from None
    return parse(json.dumps(entry))


def _source(model: dict) -> JointSource:
    """The joint source of a two-decoder binary-erased or custom model."""
    if model["kind"] == "binary":
        return build_erased_source(_erased(model))
    if model["kind"] == "custom":
        return _custom_entry(model, "source", JointSource.from_json)
    raise InvalidSpecError(
        "this command needs a binary-erased:p1,p2 or custom model")


def _finite_instance(spec: dict):
    """(source, metric1, metric2) for grid/descent solvers.  A custom model's
    metric rows follow the file's X alphabet; the rows of the symbols that
    `JointSource` prunes (p(x) = 0) go with them."""
    model = spec["model"]
    src = _source(model)
    if model["kind"] == "binary":
        met = _metric_objects(_binary_metric(spec))
        return src, met, met
    px = _custom_entry(model, "source", FinitePmf.from_json).mass.sum(axis=(1, 2))
    metrics = [_custom_entry(model, key, DistortionMetric.from_json)
               for key in ("metric1", "metric2")]
    if any(m.n_inputs != px.size for m in metrics):
        raise InvalidSpecError(f"metric rows must equal |X| = {px.size} of the source file")
    return (src, *(DistortionMetric(m.matrix[px > 0]) for m in metrics))


def _hb_instance(spec: dict) -> tuple:
    """(source, metric1, metric2) in the HB solvers' order (Y1 degraded w.r.t.
    Y2), a function putting per-decoder pairs in that order, the row flag and
    the JSON meta of the hypothesis: none for binary-erased models (degraded
    by design); a custom source degraded neither way as given or Y-swapped
    keeps its order and flags its rows `not_degraded`."""
    src, m1, m2 = _finite_instance(spec)
    if spec["model"]["kind"] != "custom":
        return src, m1, m2, lambda a, b: (a, b), "", {}
    swapped = JointSource(src.mass.transpose(0, 2, 1))
    given, other = (check_stochastic_degradedness(s) for s in (src, swapped))
    if other.feasible and not given.feasible:
        return swapped, m2, m1, lambda a, b: (b, a), "", {
            "degraded_order": "x-y1-y2", "violation_tv": other.violation}
    return src, m1, m2, lambda a, b: (a, b), "" if given.feasible else "not_degraded", {
        "degraded_order": "x-y2-y1" if given.feasible else "none",
        "violation_tv": given.violation}


def _point_instance(spec: dict) -> tuple[FinitePmf, DistortionMetric]:
    """(pair pmf, metric) for the point-to-point grid and Wyner-Ziv solvers."""
    model = spec["model"]
    if model["kind"] == "binary":
        pmf = _erased_pair_pmf(model.get("p", model.get("p1")))
        return pmf, _metric_objects(_binary_metric(spec))
    if model["kind"] == "custom":
        return (_custom_entry(model, "pair_pmf", FinitePmf.from_json),
                _custom_entry(model, "metric", DistortionMetric.from_json))
    raise InvalidSpecError("point-to-point solver needs a finite-alphabet model")


def _binary_seed_channel(spec: dict, pair: DistortionPair) -> TestChannel | None:
    """The closed-form binary test channel, where it applies (Hamming
    metric, d2 <= d1 <= 1/2); None otherwise."""
    model = spec["model"]
    if model["kind"] == "binary" and pair.d2 <= pair.d1 <= 0.5 \
            and _binary_metric(spec) is BinaryMetric.HAMMING:
        return binary_hb_test_channel(pair, _erased(model))
    return None


def _closed_form(spec: dict, kind: str, budget: Any) -> Any:
    """The paper's closed form for the spec's model: the point-to-point CR
    rate at d1 = `budget` ("point"), or at the pair `budget` the HB CR
    `RegionRate` ("hb") or the cascade corner (r1, r2) ("cascade")."""
    model = spec["model"]
    if model["kind"] == "gaussian":
        if kind == "point":
            return rcr_point_gaussian(budget, model["sigma_x2"], model["n1"] + model["n2"])
        gspec = GaussianSpec(model["sigma_x2"], model["n1"], model["n2"])
        if kind == "hb":
            return rhb_cr_gaussian(budget, gspec)
        return cascade_region_gaussian(budget, gspec)
    if model["kind"] == "binary":
        if kind == "point":
            return rcr_point_binary(budget, model.get("p", model.get("p1")),
                                    _binary_metric(spec))
        if kind == "hb":
            return rhb_cr_binary(budget, _erased(model), _binary_metric(spec))
        return cascade_region_binary(budget, _erased(model), _binary_metric(spec))
    raise InvalidSpecError("closed form needs a gaussian or binary-erased model")


def _caps(spec: dict) -> tuple[int, int]:
    """The spec's (u1_cap, u2_cap) auxiliary cardinalities, default (2, 2)."""
    return _get(spec, "u1_cap", 2, int), _get(spec, "u2_cap", 2, int)


def _scalar_doc(command: str, spec: dict, solvers: list[str],
                solve: Callable[[str, Any], tuple[float, str]], **meta: Any) -> dict:
    """The scalar table: one row per sweep value and solver, in that order.
    `solve(solver, budget)` returns (rate, flag); the budget is d1 for the
    point-to-point commands, which sweep d1 only, and the pair otherwise."""
    var, values = _sweep_values(spec)
    point = command in ("point-cr", "wz")
    if point and var != "d1":
        raise InvalidSpecError(f"{command} sweeps d1 only")
    rows = []
    for value in values:
        budget = value if point else _budget_pair(spec, var, value)
        for solver in solvers:
            rate, flag = solve(solver, budget)
            rows.append([var, value, rate, solver, flag])
    return _doc(command, spec, _SCALAR_COLUMNS, rows, **meta)


def run_point_cr(spec: dict) -> dict:
    solvers = _solver_list(spec, ("closed_form", "grid"), "closed_form")
    step = _get(spec, "step", 0.01)
    pmf, met = _point_instance(spec) if "grid" in solvers else (None, None)
    return _scalar_doc("point-cr", spec, solvers, lambda solver, d1: (
        _closed_form(spec, "point", d1) if solver == "closed_form"
        else grid_oracle_point_cr(pmf, met, d1, step), ""))


def run_hb_cr(spec: dict) -> dict:
    solvers = _solver_list(spec, ("closed_form", "grid", "descent"), "closed_form")
    step = _get(spec, "step", 0.02)
    restarts = _get(spec, "restarts", 8, int)
    seed = _get(spec, "seed", 0, int)
    src, m1, m2, order, flag, meta = (_hb_instance(spec) if solvers != ["closed_form"]
                                      else (None, None, None, None, "", {}))

    def solve(solver: str, pair: DistortionPair) -> tuple[float, str]:
        if solver == "closed_form":
            rate, label = _closed_form(spec, "hb", pair)
            return rate, label.value
        budget = DistortionPair(*order(pair.d1, pair.d2))
        if solver == "grid":
            return grid_oracle_hb_cr(src, m1, m2, budget, step, guard=_get(
                spec, "guard", HB_GUARD_DEFAULT, int))[0], flag
        return descent_hb_cr(src, m1, m2, budget, restarts=restarts, seed=seed,
                             init=_binary_seed_channel(spec, pair)).rate, flag
    return _scalar_doc("hb-cr", spec, solvers, solve, **meta)


def _boundary_rows(region, solver: str, provenance: str = "") -> list[list]:
    """One row per boundary point, tagged `provenance` or else the point's own."""
    return [["boundary", float(i), p.r1, p.r2, solver, "", provenance or p.provenance]
            for i, p in enumerate(region.points)]


def _sampler_config(spec: dict, solver: str) -> SamplerConfig:
    """Sampler knobs for a validated `solver`: grid, or descent (scalarize)."""
    return SamplerConfig(
        method="grid" if solver == "grid" else "scalarize",
        step=_get(spec, "step", 0.1),
        n_weights=_get(spec, "weights", 11, int),
        restarts=_get(spec, "restarts", 4, int),
        seed=_get(spec, "seed", 0, int),
    )


def _chain(spec: dict) -> str:
    """The spec's Markov chain in lower case, or "" when it names none."""
    chain = str(spec.get("chain", "")).lower()
    if chain not in ("", "x-y1-y2", "x-y2-y1"):
        raise InvalidSpecError(f"chain must be x-y1-y2 or x-y2-y1, got {spec['chain']!r}")
    return chain


def _detect_chain(given: str, src: JointSource, chains: tuple[str, str]) -> str:
    """The chain `given` by `_chain`, else the first of `chains` the source satisfies."""
    if given:
        return given
    for chain in chains:
        if check_markov_chain(src, chain):
            return chain
    raise InvalidSpecError("source satisfies neither Markov chain; pass --chain")


def run_coop_cr(spec: dict) -> dict:
    src, m1, m2 = _finite_instance(spec)
    chain = _detect_chain(_chain(spec), src, ("x-y1-y2", "x-y2-y1"))
    var, values = _sweep_values(spec)
    [solver] = _solver_list(spec, ("grid", "descent"), "grid")
    cfg = _sampler_config(spec, solver)
    rows = []
    meta: dict[str, Any] = {}
    for value in values:
        pair = _budget_pair(spec, var, value)
        if chain == "x-y1-y2":
            region = coop_region_xy1y2(src, m1, m2, pair, cfg)
        else:
            region = coop_region_xy2y1(src, m1, m2, pair, cfg)
            meta["unbounded"] = list(region.unbounded)
        rows.extend(_boundary_rows(region, cfg.method))
    return _doc("coop-cr", spec, _REGION_COLUMNS, rows, **meta, chain=chain)


def run_cascade_cr(spec: dict) -> dict:
    var, values = _sweep_values(spec)
    solvers = _solver_list(spec, ("closed_form", "grid", "descent"), "closed_form")
    chain = _chain(spec)
    if solvers[-1] != "closed_form":   # the one sampler solver comes last
        src, m1, m2 = _finite_instance(spec)
        cfg = _sampler_config(spec, solvers[-1])
        chain = _detect_chain(chain, src, ("x-y2-y1", "x-y1-y2"))
    rows = []
    meta: dict[str, Any] = {}
    for value in values:
        pair = _budget_pair(spec, var, value)
        for solver in solvers:
            if solver == "closed_form":
                r1, r2 = _closed_form(spec, "cascade", pair)
                meta["inner_outer"] = "coincident"
                rows.append(["corner", value, r1, r2, solver, "", "outer-corner"])
            elif chain == "x-y1-y2":
                region = cascade_region_xy1y2(src, m1, m2, pair, cfg)
                rows.extend(_boundary_rows(region, solver))
            else:
                init = _binary_seed_channel(spec, pair)
                bounds = cascade_bounds_xy2y1(src, m1, m2, pair, dataclasses.replace(
                    cfg, seed_channels=() if init is None else (init,)))
                oc = bounds.outer.points[0]
                rows.append(["corner", value, oc.r1, oc.r2, solver, "", "outer-corner"])
                rows.extend(_boundary_rows(bounds.inner, solver, "inner"))
                meta["gap_bits"] = bounds.gap
    return _doc("cascade-cr", spec, _REGION_COLUMNS, rows, **meta)


def run_conr(spec: dict) -> dict:
    src, m1, m2, order, flag, meta = _hb_instance(spec)
    step = _get(spec, "step", 0.05)
    caps = _caps(spec)
    de = [_get(spec, "de1", 0.0), _get(spec, "de2", 0.0)]
    conr = ConRConstraint(*order(*de), DistortionMetric.hamming(m1.n_outputs),
                          DistortionMetric.hamming(m2.n_outputs))
    exact_caps = [src.nx + 4, (src.nx + 2) ** 2]
    solver_caps = order(*caps)
    reduced = ("caps_reduced" if solver_caps[0] < exact_caps[0]
               or solver_caps[1] < exact_caps[1] else "")
    map_budget = _get(spec, "map_budget", 1_000_000, int)

    def solve(solver: str, pair: DistortionPair) -> tuple[float, str]:
        res = brute_force_conr(src, m1, m2, DistortionPair(*order(pair.d1, pair.d2)),
                               conr, u_caps=solver_caps, step=step, map_budget=map_budget)
        flags = ("heuristic" if res.heuristic else "", reduced, flag)
        return res.rate, ";".join(f for f in flags if f)
    return _scalar_doc("conr", spec, ["brute_force"], solve, **meta, u_caps=list(caps),
                       exact_caps=exact_caps, de=de)


def run_hb_nocr(spec: dict) -> dict:
    src, m1, m2, order, flag, meta = _hb_instance(spec)
    step = _get(spec, "step", 0.05)
    caps = _caps(spec)
    return _scalar_doc("hb-nocr", spec, ["brute_force"], lambda solver, pair: (
        brute_force_hb_nocr(src, m1, m2, DistortionPair(*order(pair.d1, pair.d2)),
                            u_caps=order(*caps), step=step), flag), **meta, u_caps=list(caps))


def run_wz(spec: dict) -> dict:
    step = _get(spec, "step", 0.05)
    cap = _get(spec, "u_cap", 3, int)
    pmf, met = _point_instance(spec)
    return _scalar_doc("wz", spec, ["brute_force"], lambda solver, d1: (
        brute_force_wz(pmf, met, d1, cap, step), ""))


def run_degradedness(spec: dict) -> dict:
    res = check_stochastic_degradedness(_source(spec["model"]))
    rows = [["verdict", 1.0 if res.feasible else 0.0, res.violation,
             "linear_program", "feasible" if res.feasible else "infeasible"]]
    return _doc("degradedness", spec, _SCALAR_COLUMNS, rows,
                kernel=[[float(v) for v in row] for row in res.kernel],
                violation_tv=res.violation)


def run_figure(spec: dict) -> dict:
    fid = _get(spec, "id", 0, int)
    if fid == 6:
        gspec = GaussianSpec(4.0, 2.0, 3.0)
        d1_values = [round(0.1 * i, 10) for i in range(1, 61)]
        rows = []
        for d2 in (0.5, 1.0, 2.5, 5.0):
            for d1 in d1_values:
                rate, label = rhb_cr_gaussian(DistortionPair(d1, d2), gspec)
                rows.append([d2, d1, rate, label.value, "closed_form", ""])
        return _doc("figure-6", spec, ["d2", "d1", "rate_bits", "region", "solver", "flag"],
                    rows, model={"kind": "gaussian", "sigma_x2": 4.0, "n1": 2.0, "n2": 3.0})
    if fid == 8:
        bspec = BinaryErasureSpec(1.0, 0.35)
        src = build_erased_source(bspec)
        met = DistortionMetric.hamming(2)
        step = _get(spec, "step", 0.05)
        caps = _caps(spec)
        d1_values = [0.05, 0.1, 0.2, 0.35, 0.5]
        rows = []
        for d2 in (0.05, 0.3):
            for d1 in d1_values:
                pair = DistortionPair(d1, d2)
                cr = rhb_cr_binary(pair, bspec, BinaryMetric.HAMMING).rate
                nocr = brute_force_hb_nocr(src, met, met, pair, u_caps=caps, step=step)
                rows.append([d2, d1, cr, nocr, "closed_form+brute_force", ""])
        return _doc("figure-8", spec,
                    ["d2", "d1", "rate_cr_bits", "rate_nocr_bits", "solver", "flag"], rows,
                    model={"kind": "binary", "p1": 1.0, "p2": 0.35}, u_caps=list(caps),
                    step=step)
    raise InvalidSpecError("figure id must be 6 or 8")


_RUNNERS = {
    "point-cr": run_point_cr,
    "hb-cr": run_hb_cr,
    "coop-cr": run_coop_cr,
    "cascade-cr": run_cascade_cr,
    "conr": run_conr,
    "hb-nocr": run_hb_nocr,
    "wz": run_wz,
    "degradedness": run_degradedness,
    "figure": run_figure,
}


def _doc(command: str, spec: dict, columns: list[str], rows: list[list],
         **meta: Any) -> dict:
    """The result document; `meta` adds to (or replaces) the solver knobs."""
    echo = {k: v for k, v in spec.items() if k != "model" or not isinstance(v, dict)
            or v.get("kind") != "custom"}
    if isinstance(spec.get("model"), dict) and spec["model"].get("kind") == "custom":
        echo["model"] = {"kind": "custom"}
    return {
        "command": command,
        "spec": echo,
        "columns": columns,
        "rows": rows,
        "meta": {
            "solver": spec.get("solver"),
            "step": spec.get("step"),
            "restarts": spec.get("restarts"),
            "seed": spec.get("seed"),
            **meta,
        },
    }


def run_command(command: str, spec: dict) -> dict:
    """Resolve and execute one command; returns the result document."""
    if command not in _RUNNERS:
        raise InvalidSpecError(f"unknown command {command!r}")
    if command != "figure" and "model" not in spec:
        raise InvalidSpecError(f"{command} needs a model")
    return _RUNNERS[command](spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crrd",
        description="Rate-distortion curves and regions for multiterminal "
                    "source coding with common-reconstruction constraints.")
    parser.add_argument("command", choices=list(_RUNNERS))
    parser.add_argument("--spec", help="JSON spec file; flags override its fields")
    parser.add_argument("--model", help="gaussian:s2,n1,n2 | binary-erased:p1,p2 | custom:FILE")
    for name in ("d1", "d2", "de1", "de2", "step"):
        parser.add_argument(f"--{name}", type=float)
    parser.add_argument("--sweep", help="var:from:to:count")
    parser.add_argument("--solver", help="closed_form | grid | descent | both (per command)")
    parser.add_argument("--metric", help="hamming | erasure")
    parser.add_argument("--chain", help="x-y1-y2 | x-y2-y1")
    for name in ("restarts", "weights", "seed", "u-cap", "u1-cap", "u2-cap", "map-budget",
                 "guard"):
        parser.add_argument(f"--{name}", type=int)
    parser.add_argument("--id", type=int, help="figure id (6 or 8)")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--format", help="csv | json")
    return parser


def _resolve_spec(ns: argparse.Namespace) -> dict:
    spec: dict[str, Any] = {}
    if ns.spec:
        with open(ns.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InvalidSpecError("spec file must hold a JSON object")
        spec.update(doc)
    spec.update((key, val) for key, val in vars(ns).items()
                if key not in ("command", "spec", "out") and val is not None)
    if "model" in spec:
        spec["model"] = _parse_model(spec["model"])
    return spec


def _emitter(spec: dict) -> Callable[[dict, str | None], None]:
    """The writer for the spec's `format` (default csv)."""
    fmt = spec.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise InvalidSpecError(f"format must be csv or json, got {fmt!r}")
    return emit_csv if fmt == "csv" else emit_json


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        spec = _resolve_spec(ns)
        emit = _emitter(spec)
        t0 = time.time()
        doc = run_command(ns.command, spec)
        wall = time.time() - t0
        emit(doc, ns.out)
        print(f"crrd {ns.command}: {len(doc['rows'])} rows in {wall:.2f}s",
              file=sys.stderr)
        return 0
    except (CrrdError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {InfeasibleBudgetError: 3, GuardExceededError: 4}.get(type(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
