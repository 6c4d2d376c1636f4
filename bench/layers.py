"""Where a traced run records spans, and the per-layer metrics they give.

Each boundary is a public `crrd` name as bound in the module that calls
it: the benchmark's own calls go through the defining module (for example
`crrd.gridsearch.grid_oracle_hb_cr`), and cross-module calls inside the
package go through the importing module (`crrd.regions.descent_weighted`,
`crrd.cli.grid_oracle_hb_cr`, `crrd.descent.linprog`).  Calls inside a
module are not wrapped, except where a layer is reached through its own
module global: `regions.dominance_filter` (called by every region sampler)
and `cli.run_command` (called by `cli.main`).

`gridsearch.simplex_grid` is wrapped only around the hb-oracle workload's
direct `simplex_grid(50, 4)` probe, which runs before the traced pass and
outside its wall time.  The function recurses through its module global,
so the wrapper records its outermost call only.
"""

from __future__ import annotations

import collections
from typing import Any

from crrd import bruteforce, channels, cli, closed_form, descent, gridsearch, \
    regions

from spans import CountHook, Tracer


def _add(key: str, fn) -> CountHook:
    def hook(counters: collections.Counter, args: tuple, kwargs: dict,
             result: Any) -> None:
        counters[key] += fn(args, kwargs, result)
    return hook


def _conr_counts(counters, args, kwargs, result) -> None:
    counters["bruteforce.brute_force_conr.maps"] += sum(result.map_counts)
    counters["bruteforce.brute_force_conr.heuristic"] += int(result.heuristic)


def _dominance_counts(counters, args, kwargs, result) -> None:
    # every caller in crrd.regions passes a list
    points = args[0] if args else kwargs["points"]
    counters["regions.dominance_filter.points_in"] += len(points)
    counters["regions.dominance_filter.points_out"] += len(result)


_starts = _add("descent.starts", lambda a, k, r: r.restarts)

#: The boundary wrapped for the probe alone.
PROBE: tuple[Any, str, str, CountHook | None] = (
    gridsearch, "simplex_grid", "gridsearch.simplex_grid", None)

#: (owner, attribute, span name, count hook) for every binding the
#: workloads' calls go through.
BOUNDARIES: tuple[tuple[Any, str, str, CountHook | None], ...] = (
    (gridsearch, "grid_oracle_hb_cr", "gridsearch.grid_oracle_hb_cr", None),
    (cli, "grid_oracle_hb_cr", "gridsearch.grid_oracle_hb_cr", None),
    (gridsearch, "grid_oracle_point_cr", "gridsearch.grid_oracle_point_cr", None),
    (regions, "grid_oracle_point_cr", "gridsearch.grid_oracle_point_cr", None),
    (regions, "feasible_hb_channel_batches", "gridsearch.feasible_hb_channel_batches",
     _add("gridsearch.feasible_hb_channel_batches.channels",
          lambda a, k, batch: batch.shape[0])),
    (regions, "descent_weighted", "descent.descent_weighted", _starts),
    (regions, "descent_hb_cr", "descent.descent_hb_cr", _starts),
    (descent, "descent_hb_cr", "descent.descent_hb_cr", _starts),
    (descent, "linprog", "descent.linprog", None),
    (bruteforce, "brute_force_conr", "bruteforce.brute_force_conr", _conr_counts),
    (bruteforce, "brute_force_hb_nocr", "bruteforce.brute_force_hb_nocr", None),
    (bruteforce, "brute_force_wz", "bruteforce.brute_force_wz", None),
    (regions, "coop_region_xy1y2", "regions.coop_region_xy1y2", None),
    (regions, "cascade_region_xy1y2", "regions.cascade_region_xy1y2", None),
    (regions, "cascade_bounds_xy2y1", "regions.cascade_bounds_xy2y1", None),
    (regions, "dominance_filter", "regions.dominance_filter", _dominance_counts),
    (regions, "check_markov_chain", "prob.check_markov_chain", None),
    (channels, "eval_hb_cr_objective", "channels.verify", None),
    (channels, "eval_distortions", "channels.verify", None),
    (closed_form, "rhb_cr_binary", "closed_form.reference", None),
    (closed_form, "rcr_point_binary", "closed_form.reference", None),
    (closed_form, "binary_hb_test_channel", "closed_form.reference", None),
    (cli, "run_command", "cli.run_command", None),
)

#: (metric, unit): every per-layer metric a traced run reports.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("gridsearch.simplex_grid.s", "s"),
    ("gridsearch.simplex_grid.calls", "count"),
    ("gridsearch.grid_oracle_hb_cr.calls", "count"),
    ("gridsearch.grid_oracle_hb_cr.s", "s"),
    ("gridsearch.grid_oracle_point_cr.calls", "count"),
    ("gridsearch.grid_oracle_point_cr.s", "s"),
    ("gridsearch.feasible_hb_channel_batches.s", "s"),
    ("gridsearch.feasible_hb_channel_batches.channels", "count"),
    ("descent.descent_weighted.calls", "count"),
    ("descent.descent_weighted.self_s", "s"),
    ("descent.descent_hb_cr.calls", "count"),
    ("descent.descent_hb_cr.self_s", "s"),
    ("descent.starts", "count"),
    ("descent.linprog.calls", "count"),
    ("descent.linprog.s", "s"),
    ("bruteforce.brute_force_conr.calls", "count"),
    ("bruteforce.brute_force_conr.s", "s"),
    ("bruteforce.brute_force_conr.maps", "count"),
    ("bruteforce.brute_force_conr.heuristic", "count"),
    ("bruteforce.brute_force_hb_nocr.calls", "count"),
    ("bruteforce.brute_force_hb_nocr.s", "s"),
    ("bruteforce.brute_force_wz.calls", "count"),
    ("bruteforce.brute_force_wz.s", "s"),
    ("regions.coop_region_xy1y2.self_s", "s"),
    ("regions.cascade_region_xy1y2.self_s", "s"),
    ("regions.cascade_bounds_xy2y1.self_s", "s"),
    ("regions.dominance_filter.s", "s"),
    ("regions.dominance_filter.points_in", "count"),
    ("regions.dominance_filter.points_out", "count"),
    ("regions.kept_ratio", "ratio"),
    ("prob.check_markov_chain.calls", "count"),
    ("prob.check_markov_chain.s", "s"),
    ("channels.verify_s", "s"),
    ("closed_form.reference_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def install(tracer: Tracer) -> None:
    for owner, attr, name, count in BOUNDARIES:
        tracer.wrap(owner, attr, name, count)


def per_layer_metrics(tracer: Tracer, untraced_wall: float,
                      traced_wall: float) -> dict[str, float]:
    """Every metric in PER_LAYER, from one traced pass (0 where unused)."""
    values: dict[str, float] = dict(tracer.counters)
    for name, agg in tracer.summary().items():
        for key, v in agg.items():
            values[f"{name}.{key}"] = v
    values["channels.verify_s"] = values.get("channels.verify.s", 0.0)
    values["closed_form.reference_s"] = values.get("closed_form.reference.s", 0.0)
    points_in = values.get("regions.dominance_filter.points_in", 0)
    values["regions.kept_ratio"] = (
        values.get("regions.dominance_filter.points_out", 0) / points_in
        if points_in else 0.0)
    values["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return {name: values.get(name, 0 if unit == "count" else 0.0)
            for name, unit in PER_LAYER}


#: Per-layer metrics that are exact counts: two traced runs with the same
#: seed must agree on them.
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")
