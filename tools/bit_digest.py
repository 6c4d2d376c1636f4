"""Print a bit-level digest of the solvers' public results, one JSON line each.

A refactor that claims to change no result runs this at both commits and
diffs the output.  The script imports `crrd` from the `src/` beside it, so
a copy placed in another checkout digests that checkout:

    python3 tools/bit_digest.py > new.jsonl
    cp tools/bit_digest.py OLD_CHECKOUT/tools/
    python3 OLD_CHECKOUT/tools/bit_digest.py > old.jsonl
    diff old.jsonl new.jsonl

Rates are printed as the `repr` of a Python float (every bit), channels
and CLI output as sha256 prefixes of their bytes.  Only public `crrd`
names are called.  The CLI records of custom models read model files
that the script writes to a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import crrd  # noqa: E402
from crrd import cli, gridsearch  # noqa: E402
from crrd.measures import HB_CR_TERMS  # noqa: E402

INF = np.inf


def _sha(a) -> str:
    data = a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _emit(kind: str, case: str, **fields) -> None:
    print(json.dumps({"kind": kind, "case": case, **fields}, sort_keys=True))


def _error(fn):
    try:
        return fn()
    except crrd.CrrdError as exc:
        return type(exc).__name__


def _instances():
    """(name, source, metric1, metric2, pair): Hamming, erasure, mixed and
    random |X| = 2 and 3 sources with forbidden cells."""
    erased = crrd.build_erased_source(crrd.BinaryErasureSpec(1.0, 0.35))
    half = crrd.build_erased_source(crrd.BinaryErasureSpec(0.5, 0.35))
    ham, era = crrd.DistortionMetric.hamming(2), crrd.DistortionMetric.erasure(2)
    for d1, d2 in ((0.2, 0.1), (0.1, 0.05), (0.4, 0.3)):
        pair = crrd.DistortionPair(d1, d2)
        yield f"erased-hamming-{d1},{d2}", erased, ham, ham, pair
        yield f"erased-erasure-{d1},{d2}", erased, era, era, pair
        yield f"half-mixed-{d1},{d2}", half, ham, era, pair
    rng = np.random.default_rng(2011)
    for i, nx in enumerate((2, 3, 2, 3)):
        src = crrd.JointSource(rng.dirichlet(np.ones(nx * 4)).reshape(nx, 2, 2))
        d1, d2 = rng.random((nx, 2)), rng.random((nx, 2))
        for x in range(nx):   # every x has a free reconstruction, and a forbidden one
            d1[x, x % 2] = d2[x, x % 2] = 0.0
        d1[nx - 1, 1 - (nx - 1) % 2] = d2[0, 1] = INF
        for scale in (0.1, 0.25):
            pair = crrd.DistortionPair(scale, scale)
            yield (f"random{i}-x{nx}-{scale}", src,
                   crrd.DistortionMetric(d1), crrd.DistortionMetric(d2), pair)


def oracles(inst) -> None:
    name, src, m1, m2, pair = inst
    for step in (0.25, 0.1):
        got = _error(lambda: crrd.grid_oracle_hb_cr(src, m1, m2, pair, step))
        fields = ({"error": got} if isinstance(got, str)
                  else {"rate": repr(got[0]), "witness": _sha(got[1].cond)})
        _emit("grid_oracle_hb_cr", f"{name}@{step}", **fields)
        pmf = crrd.FinitePmf(src.xy2_marginal())
        got = _error(lambda: crrd.grid_oracle_point_cr(pmf, m2, pair.d2, step))
        _emit("grid_oracle_point_cr", f"{name}@{step}", rate=repr(got))
    sha = hashlib.sha256()
    for batch in gridsearch.feasible_hb_channel_batches(src, m1, m2, pair, 0.25):
        sha.update(batch.tobytes())
    _emit("feasible_hb_channel_batches", name, bytes=sha.hexdigest()[:16])


def descents(inst) -> None:
    name, src, m1, m2, pair = inst
    three = HB_CR_TERMS + (crrd.MITerm((1, 2), 2),)
    runs = (("descent_hb_cr", lambda: crrd.descent_hb_cr(src, m1, m2, pair, restarts=3)),
            ("descent_weighted", lambda: crrd.descent_weighted(
                src, m1, m2, pair, three, (0.5, 1.0, 0.25), restarts=3, seed=5)))
    for kind, run in runs:
        res = _error(run)
        fields = ({"error": res} if isinstance(res, str) else
                  {"rate": repr(float(res.rate)), "witness": _sha(res.witness.cond),
                   "best_start": res.best_start, "rounds": res.rounds,
                   "cycles": res.cycles})
        _emit(kind, name, **fields)


def brute_force(inst) -> None:
    name, src, m1, m2, pair = inst
    got = _error(lambda: crrd.brute_force_hb_nocr(src, m1, m2, pair, step=0.25))
    _emit("brute_force_hb_nocr", name, rate=repr(got))
    pmf = crrd.FinitePmf(src.xy1_marginal())
    got = _error(lambda: crrd.brute_force_wz(pmf, m1, pair.d1, u_cap=2, step=0.1))
    _emit("brute_force_wz", name, rate=repr(got))
    for de in (0.0, 0.1, 0.3):
        conr = crrd.ConRConstraint(de, de, crrd.DistortionMetric.hamming(m1.n_outputs),
                                   crrd.DistortionMetric.hamming(m2.n_outputs))
        for budget in (1_000_000, 10):
            res = _error(lambda: crrd.brute_force_conr(src, m1, m2, pair, conr, step=0.25,
                                                       map_budget=budget))
            _emit("brute_force_conr", f"{name}-de{de}-maps{budget}",
                  **({"error": res} if isinstance(res, str) else
                     {"rate": repr(res.rate), "heuristic": res.heuristic,
                      "map_counts": list(res.map_counts)}))


def _points(region) -> list:
    return [[repr(float(p.r1)), repr(float(p.r2)), p.provenance] for p in region.points]


def _bsc(e: float) -> np.ndarray:
    return np.array([[1 - e, e], [e, 1 - e]])


def regions() -> None:
    ham = crrd.DistortionMetric.hamming(2)
    pair = crrd.DistortionPair(0.3, 0.25)
    # X ~ Ber(0.4), Y1 = BSC(0.1)(X), Y2 = BSC(0.2)(Y1): the chain X - Y1 - Y2
    x_y1_y2 = crrd.JointSource(np.einsum("x,xa,ab->xab", np.array([0.6, 0.4]),
                                         _bsc(0.1), _bsc(0.2)))
    x_y2_y1 = crrd.JointSource(x_y1_y2.mass.transpose(0, 2, 1))
    for method in ("grid", "scalarize"):
        config = crrd.SamplerConfig(method=method, step=0.25, n_weights=3, restarts=1)
        coop = _error(lambda: crrd.coop_region_xy1y2(x_y1_y2, ham, ham, pair, config))
        _emit("coop_region_xy1y2", method,
              points=coop if isinstance(coop, str) else _points(coop))
        casc = _error(lambda: crrd.cascade_region_xy1y2(x_y1_y2, ham, ham, pair, config))
        _emit("cascade_region_xy1y2", method,
              points=casc if isinstance(casc, str) else _points(casc))
        bounds = _error(lambda: crrd.cascade_bounds_xy2y1(x_y2_y1, ham, ham, pair, config))
        _emit("cascade_bounds_xy2y1", method, points=bounds if isinstance(bounds, str) else
              {"outer": _points(bounds.outer), "inner": _points(bounds.inner),
               "gap": repr(bounds.gap)})


_CLI = (
    ["point-cr", "--model", "binary-erased:0.35", "--d1", "0.1", "--solver", "both",
     "--step", "0.05"],
    ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1", "--d2", "0.05",
     "--solver", "both", "--step", "0.05"],
    ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1", "--d2", "0.05",
     "--solver", "descent", "--restarts", "2"],
    ["coop-cr", "--model", "binary-erased:1,0.35", "--d1", "0.3", "--d2", "0.3",
     "--solver", "descent", "--step", "0.25", "--weights", "3", "--restarts", "1"],
    ["cascade-cr", "--model", "binary-erased:1,0.35", "--d1", "0.3", "--d2", "0.3",
     "--solver", "both", "--step", "0.25"],
    ["conr", "--model", "binary-erased:1,0.35", "--d1", "0.2", "--d2", "0.1",
     "--de1", "0.1", "--de2", "0.1", "--step", "0.25"],
    ["hb-nocr", "--model", "binary-erased:1,0.35", "--d1", "0.2", "--d2", "0.1",
     "--step", "0.25"],
    ["wz", "--model", "binary-erased:0.35", "--d1", "0.1", "--step", "0.1"],
    ["degradedness", "--model", "binary-erased:0.5,0.35"],
    ["figure", "--id", "6"],
    ["figure", "--id", "8", "--step", "0.25"],
    ["hb-cr", "--model", "gaussian:4,2,3", "--d2", "1", "--sweep", "d1:0.5:5:4"],
    ["cascade-cr", "--model", "binary-erased:1,0.35", "--d1", "0.3",
     "--sweep", "d2:0.1:0.3:2", "--solver", "both", "--step", "0.25"],
    # several flags on one row
    ["conr", "--model", "binary-erased:1,0.35", "--d1", "0.1", "--d2", "0.05",
     "--step", "0.25", "--map-budget", "10"],
    # exit codes 2 (point-cr sweeps d1 only) and 4 (guard)
    ["point-cr", "--model", "binary-erased:0.35", "--sweep", "d2:0.1:0.2:2"],
    ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1", "--d2", "0.05",
     "--solver", "grid", "--step", "0.25", "--guard", "1"],
)


def _custom_models() -> dict:
    """Model file contents by name.  "reversed" is the erased source (0.6,
    0.1) with its Y axes swapped, so that X - Y1 - Y2 holds (degraded the
    other way round); "neither" is degraded neither way: Y1 erases X with
    probability 0.5, Y2 flips it with probability 0.1.  "zero_x" has a third
    X symbol of zero mass, with metric rows for it; "pair" and "floor" are
    point-to-point models, "floor" with every distortion above 0.1."""
    erased = crrd.build_erased_source(crrd.BinaryErasureSpec(0.6, 0.1))
    neither = np.einsum("x,xa,xb->xab", np.array([0.5, 0.5]),
                        np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]), _bsc(0.1))
    ham = json.loads(crrd.DistortionMetric.hamming(2).to_json())
    models = {name: {"source": json.loads(crrd.JointSource(mass).to_json()),
                     "metric1": ham, "metric2": ham}
              for name, mass in (("reversed", erased.mass.transpose(0, 2, 1)),
                                 ("neither", neither))}
    flip = np.vstack([_bsc(0.2), [[0.5, 0.5]]])
    zero_x = np.einsum("x,xa,xb->xab", np.array([0.5, 0.5, 0.0]), flip, flip[[1, 0, 2]])
    ham32 = json.loads(crrd.DistortionMetric.hamming(3, 2).to_json())
    models["zero_x"] = {"source": {"alphabets": [3, 2, 2], "pmf": zero_x.ravel().tolist()},
                        "metric1": ham32, "metric2": ham32}
    models["pair"] = {"pair_pmf": {"alphabets": [3, 2],
                                   "pmf": [0.3, 0.1, 0.05, 0.25, 0.1, 0.2]},
                      "metric": json.loads(crrd.DistortionMetric.hamming(3).to_json())}
    models["floor"] = {"pair_pmf": {"alphabets": [2, 2], "pmf": [0.25] * 4},
                       "metric": {"rows": 2, "cols": 2, "entries": [0.2, 1.0, 1.0, 0.2]}}
    return models


_CUSTOM_CLI = (
    ["hb-cr", "--d1", "0.05", "--d2", "0.2", "--solver", "grid", "--step", "0.05"],
    ["hb-cr", "--d1", "0.1", "--d2", "0.1", "--solver", "descent", "--restarts", "2"],
    ["hb-nocr", "--d1", "0.1", "--d2", "0.1", "--step", "0.25"],
    ["conr", "--d1", "0.2", "--d2", "0.1", "--de1", "0.1", "--de2", "0.2", "--step", "0.25"],
)

#: (model, argv) for the models that only some commands read.
_MODEL_CLI = (
    ("zero_x", ["hb-cr", "--d1", "0.2", "--d2", "0.1", "--solver", "grid", "--step", "0.25"]),
    ("zero_x", ["hb-nocr", "--d1", "0.2", "--d2", "0.1", "--step", "0.25"]),
    ("pair", ["point-cr", "--d1", "0.2", "--solver", "grid", "--step", "0.1"]),
    ("pair", ["wz", "--d1", "0.2", "--step", "0.25"]),
    # exit code 3: no channel meets the budget
    ("floor", ["point-cr", "--d1", "0.1", "--solver", "grid"]),
)


def _cli_record(argv: list, case: str) -> None:
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv + ["--format", fmt])
        _emit("cli", f"{case} --format {fmt}", rc=rc, stdout=_sha(out.getvalue().encode()))


def cli_runs() -> None:
    for argv in _CLI:
        _cli_record(argv, " ".join(argv))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in _custom_models().items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        runs = [(name, argv) for name in ("reversed", "neither") for argv in _CUSTOM_CLI]
        for name, argv in runs + list(_MODEL_CLI):
            _cli_record(argv + ["--model", f"custom:{paths[name]}"],
                        " ".join(argv + ["--model", f"custom:{name}"]))


def main() -> None:
    for inst in _instances():
        oracles(inst)
        descents(inst)
        brute_force(inst)
    regions()
    cli_runs()


if __name__ == "__main__":
    main()
