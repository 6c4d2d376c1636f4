"""Certified-solve benchmark for crrd.

    python3 bench/run.py --workload hb-oracle --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

Run from the repository root.  Workloads are `hb-oracle`, `relaxed` and
`regions` (see `workloads.py`); `all` runs each in its own fresh process
and ends with one JSON line whose metrics are named `<workload>.<metric>`.  The package is imported from `src/` of the
same checkout, never from an installed copy; without `src/crrd` the
benchmark exits 2 and prints no result.

One run of a workload:

1. times the set-up five times, each in a fresh process (interpreter
   start, `import crrd`, building sources, metrics and the op list), and
   reports the median as `setup_s`;
2. runs the workload's fixed op list (see `workloads.py`) in this single
   process, without worker threads or pools.  With `--trace 0` it repeats
   whole passes while the next one is expected to end within `--seconds`
   (at least one pass, so a run can exceed `--seconds` by part of one).  With `--trace 1` it runs one untraced pass and
   then one traced pass, whose spans give the per-layer metrics and
   whose extra wall time gives `trace_overhead_frac`;
3. prints an environment stamp, every metric with its unit, each failed
   op with its reason, and as its last line a JSON object with the keys
   `correct`, `attempted`, `failed` and `metrics`;
4. writes the full record (environment, every op's latency and result,
   deterministic counts, spans) to `bench/out/`.

End-to-end metrics (untraced): `wall_s` is the median time of one pass
over the op list, `solve_p50_s` the median op latency, `solve_tail_s`
the highest op-latency percentile with at least ten samples beyond it,
`setup_s` as above and `peak_rss_mb` the process's peak resident set.
`failed_ops_frac` is printed beside them; the JSON carries it as
`failed` / `attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                     "NUMEXPR_NUM_THREADS")


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile of `samples` with
    at least TAIL_BEYOND samples above it: the (n - TAIL_BEYOND)-th smallest."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {len(xs)}")
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
        "seed": seed,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until the op list is built, per fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {code} before it was ready")
        times.append(elapsed)
    return times


def run_pass(workload, tracer=None) -> dict:
    """Run every op once; an exception or failed gate fails that op only."""
    done: dict[str, dict] = {}
    ops = []
    t0 = time.perf_counter()
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.id
        start = time.perf_counter()
        try:
            record = op.run(done)
            reason = None
        except Exception as exc:  # noqa: BLE001 - a failing op must not stop the run
            record = None
            reason = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        if record is not None:
            done[op.id] = record
        ops.append({"id": op.id, "latency_s": latency, "ok": reason is None,
                    "reason": reason, "seeded": op.seeded, "record": record})
        print(f"  {op.id}: {latency:.3f} s {'ok' if reason is None else 'FAILED ' + reason}",
              file=sys.stderr, flush=True)
    return {"wall_s": time.perf_counter() - t0, "ops": ops}


def run_traced_pass(workload) -> tuple[dict, Tracer]:
    """One pass with every boundary in `layers.BOUNDARIES` wrapped.  The
    workload's probe runs first, with only `layers.PROBE` wrapped, and is
    not part of the pass's wall time."""
    import layers
    from spans import Tracer
    tracer = Tracer()
    try:
        if workload.probe is not None:
            tracer.op = "probe"
            tracer.wrap(*layers.PROBE)
            workload.probe()
            tracer.restore()
        layers.install(tracer)
        result = run_pass(workload, tracer)
    finally:
        tracer.restore()
    return result, tracer


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    latencies = [op["latency_s"] for p in passes for op in p["ops"]]
    tail, pct, n = tail_percentile(latencies)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "solve_p50_s": statistics.median(latencies),
        "solve_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"tail_percentile": pct, "tail_samples": n}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; their reports, then one summary."""
    import workloads
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # child process of measure_setup
    args = parser.parse_args(argv)

    if not (SRC / "crrd" / "__init__.py").is_file():
        print(f"error: {SRC / 'crrd'} not found; run from a crrd checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crrd
    if Path(crrd.__file__).resolve().parent != (SRC / "crrd").resolve():
        print(f"error: imported crrd from {crrd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload == "all" and not args.setup_only:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}, all")
    workload = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    import layers

    setup = measure_setup(args.workload, args.seed)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload))
        if args.trace or (time.perf_counter() - start + passes[-1]["wall_s"]
                          > args.seconds):
            break
    metrics, tail_info = end_to_end(passes, setup)
    all_passes = list(passes)
    layer_metrics = counts = spans = None
    if args.trace:
        traced, tracer = run_traced_pass(workload)
        all_passes.append(traced)
        layer_metrics = layers.per_layer_metrics(tracer, passes[0]["wall_s"],
                                                 traced["wall_s"])
        counts = {k: layer_metrics[k] for k in layers.COUNTS}
        spans = [vars(s) for s in tracer.spans]

    attempted = sum(len(p["ops"]) for p in all_passes)
    failed_ops = [(op["id"], op["reason"]) for p in all_passes for op in p["ops"]
                  if not op["ok"]]

    for name, value in metrics.items():
        note = ""
        if name == "solve_tail_s":
            note = (f"  (p{tail_info['tail_percentile']:.1f} of "
                    f"{tail_info['tail_samples']} op latencies)")
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"failed_ops_frac {len(failed_ops) / attempted:.6g} ratio  "
          f"({len(failed_ops)} of {attempted} ops)")
    for op_id, reason in failed_ops:
        print(f"FAILED {op_id}: {reason}")
    if layer_metrics is not None:
        for name, unit in layers.PER_LAYER:
            print(f"{name} {layer_metrics[name]:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "setup_s": setup,
                   "metrics": metrics, **tail_info, "per_layer": layer_metrics,
                   "counts": counts, "passes": all_passes, "spans": spans,
                   "failed": failed_ops}, fh, indent=1, sort_keys=True)

    reported = layer_metrics if args.trace else metrics
    units = dict(layers.PER_LAYER) if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
