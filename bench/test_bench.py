"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

The workload tests use the SMOKE configuration: the same op lists as a
real run at coarse steps, a few seconds per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from crrd import bruteforce, gridsearch  # noqa: E402
from spans import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer"):
        clock.now = 1.0
        with tr.span("a"):
            clock.now = 3.0
            with tr.span("b"):
                clock.now = 3.5
        clock.now = 4.0
        with tr.span("b"):
            clock.now = 6.0
        clock.now = 10.0
    summ = tr.summary()
    assert summ["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.5}
    assert summ["a"] == {"calls": 1, "s": 2.5, "self_s": 2.0}
    assert summ["b"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_recursive_simplex_grid_counts_outermost_call_only():
    original = gridsearch.simplex_grid
    tr = Tracer()
    tr.wrap(gridsearch, "simplex_grid", "gridsearch.simplex_grid")
    tr.wrap(bruteforce, "simplex_grid", "gridsearch.simplex_grid")
    try:
        rows = gridsearch.simplex_grid(6, 4)
        bruteforce.simplex_grid(3, 3)
    finally:
        tr.restore()
    assert rows.shape == (84, 4)
    assert tr.summary()["gridsearch.simplex_grid"]["calls"] == 2
    assert gridsearch.simplex_grid is original
    assert bruteforce.simplex_grid is original


def test_generator_spans_exclude_the_consumer():
    clock = FakeClock()

    class Owner:
        @staticmethod
        def gen():
            for i in range(3):
                clock.now += 1.0
                yield i

    tr = Tracer(clock)
    tr.wrap(Owner, "gen", "g")
    with tr.span("consumer"):
        for _ in Owner.gen():
            clock.now += 10.0
    summ = tr.summary()
    assert summ["g"]["s"] == 3.0
    assert summ["consumer"]["self_s"] == 30.0


@pytest.mark.parametrize("n, value, pct", [(11, 1, 100 / 11), (15, 5, 100 / 3),
                                           (20, 10, 50.0), (40, 30, 75.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, pct):
    samples = [float(i) for i in range(n, 0, -1)]
    got, got_pct, got_n = run.tail_percentile(samples)
    assert (got, got_n) == (value, n)
    assert got_pct == pytest.approx(pct)
    assert sum(s > got for s in samples) == 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_reference_matching():
    assert workloads.matches_reference(0.5 + 5e-13, 0.5)
    assert not workloads.matches_reference(0.5 + 2e-12, 0.5)
    assert not workloads.matches_reference([[0.5, 0.5]], [[0.5, 0.52]])
    assert not workloads.matches_reference([0.5], [0.5, 0.5])
    assert workloads.matches_reference("a\n", "a\n")
    assert not workloads.matches_reference(1, True)


def test_reference_covers_every_unseeded_op():
    ref = workloads.load_reference()
    ids = {op.id for name in workloads.WORKLOADS
           for op in workloads.build(name, 0).ops if not op.seeded}
    assert ids == set(ref)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)


def _traced_smoke(name: str, seed: int):
    wl = workloads.build(name, seed, workloads.SMOKE)
    untraced = run.run_pass(wl)
    traced, tracer = run.run_traced_pass(wl)
    per_layer = layers.per_layer_metrics(tracer, untraced["wall_s"], traced["wall_s"])
    return untraced, traced, per_layer


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_passes_and_is_deterministic(name):
    wrapped = layers.BOUNDARIES + (layers.PROBE,)
    originals = [getattr(owner, attr) for owner, attr, _, _ in wrapped]
    first = _traced_smoke(name, seed=7)
    second = _traced_smoke(name, seed=7)
    for untraced, traced, _ in (first, second):
        bad = [(op["id"], op["reason"]) for p in (untraced, traced)
               for op in p["ops"] if not op["ok"]]
        assert not bad
        assert untraced["wall_s"] < 30.0
    # wrapped names are restored after every traced pass
    assert [getattr(owner, attr) for owner, attr, _, _ in wrapped] == originals
    # the direct simplex_grid probe is the only call recorded under its name
    assert first[2]["gridsearch.simplex_grid.calls"] == (name == "hb-oracle")
    # counts and solver results repeat exactly for a repeated seed
    assert {k: first[2][k] for k in layers.COUNTS} == \
        {k: second[2][k] for k in layers.COUNTS}
    records = [[op["record"] for op in p["ops"]]
               for p in (first[0], first[1], second[0], second[1])]
    assert all(r == records[0] for r in records)
    assert set(first[2]) == {n for n, _ in layers.PER_LAYER}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "hb-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
