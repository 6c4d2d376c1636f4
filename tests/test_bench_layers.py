"""The benchmark's wrap points in `bench/layers.py` still exist, and its
count hooks still see the calls they read.

A traced benchmark run wraps these bindings and reads `.restarts` and
`len(points)` from what passes through them; renaming a binding or
changing a call shape breaks that run without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import pytest

from crrd import DistortionPair, SamplerConfig, regions
from conftest import bsc_chain_source

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


def test_every_binding_exists(layers):
    for owner, attr, name, _ in layers.BOUNDARIES + (layers.PROBE,):
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)


def test_hooks_read_regions_calls(layers, erased_full, hamming2, monkeypatch):
    received = []
    dominance_filter = regions.dominance_filter

    def spy(points):
        received.append(type(points))
        return dominance_filter(points)

    monkeypatch.setattr(regions, "dominance_filter", spy)
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        regions.coop_region_xy1y2(bsc_chain_source(0.1, 0.2), hamming2, hamming2,
                                  DistortionPair(0.3, 0.3),
                                  SamplerConfig(method="grid", step=0.5))
        cfg = SamplerConfig(method="scalarize", step=0.25, n_weights=3,
                            restarts=1, seed=0)
        regions.cascade_bounds_xy2y1(erased_full, hamming2, hamming2,
                                     DistortionPair(0.2, 0.1), cfg)
    finally:
        tracer.restore()
    # one descent_weighted call per weight, plus the corner's descent_hb_cr
    spans = tracer.summary()
    assert spans["descent.descent_weighted"]["calls"] == 3
    assert spans["descent.descent_hb_cr"]["calls"] == 1
    assert tracer.counters["descent.starts"] == 4
    assert received == [list, list]
    assert tracer.counters["regions.dominance_filter.points_in"] >= 2
