import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crrd
from crrd.cli import emit_csv, main, run_command


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestScalarRuns:
    def test_hb_cr_closed_form_sweep(self, capsys):
        rc, out, _ = run_cli(["hb-cr", "--model", "gaussian:4,2,3", "--d2", "1",
                              "--sweep", "d1:0.5:4.5:5", "--solver", "closed_form"],
                             capsys)
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "sweep_var,value,rate_bits,solver,flag"
        assert len(lines) == 6
        assert lines[1].startswith("d1,0.5,")

    def test_both_solvers_paired_rows(self, capsys):
        rc, out, _ = run_cli(["point-cr", "--model", "binary-erased:0.35",
                              "--d1", "0.1", "--solver", "both", "--step", "0.01"],
                             capsys)
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "closed_form"
        assert lines[2].split(",")[3] == "grid"
        # same point, two solvers, near-identical rates
        assert abs(float(lines[1].split(",")[2]) - float(lines[2].split(",")[2])) < 5e-3

    def test_six_significant_digits(self, capsys):
        rc, out, _ = run_cli(["hb-cr", "--model", "binary-erased:1,0.35",
                              "--d1", "0.1", "--d2", "0.05"], capsys)
        assert rc == 0
        rate = out.strip().split("\n")[1].split(",")[2]
        assert rate == "0.594914"


class TestSpecFileAndOverrides:
    def test_flags_override_file(self, tmp_path, capsys):
        spec = {"model": "gaussian:4,2,3", "d1": 2.0, "d2": 1.0,
                "solver": "closed_form"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc, out, _ = run_cli(["hb-cr", "--spec", str(path)], capsys)
        base_rate = out.strip().split("\n")[1].split(",")[2]
        assert base_rate == "0.657751"
        rc, out, _ = run_cli(["hb-cr", "--spec", str(path), "--d1", "3.0"], capsys)
        assert out.strip().split("\n")[1].split(",")[1] == "3"
        assert out.strip().split("\n")[1].split(",")[2] != base_rate

    def test_custom_model_file(self, tmp_path, capsys):
        src = crrd.build_erased_source(crrd.BinaryErasureSpec(0.5, 0.35))
        doc = {
            "source": json.loads(src.to_json()),
            "metric1": json.loads(crrd.DistortionMetric.hamming(2).to_json()),
            "metric2": json.loads(crrd.DistortionMetric.hamming(2).to_json()),
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(["hb-cr", "--model", f"custom:{path}", "--d1", "0.2",
                              "--d2", "0.1", "--solver", "grid", "--step", "0.05"],
                             capsys)
        assert rc == 0
        want = crrd.rhb_cr_binary(crrd.DistortionPair(0.2, 0.1),
                                  crrd.BinaryErasureSpec(0.5, 0.35),
                                  crrd.BinaryMetric.HAMMING).rate
        got = float(out.strip().split("\n")[1].split(",")[2])
        # coarse step: plumbing check, not an accuracy claim
        assert want - 1e-12 <= got <= want + 1e-2


    @pytest.mark.parametrize("argv", [
        ["--model", "gaussian:4,2,3", "--d2", "1", "--sweep", "d1:0.5:4.5:3"],
        ["--model", "binary-erased:1,0.35", "--d1", "0.2", "--d2", "0.1", "--solver",
         "grid", "--step", "0.25", "--format", "json"],
    ], ids=["closed-form", "grid-json"])
    def test_flags_may_precede_the_command(self, argv, capsys):
        after = run_cli(["hb-cr"] + argv, capsys)
        before = run_cli(argv[:2] + ["hb-cr"] + argv[2:], capsys)
        first = run_cli(argv + ["hb-cr"], capsys)
        assert after[0] == 0 and after[1]
        assert before[:2] == after[:2] and first[:2] == after[:2]


class TestExitCodes:
    def test_spec_error(self, capsys):
        rc, _, err = run_cli(["hb-cr", "--model", "nonsense:1"], capsys)
        assert rc == 2
        assert "error" in err

    def test_infeasible(self, tmp_path, capsys):
        doc = {
            "pair_pmf": {"alphabets": [2, 2], "pmf": [0.25, 0.25, 0.25, 0.25]},
            "metric": {"rows": 2, "cols": 2, "entries": [0.2, 1.0, 1.0, 0.2]},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run_cli(["point-cr", "--model", f"custom:{path}",
                              "--d1", "0.1", "--solver", "grid"], capsys)
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", ".1", "--d2", ".05",
         "--sweep", "d1:a:0.2:3"],
        ["hb-cr", "--model", "binary-erased:1,x", "--d1", ".1", "--d2", ".05"],
        ["hb-cr", "--model", "gaussian:4,x,3", "--d1", ".1", "--d2", ".05"],
        ["hb-cr", "--model", "custom:{no_metric1}", "--d1", ".2", "--d2", ".1",
         "--solver", "grid"],
        ["hb-cr", "--spec", "{spec_d2}"],
        ["degradedness", "--model", "custom:{no_pmf}"],
        ["degradedness", "--model", "custom:{short_pmf}"],
        ["hb-cr", "--model", "custom:{short_metric}", "--d1", ".2", "--d2", ".1",
         "--solver", "grid"],
        ["point-cr", "--model", "custom:{no_pair_pmf}", "--d1", ".1", "--solver", "grid"],
        ["hb-cr", "--spec", "{spec_list}"],
        ["hb-cr", "--spec", "{spec_inf}"],
        ["hb-cr", "--spec", "{spec_metric}"],
        ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", ".1", "--d2", ".05",
         "--solver", "descent", "--restarts", "1", "--seed", "-1"],
        ["point-cr", "--model", "binary-erased:0.35", "--d1", "nan", "--solver", "grid",
         "--step", "0.25"],
        ["wz", "--model", "binary-erased:0.35", "--d1", "nan", "--step", "0.25"],
        ["conr", "--model", "binary-erased:1,0.35", "--d1", "0.1", "--d2", "0.05",
         "--de1", "nan", "--step", "0.25"],
        ["degradedness", "--model", "custom:{int_labels}"],
        ["coop-cr", "--model", "binary-erased:1,0.35", "--d1", ".3", "--d2", ".3",
         "--solver", "grid", "--step", ".25", "--chain", "foo"],
        ["cascade-cr", "--model", "binary-erased:1,0.35", "--d1", ".3", "--d2", ".3",
         "--solver", "grid", "--step", ".25", "--chain", "foo"],
        ["coop-cr", "--model", "binary-erased:1,0.35", "--d1", ".3", "--d2", ".3",
         "--solver", "descent", "--weights", "0"],
        ["figure", "--spec", "{figure_float_id}"],
        ["figure", "--spec", "{figure_bool_id}"],
        ["hb-nocr", "--spec", "{float_cap}"],
        ["hb-nocr", "--spec", "{bool_budget}"],
        ["wz", "--spec", "{bool_step}"],
        ["hb-cr", "--spec", "{huge_restarts}"],
        ["hb-cr", "--spec", "{xml_format}"],
        ["hb-cr", "--spec", "{list_sweep_var}"],
        ["hb-cr", "--model", "gaussian:4,2,3", "--d2", "1", "--sweep", "d1:1:2:10000000000000"],
        ["point-cr", "--model", "gaussian:4,2,3", "--sweep", "d1:nan:1:2"],
        *[["coop-cr", "--model", "binary-erased:1,0.35", "--d1", ".3", "--d2", ".3",
           "--solver", solver, "--step", ".25", "--weights", "1", "--restarts", "0"]
          for solver in ("closed_form", "both", "banana")],
    ], ids=["sweep-number", "binary-number", "gaussian-number", "custom-key",
            "spec-number", "source-key", "source-length", "metric-length",
            "pair-pmf-key", "spec-not-object", "spec-int-overflow", "metric-type",
            "negative-seed", "nan-point-budget", "nan-wz-budget", "nan-conr-budget",
            "labels-type", "coop-chain", "cascade-chain", "zero-weights",
            "figure-float-id", "figure-bool-id", "float-cap", "bool-budget", "bool-step",
            "huge-restarts", "spec-format", "sweep-var-type", "sweep-huge-count",
            "sweep-nan-from", "coop-closed-form", "coop-both",
            "coop-banana"])
    def test_malformed_spec_exits_2(self, argv, tmp_path, capsys):
        src = json.loads(crrd.build_erased_source(crrd.BinaryErasureSpec(0.5, 0.35)).to_json())
        ham = json.loads(crrd.DistortionMetric.hamming(2).to_json())
        files = {
            "no_metric1": {"source": src, "metric2": ham},
            "spec_d2": {"model": "gaussian:4,2,3", "d1": 1.0, "d2": "x"},
            "no_pmf": {"source": {"alphabets": [2, 2, 2]}},
            "short_pmf": {"source": {"alphabets": [2, 2, 2], "pmf": [0.5, 0.5]}},
            "short_metric": {"source": src, "metric1": ham,
                             "metric2": {"rows": 2, "cols": 2, "entries": [0, 1, 1]}},
            "no_pair_pmf": {"pair_pmf": {"alphabets": [2, 2]}, "metric": ham},
            "spec_list": ["model", "gaussian:4,2,3"],
            "spec_inf": {"model": "binary-erased:1,0.35", "restarts": float("inf")},
            "spec_metric": {"model": "binary-erased:1,0.35", "d1": 0.1, "metric": 7},
            "int_labels": {"source": {**src, "labels": 5}},
            "figure_float_id": {"id": 8.9, "step": 0.5},
            "figure_bool_id": {"id": True, "step": 0.5},
            "float_cap": {"model": "binary-erased:1,0.35", "d1": 0.1, "d2": 0.05,
                          "u1_cap": 2.5, "step": 0.5},
            "bool_budget": {"model": "binary-erased:1,0.35", "d1": True, "d2": 0.05,
                            "step": 0.5},
            "bool_step": {"model": "binary-erased:0.35", "d1": 0.1, "step": True},
            "huge_restarts": {"model": "binary-erased:1,0.35", "d1": 0.1, "d2": 0.05,
                              "solver": "descent", "restarts": 1e300},
            "xml_format": {"model": "gaussian:4,2,3", "d1": 1.0, "d2": 0.5, "format": "xml"},
            "list_sweep_var": {"model": "gaussian:4,2,3", "d2": 1.0,
                               "sweep": {"var": [], "from": 0, "to": 1, "count": 2}},
        }
        paths = {}
        for name, doc in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        rc, _, err = run_cli([a.format(**paths) for a in argv], capsys)
        assert rc == 2
        assert "error" in err and "Traceback" not in err

    def test_degradedness_lp_failure_exits_2(self, monkeypatch, capsys):
        failed = SimpleNamespace(success=False, message="simulated solver failure")
        monkeypatch.setattr(crrd.prob, "linprog", lambda *a, **k: failed)
        rc, _, err = run_cli(["degradedness", "--model", "binary-erased:0.5,0.35"], capsys)
        assert rc == 2
        assert "simulated solver failure" in err

    def test_guard_exceeded(self, capsys):
        rc, _, err = run_cli(["hb-cr", "--model", "binary-erased:1,0.35",
                              "--d1", "0.1", "--d2", "0.05", "--solver", "grid",
                              "--step", "0.002"], capsys)
        assert rc == 4


def _exit_code(argv):
    """`main`'s return value; argparse rejections raise SystemExit instead."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Every valid draw is cheap: grid steps >= 0.25, at most two descent
# restarts and three sweep points, auxiliary caps <= 3 (<= 2 for ConR).
_BAD = st.sampled_from(["x", "", None, [], {}, True, -1, -0.5, 2.5, 1e300,
                        float("nan"), float("inf"), float("-inf")])
_BUDGET = st.floats(min_value=0.0, max_value=0.6) | _BAD
_SPEC_FIELDS = {
    "model": st.sampled_from([
        "binary-erased:1,0.35", "binary-erased:0.5,0.35", "binary-erased:0.35",
        "gaussian:4,2,3", "gaussian:4,3", "binary-erased:0.35,1",
        "binary-erased:1.5", "binary-erased:nan,0.3", "gaussian:-1,2,3",
        "gaussian:4", "binary-erased:x", "nonsense:1", "custom:/nonexistent.json",
        "noseparator", 5, None,
        # `_custom_sources` by HB order, written by `_assert_exit_documented`
        "custom:{assumed}", "custom:{reversed}", "custom:{neither}"]),
    "d1": _BUDGET,
    "d2": _BUDGET,
    "de1": _BUDGET,
    "de2": _BUDGET,
    "solver": st.sampled_from(["closed_form", "grid", "descent", "both",
                               "brute_force", 3]),
    "metric": st.sampled_from(["hamming", "erasure", "manhattan", 7]),
    "sweep": st.sampled_from([
        "d1:0:0.3:2", "d2:0.05:0.2:3", "d1:a:0.2:3", "rate:0:1:2", "d1:0:1:0",
        "d1:0:1", {"var": "d2", "from": 0.1, "to": 0.3, "count": 2},
        {"var": "d1"}, {"var": "d1", "from": 0, "to": 1, "count": "x"}, 7, "",
        {"var": [], "from": 0, "to": 1, "count": 2}, "d1:1:2:10000000000000",
        "d1:0:inf:2", {"var": "d2", "from": float("nan"), "to": 0.2, "count": 2}]),
    "restarts": st.integers(min_value=0, max_value=2) | _BAD,
    "seed": st.integers(min_value=0, max_value=5) | _BAD,
    "u_cap": st.integers(min_value=0, max_value=3) | _BAD,
    "u1_cap": st.integers(min_value=0, max_value=2) | _BAD,
    "u2_cap": st.integers(min_value=0, max_value=2) | _BAD,
    "map_budget": st.integers(min_value=-1, max_value=100) | _BAD,
    "guard": st.integers(min_value=-1, max_value=10**6) | _BAD,
    "format": st.sampled_from(["csv", "json", "xml"]),
}
# always drawn, so no default (fine) step or restart count applies
_SPEC_REQUIRED = {
    "step": st.sampled_from([0.25, 0.5, 1.0, 0.0, -0.25, 0.3, 2.0, "x", None,
                             float("nan")]),
    "restarts": st.integers(min_value=0, max_value=2) | _BAD,
}
_SPECS = st.fixed_dictionaries(
    _SPEC_REQUIRED,
    optional={k: v for k, v in _SPEC_FIELDS.items() if k not in _SPEC_REQUIRED})


# Region commands run at steps whose grids are tiny, with at most one descent
# restart and three weights.  A valid base spec with drawn overrides, so that
# many draws run a sampler.
_REGION_BASE = st.fixed_dictionaries({
    "model": st.sampled_from(["binary-erased:1,0.35", "binary-erased:0.5,0.35"]),
    "d1": st.floats(min_value=0.0, max_value=0.6),
    "d2": st.floats(min_value=0.0, max_value=0.6),
    "step": st.sampled_from([0.25, 0.5]),
    "solver": st.sampled_from(["grid", "descent", "both", "closed_form", "banana"]),
    "restarts": st.integers(min_value=0, max_value=1),
    "weights": st.integers(min_value=1, max_value=3),
})
_REGION_SPECS = st.tuples(_REGION_BASE, st.fixed_dictionaries({}, optional={
    **{k: v for k, v in _SPEC_FIELDS.items() if k not in ("solver", "restarts")},
    "restarts": st.integers(min_value=0, max_value=1) | _BAD,
    "chain": st.sampled_from(["x-y1-y2", "x-y2-y1", "X-Y2-Y1", "foo", ""]) | _BAD,
    "weights": st.integers(min_value=-1, max_value=3) | _BAD,
})).map(lambda specs: {**specs[0], **specs[1]})


# The commands that decide the HB order, on custom models of both orders and
# of neither: a valid base spec with drawn overrides, so that many draws
# solve.
_CUSTOM_SPECS = st.tuples(st.fixed_dictionaries({
    "model": st.sampled_from(["custom:{assumed}", "custom:{reversed}", "custom:{neither}"]),
    "d1": st.floats(min_value=0.0, max_value=0.6),
    "d2": st.floats(min_value=0.0, max_value=0.6),
    "step": st.sampled_from([0.25, 0.5]),
    "solver": st.sampled_from(["grid", "descent", "both"]),
    "restarts": st.integers(min_value=0, max_value=1),
}), st.fixed_dictionaries({}, optional={
    k: v for k, v in _SPEC_FIELDS.items() if k not in ("model", "solver", "restarts")
})).map(lambda specs: {**specs[0], **specs[1]})


# Figure presets: valid and invalid ids and steps, coarse steps only, so a
# figure-8 draw runs ten small brute-force solves.
_FIGURE_SPECS = st.fixed_dictionaries({
    "id": st.sampled_from([6, 8, 7, 8.9, True]),
    "step": st.sampled_from([0.25, 0.5, 0, 0.3, True]),
}, optional={
    "u1_cap": st.sampled_from([1, 2, 0, 2.5]),
    "u2_cap": st.sampled_from([1, 2, 0, 2.5]),
    "format": st.sampled_from(["csv", "json"]),
})


def _assert_exit_documented(tmp_path_factory, command, spec, data):
    """Put a drawn subset of the spec on argv, the rest in a spec file."""
    on_argv = data.draw(st.lists(st.sampled_from(sorted(spec)), unique=True))
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    if str(spec.get("model")).startswith("custom:{"):
        spec = {**spec, "model": spec["model"].format(**_write_custom_models(path.parent))}
    path.write_text(json.dumps({k: v for k, v in spec.items() if k not in on_argv}))
    argv = [command, "--spec", str(path)]
    for key in on_argv:
        argv += [f"--{key.replace('_', '-')}", str(spec[key])]
    assert _exit_code(argv) in (0, 2, 3, 4)


class TestExitCodeContract:
    @given(command=st.sampled_from(["point-cr", "hb-cr", "hb-nocr", "wz", "conr",
                                    "degradedness"]),
           spec=_SPECS, data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exit_code_always_documented(self, tmp_path_factory, command, spec, data):
        _assert_exit_documented(tmp_path_factory, command, spec, data)

    @given(command=st.sampled_from(["hb-cr", "hb-nocr", "conr"]), spec=_CUSTOM_SPECS,
           data=st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_hb_order_exit_code_documented(self, tmp_path_factory, command, spec, data):
        _assert_exit_documented(tmp_path_factory, command, spec, data)

    @given(spec=_FIGURE_SPECS, data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_figure_exit_code_documented(self, tmp_path_factory, spec, data):
        _assert_exit_documented(tmp_path_factory, "figure", spec, data)

    @given(command=st.sampled_from(["coop-cr", "cascade-cr"]), spec=_REGION_SPECS,
           data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_region_commands_exit_code_documented(self, tmp_path_factory, command,
                                                  spec, data):
        _assert_exit_documented(tmp_path_factory, command, spec, data)


class TestDegradedness:
    def test_feasible_verdict_with_kernel(self, capsys):
        rc, out, _ = run_cli(["degradedness", "--model", "binary-erased:0.5,0.35",
                              "--format", "json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["rows"][0][4] == "feasible"
        kernel = np.asarray(doc["meta"]["kernel"])
        assert kernel[2, 0] == pytest.approx(0.23076923076923078, abs=1e-9)

    def test_infeasible_verdict(self, tmp_path, capsys):
        src = crrd.build_erased_source(crrd.BinaryErasureSpec(0.5, 0.35))
        swapped = crrd.JointSource(np.transpose(src.mass, (0, 2, 1)))
        doc = {"source": json.loads(swapped.to_json())}
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(["degradedness", "--model", f"custom:{path}",
                              "--format", "json"], capsys)
        assert rc == 0
        parsed = json.loads(out)
        assert parsed["rows"][0][4] == "infeasible"
        assert parsed["meta"]["violation_tv"] > 1e-3


def _custom_sources() -> dict:
    """Custom-model sources by HB order: the erased pair (0.6, 0.1) as built
    (Y1 degraded w.r.t. Y2), with its Y axes swapped (X - Y1 - Y2), and one
    degraded neither way (Y1 erases X w.p. 0.5, Y2 flips it w.p. 0.1)."""
    erased = crrd.build_erased_source(crrd.BinaryErasureSpec(0.6, 0.1))
    neither = np.einsum("x,xa,xb->xab", [0.5, 0.5], [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
                        [[0.9, 0.1], [0.1, 0.9]])
    return {"assumed": erased, "reversed": crrd.JointSource(erased.mass.transpose(0, 2, 1)),
            "neither": crrd.JointSource(neither)}


def _write_custom_models(directory, metric1=None) -> dict:
    """Model file path per `_custom_sources` name; the files also carry the
    point-to-point entries, so every command can read them."""
    ham = json.loads(crrd.DistortionMetric.hamming(2).to_json())
    paths = {}
    for name, src in _custom_sources().items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps({
            "source": json.loads(src.to_json()), "metric1": metric1 or ham, "metric2": ham,
            "pair_pmf": {"alphabets": list(src.xy1_marginal().shape),
                         "pmf": src.xy1_marginal().ravel().tolist()},
            "metric": ham}))
    return paths


@pytest.fixture(scope="module")
def custom_models(tmp_path_factory):
    return _write_custom_models(tmp_path_factory.mktemp("models"))


class TestHbOrder:
    """hb-cr, hb-nocr and conr solve in the order the source is degraded."""

    def _json(self, capsys, argv):
        rc, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert rc == 0, err
        return json.loads(out)

    def test_reversed_source_swaps_the_decoders(self, custom_models, capsys):
        doc = self._json(capsys, ["hb-cr", "--model", f"custom:{custom_models['reversed']}",
                                  "--d1", "0.05", "--d2", "0.2", "--solver", "grid",
                                  "--step", "0.05"])
        ham = crrd.DistortionMetric.hamming(2)
        want, _ = crrd.grid_oracle_hb_cr(_custom_sources()["assumed"], ham, ham,
                                         crrd.DistortionPair(0.2, 0.05), 0.05)
        rate = doc["rows"][0][2]
        assert rate == pytest.approx(want, abs=1e-12)
        # decoder 2 alone (erasure 0.6, d2 = 0.2) needs this much
        assert rate >= crrd.rcr_point_binary(0.2, 0.6, crrd.BinaryMetric.HAMMING) - 1e-12
        assert doc["meta"]["degraded_order"] == "x-y1-y2"
        assert doc["meta"]["violation_tv"] < 1e-9
        assert doc["rows"][0][4] == ""

    def test_reversed_nocr_meets_decoder_2_floor(self, custom_models, capsys):
        doc = self._json(capsys, ["hb-nocr", "--model", f"custom:{custom_models['reversed']}",
                                  "--d1", "0.1", "--d2", "0.1", "--step", "0.05"])
        # decoder 2's Wyner-Ziv rate 0.6 (1 - h(0.1 / 0.6)) = 0.209987
        assert doc["rows"][0][2] >= 0.6 * (1 - crrd.binary_entropy(0.1 / 0.6)) - 1e-12

    def test_reversed_conr_swaps_budgets_and_caps(self, custom_models, capsys):
        doc = self._json(capsys, ["conr", "--model", f"custom:{custom_models['reversed']}",
                                  "--d1", "0.2", "--d2", "0.1", "--de1", "0.1", "--de2", "0.2",
                                  "--u1-cap", "1", "--u2-cap", "2", "--step", "0.25"])
        ham = crrd.DistortionMetric.hamming(2)
        want = crrd.brute_force_conr(_custom_sources()["assumed"], ham, ham,
                                     crrd.DistortionPair(0.1, 0.2),
                                     crrd.ConRConstraint(0.2, 0.1, ham, ham),
                                     u_caps=(2, 1), step=0.25)
        assert doc["rows"][0][2] == want.rate
        assert doc["meta"]["u_caps"] == [1, 2] and doc["meta"]["de"] == [0.1, 0.2]

    def test_assumed_order_keeps_the_decoders(self, custom_models, capsys):
        doc = self._json(capsys, ["hb-cr", "--model", f"custom:{custom_models['assumed']}",
                                  "--d1", "0.2", "--d2", "0.05", "--solver", "grid",
                                  "--step", "0.05"])
        ham = crrd.DistortionMetric.hamming(2)
        want, _ = crrd.grid_oracle_hb_cr(_custom_sources()["assumed"], ham, ham,
                                         crrd.DistortionPair(0.2, 0.05), 0.05)
        assert doc["rows"][0][2] == want
        assert doc["meta"]["degraded_order"] == "x-y2-y1"

    @pytest.mark.parametrize("argv", [
        ["hb-cr", "--solver", "grid", "--step", "0.25"],
        ["hb-cr", "--solver", "descent", "--restarts", "1"],
        ["hb-nocr", "--step", "0.25"],
        ["conr", "--de1", "0.2", "--de2", "0.2", "--step", "0.25"],
    ], ids=["hb-cr-grid", "hb-cr-descent", "hb-nocr", "conr"])
    def test_neither_way_is_flagged(self, custom_models, capsys, argv):
        argv = argv + ["--model", f"custom:{custom_models['neither']}", "--d1", "0.2",
                       "--d2", "0.2"]
        doc = self._json(capsys, argv)
        assert "not_degraded" in doc["rows"][0][4].split(";")
        assert doc["meta"]["degraded_order"] == "none"
        assert doc["meta"]["violation_tv"] > 1e-3
        rc, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert rc == 0
        assert out.strip().split("\n")[1].endswith("not_degraded")

    def test_binary_erased_output_has_no_order_meta(self, capsys):
        doc = self._json(capsys, ["hb-nocr", "--model", "binary-erased:1,0.35",
                                  "--d1", "0.2", "--d2", "0.1", "--step", "0.25"])
        assert "degraded_order" not in doc["meta"] and doc["rows"][0][4] == ""

    @pytest.mark.parametrize("command", ["hb-nocr", "conr"])
    def test_metric_rows_must_match_source(self, tmp_path, capsys, command):
        paths = _write_custom_models(
            tmp_path, json.loads(crrd.DistortionMetric.hamming(3).to_json()))
        rc, out, err = run_cli([command, "--model", f"custom:{paths['assumed']}",
                                "--d1", "0.2", "--d2", "0.1", "--step", "0.25"], capsys)
        assert rc == 2 and out == ""
        assert "metric rows must equal |X|" in err


    def _zero_x_model(self, path, metric):
        """X = 2 has zero mass; Y1 and Y2 flip X w.p. 0.2 and 0.1."""
        mass = np.einsum("x,xa,xb->xab", [0.5, 0.5, 0.0], [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]],
                         [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        path.write_text(json.dumps({
            "source": {"alphabets": [3, 2, 2], "pmf": mass.ravel().tolist()},
            "metric1": json.loads(metric.to_json()), "metric2": json.loads(metric.to_json())}))
        return crrd.JointSource(mass[:2])

    @pytest.mark.parametrize("command", ["hb-cr", "hb-nocr"])
    def test_zero_mass_symbol_drops_its_metric_rows(self, tmp_path, capsys, command):
        src = self._zero_x_model(tmp_path / "zero.json", crrd.DistortionMetric.hamming(3, 2))
        doc = self._json(capsys, [command, "--model", f"custom:{tmp_path / 'zero.json'}",
                                  "--d1", "0.2", "--d2", "0.1", "--solver", "grid",
                                  "--step", "0.25"])
        ham, pair = crrd.DistortionMetric.hamming(2), crrd.DistortionPair(0.2, 0.1)
        want = (crrd.grid_oracle_hb_cr(src, ham, ham, pair, 0.25)[0] if command == "hb-cr"
                else crrd.brute_force_hb_nocr(src, ham, ham, pair, step=0.25))
        assert doc["rows"][0][2] == want
        assert doc["meta"]["degraded_order"] == "x-y2-y1"

    def test_metric_rows_follow_the_source_file(self, tmp_path, capsys):
        # two rows fit the pruned source, but not the file's three X symbols
        self._zero_x_model(tmp_path / "zero.json", crrd.DistortionMetric.hamming(2))
        rc, out, err = run_cli(["hb-nocr", "--model", f"custom:{tmp_path / 'zero.json'}",
                                "--d1", "0.2", "--d2", "0.1", "--step", "0.25"], capsys)
        assert rc == 2 and out == ""
        assert "metric rows must equal |X|" in err


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        doc1 = run_command("figure", {"id": 6})
        doc2 = run_command("figure", {"id": 6})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(doc1, str(p1))
        emit_csv(doc2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_descent_run_reproducible(self, capsys):
        args = ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1",
                "--d2", "0.05", "--solver", "descent", "--restarts", "3",
                "--seed", "7"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_metric_name_case_keeps_seed_channel(self, capsys):
        args = ["hb-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1",
                "--d2", "0.05", "--solver", "descent", "--restarts", "0",
                "--seed", "3", "--format", "json"]
        rows = [json.loads(run_cli(args + ["--metric", name], capsys)[1])["rows"]
                for name in ("hamming", "HAMMING")]
        assert rows[0] == rows[1]


class TestRegionsViaCli:
    def test_coop_half_plane(self, capsys):
        rc, out, _ = run_cli(["coop-cr", "--model", "binary-erased:1,0.35",
                              "--d1", "0.1", "--d2", "0.05", "--solver", "grid",
                              "--step", "0.05", "--format", "json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["meta"]["chain"] == "x-y2-y1"
        assert doc["meta"]["unbounded"] == ["r2"]
        assert doc["rows"][0][2] == pytest.approx(0.5949139291763825, abs=5e-3)

    def test_coop_descent_rows_say_scalarize(self, capsys):
        rc, out, _ = run_cli(["coop-cr", "--model", "binary-erased:1,0.35",
                              "--d1", "0.1", "--d2", "0.05", "--solver", "descent",
                              "--restarts", "1"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[4] == "scalarize"
        assert float(row[2]) == pytest.approx(0.5949139291763825, abs=5e-3)

    def test_cascade_both_grid_rows_come_from_grid_sampler(self, capsys):
        args = ["cascade-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1",
                "--d2", "0.05", "--step", "0.1", "--weights", "3", "--restarts", "1",
                "--format", "json"]
        both = json.loads(run_cli(args + ["--solver", "both"], capsys)[1])["rows"]
        grid = json.loads(run_cli(args + ["--solver", "grid"], capsys)[1])["rows"]
        assert both[0][4] == "closed_form"
        assert grid and both[1:] == grid

    def test_cascade_closed_corner(self, capsys):
        rc, out, _ = run_cli(["cascade-cr", "--model", "binary-erased:1,0.35",
                              "--d1", "0.1", "--d2", "0.05"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) == pytest.approx(0.5949139291763825, abs=1e-6)
        assert float(row[3]) == pytest.approx(0.2497610650094153, abs=1e-6)

    def test_cascade_erasure_corner_uses_erasure_closed_form(self, capsys):
        rc, out, _ = run_cli(["cascade-cr", "--model", "binary-erased:1,0.35",
                              "--d1", ".1", "--d2", ".05", "--metric", "erasure",
                              "--solver", "both", "--step", "0.25", "--format", "json"],
                             capsys)
        assert rc == 0
        closed, grid = json.loads(out)["rows"][:2]
        assert closed[4] == "closed_form" and grid[4] == "grid"
        erasure = crrd.BinaryMetric.ERASURE
        want = (crrd.rhb_cr_binary(crrd.DistortionPair(0.1, 0.05),
                                   crrd.BinaryErasureSpec(1.0, 0.35), erasure).rate,
                crrd.rcr_point_binary(0.05, 0.35, erasure))
        assert tuple(closed[2:4]) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx((0.9175, 0.3325), abs=1e-12)
        assert closed[2] <= grid[2] + 1e-12 and closed[3] <= grid[3] + 1e-12

    @pytest.mark.parametrize("command", ["coop-cr", "cascade-cr"])
    def test_no_markov_chain_exits_2(self, command, tmp_path, capsys):
        # Y1 and Y2 are independent BSC(0.2) and BSC(0.1) observations of X
        mass = np.einsum("x,xa,xb->xab", [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]],
                         [[0.9, 0.1], [0.1, 0.9]])
        ham = json.loads(crrd.DistortionMetric.hamming(2).to_json())
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"source": json.loads(crrd.JointSource(mass).to_json()),
                                     "metric1": ham, "metric2": ham}))
        rc, out, err = run_cli([command, "--model", f"custom:{model}", "--d1", "0.2",
                                "--d2", "0.1", "--solver", "grid", "--step", "0.25"], capsys)
        assert rc == 2 and out == ""
        assert "source satisfies neither Markov chain; pass --chain" in err

    def test_cascade_checks_the_chain_once(self, monkeypatch, capsys):
        calls = []

        def spy(*args):
            calls.append(args[1])
            return crrd.check_markov_chain(*args)
        monkeypatch.setattr(crrd.cli, "check_markov_chain", spy)
        rc, out, _ = run_cli(["cascade-cr", "--model", "binary-erased:1,0.35", "--d2", "0.1",
                              "--sweep", "d1:0.2:0.3:3", "--solver", "grid", "--step", "0.25"],
                             capsys)
        assert rc == 0 and len(out.strip().split("\n")) > 3
        assert calls == ["x-y2-y1"]

    @pytest.mark.parametrize("argv", [
        ["--model", "binary-erased:1,0.35", "--d1", "0.1", "--d2", "0.05", "--map-budget", "10"],
        ["--model", "custom:{neither}", "--d1", "0.2", "--d2", "0.1", "--de1", "0.1"],
    ], ids=["heuristic", "not-degraded"])
    def test_conr_rows_fit_the_header(self, argv, custom_models, capsys):
        rc, out, _ = run_cli(["conr", "--step", "0.25"]
                             + [a.format(**custom_models) for a in argv], capsys)
        lines = out.strip().split("\n")
        assert rc == 0 and len(lines) == 2
        assert [len(line.split(",")) for line in lines] == [5, 5]
        assert lines[1].split(",")[4].count(";") == 1

    def test_conr_flags_column(self, capsys):
        rc, out, _ = run_cli(["conr", "--model", "binary-erased:1,0.35",
                              "--d1", "0.1", "--d2", "0.05", "--de1", "0.0",
                              "--de2", "0.0", "--step", "0.05"], capsys)
        assert rc == 0
        row = out.strip().split("\n")[1].split(",")
        # caps (2,2) are below the exactness cardinalities (6, 16)
        assert "caps_reduced" in row[-1]


class TestFigurePresets:
    def test_figure_6_zero_pattern(self):
        doc = run_command("figure", {"id": 6})
        assert doc["columns"][:3] == ["d2", "d1", "rate_bits"]
        for d2, d1, rate, *_ in doc["rows"]:
            if rate == 0.0:
                assert d2 == 5.0 and d1 >= 4.0
            if d2 == 5.0 and d1 >= 4.0:
                assert rate == 0.0

    def test_figure_8_schema_and_rows(self):
        doc = run_command("figure", {"id": 8})
        assert "kaspi" not in ",".join(doc["columns"]).lower()
        assert {r[0] for r in doc["rows"]} == {0.05, 0.3}
        for _, _, cr, nocr, *_ in doc["rows"]:
            assert nocr <= cr + 1e-9

    def test_unknown_figure(self, capsys):
        rc, _, err = run_cli(["figure", "--id", "7"], capsys)
        assert rc == 2
