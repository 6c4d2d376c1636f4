"""Cold-import guard: `import crrd` loads no scipy, and each LP loads
`scipy.optimize` on its first call.

The module checks run in fresh interpreters, since this test process may
have imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import crrd.descent
from crrd import BinaryErasureSpec, DistortionPair, build_erased_source, descent_hb_cr

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs `crrd.cli.main(argv)` when argv is given, then prints its exit
#: code and the scipy modules loaded.
_PROBE = """
import json, sys
import crrd, crrd.cli
argv = json.loads(sys.argv[1])
code = None if argv is None else crrd.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))
"""


def _fresh(argv=None):
    """(exit code, scipy modules) of a fresh interpreter running `_PROBE`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _fresh() == [None, []]


def test_binary_erased_grid_run_loads_no_scipy():
    code, scipy = _fresh(["hb-cr", "--model", "binary-erased:1,0.35", "--d1", "0.1",
                          "--d2", "0.05", "--solver", "grid", "--step", "0.1"])
    assert code == 0 and scipy == []


def test_degradedness_runs_its_lp(tmp_path):
    src = build_erased_source(BinaryErasureSpec(0.6, 0.1))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"source": json.loads(src.to_json())}))
    code, scipy = _fresh(["degradedness", "--model", f"custom:{model}"])
    assert code == 0 and "scipy.optimize" in scipy


def test_descent_calls_the_module_linprog(monkeypatch, erased_full, hamming2):
    # bench/layers.py times the feasible-start LP by wrapping this name
    calls = []
    lp = crrd.descent.linprog

    def recorder(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return lp(*args, **kwargs)
    monkeypatch.setattr(crrd.descent, "linprog", recorder)
    descent_hb_cr(erased_full, hamming2, hamming2, DistortionPair(0.1, 0.05),
                  restarts=0)
    assert calls == ["highs"]
