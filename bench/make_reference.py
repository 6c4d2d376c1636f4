"""Record the reference values that later runs are gated against.

    python3 bench/make_reference.py

Runs one untraced pass of every workload at full size and writes the
record of each op that does not depend on the seed (rates with all their
digits, grid witnesses, region boundaries, CLI output) to
`bench/reference.json`.  Regenerate it only when a change of results is
intended; the benchmark's purpose is to catch unintended ones.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cfg = dataclasses.replace(workloads.FULL, use_reference=False)
    reference: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        result = run.run_pass(workloads.build(name, seed=0, cfg=cfg))
        for op in result["ops"]:
            if not op["ok"]:
                print(f"{name} {op['id']} failed: {op['reason']}", file=sys.stderr)
                return 1
            if not op["seeded"]:
                reference[op["id"]] = op["record"]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
