#!/usr/bin/env python3
"""Regenerate reference.json from the current program.

    python3 perfbench/make_reference.py

Runs every op of every workload once on the default seed, checks it, and
stores its summary.  run.py compares results on the default seed against
these values; only regenerate them when a change is meant to alter outputs.
"""

import json
from pathlib import Path

import run


def main() -> None:
    run.load_program()
    import workloads

    lines = []
    for name in workloads.WORKLOADS:
        workdir = run.WORK / f"reference-{name}"
        try:
            ops = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            *_, results = run.run_pass(ops, run.SpeedProbe())
            entries = []
            for op, result in zip(ops, results):
                checked = workloads.check(op, result)
                if checked.errors:
                    raise SystemExit(f"{name}/{op.name} fails its checks: {checked.errors}")
                entries.append(f"  {json.dumps(op.name)}: {json.dumps(checked.summary, sort_keys=True)}")
        finally:
            run.remove_workdir(workdir)
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n }")
    path = Path(__file__).parent / "reference.json"
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
