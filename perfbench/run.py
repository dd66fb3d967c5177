#!/usr/bin/env python3
"""regretlab benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Load model: closed loop, one client, one process.  Ops run back to back, in
process, with BLAS pinned to one thread.  After one warm-up op the workload's
op list is repeated as whole passes until `--seconds` of pass time have
elapsed.  Every op's result is checked after its pass, untimed.

`--trace 0` prints the end-to-end metrics: `setup_s` (median wall time of a
fresh interpreter importing `regretlab.cli`), `wall_s` (wall time of the op
list: the sum over ops of each op's median latency), `op_p50_s` (median op
latency) and `peak_rss_mb`.  Op latencies are rescaled to a reference CPU
speed with SpeedProbe, see there; the raw figures are on the diagnostics
line.  `--trace 1` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, with raw times.  The last line of
stdout is the result object; the line before it holds the environment and
diagnostics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
IMPORT_BREAKDOWN = ("numpy", "scipy", "jsonschema")
TAIL_MIN_BEYOND = 10
PROBE_EVERY_S = 0.2
PROBE_LOOP = 20_000
PROBE_NORMS = 300
# Probe time at the reference CPU speed: about the fastest the probe ran on
# the 2-vCPU box the baseline was measured on (Python 3.11.7, numpy 2.4.6).
PROBE_REF_S = 0.006

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hindsight.calls": "count", "hindsight.self_s": "s", "hindsight.steps": "count",
    "hindsight.redundancy": "ratio",
    "model.calls": "count", "model.self_s": "s", "model.steps": "count",
    "adversary.calls": "count", "adversary.self_s": "s", "adversary.rows": "count",
    "transition.calls": "count", "transition.self_s": "s", "transition.table_rows": "count",
    "counterexample.calls": "count", "counterexample.self_s": "s",
    "counterexample.dare_calls": "count",
    "cli.calls": "count", "cli.load_config_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "regret.self_s": "s",
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.jsonschema_s": "s", "setup.regretlab_s": "s",
    "check.max_rel_err": "ratio", "check.identical_ops": "count",
    "trace.overhead_ratio": "ratio",
}


def load_program():
    """Pin BLAS threads, then import regretlab from the checkout's src/ and nowhere else."""
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    if not (SRC / "regretlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no regretlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import regretlab

    if Path(regretlab.__file__).resolve().parent != (SRC / "regretlab").resolve():
        raise SystemExit(f"perfbench: regretlab imported from {regretlab.__file__}, not {SRC}")
    return regretlab


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )


def setup_times() -> list[float]:
    """Wall times of fresh interpreters that import regretlab.cli (interpreter plus import)."""
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        fresh_python("-c", "import regretlab.cli")
        times.append(perf_counter() - start)
    return times


def import_breakdown(importtime_log: str) -> dict[str, float]:
    """setup.<package>_s from a `python -X importtime` log.

    numpy, scipy and jsonschema are charged the cumulative time of their
    outermost imports, dependencies included; regretlab the self time of its
    own modules.
    """
    rows = []  # (depth, name, self_us, cumulative_us), children before parents
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "self [us]" in line:
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(parts[0].split(":")[1]), int(parts[1])))
    parents: dict[int, str | None] = {}
    stack: list[tuple[int, str]] = []
    for i in reversed(range(len(rows))):
        depth, name = rows[i][0], rows[i][1]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parents[i] = stack[-1][1] if stack else None
        stack.append((depth, name))

    def inside(pkg: str, name: str | None) -> bool:
        return name is not None and (name == pkg or name.startswith(pkg + "."))

    out = {}
    for pkg in IMPORT_BREAKDOWN:
        us = sum(r[3] for i, r in enumerate(rows) if inside(pkg, r[1]) and not inside(pkg, parents[i]))
        out[f"setup.{pkg}_s"] = us * 1e-6
    out["setup.regretlab_s"] = sum(r[2] for r in rows if inside("regretlab", r[1])) * 1e-6
    return out


class SpeedProbe:
    """CPU-speed probe: a fixed slice of Python loop and 3x3 spectral norms.

    In busy hours the CPU speed of the shared 2-vCPU box the baseline was
    measured on drifts by 15-30% over tens of seconds (IQR over median of a
    fixed loop's 30-s medians), so raw latencies of two runs disagree by that
    much.  The probe runs between ops, at most every PROBE_EVERY_S, and each
    op's latency is rescaled by PROBE_REF_S / (probe time around the op): the
    latency at the reference CPU speed.  The slowdowns hit the probe and the
    ops alike, so rescaled latencies drift far less than raw ones.
    """

    def __init__(self):
        import numpy as np

        self._norm = np.linalg.norm
        self._matrix = np.arange(9.0).reshape(3, 3) / 9.0
        self.times: list[float] = []
        self.last = -math.inf

    def sample(self) -> float:
        start = perf_counter()
        x = 0.0
        for i in range(PROBE_LOOP):
            x += i * 0.5
        for _ in range(PROBE_NORMS):
            self._norm(self._matrix, 2)
        self.last = perf_counter()
        self.times.append(self.last - start)
        return self.times[-1]


def run_pass(ops, probe: SpeedProbe) -> tuple[float, list[float], list[float], list]:
    """One pass over the op list.

    Returns (wall time, op latencies, probe time around each op, results or
    exceptions).  The probe runs before the first op and after every op that
    ends PROBE_EVERY_S or more after the last probe; an op is paired with the
    mean of the probes just before and just after it.
    """
    gc.collect()
    latencies, around, results = [], [], []
    start = perf_counter()
    before, waiting = probe.sample(), []
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing op is counted, the run goes on
            result = exc
        end = perf_counter()
        latencies.append(end - t0)
        results.append(result)
        waiting.append(before)
        if end - probe.last >= PROBE_EVERY_S or i == len(ops) - 1:
            after = probe.sample()
            around += [(b + after) / 2 for b in waiting]
            before, waiting = after, []
    return perf_counter() - start, latencies, around, results


def at_reference_speed(latencies: list[list[float]], around: list[list[float]]):
    """Latencies rescaled by PROBE_REF_S / (probe time around the op)."""
    return [[lat * PROBE_REF_S / probe for lat, probe in zip(lats, probes)]
            for lats, probes in zip(latencies, around)]


class Gate:
    """Correctness gate: checks every op result and keeps the tallies."""

    def __init__(self, workloads, reference: dict | None):
        self.workloads = workloads
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.max_rel_err = 0.0

    def check(self, ops, results) -> int:
        """Check one pass; returns how many results are byte-identical to the reference."""
        identical = 0
        for op, result in zip(ops, results):
            checked = self.workloads.check(op, result)
            errors = list(checked.errors)
            self.max_rel_err = max(self.max_rel_err, checked.rel_err)
            if self.reference is not None and not errors:
                if op.name not in self.reference:
                    raise KeyError(f"reference.json has no entry for op {op.name}")
                ref_errors, rel, same = self.workloads.compare(checked, self.reference[op.name])
                errors += ref_errors
                self.max_rel_err = max(self.max_rel_err, rel)
                identical += same
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors += [f"{op.name}: {e}" for e in errors]
        return identical


def op_tail(latencies: list[float]) -> dict | None:
    """Highest whole percentile with at least TAIL_MIN_BEYOND ops above it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 49, -1):
        k = math.ceil(p / 100 * n) - 1
        if n - 1 - k >= TAIL_MIN_BEYOND:
            return {"percentile": p, "value_s": ordered[k], "ops": n}
    return None


def bytes_written(ops) -> int:
    return sum(f.stat().st_size for op in ops if op.out is not None for f in op.out.iterdir())


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def environment(regretlab) -> dict:
    """Versions read from package metadata, so recording them imports nothing new."""
    from importlib.metadata import PackageNotFoundError, version

    def installed(pkg: str) -> str:
        try:
            return version(pkg)
        except PackageNotFoundError:
            return "absent"

    return {
        "python": sys.version.split()[0],
        **{pkg: installed(pkg) for pkg in IMPORT_BREAKDOWN},
        "regretlab": regretlab.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_PIN,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "varying"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    regretlab = load_program()
    setup = None if args.trace else setup_times()
    import spans
    import workloads

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        table = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
        reference = table[args.workload]

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        gate = Gate(workloads, reference)
        probe = SpeedProbe()
        *_, warm = run_pass(ops[:1], probe)
        gate.check(ops[:1], warm)
        probe.times.clear()

        tracer = spans.Tracer() if args.trace else None
        walls = {False: [], True: []}
        latencies = {False: [], True: []}  # per pass: one latency per op
        around = {False: [], True: []}  # per pass: probe time around each op
        identical = []
        elapsed, traced = 0.0, False
        while elapsed < args.seconds or not walls[False] or (tracer and not walls[True]):
            if traced:
                tracer.install()
            try:
                wall, lats, probes, results = run_pass(ops, probe)
            finally:
                if traced:
                    tracer.uninstall()
            identical.append(gate.check(ops, results))
            walls[traced].append(wall)
            latencies[traced].append(lats)
            around[traced].append(probes)
            elapsed += wall
            traced = tracer is not None and not traced

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "env": environment(regretlab),
            "ops_per_pass": len(ops),
            "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
            "probe_s": {"fastest": min(probe.times), "median": statistics.median(probe.times),
                        "samples": len(probe.times)},
            "ops_attempted": gate.attempted,
            "ops_failed": gate.failed,
            "failures": gate.errors[:10],
            "reference_checked": reference is not None,
        }
        if tracer is None:
            info["setup_runs_s"] = setup
            raw = [x for lats in latencies[False] for x in lats]
            info["op_tail_s"] = op_tail(raw)
            info["raw_op_p50_s"] = statistics.median(raw)
            scaled = at_reference_speed(latencies[False], around[False])
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": sum(statistics.median(op) for op in zip(*scaled)),
                "op_p50_s": statistics.median([x for lats in scaled for x in lats]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        else:
            traced_passes = len(walls[True])
            layer = tracer.metrics(traced_passes)
            layer["cli.bytes_written"] = bytes_written(ops)
            layer.update(import_breakdown(fresh_python("-X", "importtime", "-c", "import regretlab.cli").stderr))
            layer["check.max_rel_err"] = gate.max_rel_err
            layer["check.identical_ops"] = min(identical)
            pass_s = {kind: statistics.median(sum(lats) for lats in at_reference_speed(
                latencies[kind], around[kind])) for kind in (False, True)}
            layer["trace.overhead_ratio"] = pass_s[True] / pass_s[False]
            values, units = layer, PER_LAYER
            shares = {k.split(".")[0]: v for k, v in layer.items() if k.endswith(".self_s")}
            total = sum(shares.values())
            info["self_share"] = {k: v / total for k, v in shares.items()} if total else {}
            info["dominant_layer"] = max(shares, key=shares.get)
            info["absent_entry_points"] = tracer.absent
    finally:
        remove_workdir(workdir)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
