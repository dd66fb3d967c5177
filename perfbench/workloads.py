"""The benchmark's workloads: generated inputs, timed ops and their checks.

Every config, loop, disturbance seed and instance is generated here from the
workload seed; the program under test only receives the generated configs and
arrays.  An op is one `regretlab.cli.main(argv)` call or one public library
call.  Its `run` is what gets timed; its `check` runs afterwards, untimed, and
returns the errors that make the op count as failed plus a summary that is
compared against the stored reference on the default seed.

Library functions are always looked up through their module at call time
(`rl.regret(...)`, `cli.main(...)`), so the timing wrappers of the traced run
see every call the benchmark makes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import regretlab as rl
from regretlab import cli

DEFAULT_SEED = 0

# Regret is a difference of two costs, so it is compared with a tolerance
# scaled by the cost magnitude, never by R_T itself.  For CLI curves only R_T
# is written out; there the magnitude is taken as max(1, T, |R_T|): with
# ||w_t|| <= 1 and weights of order one the benchmark cost is of order T.
COST_RTOL = 1e-9
# solve_hindsight against the dense batch oracle (acceptance criterion 5).
ORACLE_RTOL = 1e-8
ORACLE_CAP = 2000

WORKLOADS = ("sweep", "certify", "varying")

# The built-in two-state loop and its stable / marginal / unstable gains.
LOOP_A = [[1.0, 1.0], [0.0, 1.0]]
LOOP_B = [[1.0], [0.5]]
LOOP_Q = [[1.5, 0.0], [0.0, 1.5]]
LOOP_R = [[1.0]]
LOOP_GAINS = {"K1": [[0.2, 0.4]], "K2": [[0.0, 1.0]], "K3": [[-0.02, 0.5]]}

STABLE = "AsymptoticallyStable"


@dataclass
class Checked:
    """Outcome of an op's check."""

    errors: list[str] = field(default_factory=list)
    # key -> exact value, or {"v": [...], "s": [...]}: values and the scale
    # their tolerance is relative to.  The key "bytes" holds a digest of the
    # written files; it counts for byte-identity only, never as a failure.
    summary: dict = field(default_factory=dict)
    # largest disagreement with an independent route, relative to its scale
    rel_err: float = 0.0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]
    out: Path | None = None  # output directory of a CLI op


# ---------------------------------------------------------------- generators


def _pd(rng, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def _ball_point(rng, n: int, radius: float) -> np.ndarray:
    g = rng.standard_normal(n)
    return radius * rng.uniform() ** (1.0 / n) * g / np.linalg.norm(g)


def _scaled_gaussian(rng, n: int, rho: float) -> np.ndarray:
    """Gaussian matrix scaled to spectral radius rho (the loops of acceptance test 3)."""
    raw = rng.standard_normal((n, n))
    return raw * (rho / float(np.max(np.abs(np.linalg.eigvals(raw)))))


def _real_mode(rng, n: int, rho: float) -> np.ndarray:
    """S diag(rho, ...) S^-1 with a simple real dominant eigenvalue rho.

    A real dominant eigenvector makes the class of the loop under the
    eigenvector disturbance known by construction, marginal loops included.
    """
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    lam = np.concatenate(([rho], rho * rng.uniform(-0.6, 0.6, n - 1)))
    return S @ np.diag(lam) @ np.linalg.inv(S)


def _loop_around(rng, F: np.ndarray, m: int):
    """(A, B, K) with a random B and K such that the closed loop A - B K is F."""
    B = rng.standard_normal((F.shape[0], m))
    K = 0.5 * rng.standard_normal((m, F.shape[0]))
    return F + B @ K, B, K


def _square_input_loop(rng, n: int, closed_loops):
    """(A, B, gains) with m = n and a well-conditioned B, so each gain closes the loop to one F."""
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    return A, B, [np.linalg.solve(B, A - F) for F in closed_loops]


def _orthogonal_stack(rng, n: int, T: int) -> np.ndarray:
    """T random orthogonal n x n matrices, so ||c^t Q_{t-1} ... Q_0|| = c^t exactly."""
    return np.linalg.qr(rng.standard_normal((T, n, n)))[0]


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


# ------------------------------------------------------------- check helpers


def _digest_files(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _numbers(values, scale) -> dict:
    return {"v": [float(v) for v in values], "s": [float(s) for s in scale]}


def _check_curve(c: Checked, label: str, horizons, reg, scale) -> None:
    """Non-negative regret to within round-off of the cost magnitude."""
    reg = np.asarray(reg, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if not np.all(np.isfinite(reg)):
        c.errors.append(f"{label}: non-finite regret")
        return
    worst = int(np.argmin(reg / scale))
    if reg[worst] < -COST_RTOL * scale[worst]:
        c.errors.append(f"{label}: negative regret {reg[worst]:.3e} at T={horizons[worst]}")
    c.summary[f"R:{label}"] = _numbers(reg, scale)


def _cli_scale(curve) -> np.ndarray:
    return np.maximum(1.0, np.maximum(curve.horizons, np.abs(curve.regret)))


def _is_stable(F) -> bool:
    return rl.classify_lti(np.asarray(F, dtype=float)).classification.value == STABLE


def _growth_matches(c: Checked, label: str, growth: str, F) -> None:
    """Acceptance 2: bounded average regret exactly when the loop is stable."""
    if (growth == "BoundedAverage") != _is_stable(F):
        c.errors.append(f"{label}: growth {growth} disagrees with classify_lti")


def _exit_ok(code) -> Checked:
    c = Checked()
    if code != 0:
        c.errors.append(f"exit code {code}")
    return c


class _Workload:
    """Op factory bound to one workload's working directory."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.ops: list[Op] = []
        (workdir / "configs").mkdir(parents=True, exist_ok=True)

    def cli_op(self, name: str, command: str, config: dict | None, check, extra=()) -> None:
        out = self.workdir / name
        out.mkdir(parents=True, exist_ok=True)
        argv = [command, "--out", str(out), *extra]
        if config is not None:
            path = self.workdir / "configs" / f"{name}.json"
            path.write_text(json.dumps(config, indent=1), encoding="utf-8")
            argv += ["--config", str(path)]
        self.ops.append(Op(name, lambda: cli.main(argv), lambda code: check(code, out), out))

    def lib_op(self, name: str, run, check) -> None:
        self.ops.append(Op(name, run, check))


# ---------------------------------------------------------------------- sweep


def _check_figure1(code, out: Path) -> Checked:
    c = _exit_ok(code)
    if c.errors:
        return c
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    if meta.get("ordering_ok") is not True:
        c.errors.append("figure1: final time-averaged regrets out of order")
    A, B = np.asarray(LOOP_A), np.asarray(LOOP_B)
    for name, K in LOOP_GAINS.items():
        curve = rl.RegretCurve.from_csv(out / f"curve_{name}.csv")
        _check_curve(c, name, curve.horizons, curve.regret, _cli_scale(curve))
        _growth_matches(c, name, rl.growth_classify(curve).value, A - B @ np.asarray(K))
    c.summary["bytes"] = _digest_files(out)
    return c


def _regret_check(name: str, F=None):
    """Checks of one `regret` op; with the closed loop F given, also acceptance 2."""

    def check(code, out: Path) -> Checked:
        c = _exit_ok(code)
        if c.errors:
            return c
        report = json.loads((out / "regret_report.json").read_text(encoding="utf-8"))[name]
        curve = rl.RegretCurve.from_csv(out / f"regret_{name}.csv")
        _check_curve(c, name, curve.horizons, curve.regret, _cli_scale(curve))
        if report["flags"] != ["ok"]:
            c.errors.append(f"{name}: flags {report['flags']}")
        if F is not None:
            _growth_matches(c, name, report["growth"], F)
        c.summary["bytes"] = _digest_files(out)
        return c

    return check


def build_sweep(wl: _Workload, small: bool) -> None:
    """Regret curves through the CLI: figure1, the built-in loop, random n=4 loops."""
    rng = wl.rng
    wl.cli_op("figure1", "figure1", None, _check_figure1)

    for recipe in ("phi", "random"):
        for name, K in LOOP_GAINS.items():
            disturbance = {"recipe": recipe, "seed": _seed(rng)}
            if recipe == "phi":
                disturbance["w0"] = rng.standard_normal(2).tolist()
            config = {
                "system": {"A": LOOP_A, "B": LOOP_B},
                "cost": {"Q": LOOP_Q, "R": LOOP_R},
                "policies": [{"name": name, "K": K}],
                "x0": _ball_point(rng, 2, 1.0).tolist(),
                "W": 1.0,
                "disturbance": disturbance,
                "horizons": "1:20" if small else "1:100",
            }
            wl.cli_op(f"loop_{recipe}_{name}", "regret", config, _regret_check(name))

    n, m = 4, 2
    for label, rho in (("stable", 0.8), ("marginal", 1.0), ("unstable", 1.02)):
        F4 = _real_mode(rng, n, rho)
        A4, B4, K4 = _loop_around(rng, F4, m)
        config = {
            "system": {"A": A4.tolist(), "B": B4.tolist()},
            "cost": {"Q": _pd(rng, n).tolist(), "R": _pd(rng, m).tolist()},
            "policies": [{"name": label, "K": K4.tolist()}],
            "x0": np.zeros(n).tolist(),
            "W": 1.0,
            "disturbance": {"recipe": "eigvec"},
            "horizons": "10:100:10" if small else "10:1000:100",
        }
        wl.cli_op(f"n4_{label}", "regret", config, _regret_check(label, F4))


# -------------------------------------------------------------------- certify


def _certificate_check(cert) -> Checked:
    """Acceptance 3: the certificate applies and no sampled rollout violates it."""
    c = Checked()
    if not (cert.applicable and cert.holds):
        c.errors.append(
            f"certificate applicable={cert.applicable} holds={cert.holds} "
            f"violation={cert.max_relative_violation:.3e} {cert.reason}"
        )
    c.summary["c0"] = _numbers([cert.c0], [abs(cert.c0)])
    c.summary["cw"] = _numbers([cert.cw], [abs(cert.cw)])
    c.summary["violation"] = _numbers([cert.max_relative_violation], [1.0])
    return c


def _check_counterexample(code, out: Path) -> Checked:
    c = _exit_ok(code)
    if c.errors:
        return c
    report = json.loads((out / "counterexample_report.json").read_text(encoding="utf-8"))
    bound = report.get("bound_report", {})
    if not report["found_gamma"]:
        c.errors.append("counterexample: no discount factor in Gamma")
    elif not (bound["applicable"] and bound["bound_holds"] and bound["unstable_confirmed"]):
        c.errors.append(f"counterexample: bound report {bound}")
    else:
        c.summary["gamma_alphas"] = report["gamma_alphas"]
        c.summary["c0"] = _numbers([bound["c0"]], [abs(bound["c0"])])
        c.summary["cw"] = _numbers([bound["cw"]], [abs(bound["cw"])])
    c.summary["bytes"] = _digest_files(out)
    return c


def _simulate_check(names, T: int):
    def check(code, out: Path) -> Checked:
        c = _exit_ok(code)
        if c.errors:
            return c
        for name in names:
            with open(out / f"simulate_{name}.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            table = np.asarray(rows, dtype=float)
            if table.shape[0] != T + 1 or not np.all(np.isfinite(table)):
                c.errors.append(f"{name}: {table.shape[0]} rows or non-finite values, expected {T + 1}")
                continue
            stage, cum = table[:, -2], table[:, -1]
            gap = abs(cum[-1] - math.fsum(stage))
            if np.any(stage < 0.0) or gap > COST_RTOL * max(1.0, cum[-1]):
                c.errors.append(f"{name}: stage costs negative or cumulative cost off by {gap:.3e}")
            c.summary[f"J:{name}"] = _numbers([cum[-1]], [max(1.0, cum[-1])])
        c.summary["bytes"] = _digest_files(out)
        return c

    return check


def build_certify(wl: _Workload, small: bool) -> None:
    """Sampled certificates, the counterexample pipeline and a long rollout; no benchmark solve."""
    rng = wl.rng
    count, T_max, trials = (3, 150, 2) if small else (50, 300, 10)
    for i in range(count):
        # n and m cycle through 1..3 and 1..2 so every seed does the same work
        n, m = 1 + i % 3, 1 + (i // 3) % 2
        A, B, K = _loop_around(rng, _scaled_gaussian(rng, n, rng.uniform(0.2, 0.9)), m)
        system = rl.SystemDynamics.lti(A, B)
        costs = rl.QuadraticStageCost.constant(_pd(rng, n), _pd(rng, m))
        policy = rl.LinearPolicy.constant(K)
        seed = _seed(rng)

        def run(system=system, costs=costs, policy=policy, seed=seed):
            return rl.linear_regret_certificate(
                system, costs, policy, X=1.0, W=1.0, T_max=T_max, trials=trials, seed=seed
            )

        wl.lib_op(f"cert_{i:02d}", run, _certificate_check)

    ce = {
        "A": [[2.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
        "W": float(rng.uniform(0.5, 1.5)),
        "X": float(rng.uniform(0.5, 1.5)),
    }
    if small:
        ce["T_grid"] = [1, 2, 5, 10, 20, 50]
    wl.cli_op("counterexample", "counterexample", {"counterexample": ce}, _check_counterexample,
              extra=["--seed", str(_seed(rng))])

    n = 3
    As, Bs, (K1, K2) = _square_input_loop(
        rng, n, [_scaled_gaussian(rng, n, rho) for rho in (0.6, 0.9)]
    )
    T = 200 if small else 2000
    config = {
        "system": {"A": As.tolist(), "B": Bs.tolist()},
        "cost": {"Q": _pd(rng, n).tolist(), "R": _pd(rng, n).tolist()},
        "policies": [{"name": "P1", "K": K1.tolist()}, {"name": "P2", "K": K2.tolist()}],
        "x0": _ball_point(rng, n, 1.0).tolist(),
        "W": 1.0,
        "disturbance": {"recipe": "random", "seed": _seed(rng)},
        "horizons": f"1:{T}",
    }
    wl.cli_op("simulate", "simulate", config, _simulate_check(("P1", "P2"), T))


# -------------------------------------------------------------------- varying


def _classify_check(expected: str):
    def check(report) -> Checked:
        c = Checked()
        got = report.classification.value
        if got != expected:
            c.errors.append(f"classify_ltv gave {got}, constructed {expected}")
        c.summary["class"] = got
        c.summary["tail"] = _numbers([report.phi_norm_tail], [max(1.0, report.phi_norm_tail)])
        return c

    return check


def _ltv_curve_check(curve) -> Checked:
    c = Checked()
    if set(curve.flags) != {"ok"}:
        c.errors.append(f"ltv curve flags {sorted(set(curve.flags))}")
    scale = np.maximum(1.0, np.abs(curve.regret) + np.abs(curve.benchmark_costs))
    _check_curve(c, "ltv", curve.horizons, curve.regret, scale)
    return c


def _one_shot_check(system, costs, policy, x0, w, T: int):
    """R = J_policy - J_benchmark, and the benchmark agrees with the batch oracle."""

    def check(reg) -> Checked:
        c = Checked()
        j_policy = rl.simulate(system, policy, x0, w, costs, T).total_cost
        j_bench = rl.solve_hindsight(system, costs, x0, w, T).optimal_cost
        scale = max(1.0, abs(j_policy))
        if not math.isfinite(reg) or abs(reg - (j_policy - j_bench)) > COST_RTOL * scale:
            c.errors.append(f"regret {reg!r} is not J_policy - J_benchmark")
        elif reg < -COST_RTOL * scale:
            c.errors.append(f"regret {reg!r} negative beyond round-off")
        if T * system.m <= ORACLE_CAP:
            _, j_oracle = rl.batch_oracle(system, costs, x0, w, T)
            c.rel_err = abs(j_bench - j_oracle) / max(1.0, abs(j_oracle))
            if c.rel_err > ORACLE_RTOL:
                c.errors.append(f"solve_hindsight disagrees with batch_oracle by {c.rel_err:.3e}")
        c.summary["R"] = _numbers([reg], [scale])
        return c

    return check


def _stability_check(expected: dict):
    def check(code, out: Path) -> Checked:
        c = _exit_ok(code)
        if c.errors:
            return c
        report = json.loads((out / "stability.json").read_text(encoding="utf-8"))
        for name, cls in expected.items():
            if report[name]["classification"] != cls:
                c.errors.append(f"{name}: {report[name]['classification']}, constructed {cls}")
            c.summary[f"rho:{name}"] = _numbers([report[name]["spectral_radius"]], [1.0])
        c.summary["bytes"] = _digest_files(out)
        return c

    return check


def build_varying(wl: _Workload, small: bool) -> None:
    """Time-varying loops, single-horizon solves and the stability CLI."""
    rng = wl.rng
    n, m = 3, 1
    T_cls = 60 if small else 500
    for c, cls in ((0.97, STABLE), (1.0, "MarginallyStable"), (1.02, "Unstable")):
        F = c * _orthogonal_stack(rng, n, T_cls)
        wl.lib_op(f"classify_ltv_{c}", lambda F=F: rl.classify_ltv(F, T_cls), _classify_check(cls))

    B = rng.standard_normal((n, m))
    K = 0.5 * rng.standard_normal((m, n))
    policy = rl.LinearPolicy.constant(K)
    costs = rl.QuadraticStageCost.constant(_pd(rng, n), _pd(rng, m))

    T_cert = 60 if small else 200
    A_cert = 0.8 * _orthogonal_stack(rng, n, T_cert + 1) + B @ K
    sys_cert = rl.SystemDynamics.ltv(A_cert, B, n=n, m=m)
    seed = _seed(rng)
    wl.lib_op(
        "ltv_certificate",
        lambda: rl.linear_regret_certificate(
            sys_cert, costs, policy, X=1.0, W=1.0, T_max=T_cert, trials=10, seed=seed
        ),
        _certificate_check,
    )

    T_curve = 50 if small else 200
    A_curve = 0.97 * _orthogonal_stack(rng, n, T_curve + 1) + B @ K
    sys_curve = rl.SystemDynamics.ltv(A_curve, B, n=n, m=m)
    recipe = rl.BallDisturbance(n, 1.0, _seed(rng))
    x0 = _ball_point(rng, n, 1.0)
    wl.lib_op(
        "ltv_curve",
        lambda: rl.regret_curve(sys_curve, costs, policy, x0, recipe, range(10, T_curve + 1, 10)),
        _ltv_curve_check,
    )

    for i in range(5 if small else 100):
        # T cycles through 1..50 so every seed does the same work
        T = 1 + i % 50
        ni, mi = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        Ai = rng.standard_normal((ni, ni))
        Ai *= rng.uniform(0.2, 1.05) / max(float(np.max(np.abs(np.linalg.eigvals(Ai)))), 1e-9)
        system = rl.SystemDynamics.lti(Ai, rng.standard_normal((ni, mi)))
        ci = rl.QuadraticStageCost.constant(_pd(rng, ni), _pd(rng, mi))
        pi = rl.LinearPolicy.constant(0.3 * rng.standard_normal((mi, ni)))
        xi = rng.standard_normal(ni)
        wi = rl.DisturbanceSignal(0.5 * rng.standard_normal((T, ni)), math.inf)

        def run(system=system, ci=ci, pi=pi, xi=xi, wi=wi, T=T):
            return rl.regret(system, ci, pi, xi, wi, T)

        wl.lib_op(f"one_shot_{i:03d}", run, _one_shot_check(system, ci, pi, xi, wi, T))

    classes = {"S": (0.5, STABLE), "M": (1.0, "MarginallyStable"), "U": (1.2, "Unstable")}
    As, Bs, gains = _square_input_loop(
        rng, n, [_real_mode(rng, n, rho) for rho, _ in classes.values()]
    )
    policies = [{"name": name, "K": K.tolist()} for name, K in zip(classes, gains)]
    expected = {name: cls for name, (_, cls) in classes.items()}
    config = {
        "system": {"A": As.tolist(), "B": Bs.tolist()},
        "cost": {"Q": np.eye(n).tolist(), "R": np.eye(n).tolist()},
        "policies": policies,
    }
    wl.cli_op("stability", "stability", config, _stability_check(expected))


OP_LISTS = {"sweep": build_sweep, "certify": build_certify, "varying": build_varying}


def build(name: str, seed: int, workdir: Path, small: bool = False) -> list[Op]:
    """The op list of one pass of workload `name`; `small` shrinks it for smoke tests."""
    wl = _Workload(workdir, seed)
    OP_LISTS[name](wl, small)
    return wl.ops


def check(op: Op, result) -> Checked:
    """Run the op's check; an exception from the op or the check is a failure."""
    if isinstance(result, BaseException):
        return Checked(errors=[f"raised {type(result).__name__}: {result}"])
    try:
        return op.check(result)
    except Exception as exc:  # a malformed result must count as failed, not end the run
        return Checked(errors=[f"check raised {type(exc).__name__}: {exc}"])


def compare(checked: Checked, ref: dict) -> tuple[list[str], float, bool]:
    """Compare a summary with its stored reference.

    Returns (errors, largest relative error, byte-identical).  Numbers must
    agree within COST_RTOL of the reference's scale, other values exactly.
    """
    errors, worst = [], 0.0
    got = checked.summary
    for key, want in ref.items():
        if key == "bytes":
            continue
        if key not in got:
            errors.append(f"{key}: missing from result")
        elif isinstance(want, dict):
            v, w, s = (np.asarray(x, dtype=float) for x in (got[key]["v"], want["v"], want["s"]))
            if v.shape != w.shape:
                errors.append(f"{key}: {v.shape[0]} values, reference has {w.shape[0]}")
                continue
            rel = float(np.max(np.abs(v - w) / s, initial=0.0))
            worst = max(worst, rel)
            if not rel <= COST_RTOL:
                errors.append(f"{key}: off the reference by {rel:.3e} of the cost scale")
        elif got[key] != want:
            errors.append(f"{key}: {got[key]!r}, reference {want!r}")
    return errors, worst, digest(got) == digest(ref)


def digest(summary: dict) -> str:
    """Byte-identity key of a summary: its values with full precision plus file bytes."""
    exact = {k: (v["v"] if isinstance(v, dict) else v) for k, v in summary.items()}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()
