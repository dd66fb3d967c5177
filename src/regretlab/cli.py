"""Command-line front end: experiment orchestration and CSV/JSON/SVG emission.

Subcommands: simulate | stability | regret | figure1 | counterexample.
All outputs are deterministic (seeded sampling, fixed float formatting, no
timestamps).  Exit codes: 0 success, 2 configuration error, 3 numerical
failure; failures additionally emit a JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from ._svg import render_semilog_svg
from .adversary import BallDisturbance, TransitionAlignedDisturbance, constant_eigvec
from .counterexample import build_model, gamma_scan, linear_regret_despite_instability
from .errors import (
    AssumptionViolationError,
    ConditioningError,
    ConfigError,
    ConvergenceError,
    ShapeError,
    SimulationOverflowError,
)
from .model import (
    LinearPolicy,
    QuadraticStageCost,
    SystemDynamics,
    closed_loop,
    closed_loop_matrix,
    jsonable,
    simulate,
)
from .regret import (
    RegretCurve,
    check_growth_grid,
    growth_classify,
    linear_regret_certificate,
    regret_curve,
)
from .transition import classify_lti

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
_VECTOR = {"type": "array", "items": {"type": "number"}}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "system": {
            "type": "object",
            "properties": {"A": _MATRIX, "B": _MATRIX, "path": {"type": "string"}},
            "additionalProperties": False,
        },
        "cost": {
            "type": "object",
            "properties": {"Q": _MATRIX, "R": _MATRIX},
            "required": ["Q", "R"],
            "additionalProperties": False,
        },
        "policies": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"name": {"type": "string"}, "K": _MATRIX},
                "required": ["name", "K"],
                "additionalProperties": False,
            },
        },
        "x0": _VECTOR,
        "X": {"type": "number", "minimum": 0},
        "W": {"type": "number", "minimum": 0},
        "disturbance": {
            "type": "object",
            "properties": {
                "recipe": {"enum": ["eigvec", "phi", "random"]},
                "seed": {"type": "integer"},
                "w0": _VECTOR,
            },
            "additionalProperties": False,
        },
        "horizons": {
            "oneOf": [
                {"type": "string"},
                {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
            ]
        },
        "thresholds": {"type": "object", "additionalProperties": {"type": "number"}},
        "counterexample": {
            "type": "object",
            "properties": {
                "A": _MATRIX,
                "B": _MATRIX,
                "Q": _MATRIX,
                "R": _MATRIX,
                "alpha_grid": {"type": "array", "items": {"type": "number"}},
                "W": {"type": "number", "minimum": 0},
                "X": {"type": "number", "minimum": 0},
                "T_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
            "required": ["A", "B", "Q", "R"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# Built once: jsonschema.validate would re-check the schema itself on every call.
_SCHEMA_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

DEFAULT_THRESHOLDS = {
    "marginal_tol": 1e-9,
    "slope_bounded": 0.1,
    "slope_superlinear": 1.5,
}

# Built-in two-state demo loop with one stable, one marginal, one unstable gain.
BUILTIN_EXPERIMENT = {
    "A": [[1.0, 1.0], [0.0, 1.0]],
    "B": [[1.0], [0.5]],
    "Q": [[1.5, 0.0], [0.0, 1.5]],
    "R": [[1.0]],
    "controllers": [
        ("K1", [[0.2, 0.4]]),
        ("K2", [[0.0, 1.0]]),
        ("K3", [[-0.02, 0.5]]),
    ],
    # Neither the initial state nor the disturbance scale is forced by the
    # setup; these defaults are recorded in the output metadata.  The stable
    # gain has a complex dominant pair, for which the per-component modulus of
    # the eigenvector is used as the (real, unit) disturbance direction.
    "x0": [0.0, 0.0],
    "W": 1.0,
    "horizons": "1:100",
    "complex_convention": "modulus",
}


def builtin_experiment_curves() -> dict[str, "RegretCurve"]:
    """Time-averaged regret curves of the built-in three-controller loop."""
    spec = BUILTIN_EXPERIMENT
    system = SystemDynamics.lti(spec["A"], spec["B"])
    costs = QuadraticStageCost.constant(spec["Q"], spec["R"])
    horizons = parse_horizons(spec["horizons"])
    x0 = np.asarray(spec["x0"], dtype=float)
    curves = {}
    for name, K in spec["controllers"]:
        pol = LinearPolicy.constant(K)
        F = closed_loop_matrix(system, pol, 0)
        recipe = constant_eigvec(F, spec["W"], complex_convention=spec["complex_convention"])
        meta = {
            "policy": name,
            "disturbance_direction": [float(v) for v in recipe.direction],
            "provenance": recipe.provenance,
        }
        curves[name] = regret_curve(system, costs, pol, x0, recipe, horizons, metadata=meta)
    return curves

DEFAULT_COUNTEREXAMPLE = {
    "A": [[2.0]],
    "B": [[1.0]],
    "Q": [[1.0]],
    "R": [[1.0]],
    "alpha_grid": [round(0.05 * k, 2) for k in range(1, 20)],
    "W": 1.0,
    "X": 1.0,
    "T_grid": [1, 2, 5, 10, 20, 50, 100, 200, 500],
}


def parse_horizons(spec) -> list[int]:
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"horizon range must be a:b[:step], got {spec!r}", field="horizons")
        try:
            a, b = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError as exc:
            raise ConfigError(f"bad horizon range {spec!r}: {exc}", field="horizons") from exc
        if a < 1 or b < a or step < 1:
            raise ConfigError(f"bad horizon range {spec!r}", field="horizons")
        return list(range(a, b + 1, step))
    hs = [int(h) for h in spec]
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("horizons must be strictly increasing", field="horizons")
    return hs


@dataclass
class ExperimentConfig:
    system: SystemDynamics
    costs: QuadraticStageCost
    policies: list[tuple[str, LinearPolicy]]
    x0: np.ndarray
    X: float
    W: float
    recipe: str
    seed: int
    w0: np.ndarray | None
    horizons: list[int]
    thresholds: dict
    counterexample: dict
    raw: dict

    def disturbance_for(self, policy: LinearPolicy):
        if self.recipe == "eigvec":
            F = closed_loop_matrix(self.system, policy, 0)
            return constant_eigvec(F, self.W)
        if self.recipe == "phi":
            return TransitionAlignedDisturbance(
                closed_loop(self.system, policy), self.W, self.w0
            )
        return BallDisturbance(self.system.n, self.W, self.seed)


def _validate_schema(raw: dict) -> None:
    error = jsonschema.exceptions.best_match(_SCHEMA_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config schema violation at {error.json_path}: {error.message}",
                          field=error.json_path)


def load_config(path, overrides: argparse.Namespace, need_system: bool = True) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _validate_schema(raw)

    system = None
    costs = None
    policies = []
    n = m = None
    if need_system:
        for key in ("system", "cost", "policies"):
            if key not in raw:
                raise ConfigError(f"missing required config section {key!r}", field=key)
        sysraw = raw["system"]
        if "path" in sysraw:
            sub = json.loads(Path(sysraw["path"]).read_text(encoding="utf-8"))
            sysraw = {"A": sub["A"], "B": sub["B"]}
        if "A" not in sysraw or "B" not in sysraw:
            raise ConfigError("system needs A and B (inline or via path)", field="system")
        try:
            system = SystemDynamics.lti(sysraw["A"], sysraw["B"])
            costs = QuadraticStageCost.constant(raw["cost"]["Q"], raw["cost"]["R"])
            n, m = system.n, system.m
            if costs.n != n or costs.m != m:
                raise ConfigError(
                    f"cost weights sized ({costs.n},{costs.m}), system is ({n},{m})",
                    field="cost",
                )
            for entry in raw["policies"]:
                pol = LinearPolicy.constant(entry["K"])
                if (pol.m, pol.n) != (m, n):
                    raise ConfigError(
                        f"policy {entry['name']!r} gain is {pol.K.shape}, expected ({m},{n})",
                        field=f"policies[{entry['name']}]",
                    )
                policies.append((entry["name"], pol))
        except ShapeError as exc:
            raise ConfigError(str(exc)) from exc

    dist = raw.get("disturbance", {})
    recipe = overrides.recipe or dist.get("recipe", "eigvec")
    seed = overrides.seed if overrides.seed is not None else dist.get("seed", 0)
    w0 = np.asarray(dist["w0"], dtype=float) if "w0" in dist else None

    x0 = np.asarray(raw.get("x0", np.zeros(n) if n else []), dtype=float)
    if n is not None and x0.shape != (n,):
        raise ConfigError(f"x0 has length {x0.shape}, expected ({n},)", field="x0")

    horizons = parse_horizons(overrides.horizons or raw.get("horizons", "1:100"))
    thresholds = dict(DEFAULT_THRESHOLDS)
    thresholds.update(raw.get("thresholds", {}))
    for item in overrides.threshold or []:
        if "=" not in item:
            raise ConfigError(f"--threshold expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            thresholds[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad threshold value {item!r}: {exc}") from exc

    return ExperimentConfig(
        system=system,
        costs=costs,
        policies=policies,
        x0=x0,
        X=float(raw.get("X", 1.0)),
        W=float(raw.get("W", 1.0)),
        recipe=recipe,
        seed=int(seed),
        w0=w0,
        horizons=horizons,
        thresholds=thresholds,
        counterexample=raw.get("counterexample", {}),
        raw=raw,
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args)
    out = _out_dir(args)
    T = cfg.horizons[-1]
    for name, pol in cfg.policies:
        w = cfg.disturbance_for(pol).realize(T)
        traj = simulate(cfg.system, pol, cfg.x0, w, cfg.costs, T)
        cum = traj.cumulative_costs()
        with open(out / f"simulate_{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t"]
                + [f"x{i}" for i in range(cfg.system.n)]
                + [f"u{i}" for i in range(cfg.system.m)]
                + ["stage_cost", "cum_cost"]
            )
            for t in range(T + 1):
                writer.writerow(
                    [t]
                    + [f"{v:.17g}" for v in traj.states[t]]
                    + [f"{v:.17g}" for v in traj.inputs[t]]
                    + [f"{traj.stage_costs[t]:.17g}", f"{cum[t]:.17g}"]
                )
    return EXIT_OK


def cmd_stability(args) -> int:
    cfg = load_config(args.config, args)
    out = _out_dir(args)
    reports = {}
    for name, pol in cfg.policies:
        F = closed_loop_matrix(cfg.system, pol, 0)
        rep = classify_lti(F, marginal_tol=cfg.thresholds["marginal_tol"])
        reports[name] = rep.to_dict()
    _write_json(out / "stability.json", reports)
    return EXIT_OK


def cmd_regret(args) -> int:
    cfg = load_config(args.config, args)
    try:
        check_growth_grid(cfg.horizons)
    except ValueError as exc:
        raise ConfigError(f"regret cannot classify growth on this grid: {exc}",
                          field="horizons") from None
    out = _out_dir(args)
    report = {}
    for name, pol in cfg.policies:
        recipe = cfg.disturbance_for(pol)
        curve = regret_curve(
            cfg.system,
            cfg.costs,
            pol,
            cfg.x0,
            recipe,
            cfg.horizons,
            metadata={"policy": name, "seed": cfg.seed, "X": cfg.X},
        )
        curve.to_csv(out / f"regret_{name}.csv")
        entry = {
            "growth": growth_classify(
                curve,
                bounded_slope=cfg.thresholds["slope_bounded"],
                superlinear_slope=cfg.thresholds["slope_superlinear"],
            ).value,
            "flags": sorted(set(curve.flags)),
        }
        if args.certificate:
            cert = linear_regret_certificate(
                cfg.system,
                cfg.costs,
                pol,
                X=cfg.X,
                W=cfg.W,
                T_max=cfg.horizons[-1],
                seed=cfg.seed,
            )
            entry["certificate"] = cert.to_dict()
        report[name] = entry
    _write_json(out / "regret_report.json", report)
    return EXIT_OK


def cmd_figure1(args) -> int:
    out = _out_dir(args)
    spec = BUILTIN_EXPERIMENT
    meta = {
        "A": spec["A"],
        "B": spec["B"],
        "Q": spec["Q"],
        "R": spec["R"],
        "x0": spec["x0"],
        "W": spec["W"],
        "disturbance": "constant dominant eigenvector of each closed loop",
        "complex_convention": spec["complex_convention"],
        "horizons": spec["horizons"],
        "controllers": {},
    }
    curves = builtin_experiment_curves()
    for name, K in spec["controllers"]:
        curve = curves[name]
        curve.to_csv(out / f"curve_{name}.csv")
        meta["controllers"][name] = {
            "K": K,
            "disturbance_direction": curve.metadata["disturbance_direction"],
            "provenance": curve.metadata["provenance"],
        }
    finals = {name: float(c.time_averaged[-1]) for name, c in curves.items()}
    meta["final_time_averaged_regret"] = finals
    names = [name for name, _ in spec["controllers"]]
    meta["ordering_ok"] = bool(finals[names[0]] < finals[names[1]] < finals[names[2]])
    svg = render_semilog_svg(
        [
            (name, [float(t) for t in c.horizons], [float(v) for v in c.time_averaged])
            for name, c in curves.items()
        ],
        x_label="T",
        y_label="R_T / T",
        title="Time-averaged regret",
    )
    (out / "figure1.svg").write_text(svg, encoding="utf-8")
    _write_json(out / "metadata.json", meta)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    if args.config:
        cfg = load_config(args.config, args, need_system=False)
        ce = {**DEFAULT_COUNTEREXAMPLE, **cfg.counterexample}
    else:
        ce = dict(DEFAULT_COUNTEREXAMPLE)
    out = _out_dir(args)
    rows = gamma_scan(ce["A"], ce["B"], ce["Q"], ce["R"], ce["alpha_grid"])
    with open(out / "gamma_scan.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "converged", "in_gamma", "spectral_radius", "alpha_norm_F"])
        for r in rows:
            writer.writerow(
                [
                    f"{r.alpha:.17g}",
                    int(r.converged),
                    int(r.in_gamma),
                    f"{r.spectral_radius:.17g}",
                    f"{r.discounted_norm:.17g}",
                ]
            )
    in_gamma = [r.alpha for r in rows if r.in_gamma]
    report: dict = {
        "gamma_alphas": in_gamma,
        "found_gamma": bool(in_gamma),
    }
    if in_gamma:
        model = build_model(ce["A"], ce["B"], ce["Q"], ce["R"], in_gamma[0])
        rep = linear_regret_despite_instability(
            model, W=ce["W"], X=ce["X"], T_grid=ce["T_grid"], seed=args.seed or 0
        )
        report["bound_report"] = rep.to_dict()
        report["dare_residual"] = model.residual
    _write_json(out / "counterexample_report.json", report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretlab",
        description="Regret and stability experiments for linear feedback loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override disturbance seed")
        p.add_argument(
            "--horizons", default=None, help="horizon grid a:b[:step], overrides config"
        )
        p.add_argument(
            "--recipe",
            choices=["eigvec", "phi", "random"],
            default=None,
            help="disturbance recipe, overrides config",
        )
        p.add_argument(
            "--threshold",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="classification threshold override (repeatable)",
        )

    p = sub.add_parser("simulate", help="roll out each policy, emit trajectory CSVs")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="classify each closed loop, emit JSON report")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("regret", help="regret curves per policy, emit CSV + JSON")
    common(p)
    p.add_argument("--certificate", action="store_true", help="add linear-regret certificates")
    p.set_defaults(func=cmd_regret)

    p = sub.add_parser(
        "figure1", help="built-in three-controller experiment: CSVs + semilog SVG"
    )
    common(p, config_required=False)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("counterexample", help="discounted-LQR Gamma scan + bound report")
    common(p, config_required=False)
    p.set_defaults(func=cmd_counterexample)

    return parser


def _diag(exc: Exception, code: int, kind: str) -> int:
    payload = {"error": kind, "message": str(exc), "exit": code}
    for attr in ("field", "t", "residual", "iterations"):
        if getattr(exc, attr, None) is not None:
            payload[attr] = getattr(exc, attr)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _diag(exc, EXIT_CONFIG, "config")
    except (ShapeError, AssumptionViolationError) as exc:
        return _diag(exc, EXIT_CONFIG, "config")
    except (SimulationOverflowError, ConvergenceError, ConditioningError) as exc:
        return _diag(exc, EXIT_NUMERICAL, "numerical")
    except OSError as exc:
        # unreadable config / unwritable output directory
        return _diag(exc, EXIT_CONFIG, "io")


if __name__ == "__main__":
    raise SystemExit(main())
