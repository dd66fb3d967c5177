"""Command-line front end: experiment orchestration and CSV/JSON/SVG emission.

Subcommands: simulate | stability | regret | figure1 | counterexample.
All outputs are deterministic (seeded sampling, fixed float formatting, no
timestamps).  Exit codes: 0 success, 2 configuration error, 3 numerical
failure; failures additionally emit a JSON diagnostic on stderr.

A config (and a system.path file) is checked against its JSON Schema by
`schema_errors`, a walker over the few keywords these schemas use, without
jsonschema.  `best_error` picks the error to report the way jsonschema 4.26's
`best_match` does, so the diagnostic names the same JSON path and message.
Horizon grids may not go beyond MAX_HORIZON.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._svg import render_semilog_svg
from .adversary import BallDisturbance, TransitionAlignedDisturbance, constant_eigvec, w0_vanishes
from .counterexample import gamma_scan, linear_regret_despite_instability
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
    MatrixSequence,
    QuadraticStageCost,
    SystemDynamics,
    Trajectory,
    closed_loop,
    closed_loop_matrix,
    jsonable,
    simulate,
    write_csv,
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
    "rectangular": True,
}
# a policy name becomes part of an output file name; \Z, unlike $, rejects a trailing newline
_POLICY_NAME = r"^[A-Za-z0-9_-][A-Za-z0-9_.-]*\Z"
_VECTOR = {"type": "array", "items": {"type": "number"}}

DEFAULT_THRESHOLDS = {
    "marginal_tol": 1e-9,
    "slope_bounded": 0.1,
    "slope_superlinear": 1.5,
}
# one schema per threshold, for a config's "thresholds" and for --threshold alike
_THRESHOLD_SCHEMAS = {
    "marginal_tol": {"type": "number", "minimum": 0},
    "slope_bounded": {"type": "number"},
    "slope_superlinear": {"type": "number"},
}
# the longest horizon a grid may hold: a grid's rollouts and tables grow with it
MAX_HORIZON = 10**6

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
                "properties": {"name": {"type": "string", "pattern": _POLICY_NAME}, "K": _MATRIX},
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
                "seed": {"type": "integer", "minimum": 0},
                "w0": _VECTOR,
            },
            "additionalProperties": False,
        },
        "horizons": {
            "type": ["string", "array"],
            "minItems": 1,
            "items": {"type": "integer", "minimum": 1},
        },
        "thresholds": {
            "type": "object",
            "properties": _THRESHOLD_SCHEMAS,
            "additionalProperties": False,
        },
        "counterexample": {
            "type": "object",
            "properties": {
                "A": _MATRIX,
                "B": _MATRIX,
                "Q": _MATRIX,
                "R": _MATRIX,
                "alpha_grid": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                },
                "W": {"type": "number", "minimum": 0},
                "X": {"type": "number", "minimum": 0},
                "T_grid": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 1},
                },
            },
            "required": ["A", "B", "Q", "R"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


# a system.path file holds the two matrices of an inline system
_SYSTEM_FILE_SCHEMA = {"properties": {"A": _MATRIX, "B": _MATRIX}, "required": ["A", "B"]}

# a schema's "type" is one of these names or a list of them
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # draft 2020-12: a number with an integral value, so 3.0 is an integer and NaN is not
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


class SchemaError(NamedTuple):
    """One schema violation, in the terms jsonschema 4.26 reports it in."""

    path: tuple  # keys and indices from the checked value to the offending one
    message: str
    type_mismatch: bool  # the value is not of the enclosing schema's "type" (or it has none)

    @property
    def json_path(self) -> str:
        # every key on a path is a declared property name, so none needs quoting
        return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in self.path)


def schema_errors(value, schema: dict, path: tuple = ()):
    """Every violation of schema by value, in jsonschema's order: keywords in schema order.

    Supports the keywords the config schemas use: type, properties, required,
    additionalProperties (false), items, minItems, enum, minimum, exclusiveMinimum,
    exclusiveMaximum, pattern, and "rectangular" (the rows of a matrix have one
    length).  Messages are jsonschema's.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    mismatch = not any(_TYPES[name](value) for name in types)
    number = _TYPES["number"](value)
    for keyword, arg in schema.items():
        if keyword == "properties" and isinstance(value, dict):
            for key, sub in arg.items():
                if key in value:
                    yield from schema_errors(value[key], sub, (*path, key))
            continue
        if keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from schema_errors(item, arg, (*path, i))
            continue
        if keyword == "required" and isinstance(value, dict):
            for key in arg:
                if key not in value:
                    yield SchemaError(path, f"{key!r} is a required property", mismatch)
            continue
        message = None
        if keyword == "type" and mismatch:
            message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "additionalProperties" and not arg and isinstance(value, dict):
            extras = sorted(key for key in value if key not in schema.get("properties", {}))
            if extras:
                message = (f"Additional properties are not allowed ({', '.join(map(repr, extras))}"
                           f" {'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword == "minItems" and isinstance(value, list) and len(value) < arg:
            message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "enum" and value not in arg:
            message = f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum" and number and value < arg:
            message = f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum" and number and value <= arg:
            message = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "exclusiveMaximum" and number and value >= arg:
            message = f"{value!r} is greater than or equal to the maximum of {arg!r}"
        elif keyword == "pattern" and isinstance(value, str) and not re.search(arg, value):
            message = f"{value!r} does not match {arg!r}"
        elif keyword == "rectangular" and isinstance(value, list):
            if len({len(row) for row in value if isinstance(row, list)}) > 1:
                message = "rows of unequal length"
        if message is not None:
            yield SchemaError(path, message, mismatch)


def _relevance(error: SchemaError) -> tuple:
    # jsonschema's relevance: shallow paths first, then the later sibling, then
    # an error whose value is not of its schema's type
    return (-len(error.path), error.path, error.type_mismatch)


def best_error(errors) -> SchemaError | None:
    """The error jsonschema's best_match reports: the most relevant one, the first of equals."""
    return max(errors, key=_relevance, default=None)


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
    """The horizon grid of a range "a:b[:step]" or a strictly increasing list; its longest
    horizon may not exceed MAX_HORIZON, which is checked before a range is expanded."""
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
        hs = range(a, b + 1, step)
    else:
        hs = [int(h) for h in spec]
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ConfigError("horizons must be strictly increasing", field="horizons")
    if hs:
        _check_horizon_limit(hs[-1], "horizons")
    return list(hs)


def _check_horizon_limit(longest: int, field: str) -> None:
    if longest > MAX_HORIZON:
        raise ConfigError(f"longest horizon {longest} exceeds the limit of {MAX_HORIZON}",
                          field=field)


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

    def disturbance_for(self, policy: LinearPolicy):
        """The disturbance recipe for policy; the random recipe reads no policy, so every
        policy gets its one realization over the longest horizon (a fixed signal)."""
        if self.recipe == "eigvec":
            F = closed_loop_matrix(self.system, policy, 0)
            return constant_eigvec(F, self.W)
        if self.recipe == "phi":
            return TransitionAlignedDisturbance(
                closed_loop(self.system, policy), self.W, self.w0
            )
        return self._ball

    @functools.cached_property
    def _ball(self):
        """The random recipe's DisturbanceSignal, drawn on first use."""
        return BallDisturbance(self.system.n, self.W, self.seed).realize(self.horizons[-1])


def _read_json(path, what: str, schema: dict, field=None) -> dict:
    """The JSON object in the file at path, checked against schema; ConfigError otherwise."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not JSON or not UTF-8; RecursionError: nested deeper than the parser goes
        raise ConfigError(f"cannot read {what} {path}: {exc}", field=field) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} root must be a JSON object", field=field)
    error = best_error(schema_errors(raw, schema))
    if error is not None:
        raise ConfigError(f"{what} schema violation at {error.json_path}: {error.message}",
                          field=field or error.json_path)
    return raw


def _system_and_costs(sysraw: dict, costraw: dict, sections=("system", "cost")):
    """The LTI system and cost of a config, checked before any output: finite A and B,
    Q n x n and R m x m, then costs.bounds(0); errors name the matrix by its section."""
    system = SystemDynamics.lti(sysraw["A"], sysraw["B"])
    for key, seq in (("A", system.A), ("B", system.B)):
        if not np.isfinite(seq(0)).all():
            raise ConditioningError(f"{sections[0]}.{key} has a non-finite entry")
    n, m = system.n, system.m
    costs = QuadraticStageCost(MatrixSequence(costraw["Q"], (n, n), f"{sections[1]}.Q"),
                               MatrixSequence(costraw["R"], (m, m), f"{sections[1]}.R"))
    costs.bounds(0)
    return system, costs


def load_config(path, overrides: argparse.Namespace, need_system: bool = True) -> ExperimentConfig:
    """The validated config at path; overrides holds the flags its subcommand accepts."""
    raw = _read_json(path, "config", CONFIG_SCHEMA)
    flags = vars(overrides)

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
            sysraw = _read_json(sysraw["path"], "system file", _SYSTEM_FILE_SCHEMA,
                                field="system.path")
        if "A" not in sysraw or "B" not in sysraw:
            raise ConfigError("system needs A and B (inline or via path)", field="system")
        system, costs = _system_and_costs(sysraw, raw["cost"])
        n, m = system.n, system.m
        for entry in raw["policies"]:
            if any(entry["name"] == name for name, _ in policies):
                raise ConfigError(f"duplicate policy name {entry['name']!r}", field="policies")
            pol = LinearPolicy.constant(entry["K"])
            if not np.isfinite(pol.K(0)).all():
                raise ConditioningError(f"policies[{entry['name']}].K has a non-finite entry")
            if (pol.m, pol.n) != (m, n):
                raise ConfigError(
                    f"policy {entry['name']!r} gain is {pol.K.shape}, expected ({m},{n})",
                    field=f"policies[{entry['name']}]",
                )
            policies.append((entry["name"], pol))

    dist = raw.get("disturbance", {})
    recipe = flags.get("recipe") or dist.get("recipe", "eigvec")
    seed = dist.get("seed", 0) if flags.get("seed") is None else flags["seed"]
    w0 = np.asarray(dist["w0"], dtype=float) if "w0" in dist else None

    x0 = np.asarray(raw.get("x0", np.zeros(n) if n else []), dtype=float)
    X, W = float(raw.get("X", 1.0)), float(raw.get("W", 1.0))
    ce = raw.get("counterexample", {})
    for key, value in (("x0", x0), ("X", X), ("W", W), ("disturbance.w0", w0),
                       ("counterexample.X", ce.get("X")), ("counterexample.W", ce.get("W")),
                       ("counterexample.alpha_grid", ce.get("alpha_grid"))):
        if value is not None and not np.isfinite(np.sum(np.square(value))):
            if not np.isfinite(value).all():
                raise ConditioningError(f"{key} has a non-finite entry")
            raise ConfigError(f"{key} is too large: its square overflows", field=key)
    if n is not None and x0.shape != (n,):
        raise ConfigError(f"x0 has length {x0.shape}, expected ({n},)", field="x0")
    if n is not None and w0 is not None and (w0.shape != (n,) or w0_vanishes(w0)):
        raise ConfigError(f"disturbance.w0 must be a vector of length {n} with a nonzero norm",
                          field="disturbance.w0")

    horizons = parse_horizons(flags.get("horizons") or raw.get("horizons", "1:100"))
    thresholds = dict(DEFAULT_THRESHOLDS)
    thresholds.update(raw.get("thresholds", {}))
    for item in flags.get("threshold") or []:
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or key not in DEFAULT_THRESHOLDS:
            raise ConfigError(f"--threshold expects KEY=VALUE with KEY one of "
                              f"{sorted(DEFAULT_THRESHOLDS)}, got {item!r}", field="thresholds")
        try:
            thresholds[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad threshold value {item!r}: {exc}",
                              field="thresholds") from exc
        error = best_error(schema_errors(thresholds[key], _THRESHOLD_SCHEMAS[key],
                                         ("thresholds", key)))
        if error is not None:
            raise ConfigError(f"bad threshold value {item!r}: {error.message}",
                              field=error.json_path)
    for key, value in thresholds.items():
        if not np.isfinite(value):
            raise ConditioningError(f"thresholds.{key} has a non-finite entry")

    return ExperimentConfig(
        system=system,
        costs=costs,
        policies=policies,
        x0=x0,
        X=X,
        W=W,
        recipe=recipe,
        seed=int(seed),
        w0=w0,
        horizons=horizons,
        thresholds=thresholds,
        counterexample=ce,
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """t, the states, the inputs, the stage and cumulative cost per row, each float as %.17g."""
    n, m = traj.states.shape[1], traj.inputs.shape[1]
    header = ["t", *(f"x{i}" for i in range(n)), *(f"u{i}" for i in range(m)),
              "stage_cost", "cum_cost"]
    table = np.column_stack([traj.states, traj.inputs, traj.stage_costs, traj.cumulative_costs()])
    write_csv(path, header, "%d" + ",%.17g" * table.shape[1],
              ((t, *row.tolist()) for t, row in enumerate(table)))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args)
    T = cfg.horizons[-1]
    trajectories = {
        name: simulate(cfg.system, pol, cfg.x0, cfg.disturbance_for(pol).realize(T), cfg.costs, T)
        for name, pol in cfg.policies
    }
    out = _out_dir(args)
    for name, traj in trajectories.items():
        write_trajectory_csv(out / f"simulate_{name}.csv", traj)
    return EXIT_OK


def cmd_stability(args) -> int:
    cfg = load_config(args.config, args)
    reports = {}
    for name, pol in cfg.policies:
        F = closed_loop_matrix(cfg.system, pol, 0)
        rep = classify_lti(F, marginal_tol=cfg.thresholds["marginal_tol"])
        reports[name] = rep.to_dict()
    _write_json(_out_dir(args) / "stability.json", reports)
    return EXIT_OK


def cmd_regret(args) -> int:
    cfg = load_config(args.config, args)
    try:
        check_growth_grid(cfg.horizons)
    except ValueError as exc:
        raise ConfigError(f"regret cannot classify growth on this grid: {exc}",
                          field="horizons") from None
    curves, report = {}, {}
    for name, pol in cfg.policies:
        recipe = cfg.disturbance_for(pol)
        curve = regret_curve(cfg.system, cfg.costs, pol, cfg.x0, recipe, cfg.horizons)
        curves[name] = curve
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
    out = _out_dir(args)
    for name, curve in curves.items():
        curve.to_csv(out / f"regret_{name}.csv")
    _write_json(out / "regret_report.json", report)
    return EXIT_OK


def cmd_figure1(args) -> int:
    out = _out_dir(args)
    spec = BUILTIN_EXPERIMENT
    meta = {**spec, "disturbance": "constant dominant eigenvector of each closed loop",
            "controllers": {}}
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
    ce, seed = dict(DEFAULT_COUNTEREXAMPLE), args.seed or 0
    if args.config:
        cfg = load_config(args.config, args, need_system=False)
        ce, seed = {**ce, **cfg.counterexample}, cfg.seed
    _system_and_costs(ce, ce, ("counterexample", "counterexample"))
    _check_horizon_limit(max(ce["T_grid"]), "counterexample.T_grid")
    rows = gamma_scan(ce["A"], ce["B"], ce["Q"], ce["R"], ce["alpha_grid"])
    in_gamma = [r for r in rows if r.in_gamma]
    report: dict = {
        "gamma_alphas": [r.alpha for r in in_gamma],
        "found_gamma": bool(in_gamma),
    }
    if in_gamma:
        model = in_gamma[0].model  # solved by the scan
        rep = linear_regret_despite_instability(
            model, W=ce["W"], X=ce["X"], T_grid=ce["T_grid"], seed=seed
        )
        report["bound_report"] = rep.to_dict()
        report["dare_residual"] = model.residual
    out = _out_dir(args)
    write_csv(out / "gamma_scan.csv",
              ["alpha", "converged", "in_gamma", "spectral_radius", "alpha_norm_F"],
              "%.17g,%d,%d,%.17g,%.17g",
              ((r.alpha, r.converged, r.in_gamma, r.spectral_radius, r.discounted_norm)
               for r in rows))
    _write_json(out / "counterexample_report.json", report)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 2 with the JSON diagnostic."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}", field="argv")


def non_negative_int(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


# the flags a subcommand may take besides --out; each takes only those it reads
_FLAGS = {
    "--config": {"required": True, "help": "JSON experiment config"},
    "--seed": {"type": non_negative_int, "default": None, "help": "override disturbance seed"},
    "--horizons": {"default": None, "help": "horizon grid a:b[:step], overrides config"},
    "--recipe": {"choices": ["eigvec", "phi", "random"], "default": None,
                 "help": "disturbance recipe, overrides config"},
    "--threshold": {"action": "append", "default": [], "metavar": "KEY=VALUE",
                    "help": "classification threshold override (repeatable)"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on main's first call and reused by every later one."""
    parser = _Parser(
        prog="regretlab",
        description="Regret and stability experiments for linear feedback loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("simulate", cmd_simulate, "roll out each policy, emit trajectory CSVs",
            "--config", "--seed", "--horizons", "--recipe")
    command("stability", cmd_stability, "classify each closed loop, emit JSON report",
            "--config", "--threshold")
    p = command("regret", cmd_regret, "regret curves per policy, emit CSV + JSON",
                "--config", "--seed", "--horizons", "--recipe", "--threshold")
    p.add_argument("--certificate", action="store_true", help="add linear-regret certificates")
    command("figure1", cmd_figure1,
            "built-in three-controller experiment: CSVs + semilog SVG")
    p = command("counterexample", cmd_counterexample,
                "discounted-LQR Gamma scan + bound report", "--seed")
    p.add_argument("--config", help="JSON config with a counterexample section")
    return parser


def _diag(exc: Exception, code: int, kind: str) -> int:
    payload = {"error": kind, "message": str(exc), "exit": code}
    for attr in ("field", "t", "residual", "iterations"):
        if getattr(exc, attr, None) is not None:
            payload[attr] = getattr(exc, attr)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand; numpy's floating-point warnings are silenced, so stderr holds
    at most the one-line diagnostic."""
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, ShapeError, AssumptionViolationError) as exc:
        return _diag(exc, EXIT_CONFIG, "config")
    except (SimulationOverflowError, ConvergenceError, ConditioningError,
            np.linalg.LinAlgError) as exc:
        return _diag(exc, EXIT_NUMERICAL, "numerical")
    except OSError as exc:
        # unreadable config / unwritable output directory
        return _diag(exc, EXIT_CONFIG, "io")


if __name__ == "__main__":
    raise SystemExit(main())
