import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from regretlab import (
    LinearPolicy,
    QuadraticStageCost,
    RegretCurve,
    SystemDynamics,
    Trajectory,
    simulate,
)
from regretlab import adversary, cli
from regretlab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, parse_horizons
from regretlab.errors import ConfigError

SRC = str(Path(__file__).resolve().parent.parent / "src")

FOUR_STATE = {
    "system": {"A": [[1.0, 1.0], [0.0, 1.0]], "B": [[1.0], [0.5]]},
    "cost": {"Q": [[1.5, 0.0], [0.0, 1.5]], "R": [[1.0]]},
    "policies": [
        {"name": "K1", "K": [[0.2, 0.4]]},
        {"name": "K2", "K": [[0.0, 1.0]]},
        {"name": "K3", "K": [[-0.02, 0.5]]},
    ],
    "x0": [0.0, 0.0],
    "W": 1.0,
    "disturbance": {"recipe": "eigvec", "seed": 0},
    "horizons": "10:100:10",
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_parse_horizons():
    assert parse_horizons("1:5") == [1, 2, 3, 4, 5]
    assert parse_horizons("10:30:10") == [10, 20, 30]
    assert parse_horizons([1, 4, 9]) == [1, 4, 9]
    with pytest.raises(ConfigError):
        parse_horizons("5:1")
    with pytest.raises(ConfigError):
        parse_horizons("1:10:0")
    with pytest.raises(ConfigError):
        parse_horizons([3, 3])


def test_simulate_cum_cost_matches_library(tmp_path, capsys):
    cfg = dict(FOUR_STATE, horizons="1:5")
    code = main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "simulate_K2.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t,x0,x1,u0,stage_cost,cum_cost")
    got = [float(r.split(",")[-1]) for r in rows[1:]]

    sys_ = SystemDynamics.lti(cfg["system"]["A"], cfg["system"]["B"])
    costs = QuadraticStageCost.constant(cfg["cost"]["Q"], cfg["cost"]["R"])
    pol = LinearPolicy.constant([[0.0, 1.0]])
    F = np.array(cfg["system"]["A"]) - np.array(cfg["system"]["B"]) @ np.array([[0.0, 1.0]])
    from regretlab import constant_eigvec

    w = constant_eigvec(F, 1.0).realize(5)
    traj = simulate(sys_, pol, np.zeros(2), w, costs, 5)
    expected = traj.cumulative_costs()
    assert got == [float(v) for v in expected]  # bit-identical round trip


def test_simulate_realizes_a_shared_random_disturbance_once(tmp_path, monkeypatch):
    cfg = dict(FOUR_STATE, horizons="1:40", disturbance={"recipe": "random", "seed": 7},
               policies=FOUR_STATE["policies"][:2])
    realized = []
    realize = cli.BallDisturbance.realize

    def counted(self, T):
        realized.append(T)
        return realize(self, T)

    monkeypatch.setattr(cli.BallDisturbance, "realize", counted)
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert realized == [40]
    # the files of one realization per policy
    sys_ = SystemDynamics.lti(cfg["system"]["A"], cfg["system"]["B"])
    costs = QuadraticStageCost.constant(cfg["cost"]["Q"], cfg["cost"]["R"])
    (tmp_path / "per_policy").mkdir()
    for policy in cfg["policies"]:
        w = realize(cli.BallDisturbance(2, 1.0, 7), 40)
        traj = simulate(sys_, LinearPolicy.constant(policy["K"]), np.zeros(2), w, costs, 40)
        name = f"simulate_{policy['name']}.csv"
        cli.write_trajectory_csv(tmp_path / "per_policy" / name, traj)
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "per_policy" / name).read_bytes()


def test_stability_report_values(tmp_path):
    code = main(["stability", "--config", write_config(tmp_path, FOUR_STATE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "out" / "stability.json").read_text())
    assert rep["K1"]["classification"] == "AsymptoticallyStable"
    assert rep["K1"]["spectral_radius"] == pytest.approx(np.sqrt(0.7), rel=1e-10)
    assert rep["K2"]["classification"] == "MarginallyStable"
    assert rep["K3"]["classification"] == "Unstable"


def test_regret_realizes_a_shared_random_disturbance_once(tmp_path, monkeypatch):
    cfg = dict(FOUR_STATE, horizons="5:60:5", disturbance={"recipe": "random", "seed": 11})
    drawn = []
    random_ball = adversary.random_ball

    def counted(*args, **kwargs):
        drawn.append(args)
        return random_ball(*args, **kwargs)

    monkeypatch.setattr(adversary, "random_ball", counted)
    assert main(["regret", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "all")]) == EXIT_OK
    assert drawn == [(2, 1.0, 60, 11)]
    # the files of three one-policy configs with the same seed
    report = json.loads((tmp_path / "all" / "regret_report.json").read_text())
    for policy in cfg["policies"]:
        one = dict(cfg, policies=[policy])
        out = tmp_path / policy["name"]
        assert main(["regret", "--config", write_config(tmp_path, one, f"{policy['name']}.json"),
                     "--out", str(out)]) == EXIT_OK
        name = f"regret_{policy['name']}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (out / name).read_bytes()
        single = json.loads((out / "regret_report.json").read_text())
        assert report[policy["name"]] == single[policy["name"]]


def test_regret_outputs_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path, FOUR_STATE)
    for sub in ("a", "b"):
        code = main(["regret", "--config", cfg_path, "--out", str(tmp_path / sub),
                     "--certificate"])
        assert code == EXIT_OK
    for name in ("K1", "K2", "K3"):
        first = (tmp_path / "a" / f"regret_{name}.csv").read_bytes()
        second = (tmp_path / "b" / f"regret_{name}.csv").read_bytes()
        assert first == second
    rep = json.loads((tmp_path / "a" / "regret_report.json").read_text())
    assert rep["K1"]["growth"] == "BoundedAverage"
    assert rep["K1"]["certificate"]["holds"] is True
    assert rep["K3"]["growth"] == "SuperlinearAverage"
    assert rep["K3"]["certificate"]["applicable"] is False
    # never sampled: NaN, written as "nan"
    assert rep["K3"]["certificate"]["M"] == "nan"
    assert rep["K3"]["certificate"]["max_relative_violation"] == "nan"
    assert rep["K3"]["certificate"]["c0"] == "inf"


def test_regret_csv_roundtrip(tmp_path):
    code = main(["regret", "--config", write_config(tmp_path, FOUR_STATE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    path = tmp_path / "out" / "regret_K1.csv"
    curve = RegretCurve.from_csv(path)
    resaved = tmp_path / "resaved.csv"
    curve.to_csv(resaved)
    assert path.read_bytes() == resaved.read_bytes()


def test_malformed_matrix_reports_field_path(tmp_path, capsys):
    cfg = {
        "system": {"A": [[1.0, 1.0], [0.0, "x"]], "B": [[1.0], [0.5]]},
        "cost": {"Q": [[1.0]], "R": [[1.0]]},
        "policies": [{"name": "K", "K": [[0.0, 0.0]]}],
    }
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "config"
    assert "system.A[1][1]" in diag["field"]


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = dict(FOUR_STATE)
    cfg["unexpected"] = 1
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_dimension_mismatch_rejected(tmp_path, capsys):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["policies"][0]["K"] = [[0.2]]
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip())
    assert "K1" in diag["message"] or "K1" in str(diag.get("field"))


def test_overflow_exits_numerical(tmp_path, capsys):
    cfg = {
        "system": {"A": [[3.0]], "B": [[1.0]]},
        "cost": {"Q": [[1.0]], "R": [[1.0]]},
        "policies": [{"name": "K0", "K": [[0.0]]}],
        "x0": [1.0],
        "W": 0.0,
        "disturbance": {"recipe": "random", "seed": 0},
        "horizons": "1:400",
    }
    code = main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "numerical"
    assert diag["t"] == 315


def test_regret_exits_numerical_when_the_benchmark_overflows(tmp_path, capsys):
    # B = 0: the optimal trajectory grows as 3^t and breaks the guard at t = 315
    cfg = {
        "system": {"A": [[3.0]], "B": [[0.0]]},
        "cost": {"Q": [[1.0]], "R": [[1.0]]},
        "policies": [{"name": "K0", "K": [[0.0]]}],
        "x0": [1.0],
        "W": 0.0,
        "horizons": "32:320:32",
    }
    code = main(["regret", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    diag = json.loads(capsys.readouterr().err.strip())
    assert (diag["error"], diag["t"]) == ("numerical", 315)


def test_regret_names_an_overflowed_value_function_not_a_nan_state(tmp_path, capsys):
    # the uncontrolled mode's entry of P_t grows as 9^(T - t), +inf for t <= 77 at T = 400; the
    # optimal rollout under the NaN offsets would report "state norm nan ... at step t=1"
    cfg = {
        "system": {"A": [[3.0, 0.0], [0.0, 3.0]], "B": [[1.0], [0.0]]},
        "cost": {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
        "policies": [{"name": "K", "K": [[1.0, 0.0]]}],
        "x0": [0.0, 0.0],
        "W": 2.0,
        "disturbance": {"recipe": "eigvec"},
        "horizons": "40:400:40",
    }
    code = main(["regret", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    diag = json.loads(capsys.readouterr().err.strip())
    assert (diag["error"], diag["t"]) == ("numerical", 77)
    assert diag["message"] == "value function entry inf exceeded 1.8e+308 at step t=77"


def test_figure1_outputs(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure1", "--out", str(out)]) == EXIT_OK
    for name in ("K1", "K2", "K3"):
        rows = (out / f"curve_{name}.csv").read_text().strip().splitlines()
        assert len(rows) == 101  # header + horizons 1..100
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["x0"] == [0.0, 0.0]
    assert meta["W"] == 1.0
    assert meta["ordering_ok"] is True
    svg = (out / "figure1.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_figure1_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["figure1", "--out", str(a)]) == EXIT_OK
    assert main(["figure1", "--out", str(b)]) == EXIT_OK
    for name in ("figure1.svg", "metadata.json", "curve_K1.csv", "curve_K2.csv", "curve_K3.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_counterexample_default_scan(tmp_path):
    out = tmp_path / "ce"
    assert main(["counterexample", "--out", str(out)]) == EXIT_OK
    rows = (out / "gamma_scan.csv").read_text().strip().splitlines()
    header, body = rows[0], rows[1:]
    assert header == "alpha,converged,in_gamma,spectral_radius,alpha_norm_F"
    by_alpha = {float(r.split(",")[0]): r.split(",")[2] for r in body}
    assert by_alpha[0.1] == "1"
    rep = json.loads((out / "counterexample_report.json").read_text())
    assert rep["found_gamma"] is True
    assert rep["bound_report"]["bound_holds"] is True
    assert rep["bound_report"]["spectral_radius"] > 1.0
    assert rep["dare_residual"] <= 1e-10


def test_counterexample_stable_system_empty_table(tmp_path):
    cfg = {
        "counterexample": {
            "A": [[0.5, 0.0], [0.0, 0.3]],
            "B": [[0.0], [0.0]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "alpha_grid": [0.1, 0.3, 0.5],
            "T_grid": [10, 50],
        }
    }
    out = tmp_path / "ce"
    code = main(["counterexample", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "counterexample_report.json").read_text())
    assert rep["found_gamma"] is False
    assert rep["gamma_alphas"] == []


def test_recipe_overrides(tmp_path):
    cfg_path = write_config(tmp_path, FOUR_STATE)
    for recipe in ("phi", "random"):
        for sub in ("a", "b"):
            code = main(["regret", "--config", cfg_path, "--out",
                         str(tmp_path / recipe / sub), "--recipe", recipe, "--seed", "5"])
            assert code == EXIT_OK
        first = (tmp_path / recipe / "a" / "regret_K1.csv").read_bytes()
        second = (tmp_path / recipe / "b" / "regret_K1.csv").read_bytes()
        assert first == second
    # the two recipes genuinely differ
    assert (tmp_path / "phi" / "a" / "regret_K1.csv").read_bytes() != (
        tmp_path / "random" / "a" / "regret_K1.csv"
    ).read_bytes()


def test_system_loaded_from_path(tmp_path):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps({"A": [[1.0, 1.0], [0.0, 1.0]], "B": [[1.0], [0.5]]}))
    cfg = dict(FOUR_STATE)
    cfg["system"] = {"path": str(sys_file)}
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "out" / "stability.json").read_text())
    assert rep["K1"]["classification"] == "AsymptoticallyStable"


def test_horizons_flag_overrides_config(tmp_path):
    code = main(["regret", "--config", write_config(tmp_path, FOUR_STATE),
                 "--out", str(tmp_path / "out"), "--horizons", "5:50:5"])
    assert code == EXIT_OK
    rows = (tmp_path / "out" / "regret_K1.csv").read_text().strip().splitlines()
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(5, 51, 5))


def test_unwritable_output_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(["figure1", "--out", str(blocker / "sub")])
    assert code == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


def test_threshold_override(tmp_path):
    # an absurdly large bounded-slope threshold reclassifies everything
    code = main([
        "regret", "--config", write_config(tmp_path, FOUR_STATE),
        "--out", str(tmp_path / "out"), "--threshold", "slope_bounded=1000",
    ])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "out" / "regret_report.json").read_text())
    assert all(v["growth"] == "BoundedAverage" for v in rep.values())


def test_schema_violation_message_and_field(tmp_path, capsys):
    cfg = dict(FOUR_STATE, W=-1.0)
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["field"] == "$.W"
    assert diag["message"] == "config schema violation at $.W: -1.0 is less than the minimum of 0"


@pytest.mark.parametrize("horizons", ["1:5", "10:55:5", [3, 7, 40, 41, 90]])
def test_regret_rejects_grid_too_short_to_classify(tmp_path, capsys, horizons):
    out = tmp_path / "out"
    cfg = dict(FOUR_STATE, horizons=horizons)
    code = main(["regret", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "config" and diag["field"] == "horizons"
    assert not out.exists()  # rejected before any solve or output


def test_cli_import_does_not_load_scipy():
    probe = "import sys, regretlab.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    assert proc.stdout.strip() == "False"


def test_cli_import_does_not_load_jsonschema():
    # configs are checked by cli.schema_errors; jsonschema is only the tests' reference
    probe = "import sys, regretlab.cli; print('jsonschema' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True, timeout=120)
    assert proc.stdout.strip() == "False"


def test_phi_recipe_scales_large_rows_and_stops_at_non_finite_ones(tmp_path, capsys):
    # K = 0 leaves the open loop x' = 50 x: the rows Phi(k,0) w0 = 50^k pass
    # 1e154 (squares overflow) near k = 91 and the float range at k = 182
    cfg = {
        "system": {"A": [[50.0]], "B": [[1.0]]},
        "cost": {"Q": [[1.0]], "R": [[1.0]]},
        "policies": [{"name": "K0", "K": [[0.0]]}],
        "disturbance": {"recipe": "phi"},
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["regret", "--config", path, "--out", str(out), "--horizons", "10:180:10"])
    assert code == EXIT_OK
    report = json.loads((out / "regret_report.json").read_text())["K0"]
    assert report == {"flags": ["ok"], "growth": "LinearAverage"}
    curve = RegretCurve.from_csv(out / "regret_K0.csv")
    assert np.all(curve.regret > 0.0)

    code = main(["regret", "--config", path, "--out", str(out), "--horizons", "10:200:10"])
    assert code == EXIT_NUMERICAL
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "numerical" and diag["t"] == 182


def test_nan_cost_weight_exits_numerical(tmp_path, capsys):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["cost"]["Q"] = [[float("nan"), 0.0], [0.0, 1.0]]
    code = main(["regret", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "numerical" and "cost.Q at t=0 is not finite" in diag["message"]


@pytest.mark.parametrize("content", ["{not json", json.dumps({"A": [[1.0, 1.0], [0.0, 1.0]]}), None])
def test_bad_system_file_exits_config(tmp_path, capsys, content):
    # malformed JSON, a missing B, and a path that cannot be read (a directory)
    sys_file = tmp_path / "sys.json"
    if content is None:
        sys_file.mkdir()
    else:
        sys_file.write_text(content, encoding="utf-8")
    cfg = dict(FOUR_STATE, system={"path": str(sys_file)})
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "config" and diag["field"] == "system.path"


# a file nested deeper than the JSON parser recurses, and one with a byte that is not UTF-8
UNPARSABLE_JSON = {
    "deep": b'{"x0": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    "not utf-8": b'{"x0": [0.0, 0.0], "W": "\xff"}',
}


@pytest.mark.parametrize("where", ["config", "system.path"])
@pytest.mark.parametrize("kind", sorted(UNPARSABLE_JSON))
def test_unparsable_json_exits_config(tmp_path, capsys, where, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNPARSABLE_JSON[kind])
    path = str(bad)
    if where == "system.path":
        path = write_config(tmp_path, dict(FOUR_STATE, system={"path": path}))
    out = tmp_path / "out"
    code = main(["stability", "--config", path, "--out", str(out)])
    diag = assert_rejected(capsys, code, EXIT_CONFIG, out)
    assert diag["error"] == "config" and diag.get("field") == (None if where == "config" else where)


@pytest.mark.parametrize("command", ["regret", "simulate", "stability"])
def test_nan_dynamics_exit_numerical(tmp_path, capsys, command):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["system"]["A"] = [[float("nan"), 1.0], [0.0, 1.0]]
    code = main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "numerical"


@pytest.mark.parametrize("path, value, field", [
    (("system", "A"), [[1.0, 1.0], [0.0]], "$.system.A"),
    (("system", "B"), [[1.0], [0.5, 1.0]], "$.system.B"),
    (("cost", "Q"), [[1.5, 0.0], [0.0]], "$.cost.Q"),
    (("cost", "R"), [[1.0], [1.0, 2.0]], "$.cost.R"),
    (("policies", 1, "K"), [[0.0, 1.0], [1.0]], "$.policies[1].K"),
    (("system", "A"), 5, "$.system.A"),
    (("system", "A"), "A", "$.system.A"),
    (("system", "A"), [1.0, [1.0]], "$.system.A[0]"),
])
def test_ragged_or_non_matrix_exits_config_naming_the_field(tmp_path, capsys, path, value, field):
    cfg = json.loads(json.dumps(FOUR_STATE))
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    code = main(["stability", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "config" and diag["field"] == field


@pytest.mark.parametrize("names", [["K1", "K1"], ["../esc"], [".hidden"], ["a/b"], ["K1\n"], [""]])
def test_duplicate_or_unsafe_policy_names_exit_config(tmp_path, capsys, names):
    cfg = dict(FOUR_STATE, policies=[{"name": name, "K": [[0.2, 0.4]]} for name in names])
    code = main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert "policies" in json.loads(lines[0])["field"]
    assert not (tmp_path / "out").exists()


def test_policy_names_in_use_stay_valid(tmp_path):
    names = ["K", "K0", "K3", "P1", "S", "stable", "v1.2-b_c"]
    cfg = dict(FOUR_STATE, policies=[{"name": name, "K": [[0.2, 0.4]]} for name in names])
    code = main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        f"simulate_{name}.csv" for name in names)


@pytest.mark.parametrize("command", ["regret", "simulate", "stability"])
@pytest.mark.parametrize("key, value", [
    ("Q", [[float("nan"), 0.0], [0.0, 1.0]]),
    ("Q", [[1.0, 0.0], [0.0, -1.0]]),
    ("R", [[-0.1]]),
])
def test_bad_cost_weight_exits_numerical_before_any_output(tmp_path, capsys, command, key, value):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["cost"][key] = value
    code = main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["error"] == "numerical" and f"cost.{key}" in diag["message"]
    assert not (tmp_path / "out").exists()


def assert_rejected(capsys, code, expected, out):
    """Exit code `expected`, one JSON diagnostic line on stderr, no traceback, no output."""
    assert code == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["exit"] == expected
    assert not out.exists() or not any(out.iterdir())
    return diag


@pytest.mark.parametrize("argv", [
    ["regret"], ["regret", "--certificate"], ["simulate"], ["stability"],
])
def test_non_symmetric_cost_weight_exits_config_before_any_output(tmp_path, capsys, argv):
    # the symmetric part [[1.5, 0.15], [0.15, 1.5]] is PD; Q itself is not symmetric
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["cost"]["Q"] = [[1.5, 0.3], [0.0, 1.5]]
    out = tmp_path / "out"
    code = main([*argv, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    diag = assert_rejected(capsys, code, EXIT_CONFIG, out)
    assert diag["message"] == "cost.Q at t=0 is not symmetric"


@pytest.mark.parametrize("key, value, expected", [
    ("x0", [float("inf"), 0.0], EXIT_NUMERICAL),
    ("x0", [float("nan"), 0.0], EXIT_NUMERICAL),
    ("x0", [1e200, 0.0], EXIT_CONFIG),
    ("X", float("inf"), EXIT_NUMERICAL),
    ("X", 1e200, EXIT_CONFIG),
    ("W", float("inf"), EXIT_NUMERICAL),
    ("W", float("nan"), EXIT_NUMERICAL),
    ("W", 1e308, EXIT_CONFIG),
    ("disturbance.w0", [float("nan"), 1.0], EXIT_NUMERICAL),
    ("disturbance.w0", [1e300, 1.0], EXIT_CONFIG),
    ("disturbance.w0", [1.0, 0.0, 0.0], EXIT_CONFIG),
    ("disturbance.w0", [0.0, 0.0], EXIT_CONFIG),
    ("disturbance.w0", [1e-170, 0.0], EXIT_CONFIG),
])
@pytest.mark.parametrize("argv", [
    ["regret", "--certificate", "--horizons", "1:300"], ["simulate"], ["stability"],
])
def test_config_vectors_and_scalars_are_checked_before_any_output(tmp_path, capsys, key, value,
                                                                   expected, argv):
    cfg = json.loads(json.dumps(FOUR_STATE))
    if key == "disturbance.w0":
        cfg["disturbance"] = {"recipe": "phi", "w0": value}
    else:
        cfg[key] = value
    out = tmp_path / "out"
    code = main([*argv, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    diag = assert_rejected(capsys, code, expected, out)
    assert diag["message"].startswith(key)


def test_underflowing_w0_under_the_phi_flag_exits_config(tmp_path, capsys):
    # its entries are nonzero, but the squares in its 2-norm underflow to zero
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["disturbance"] = {"w0": [1e-170, 0.0]}
    out = tmp_path / "out"
    argv = ["regret", "--recipe", "phi", "--config", write_config(tmp_path, cfg), "--out", str(out)]
    diag = assert_rejected(capsys, main(argv), EXIT_CONFIG, out)
    assert diag["field"] == "disturbance.w0"


@pytest.mark.parametrize("command", ["simulate", "regret"])
def test_large_disturbance_bound_passes_the_recipes_own_check(tmp_path, capsys, command):
    # W times the unit eigenvector rounds to a row norm of about W (1 + eps), past an
    # absolute slack of 1e-12 at W = 1e5; the slack on the bound grows with it
    cfg = {
        "system": {"A": [[0.9, 0.09], [-0.74, -0.92]], "B": [[-0.46], [0.22]]},
        "cost": {"Q": [[1.5, 0.0], [0.0, 1.5]], "R": [[1.0]]},
        "policies": [{"name": "K", "K": [[-1.01, -0.21]]}],
        "x0": [0.0, 0.0],
        "W": 1e5,
        "disturbance": {"recipe": "eigvec", "seed": 0},
        "horizons": "10:100:10",
    }
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK, capsys.readouterr().err


def test_overflowing_regret_curve_reads_superlinear_like_the_unstable_loop(tmp_path):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["policies"] = [{"name": "Kbig", "K": [[-1000.0, -1000.0]]}]
    cfg["horizons"] = "1:100"
    path = write_config(tmp_path, cfg)
    assert main(["regret", "--config", path, "--recipe", "eigvec",
                 "--out", str(tmp_path / "r")]) == EXIT_OK
    report = json.loads((tmp_path / "r" / "regret_report.json").read_text())["Kbig"]
    assert report == {"flags": ["ok", "overflow@49"], "growth": "SuperlinearAverage"}
    assert main(["stability", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_OK
    stability = json.loads((tmp_path / "s" / "stability.json").read_text())["Kbig"]
    assert stability["classification"] == "Unstable"
    assert stability["spectral_radius"] > 1500.0


def test_counterexample_takes_its_seed_from_the_config(tmp_path, monkeypatch):
    seeds = []
    report = cli.linear_regret_despite_instability

    def spy(*args, seed, **kwargs):
        seeds.append(seed)
        return report(*args, seed=seed, **kwargs)

    monkeypatch.setattr(cli, "linear_regret_despite_instability", spy)
    ce = {"A": [[2.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "T_grid": [1, 10]}
    path = write_config(tmp_path, {"disturbance": {"seed": 7}, "counterexample": ce})
    assert main(["counterexample", "--config", path, "--out", str(tmp_path / "a")]) == EXIT_OK
    flagged = ["counterexample", "--config", path, "--seed", "3", "--out", str(tmp_path / "b")]
    assert main(flagged) == EXIT_OK
    assert seeds == [7, 3]

@pytest.mark.parametrize("key, value, message", [
    ("Q", [[-1.0]], "counterexample.Q at t=0 not PD"),
    ("R", [[0.0]], "counterexample.R at t=0 is numerically singular"),
    ("W", float("inf"), "counterexample.W has a non-finite entry"),
    ("X", float("nan"), "counterexample.X has a non-finite entry"),
    ("alpha_grid", [0.5, float("nan")], "counterexample.alpha_grid has a non-finite entry"),
])
def test_counterexample_bad_weight_exits_numerical(tmp_path, capsys, key, value, message):
    cfg = {"counterexample": {"A": [[2.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], key: value}}
    out = tmp_path / "out"
    code = main(["counterexample", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    diag = assert_rejected(capsys, code, EXIT_NUMERICAL, out)
    assert diag["message"].startswith(message)


@pytest.mark.parametrize("section, flags", [
    ({"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0]]}, []),
    ({"A": [[2.0]], "B": [[1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]]}, []),
    ({"alpha_grid": [0.1, 1.5]}, []),
    ({"alpha_grid": [0.0]}, []),
    ({"T_grid": []}, []),
    ({}, ["--seed", "-3"]),
    ({"W": 1e200}, []),
    ({"X": 1e300}, []),
    ({"T_grid": [1, 10**10]}, []),  # rejected before a row per step is allocated
])
def test_counterexample_bad_input_exits_config_before_any_output(tmp_path, capsys, section, flags):
    cfg = {"counterexample": {"A": [[2.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], **section}}
    out = tmp_path / "out"
    code = main(["counterexample", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 *flags])
    assert_rejected(capsys, code, EXIT_CONFIG, out)


def main_warning_free(argv):
    """main(argv) with every warning raised as an error, so a leaked numpy warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.mark.parametrize("key", ["A", "Q"])
def test_overflowing_counterexample_prints_no_warning(tmp_path, capsys, key):
    # the Riccati iterates overflow to inf and NaN; the command still succeeds
    cfg = {"counterexample": {"A": [[2.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], key: [[1e300]]}}
    out = tmp_path / "out"
    code = main_warning_free(["counterexample", "--config", write_config(tmp_path, cfg),
                              "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (out / "counterexample_report.json").exists()


@pytest.mark.parametrize("argv, section, key, value, message", [
    (["regret", "--certificate"], "system", "A", [[1e308, 1e308], [1e308, 1e308]],
     "input Hessian at t=98 is not finite"),
    (["regret"], "cost", "Q", [[1e308, 0.0], [0.0, 1e308]], "cost.Q at t=0 is not finite"),
    (["simulate"], "cost", "Q", [[1e308, 0.0], [0.0, 1e308]], "cost.Q at t=0 is not finite"),
    (["stability"], "cost", "Q", [[1e308, 0.0], [0.0, 1e308]], "cost.Q at t=0 is not finite"),
])
def test_overflowing_config_prints_only_its_diagnostic(tmp_path, capsys, argv, section, key, value,
                                                       message):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg[section][key] = value
    out = tmp_path / "out"
    code = main_warning_free([*argv, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert assert_rejected(capsys, code, EXIT_NUMERICAL, out)["message"].startswith(message)


@pytest.mark.parametrize("command", ["regret", "simulate"])
def test_negative_seed_exits_config(tmp_path, capsys, command):
    cfg = dict(FOUR_STATE, disturbance={"recipe": "random", "seed": -1})
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert assert_rejected(capsys, code, EXIT_CONFIG, out)["field"] == "$.disturbance.seed"
    cfg = dict(FOUR_STATE, disturbance={"recipe": "random", "seed": 1})
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--seed", "-1"])
    assert assert_rejected(capsys, code, EXIT_CONFIG, out)["field"] == "argv"


@pytest.mark.parametrize("argv", [
    ["figure1", "--horizons", "1:5"],
    ["figure1", "--config", "missing.json", "--recipe", "random"],
    ["counterexample", "--horizons", "1:5"],
    ["counterexample", "--threshold", "slope_bounded=1"],
    ["stability", "--config", "missing.json", "--seed", "1"],
    ["stability", "--config", "missing.json", "--horizons", "1:5"],
    ["simulate", "--config", "missing.json", "--threshold", "slope_bounded=1"],
    ["simulate", "--config", "missing.json", "--certificate"],
])
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, argv):
    out = tmp_path / "out"
    diag = assert_rejected(capsys, main([*argv, "--out", str(out)]), EXIT_CONFIG, out)
    assert diag["field"] == "argv" and "unrecognized arguments" in diag["message"]


def test_thresholds_are_closed_to_the_known_keys(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, FOUR_STATE)
    code = main(["stability", "--config", path, "--out", str(out), "--threshold", "typo=3"])
    assert assert_rejected(capsys, code, EXIT_CONFIG, out)["field"] == "thresholds"
    path = write_config(tmp_path, dict(FOUR_STATE, thresholds={"typo": 3}))
    code = main(["stability", "--config", path, "--out", str(out)])
    assert assert_rejected(capsys, code, EXIT_CONFIG, out)["field"] == "$.thresholds"
    path = write_config(tmp_path, dict(FOUR_STATE, thresholds={"marginal_tol": 1e-6}))
    assert main(["stability", "--config", path, "--out", str(out),
                 "--threshold", "marginal_tol=1e-3"]) == EXIT_OK


@pytest.mark.parametrize("thresholds, flags, expected, where", [
    ({"marginal_tol": float("nan")}, [], EXIT_NUMERICAL, "thresholds.marginal_tol"),
    ({}, ["--threshold", "marginal_tol=nan"], EXIT_NUMERICAL, "thresholds.marginal_tol"),
    ({"slope_bounded": float("nan")}, [], EXIT_NUMERICAL, "thresholds.slope_bounded"),
    ({}, ["--threshold", "slope_superlinear=-inf"], EXIT_NUMERICAL, "thresholds.slope_superlinear"),
    ({"marginal_tol": -1}, [], EXIT_CONFIG, "$.thresholds.marginal_tol"),
    ({}, ["--threshold", "marginal_tol=-1"], EXIT_CONFIG, "$.thresholds.marginal_tol"),
])
@pytest.mark.parametrize("command", ["regret", "stability"])
def test_non_finite_or_negative_thresholds_are_rejected(tmp_path, capsys, thresholds, flags,
                                                        expected, where, command):
    # NaN used to call the stable K1 "Unstable" and -1 the marginal K2 "AsymptoticallyStable"
    path = write_config(tmp_path, dict(FOUR_STATE, thresholds=thresholds))
    out = tmp_path / "out"
    code = main([command, "--config", path, "--out", str(out), *flags])
    diag = assert_rejected(capsys, code, expected, out)
    if expected == EXIT_NUMERICAL:
        assert diag["message"] == f"{where} has a non-finite entry"
    else:
        assert diag["field"] == where and "is less than the minimum of 0" in diag["message"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["regret", "simulate", "stability"])
def test_non_finite_policy_gain_exits_numerical_naming_it(tmp_path, capsys, value, command):
    cfg = json.loads(json.dumps(FOUR_STATE))
    cfg["policies"][1]["K"] = [[0.0, value]]
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    diag = assert_rejected(capsys, code, EXIT_NUMERICAL, out)
    assert diag["message"] == "policies[K2].K has a non-finite entry"


def test_horizon_grids_are_bounded_before_they_are_built():
    top = cli.MAX_HORIZON
    assert parse_horizons(f"{top}:{top}") == [top]
    assert parse_horizons(f"1:{top + 1}:{top + 1}") == [1]  # the longest horizon, not b, counts
    for spec in ["1:10000000000", f"1:{top + 1}:{top}", [1, top + 1], [1, 10**30]]:
        with pytest.raises(ConfigError, match="exceeds the limit") as caught:
            parse_horizons(spec)
        assert caught.value.field == "horizons"


@pytest.mark.parametrize("argv", [
    ["regret", "--horizons", "1:10000000000"], ["simulate", "--horizons", "1:10000000000"],
    ["regret"], ["simulate"], ["stability"],
])
def test_unbounded_horizon_grid_exits_config(tmp_path, capsys, argv):
    # from the flag when one is given, else from the config
    horizons = FOUR_STATE["horizons"] if "--horizons" in argv else "1:10000000000"
    path = write_config(tmp_path, dict(FOUR_STATE, horizons=horizons))
    out = tmp_path / "out"
    code = main([*argv, "--config", path, "--out", str(out)])
    assert assert_rejected(capsys, code, EXIT_CONFIG, out)["field"] == "horizons"


def test_parser_is_built_once_and_carries_nothing_between_calls(tmp_path, capsys, monkeypatch):
    seen = []
    load_config = cli.load_config

    def spy(path, overrides, need_system=True):
        seen.append(list(overrides.threshold))
        return load_config(path, overrides, need_system)

    monkeypatch.setattr(cli, "load_config", spy)
    path = write_config(tmp_path, FOUR_STATE)
    out = str(tmp_path / "out")
    for flags in (["--threshold", "marginal_tol=1e-3"], ["--threshold", "marginal_tol=1e-6"], []):
        assert main(["stability", "--config", path, "--out", out, *flags]) == EXIT_OK
    assert seen == [["marginal_tol=1e-3"], ["marginal_tol=1e-6"], []]
    assert cli.build_parser() is cli.build_parser()
    # a usage error after successful calls still exits 2 with its one JSON line
    rejected = tmp_path / "rejected"
    diag = assert_rejected(capsys, main(["stability", "--config", path, "--bogus",
                                         "--out", str(rejected)]), EXIT_CONFIG, rejected)
    assert diag["field"] == "argv" and "unrecognized arguments: --bogus" in diag["message"]


def test_trajectory_csv_has_the_bytes_of_csv_writer(tmp_path):
    import csv

    def rendered(traj):
        path = tmp_path / "expected.csv"
        cum = traj.cumulative_costs()
        n, m = traj.states.shape[1], traj.inputs.shape[1]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
                            + ["stage_cost", "cum_cost"])
            for t in range(len(traj.states)):
                writer.writerow([t] + [f"{v:.17g}" for v in traj.states[t]]
                                + [f"{v:.17g}" for v in traj.inputs[t]]
                                + [f"{traj.stage_costs[t]:.17g}", f"{cum[t]:.17g}"])
        return path.read_bytes()

    rng = np.random.default_rng(8)
    sys_ = SystemDynamics.lti(cli.BUILTIN_EXPERIMENT["A"], cli.BUILTIN_EXPERIMENT["B"])
    costs = QuadraticStageCost.constant(cli.BUILTIN_EXPERIMENT["Q"], cli.BUILTIN_EXPERIMENT["R"])
    simulated = simulate(sys_, LinearPolicy.constant([[0.2, 0.4]]), [1.0, -2.0],
                         rng.standard_normal((300, 2)), costs, 300)
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, -1e-300, 0.1]
    edge = Trajectory(np.array([special[:3], special[3:6], special[6:]]),
                      np.array([[1e16], [-0.0], [123456789.0]]),
                      np.array([-0.0, 1e22, 2.5]), 0.0)
    for traj in (simulated, edge):
        cli.write_trajectory_csv(tmp_path / "got.csv", traj)
        assert (tmp_path / "got.csv").read_bytes() == rendered(traj)


# a valid config for every command: the counterexample section is read by
# `counterexample`, the rest by `simulate`, `stability` and `regret`
FUZZ_BASE = {
    **FOUR_STATE,
    "counterexample": {
        "A": [[2.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
        "alpha_grid": [0.1, 0.5, 0.9], "W": 1.0, "X": 1.0, "T_grid": [1, 10, 50],
    },
}
FUZZ_MATRICES = [("system", "A"), ("system", "B"), ("cost", "Q"), ("cost", "R"),
                 ("policies", 0, "K"), ("counterexample", "A"), ("counterexample", "B"),
                 ("counterexample", "Q"), ("counterexample", "R")]
FUZZ_COMMANDS = [["simulate"], ["stability"], ["regret"], ["regret", "--certificate"],
                 ["counterexample"], ["figure1"]]


def _key_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*prefix, key)
            yield from _key_paths(value, (*prefix, key))
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        for i, value in enumerate(node):
            yield from _key_paths(value, (*prefix, i))


def _mutate(rng, cfg, kind):
    """Mutation `kind` (0..8) of cfg in place, its details drawn from rng; returns extra flags."""
    def at(path):
        node = cfg
        for key in path:
            node = node[key]
        return node

    if kind == 0:  # drop a key
        paths = list(_key_paths(cfg))
        path = paths[rng.integers(len(paths))]
        del at(path[:-1])[path[-1]]
    elif kind == 1:  # NaN, inf or a sign flip in one matrix entry
        row = at(FUZZ_MATRICES[rng.integers(len(FUZZ_MATRICES))])[0]
        j = rng.integers(len(row))
        row[j] = [float("nan"), float("inf"), -float("inf"), -row[j] - 1.0][rng.integers(4)]
    elif kind == 2:  # ragged or mismatched shapes
        path = FUZZ_MATRICES[rng.integers(len(FUZZ_MATRICES))]
        matrix = at(path)
        how = rng.integers(3)
        if how == 0:
            matrix[0].append(0.5)
        elif how == 1:
            at(path[:-1])[path[-1]] = [row + [0.5] for row in matrix]
        else:
            matrix.append(list(matrix[0]))
    elif kind == 3:  # shrunken grids
        which = rng.integers(3)
        if which == 0:
            cfg["horizons"] = [[], [10], [10, 20], "1:3", "90:100"][rng.integers(5)]
        else:
            key = ("T_grid", "alpha_grid")[which - 1]
            grid = cfg["counterexample"][key]
            cfg["counterexample"][key] = grid[: rng.integers(len(grid))]
    elif kind == 4:  # duplicate names
        cfg["policies"][1]["name"] = cfg["policies"][0]["name"]
    elif kind == 5:  # negative seeds
        seed = -int(rng.integers(1, 5))
        if rng.integers(2):
            return ["--seed", str(seed)]
        cfg["disturbance"] = {"recipe": "random", "seed": seed}
    elif kind == 6:  # alpha outside (0, 1)
        grid = cfg["counterexample"]["alpha_grid"]
        grid[rng.integers(len(grid))] = [0.0, 1.0, 1.5, -0.2][rng.integers(4)]
    elif kind == 8:  # a non-finite or overflowing x0, X, W or w0
        value = [float("nan"), float("inf"), -float("inf"), 1e200, -1e308][rng.integers(5)]
        key = ["x0", "X", "W", "w0"][rng.integers(4)]
        if key == "w0":
            cfg["disturbance"]["w0"] = [1.0, value]
        else:
            cfg[key] = [value, 0.0] if key == "x0" else value
    else:  # an unknown key, or a flag the command may not read
        if rng.integers(2):
            cfg[["threshold", "extra"][rng.integers(2)]] = 1
        else:
            return [["--horizons", "10:100:10"], ["--recipe", "phi"],
                    ["--threshold", "slope_bounded=0.2"]][rng.integers(3)]
    return []


@pytest.mark.parametrize("seed", range(54))
def test_mutated_configs_keep_the_exit_code_contract(tmp_path, capsys, seed):
    cfg = json.loads(json.dumps(FUZZ_BASE))
    extra = _mutate(np.random.default_rng(seed), cfg, seed % 9)
    path = write_config(tmp_path, cfg)
    for i, command in enumerate(FUZZ_COMMANDS):
        if command == ["figure1"]:
            if not extra:
                continue  # figure1 reads no config: only a flag mutation reaches it
            argv = [*command, *extra]
        else:
            argv = [*command, "--config", path, *extra]
        out = tmp_path / f"out{i}"
        code = main([*argv, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), command
        if code == EXIT_OK:
            capsys.readouterr()
        else:
            assert_rejected(capsys, code, code, out)


# values a random key path is set to in the differential schema test
SCHEMA_FUZZ_VALUES = [
    None, True, False, 0, -1, 2, 3.0, 0.5, -0.0, 1e300, float("nan"), float("inf"),
    -float("inf"), "", "x", "1:5", "../K", [], [0], [2, 1], [1.5, -2], [[1.0]],
    [[1.0, 2.0], [3.0]], [["a"]], [[]], {}, {"A": [[1.0]]}, {"name": "K9", "K": [[0.1, 0.2]]},
]


def _value_paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield (*prefix, key)
        yield from _value_paths(value, (*prefix, key))


def _fuzzed_config(seed):
    """FUZZ_BASE after one `_mutate` and up to three random value replacements or extra keys."""
    rng = np.random.default_rng(seed)
    cfg = json.loads(json.dumps(FUZZ_BASE))
    _mutate(rng, cfg, seed % 9)
    for _ in range(rng.integers(4)):
        paths = list(_value_paths(cfg))
        path = paths[rng.integers(len(paths))]
        node = cfg
        for key in path[:-1]:
            node = node[key]
        value = json.loads(json.dumps(SCHEMA_FUZZ_VALUES[rng.integers(len(SCHEMA_FUZZ_VALUES))]))
        if isinstance(node[path[-1]], dict) and rng.integers(4) == 0:
            node[path[-1]]["extra"] = value
        else:
            node[path[-1]] = value
    return cfg


def test_schema_errors_match_jsonschema_on_fuzzed_configs():
    jsonschema = pytest.importorskip("jsonschema")

    def rectangular(validator, value, instance, schema):
        rows = instance if validator.is_type(instance, "array") else []
        if len({len(row) for row in rows if isinstance(row, list)}) > 1:
            yield jsonschema.ValidationError("rows of unequal length")

    def where(error):
        return None if error is None else (error.json_path, error.message)

    validator = jsonschema.validators.extend(jsonschema.Draft202012Validator,
                                             {"rectangular": rectangular})
    failing = 0
    for seed in range(1200):
        cfg = _fuzzed_config(seed)
        for schema, value in ((cli.CONFIG_SCHEMA, cfg),
                              (cli._SYSTEM_FILE_SCHEMA, cfg.get("system"))):
            if not isinstance(value, dict):
                continue
            expected = list(validator(schema).iter_errors(value))
            got = list(cli.schema_errors(value, schema))
            assert sorted(map(where, got)) == sorted(map(where, expected)), seed
            assert where(cli.best_error(got)) == where(jsonschema.exceptions.best_match(expected)), seed
            failing += bool(expected)
    assert failing >= 1000
