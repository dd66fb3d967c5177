import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regretlab import (
    LinearPolicy,
    QuadraticStageCost,
    RegretCurve,
    SystemDynamics,
    simulate,
)
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


def test_stability_report_values(tmp_path):
    code = main(["stability", "--config", write_config(tmp_path, FOUR_STATE),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "out" / "stability.json").read_text())
    assert rep["K1"]["classification"] == "AsymptoticallyStable"
    assert rep["K1"]["spectral_radius"] == pytest.approx(np.sqrt(0.7), rel=1e-10)
    assert rep["K2"]["classification"] == "MarginallyStable"
    assert rep["K3"]["classification"] == "Unstable"


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
    assert diag["error"] == "numerical" and "numerically singular" in diag["message"]
