import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from regretlab import (
    AssumptionViolationError,
    ConditioningError,
    ConvergenceError,
    build_model,
    dare_modified,
    dare_residual,
    discounted_cost_closed_form,
    discounted_cost_simulated,
    discounted_gain,
    gamma_check,
    gamma_scan,
    linear_regret_despite_instability,
    random_ball,
    vq_recursion,
)

import regretlab.counterexample as counterexample
from regretlab.cli import DEFAULT_COUNTEREXAMPLE, main

SCALAR = dict(A=[[2.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])


def scalar_root():
    # fixed point of p = 1 + 0.4 p - 0.04 p^2 / (1 + 0.1 p) at alpha = 0.1
    # reduces to p^2 + 5 p - 10 = 0
    return (-5.0 + np.sqrt(65.0)) / 2.0


def test_dare_no_input_geometric_series():
    # B = 0, A = 1, alpha = 0.5: P = 1 + 0.5 P, so P = 2
    P = dare_modified([[0.0 + 1.0]], [[0.0]], [[1.0]], [[1.0]], 0.5)
    assert P[0, 0] == pytest.approx(2.0, rel=1e-10)


def test_dare_zero_dynamics_returns_q():
    Q = np.diag([2.0, 3.0])
    P = dare_modified(np.zeros((2, 2)), np.zeros((2, 1)), Q, [[1.0]], 0.7)
    np.testing.assert_allclose(P, Q, atol=1e-12)


def test_dare_scalar_matches_closed_form_and_scipy():
    P = dare_modified(**SCALAR, alpha=0.1)
    assert P[0, 0] == pytest.approx(scalar_root(), rel=1e-12)
    # independent oracle: the Riccati equation of the rescaled pair
    alpha = 0.1
    P_scipy = solve_discrete_are(
        np.sqrt(alpha) * np.array(SCALAR["A"]),
        np.array(SCALAR["B"]),
        np.array(SCALAR["Q"]),
        np.array(SCALAR["R"]) / alpha,
    )
    assert P[0, 0] == pytest.approx(P_scipy[0, 0], rel=1e-10)
    assert dare_residual(**SCALAR, alpha=0.1, P=P) <= 1e-10


def test_dare_matrix_case_matches_scipy():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 3)) * 0.9
    B = rng.standard_normal((3, 2))
    Q = np.eye(3) * 1.5
    R = np.eye(2) * 0.7
    alpha = 0.4
    P = dare_modified(A, B, Q, R, alpha)
    P_scipy = solve_discrete_are(np.sqrt(alpha) * A, B, Q, R / alpha)
    np.testing.assert_allclose(P, P_scipy, rtol=1e-8)
    assert dare_residual(A, B, Q, R, alpha, P) <= 1e-10


def test_dare_divergence_raises():
    # no input authority and alpha * rho(A)^2 = 2 > 1: the iteration diverges
    with pytest.raises(ConvergenceError) as err:
        dare_modified([[2.0]], [[0.0]], [[1.0]], [[1.0]], 0.5)
    assert err.value.residual is not None


def test_dare_divergence_reports_the_iterates_it_ran():
    # from P = 1 the iterates are P = 1 + 2 P; the loop stops once P > 1e120
    P, ran = 1.0, 0
    while P <= 1e120:
        P, ran = 1.0 + 2.0 * P, ran + 1
    with pytest.raises(ConvergenceError, match=f"diverged after {ran} steps") as err:
        dare_modified([[2.0]], [[0.0]], [[1.0]], [[1.0]], 0.5)
    assert err.value.iterations == ran < counterexample.DARE_MAX_ITER


def test_dare_rejects_an_iterate_whose_frobenius_norm_overflows(tmp_path):
    # with Q = 1e300 the iterates stop moving at once, but ||P||_F overflows to inf,
    # so the residual check (||lhs|| / ||P||_F) could not tell a fixed point
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as err:
        dare_modified([[2.0]], [[1.0]], [[1e300]], [[1.0]], 0.5)
    assert err.value.residual == np.inf  # not the 0 of a division by the overflowed norm
    cfg = tmp_path / "config.json"
    cfg.write_text('{"counterexample": {"A": [[2.0]], "B": [[1.0]], "Q": [[1e300]], "R": [[1.0]]}}')
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "gamma_scan.csv").read_text().splitlines()[1:]
    assert len(rows) == len(DEFAULT_COUNTEREXAMPLE["alpha_grid"])
    assert all(row.split(",")[1] == "0" for row in rows)  # converged = 0 for every alpha


def test_dare_rejects_indefinite_weights():
    with pytest.raises(ConditioningError, match="Q at t=0 not PD"):
        dare_modified([[1.0]], [[1.0]], [[-1.0]], [[1.0]], 0.5)


def test_gamma_scan_raises_on_bad_weights_instead_of_flagging_every_alpha():
    with pytest.raises(ConditioningError, match="R at t=0 is numerically singular"):
        gamma_scan(**dict(SCALAR, R=[[0.0]]), alphas=[0.1, 0.5])
    with pytest.raises(AssumptionViolationError, match="Q at t=0 is not symmetric"):
        gamma_scan(np.eye(2), np.eye(2), [[1.0, 0.2], [0.0, 1.0]], np.eye(2), [0.1, 0.5])


def test_discounted_gain_values():
    alpha = 0.1
    P = dare_modified(**SCALAR, alpha=alpha)
    K, F = discounted_gain(P, SCALAR["A"], SCALAR["B"], SCALAR["R"], alpha)
    p = scalar_root()
    k_expected = alpha * p * 2.0 / (1.0 + alpha * p)
    assert K[0, 0] == pytest.approx(k_expected, rel=1e-12)
    assert F[0, 0] == pytest.approx(2.0 - k_expected, rel=1e-12)
    assert K[0, 0] == pytest.approx(0.26556, abs=1e-5)
    assert F[0, 0] == pytest.approx(1.73444, abs=1e-5)


def test_discounted_gain_limits():
    P = np.array([[1.5311]])
    K, F = discounted_gain(P, [[2.0]], [[1.0]], [[1.0]], 1e-8)
    assert abs(K[0, 0]) < 1e-7
    assert F[0, 0] == pytest.approx(2.0, abs=1e-7)
    K0, F0 = discounted_gain(P, [[2.0]], [[0.0]], [[1.0]], 0.3)
    assert K0[0, 0] == 0.0 and F0[0, 0] == 2.0


def test_gamma_check_scalar_cases():
    chk = gamma_check(**SCALAR, alpha=0.1)
    assert chk.in_gamma
    assert chk.spectral_radius == pytest.approx(1.7344, abs=1e-4)
    assert chk.discounted_norm == pytest.approx(0.17344, abs=1e-5)
    # near-undiscounted the gain stabilizes, leaving Gamma
    assert not gamma_check(**SCALAR, alpha=0.999).in_gamma


def test_gamma_check_contractive_open_loop():
    chk = gamma_check(np.diag([0.5, 0.3]), np.zeros((2, 1)), np.eye(2), [[1.0]], 0.5)
    assert not chk.in_gamma
    assert chk.spectral_radius == pytest.approx(0.5, rel=1e-12)


def test_gamma_scan_finds_example_window():
    grid = np.round(np.arange(0.05, 0.50, 0.05), 2)
    rows = gamma_scan(**SCALAR, alphas=grid)
    flagged = {r.alpha for r in rows if r.in_gamma}
    assert 0.1 in flagged
    assert all(r.converged for r in rows)
    assert gamma_scan(**SCALAR, alphas=[]) == []


def test_gamma_scan_keeps_each_solved_model():
    # no input authority: the DARE converges at alpha = 0.1 (P = 1 / 0.6) and diverges at 0.5
    rows = gamma_scan([[2.0]], [[0.0]], [[1.0]], [[1.0]], [0.1, 0.5])
    assert [r.converged for r in rows] == [True, False]
    assert rows[0].model.alpha == 0.1 and rows[0].model.P[0, 0] == pytest.approx(1.0 / 0.6)
    assert rows[0].model.spectral_radius == rows[0].spectral_radius
    assert rows[1].model is None


def test_counterexample_cli_solves_one_dare_per_alpha(tmp_path, monkeypatch):
    calls = []
    solve = counterexample.dare_modified
    monkeypatch.setattr(counterexample, "dare_modified", lambda *args: calls.append(args) or solve(*args))
    assert main(["counterexample", "--out", str(tmp_path)]) == 0
    assert len(calls) == len(DEFAULT_COUNTEREXAMPLE["alpha_grid"]) == 19


def test_gamma_scan_contractions_all_false():
    rows = gamma_scan(np.diag([0.5, 0.3]), np.zeros((2, 1)), np.eye(2), [[1.0]],
                      np.arange(0.1, 1.0, 0.2))
    assert all(not r.in_gamma for r in rows)


def test_vq_zero_disturbance():
    model = build_model(**SCALAR, alpha=0.1)
    params = vq_recursion(model, np.zeros((10, 1)))
    assert np.all(params.v == 0.0)
    assert np.all(params.q == 0.0)


def test_vq_single_step_unroll():
    model = build_model(**SCALAR, alpha=0.1)
    w0 = 0.37
    params = vq_recursion(model, np.array([[w0]]))
    p, f, a = model.P[0, 0], model.F[0, 0], model.alpha
    assert params.v[0, 0] == pytest.approx(2.0 * a * f * p * w0, rel=1e-12)
    assert params.q[0] == pytest.approx(a * p * w0 * w0, rel=1e-12)
    again = vq_recursion(model, np.array([[w0]]))
    assert np.array_equal(params.v, again.v) and np.array_equal(params.q, again.q)


def test_closed_form_zero_instance():
    model = build_model(**SCALAR, alpha=0.1)
    assert discounted_cost_closed_form(model, [0.0], np.zeros((10, 1))) == 0.0


def test_closed_form_geometric_sum_no_disturbance():
    model = build_model(**SCALAR, alpha=0.1)
    T = 20
    a, f, p = model.alpha, model.F[0, 0], model.P[0, 0]
    q, k, r = 1.0, model.K[0, 0], 1.0
    direct = sum(a**t * (q + k * k * r) * f ** (2 * t) for t in range(T))
    direct += a**T * p * f ** (2 * T)
    got = discounted_cost_closed_form(model, [1.0], np.zeros((T, 1)))
    assert got == pytest.approx(direct, rel=1e-10)
    assert discounted_cost_simulated(model, [1.0], np.zeros((T, 1))) == pytest.approx(
        direct, rel=1e-10
    )


def test_closed_form_equals_simulation_on_random_draws():
    model = build_model(**SCALAR, alpha=0.1)
    rng = np.random.default_rng(22)
    for _ in range(40):
        T = int(rng.integers(1, 101))
        x0 = rng.uniform(-2.0, 2.0, size=1)
        w = random_ball(1, 1.0, T, seed=int(rng.integers(0, 2**31)))
        cf = discounted_cost_closed_form(model, x0, w, T)
        sim = discounted_cost_simulated(model, x0, w, T)
        assert abs(cf - sim) <= 1e-8 * max(1.0, abs(sim))


def test_closed_loop_riccati_identity():
    # P = Q + K'RK + alpha F'PF at the optimal gain
    model = build_model(**SCALAR, alpha=0.1)
    lhs = model.P
    rhs = model.Q + model.K.T @ model.R @ model.K + model.alpha * model.F.T @ model.P @ model.F
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_solution_is_positive_definite():
    rng = np.random.default_rng(23)
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 1))
        P = dare_modified(A, B, np.eye(2), [[1.0]], 0.3)
        assert np.linalg.eigvalsh(P)[0] > 0.0


def test_instability_report_scalar_example():
    model = build_model(**SCALAR, alpha=0.1)
    rep = linear_regret_despite_instability(
        model, W=1.0, X=1.0, T_grid=[1, 2, 5, 10, 20, 50, 100, 200, 500], seed=0
    )
    assert rep.applicable
    assert rep.bound_holds
    assert rep.unstable_confirmed
    assert rep.spectral_radius > 1.0
    assert rep.undiscounted_diverges
    assert rep.max_relative_gap <= 1e-9


def test_instability_report_not_applicable_outside_gamma():
    model = build_model(**SCALAR, alpha=0.999)
    rep = linear_regret_despite_instability(model, 1.0, 1.0, [10, 50])
    assert not rep.applicable


def test_instability_report_outside_gamma_reports_the_recorded_values():
    # recorded from the report's former early return; to_dict writes NaN as "nan"
    model = build_model(**SCALAR, alpha=0.999)
    rep = linear_regret_despite_instability(model, 1.0, 1.0, [10, 50])
    assert rep.to_dict() == {
        "applicable": False, "reason": "discount factor not in Gamma", "alpha": 0.999,
        "spectral_radius": 0.38232815440683887, "sigma": 0.381945826252432,
        "c0": "nan", "cw": "nan", "bound_holds": False, "max_relative_gap": "nan",
        "unstable_confirmed": False, "undiscounted_ratio": "nan",
        "undiscounted_diverges": False, "horizons": [10, 50], "trials": 8,
    }
    # the grid is sorted on this path too
    assert linear_regret_despite_instability(model, 1.0, 1.0, [50, 10]).horizons == [10, 50]


def test_degenerate_zero_scale_bound():
    model = build_model(**SCALAR, alpha=0.1)
    rep = linear_regret_despite_instability(model, W=0.0, X=0.0, T_grid=[10, 100], seed=1)
    assert rep.applicable
    assert rep.bound_holds
