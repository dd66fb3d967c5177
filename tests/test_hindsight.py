import numpy as np
import pytest

from regretlab import (
    ConditioningError,
    DisturbanceSignal,
    QuadraticStageCost,
    SystemDynamics,
    batch_oracle,
    simulate,
    simulate_inputs,
    solve_hindsight,
)

from helpers import random_instance


def scalar_instance():
    sys = SystemDynamics.lti([[1.0]], [[1.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    return sys, costs


def test_zero_instance_gives_zero_solution():
    sys, costs = scalar_instance()
    sol = solve_hindsight(sys, costs, [0.0], DisturbanceSignal.zeros(1, 5), 5)
    assert np.all(sol.inputs == 0.0)
    assert sol.optimal_cost == 0.0
    u, J = batch_oracle(sys, costs, [0.0], DisturbanceSignal.zeros(1, 5), 5)
    assert np.all(u == 0.0) and J == 0.0


def test_scalar_single_step_calculus():
    # minimize 1 + u^2 + (1 + u)^2 over u: stationarity 2u + 2(1+u) = 0
    u_opt = -0.5
    J_opt = 1.0 + u_opt**2 + (1.0 + u_opt) ** 2
    sys, costs = scalar_instance()
    sol = solve_hindsight(sys, costs, [1.0], DisturbanceSignal.zeros(1, 1), 1)
    assert sol.inputs[0, 0] == pytest.approx(u_opt, abs=1e-12)
    assert sol.optimal_cost == pytest.approx(J_opt, abs=1e-12)
    u, J = batch_oracle(sys, costs, [1.0], DisturbanceSignal.zeros(1, 1), 1)
    assert u[0, 0] == pytest.approx(u_opt, abs=1e-12)
    assert J == pytest.approx(J_opt, abs=1e-12)


def test_recursion_matches_batch_oracle():
    rng = np.random.default_rng(10)
    for _ in range(30):
        sys, costs, x0, w, T = random_instance(rng)
        sol = solve_hindsight(sys, costs, x0, w, T)
        u, J = batch_oracle(sys, costs, x0, w, T)
        tol = 1e-8 * max(1.0, abs(J))
        assert abs(sol.optimal_cost - J) <= tol
        assert np.max(np.abs(sol.inputs - u)) <= 1e-6 * max(1.0, np.max(np.abs(u)))


def test_optimal_cost_matches_its_own_rollout():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sys, costs, x0, w, T = random_instance(rng, T_max=30)
        sol = solve_hindsight(sys, costs, x0, w, T)
        assert sol.trajectory.total_cost == pytest.approx(
            sol.optimal_cost, rel=1e-9, abs=1e-9
        )


def test_stationarity_under_perturbation():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sys, costs, x0, w, T = random_instance(rng, T_max=25)
        sol = solve_hindsight(sys, costs, x0, w, T)
        for _ in range(3):
            delta = rng.standard_normal(sol.inputs.shape)
            delta *= 1e-4 / np.linalg.norm(delta)
            perturbed = simulate_inputs(sys, x0, w, sol.inputs + delta, costs)
            assert perturbed.total_cost >= sol.optimal_cost - 1e-10


def test_value_function_consistency_along_trajectory():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sys, costs, x0, w, T = random_instance(rng, T_max=25)
        sol = solve_hindsight(sys, costs, x0, w, T)
        suffix = np.cumsum(sol.trajectory.stage_costs[::-1])[::-1]
        for t in range(T + 1):
            expect = sol.value(t, sol.trajectory.states[t])
            assert suffix[t] == pytest.approx(expect, rel=1e-8, abs=1e-8)


def test_zero_disturbance_reduces_to_riccati():
    rng = np.random.default_rng(14)
    n, m, T = 3, 2, 12
    A = rng.standard_normal((n, n)) * 0.6
    B = rng.standard_normal((n, m))
    Q = np.eye(n) * 2.0
    R = np.eye(m) * 0.5
    sys = SystemDynamics.lti(A, B)
    costs = QuadraticStageCost.constant(Q, R)
    sol = solve_hindsight(sys, costs, rng.standard_normal(n), DisturbanceSignal.zeros(n, T), T)
    np.testing.assert_allclose(sol.p, 0.0, atol=1e-14)
    np.testing.assert_allclose(sol.s, 0.0, atol=1e-14)
    # textbook backward recursion as the oracle
    P = Q.copy()
    riccati = [P]
    for _ in range(T):
        G = R + B.T @ P @ B
        H = B.T @ P @ A
        P = Q + A.T @ P @ A - H.T @ np.linalg.solve(G, H)
        riccati.append(0.5 * (P + P.T))
    for t in range(T + 1):
        np.testing.assert_allclose(sol.P[t], riccati[T - t], rtol=1e-10, atol=1e-12)


def test_affine_replay_reproduces_optimum():
    rng = np.random.default_rng(15)
    sys, costs, x0, w, T = random_instance(rng, T_max=30)
    sol = solve_hindsight(sys, costs, x0, w, T)
    traj = simulate(sys, sol.feedback_policy(), x0, w, costs, T)
    np.testing.assert_allclose(traj.states, sol.trajectory.states, rtol=1e-12, atol=1e-12)
    assert traj.total_cost == pytest.approx(sol.optimal_cost, rel=1e-9, abs=1e-9)


def test_conditioning_guard():
    sys = SystemDynamics.lti(np.eye(2), np.zeros((2, 2)))
    costs = QuadraticStageCost.constant(np.eye(2), np.diag([1.0, 1e-16]))
    with pytest.raises(ConditioningError):
        solve_hindsight(sys, costs, np.zeros(2), DisturbanceSignal.zeros(2, 3), 3)


def test_indefinite_input_weight_is_not_pd_at_its_step():
    # G_4 = R + Q = 1, then P_4 = 0 makes G_3 = R = -1: well conditioned but indefinite
    sys = SystemDynamics.lti([[1.0]], [[1.0]])
    costs = QuadraticStageCost.constant([[2.0]], [[-1.0]])
    with pytest.raises(ConditioningError, match="t=3 not PD"):
        solve_hindsight(sys, costs, [1.0], DisturbanceSignal.zeros(1, 5), 5)


def test_batch_oracle_size_cap():
    sys, costs = scalar_instance()
    with pytest.raises(ValueError):
        batch_oracle(sys, costs, [0.0], DisturbanceSignal.zeros(1, 2001), 2001)
