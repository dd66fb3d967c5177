import numpy as np
import pytest

from regretlab import (
    ConditioningError,
    DisturbanceSignal,
    LinearPolicy,
    QuadraticStageCost,
    SimulationOverflowError,
    SystemDynamics,
    batch_oracle,
    hindsight_costs,
    regret,
    simulate,
    simulate_inputs,
    solve_hindsight,
)
from regretlab.hindsight import _check_pd, _cost_to_arrive
import regretlab.hindsight as hindsight_module

from helpers import (
    random_instance,
    random_pd,
    reference_cost_to_arrive,
    reference_hindsight_pass,
    reference_split_pass,
    wavy_costs,
)


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


def test_non_finite_hessian_is_not_finite_before_eigvalsh():
    for bad in (np.nan, np.inf):
        with pytest.raises(ConditioningError, match="G at t=4 is not finite"):
            _check_pd(np.array([[bad, 0.0], [0.0, 1.0]]), "G", 4)
    _check_pd(np.eye(2), "G", 4)


def _step_weight(value, at, singular_at=None, count=21):
    """A stack of count 1x1 weights: [[1]], but [[value]] at step `at` and [[0]] at singular_at."""
    R = np.ones((count, 1, 1))
    R[at] = value
    if singular_at is not None:
        R[singular_at] = 0.0
    return R


@pytest.mark.parametrize("costs, message", [
    # R = -0.5 keeps every input Hessian R + B'P B PD (the backward pass
    # solves), but the forward pass needs R^-1 of a PD R
    (QuadraticStageCost.constant([[2.0]], [[-0.5]]),
     r"input weight R at t=0 not PD \(min eigenvalue -5.000e-01\)"),
    # a varying R is checked as one stack; the error names its first bad step
    (QuadraticStageCost.varying([[2.0]], _step_weight(-0.5, 7)),
     r"input weight R at t=7 not PD \(min eigenvalue -5.000e-01\)"),
], ids=["constant", "varying"])
def test_forward_pass_needs_a_pd_input_weight(costs, message):
    sys = SystemDynamics.lti([[1.0]], [[1.0]])
    w = np.ones((20, 1))
    assert np.isfinite(hindsight_costs(sys, costs, [1.0], w, [1.0], [20])[0])
    with pytest.raises(ConditioningError, match=message):
        hindsight_costs(sys, costs, [1.0], w, [1.0, 1.0], [10, 20])


def _nan_in_A5():
    A = np.broadcast_to(0.9 * np.eye(2), (20, 2, 2)).copy()
    A[5, 0, 1] = np.nan
    return A


@pytest.mark.parametrize("sys, costs, message", [
    # solve raises LinAlgError on the singular G_19; the check after the pass names it
    (SystemDynamics.lti(np.eye(2), np.zeros((2, 2))),
     QuadraticStageCost.constant(np.eye(2), np.diag([1.0, 0.0])),
     "input Hessian at t=19 is numerically singular (rcond below 1e-14)"),
    (SystemDynamics.lti([[1.0]], [[0.0]]),
     QuadraticStageCost.varying([[1.0]], _step_weight(-5.0, 7)),
     "input Hessian at t=7 not PD (min eigenvalue -5.000e+00)"),
    (SystemDynamics.ltv(_nan_in_A5(), np.ones((2, 1))),
     QuadraticStageCost.constant(np.eye(2), [[1.0]]),
     "input Hessian at t=4 is not finite (a NaN or inf entry, or an overflow)"),
    # solve raises LinAlgError on G_2 = R_2 = 0, after the pass went past the bad G_7
    (SystemDynamics.lti([[1.0]], [[0.0]]),
     QuadraticStageCost.varying([[1.0]], _step_weight(-5.0, 7, singular_at=2)),
     "input Hessian at t=7 not PD (min eigenvalue -5.000e+00)"),
], ids=["singular-solve", "indefinite-R", "nan-in-A", "singular-solve-after"])
def test_riccati_pass_raises_the_first_bad_hessian_of_a_per_step_check(sys, costs, message):
    # the messages a check at every step raised, T = 20
    n = sys.n
    with pytest.raises(ConditioningError) as err:
        solve_hindsight(sys, costs, np.ones(n), np.ones((20, n)), 20)
    assert str(err.value) == message


def _assert_matches_reference_pass(sys, costs, x0, w, T):
    """The split pass against the frozen per-step pass, and the cost against the rollout's."""
    sol = solve_hindsight(sys, costs, x0, w, T)
    ref = reference_hindsight_pass(sys, costs, x0, w, T)
    got = (sol.optimal_cost, sol.P, sol.p, sol.s, sol.gains, sol.offsets)
    for name, a, b in zip(("optimal_cost", "P", "p", "s", "gains", "offsets"), got, ref):
        assert np.shape(a) == np.shape(b), name
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        assert np.max(np.abs(np.subtract(a, b)), initial=0.0) <= 1e-12 * scale, name
    J = sol.optimal_cost
    assert abs(sol.trajectory.total_cost - J) <= 1e-9 * max(1.0, abs(J))


def test_split_pass_matches_the_per_step_pass_on_random_lti_loops():
    # open loops from contracting to radius 2, horizons past the Riccati fixed point
    rng = np.random.default_rng(41)
    for _ in range(30):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        T = int(rng.integers(0, 401))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.2, 2.0) / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-9)
        sys = SystemDynamics.lti(A, rng.standard_normal((n, m)))
        costs = QuadraticStageCost.constant(random_pd(rng, n), random_pd(rng, m))
        _assert_matches_reference_pass(sys, costs, rng.standard_normal(n),
                                       0.5 * rng.standard_normal((T, n)), T)


def test_split_pass_matches_the_per_step_pass_on_an_ltv_loop_and_short_horizons():
    rng = np.random.default_rng(42)
    T = 60
    A = 1.05 * np.linalg.qr(rng.standard_normal((T, 3, 3)))[0]
    sys = SystemDynamics.ltv(A, rng.standard_normal((T, 3, 2)))
    costs = wavy_costs(T + 1, 3, 2)
    w = rng.standard_normal((T, 3))
    for horizon in (0, 1, 2, T):
        _assert_matches_reference_pass(sys, costs, np.ones(3), w, horizon)
    lti, lti_costs = scalar_instance()
    for horizon in (0, 1, 2):
        _assert_matches_reference_pass(lti, lti_costs, [1.0], np.ones((2, 1)), horizon)


def _count_hessian_checks(monkeypatch):
    """The labels of the input Hessians checked, from the one batched call each pass makes."""
    steps = []

    def counting(G, what, t):
        if what == "input Hessian":
            assert not steps, "the Riccati pass checks its Hessians in one call"
            assert len(G) == len(t)
            steps.extend(t)
        return _check_pd(G, what, t)

    monkeypatch.setattr(hindsight_module, "_check_pd", counting)
    return steps


def test_riccati_pass_stops_at_its_fixed_point_only_on_constant_loops(monkeypatch):
    steps = _count_hessian_checks(monkeypatch)
    builtin = SystemDynamics.lti([[1.0, 1.0], [0.0, 1.0]], [[1.0], [0.5]])
    w = np.ones((1000, 2))
    solve_hindsight(builtin, QuadraticStageCost.constant(1.5 * np.eye(2), [[1.0]]),
                    np.zeros(2), w, 1000)
    assert 0 < len(steps) < 100

    # a Q given as a stack, and a time-varying A: every step is checked
    for sys, costs in (
        (builtin, QuadraticStageCost.varying(np.broadcast_to(1.5 * np.eye(2), (201, 2, 2)),
                                             [[1.0]])),
        (SystemDynamics.ltv([[[1.0, 1.0], [0.0, 1.0 + 0.1 * np.sin(t)]] for t in range(200)],
                            [[1.0], [0.5]], 2, 1),
         QuadraticStageCost.constant(1.5 * np.eye(2), [[1.0]])),
    ):
        steps.clear()
        solve_hindsight(sys, costs, np.zeros(2), w, 200)
        assert sorted(steps) == list(range(200))


def test_riccati_pass_without_a_fixed_point_runs_every_step(monkeypatch):
    # the first state is uncontrollable and marginal, so P_t grows by 1 per step
    steps = _count_hessian_checks(monkeypatch)
    sys = SystemDynamics.lti(np.diag([1.0, 0.5]), [[0.0], [1.0]])
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    rng = np.random.default_rng(43)
    _assert_matches_reference_pass(sys, costs, np.ones(2), rng.standard_normal((300, 2)), 300)
    assert sorted(steps) == list(range(300))


def _assert_same_bits(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert got.tobytes() == want.tobytes(), name  # also tells -0.0 from 0.0


def _random_loop(rng, n, m, T):
    """A random loop and costs, each of A, B, Q and R constant or a stack, chosen at random."""
    def pick(constant, stacked):
        return constant if rng.random() < 0.5 else stacked

    rho = rng.uniform(0.2, 2.0)
    A = pick(rho / np.sqrt(n) * rng.standard_normal((n, n)),
             rho / np.sqrt(n) * rng.standard_normal((T + 1, n, n)))
    B = pick(rng.standard_normal((n, m)), rng.standard_normal((T + 1, n, m)))
    Q = pick(random_pd(rng, n), np.array([random_pd(rng, n) for _ in range(T + 1)]))
    R = pick(random_pd(rng, m), np.array([random_pd(rng, m) for _ in range(T + 1)]))
    return SystemDynamics.ltv(A, B), QuadraticStageCost.varying(Q, R)


def _never_settling_loop():
    """A constant loop whose first state is uncontrollable and marginal: P_t grows every step."""
    return (SystemDynamics.lti(np.diag([1.0, 0.5]), [[0.0], [1.0]]),
            QuadraticStageCost.constant(np.eye(2), [[1.0]]))


def test_riccati_and_data_pass_match_the_frozen_split_pass_bit_for_bit():
    # n = 1 with m >= 4 is included: there H_t'gains_t is a BLAS dot product,
    # whose sum depends on the strides of its operands
    rng = np.random.default_rng(44)
    cases = [(*_never_settling_loop(), 60)]
    for _ in range(150):
        n, m, T = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(0, 61))
        cases.append((*_random_loop(rng, n, m, T), T))
    # every m up to 8 at n = 1, and n = 6: the one block layout holds for each
    for n, m in [(1, m) for m in range(1, 9)] * 3 + [(6, m) for m in range(1, 7)] * 2:
        T = int(rng.integers(0, 61))
        cases.append((*_random_loop(rng, n, m, T), T))
    names = ("optimal_cost", "P", "p", "s", "gains", "offsets")
    for system, costs, T in cases:
        x0 = rng.standard_normal(system.n)
        w = rng.uniform(0.1, 3.0) * rng.standard_normal((T, system.n))
        sol = solve_hindsight(system, costs, x0, w, T)
        got = (sol.optimal_cost, sol.P, sol.p, sol.s, sol.gains, sol.offsets)
        for name, a, b in zip(names, got, reference_split_pass(system, costs, x0, w, T)):
            _assert_same_bits(a, b, name)
    P = solve_hindsight(*cases[0][:2], np.ones(2), np.ones((60, 2)), 60).P
    assert (P[:-1, 0, 0] > P[1:, 0, 0]).all()  # the first loop never reached a fixed point


def test_cost_to_arrive_matches_the_frozen_pass_bit_for_bit():
    rng = np.random.default_rng(45)
    cases = [(*_never_settling_loop(), 60)]
    for _ in range(150):
        n, m, T = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(0, 61))
        cases.append((*_random_loop(rng, n, m, T), T))
    for system, costs, T in cases:
        for name, a, b in zip(("AS", "QS"), _cost_to_arrive(system, costs, T),
                              reference_cost_to_arrive(system, costs, T)):
            _assert_same_bits(a, b, name)


def test_cost_to_arrive_gives_a_constant_the_bits_of_its_stack():
    # R is a stack throughout, so no pass stops at a fixed point: only how A_t and Q_t are read differs
    rng = np.random.default_rng(46)
    T = 40
    for n, m in [(1, 1), (1, 5), (2, 1), (3, 2), (4, 4), (6, 3)]:
        A = rng.uniform(0.3, 1.5) / np.sqrt(n) * rng.standard_normal((n, n))
        B, Q = rng.standard_normal((n, m)), random_pd(rng, n)
        R = np.array([random_pd(rng, m) for _ in range(T + 1)])
        stacks = (np.repeat(A[None], T + 1, axis=0), np.repeat(Q[None], T + 1, axis=0))
        want = _cost_to_arrive(SystemDynamics.ltv(stacks[0], B),
                               QuadraticStageCost.varying(stacks[1], R), T)
        for A_in, Q_in in ((A, Q), (A, stacks[1]), (stacks[0], Q)):
            got = _cost_to_arrive(SystemDynamics.ltv(A_in, B), QuadraticStageCost.varying(Q_in, R), T)
            for name, a, b in zip(("AS", "QS"), got, want):
                _assert_same_bits(a, b, name)


@pytest.mark.parametrize("A, w, T", [
    (0.9 * np.eye(2), 1e200, 3),  # the data pass's terms overflow
    (3.0 * np.eye(2), 1.0, 400),  # the uncontrollable mode's value function overflows
], ids=["huge-disturbance", "overflowing-value-function"])
def test_an_overflowing_data_pass_raises_the_documented_error(A, w, T):
    # with overflow warnings as errors, these raised a numpy RuntimeWarning from the data pass
    system = SystemDynamics.lti(A, [[1.0], [0.0]])
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    with pytest.raises(SimulationOverflowError):
        regret(system, costs, LinearPolicy.constant(np.zeros((1, 2))), np.zeros(2),
               np.full((T, 2), w), T)


def test_a_non_finite_value_function_raises_at_its_latest_step_not_a_nan_state():
    # the first mode grows by 1e160 per step and B cannot reach it: P_t is non-finite for
    # t <= 5, the offsets are NaN, and a rollout under them would overflow at t = 1 on a NaN
    system = SystemDynamics.lti(np.diag([1e160, 0.5]), [[0.0], [1.0]])
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    w = np.ones((6, 2))
    with pytest.raises(SimulationOverflowError, match="^value function entry inf") as err:
        hindsight_costs(system, costs, np.zeros(2), w, np.ones(3), [2, 4, 6])
    assert err.value.t == 5
    # solve_hindsight itself keeps its documented NaN cost
    assert np.isnan(solve_hindsight(system, costs, np.zeros(2), w, 6).optimal_cost)


def test_batch_oracle_size_cap():
    sys, costs = scalar_instance()
    with pytest.raises(ValueError):
        batch_oracle(sys, costs, [0.0], DisturbanceSignal.zeros(1, 2001), 2001)
