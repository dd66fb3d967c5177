import numpy as np
import pytest

from regretlab import (
    AssumptionViolationError,
    DisturbanceSignal,
    LinearPolicy,
    MatrixSequence,
    QuadraticStageCost,
    ShapeError,
    SimulationOverflowError,
    SystemDynamics,
    Trajectory,
    closed_loop_matrix,
    evaluate_cost,
    simulate,
    tracking_transform,
)

from regretlab.model import _rollout, jsonable

from helpers import random_instance, random_pd

A4 = np.array([[1.0, 1.0], [0.0, 1.0]])
B4 = np.array([[1.0], [0.5]])


def two_state():
    return SystemDynamics.lti(A4, B4), QuadraticStageCost.constant(1.5 * np.eye(2), [[1.0]])


def test_simulate_origin_is_equilibrium():
    sys, costs = two_state()
    pol = LinearPolicy.constant([[0.3, -0.2]])
    traj = simulate(sys, pol, np.zeros(2), DisturbanceSignal.zeros(2, 10), costs, 10)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs == 0.0)
    assert traj.total_cost == 0.0


def test_simulate_scalar_halving():
    # A=2, B=1, K=1.5 gives F = 0.5, so x_t = 0.5^t from x_0 = 1
    sys = SystemDynamics.lti([[2.0]], [[1.0]])
    pol = LinearPolicy.constant([[1.5]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    traj = simulate(sys, pol, [1.0], DisturbanceSignal.zeros(1, 8), costs, 8)
    expected = 0.5 ** np.arange(9)
    np.testing.assert_allclose(traj.states[:, 0], expected, rtol=0, atol=0)


def test_simulate_axis_invariance_of_diagonal_loop():
    # K2 = [0, 1] closes the two-state loop to diag(1, 0.5)
    sys, costs = two_state()
    pol = LinearPolicy.constant([[0.0, 1.0]])
    F = closed_loop_matrix(sys, pol, 0)
    np.testing.assert_array_equal(F, np.array([[1.0, 0.0], [0.0, 0.5]]))
    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        traj = simulate(sys, pol, e, DisturbanceSignal.zeros(2, 6), costs, 6)
        off_axis = traj.states[:, np.argmin(e)]
        assert np.all(off_axis == 0.0)


def test_closed_loop_matrix_examples():
    sys, _ = two_state()
    assert np.array_equal(
        closed_loop_matrix(sys, LinearPolicy.constant(np.zeros((1, 2))), 0), A4
    )
    F1 = closed_loop_matrix(sys, LinearPolicy.constant([[0.2, 0.4]]), 0)
    np.testing.assert_allclose(F1, [[0.8, 0.6], [-0.1, 0.8]], atol=1e-15)
    F3 = closed_loop_matrix(sys, LinearPolicy.constant([[-0.02, 0.5]]), 0)
    np.testing.assert_allclose(F3, [[1.02, 0.5], [0.01, 0.75]], atol=1e-15)


def test_evaluate_cost_examples():
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    zero = Trajectory(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3), 0.0)
    assert evaluate_cost(zero, costs) == 0.0

    states = np.array([[1.0], [1.0]])
    inputs = np.array([[0.0], [0.0]])
    traj = Trajectory(states, inputs, np.array([1.0, 1.0]), 2.0)
    assert evaluate_cost(traj, costs) == pytest.approx(2.0, abs=0)

    gamma = 3.7
    scaled = QuadraticStageCost.constant([[gamma]], [[gamma]])
    assert evaluate_cost(traj, scaled) == pytest.approx(gamma * 2.0, rel=1e-15)


def test_evaluate_cost_idempotent_with_simulation():
    rng = np.random.default_rng(0)
    sys, costs, x0, w, T = random_instance(rng)
    pol = LinearPolicy.constant(0.2 * rng.standard_normal((sys.m, sys.n)))
    traj = simulate(sys, pol, x0, w, costs, T)
    assert evaluate_cost(traj, costs) == pytest.approx(traj.total_cost, rel=1e-12)


def test_simulation_replay_is_bit_identical():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sys, costs, x0, w, T = random_instance(rng, T_max=30)
        pol = LinearPolicy.constant(0.3 * rng.standard_normal((sys.m, sys.n)))
        traj = simulate(sys, pol, x0, w, costs, T)
        x = np.asarray(x0, dtype=float)
        for t in range(T):
            u = -pol.K(t) @ x
            assert np.array_equal(traj.inputs[t], u)
            x = sys.A(t) @ x + sys.B(t) @ u + np.asarray(w, float)[t]
            assert np.array_equal(traj.states[t + 1], x)


def test_cost_positivity_floor():
    rng = np.random.default_rng(2)
    for _ in range(20):
        sys, costs, x0, w, T = random_instance(rng, T_max=30)
        pol = LinearPolicy.constant(0.3 * rng.standard_normal((sys.m, sys.n)))
        traj = simulate(sys, pol, x0, w, costs, T)
        m_lower, _ = costs.bounds(T)
        floor = m_lower * np.sum(np.sum(traj.states**2, axis=1))
        assert traj.total_cost >= floor - 1e-9 * max(1.0, floor)


def test_affine_policy_with_zero_offset_matches_linear():
    rng = np.random.default_rng(3)
    sys, costs, x0, w, T = random_instance(rng, T_max=20)
    K = 0.3 * rng.standard_normal((sys.m, sys.n))
    plain = simulate(sys, LinearPolicy.constant(K), x0, w, costs, T)
    affine = simulate(
        sys, LinearPolicy.constant(K, d=np.zeros(sys.m), d_max=0.0), x0, w, costs, T
    )
    assert np.array_equal(plain.states, affine.states)
    assert plain.total_cost == affine.total_cost


def test_affine_offset_bound_enforced():
    pol = LinearPolicy.constant([[1.0]], d=[2.0], d_max=1.0)
    sys = SystemDynamics.lti([[1.0]], [[1.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    with pytest.raises(AssumptionViolationError):
        simulate(sys, pol, [0.0], DisturbanceSignal.zeros(1, 2), costs, 2)


def test_overflow_reports_first_offending_step():
    sys = SystemDynamics.lti([[3.0]], [[1.0]])
    pol = LinearPolicy.constant([[0.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    # smallest t with 3^t > 1e150: t > 150 ln10 / ln3 = 314.46, so t = 315
    with pytest.raises(SimulationOverflowError) as err:
        simulate(sys, pol, [1.0], DisturbanceSignal.zeros(1, 400), costs, 400)
    assert err.value.t == 315


def test_dimension_mismatches_raise_shape_errors():
    sys, costs = two_state()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    with pytest.raises(ShapeError):
        simulate(sys, pol, np.zeros(3), DisturbanceSignal.zeros(2, 4), costs, 4)
    with pytest.raises(ShapeError):
        simulate(sys, pol, np.zeros(2), DisturbanceSignal.zeros(1, 4), costs, 4)
    with pytest.raises(ShapeError):
        simulate(sys, LinearPolicy.constant([[1.0]]), np.zeros(2),
                 DisturbanceSignal.zeros(2, 4), costs, 4)
    with pytest.raises(ShapeError):
        simulate(sys, pol, np.zeros(2), DisturbanceSignal.zeros(2, 3), costs, 4)


def test_tracking_transform_examples():
    sys, _ = two_state()
    w = DisturbanceSignal(np.array([[0.5, 0.0], [0.0, 0.5]]), 0.5)
    nu = tracking_transform(sys, np.zeros((3, 2)), w)
    np.testing.assert_array_equal(nu.w, w.w)

    eye_sys = SystemDynamics.lti(np.eye(2), B4)
    const_r = np.ones((4, 2))
    nu = tracking_transform(eye_sys, const_r, DisturbanceSignal.zeros(2, 3))
    np.testing.assert_allclose(nu.w, 0.0, atol=0)

    scalar = SystemDynamics.lti([[2.0]], [[1.0]])
    nu = tracking_transform(scalar, np.ones((4, 1)), DisturbanceSignal.zeros(1, 3))
    np.testing.assert_allclose(nu.w, 1.0, atol=0)


def test_tracking_transform_requires_full_reference():
    sys, _ = two_state()
    with pytest.raises(ShapeError):
        tracking_transform(sys, np.zeros((3, 2)), DisturbanceSignal.zeros(2, 3))


def test_cost_bounds_examples():
    assert QuadraticStageCost.constant(np.eye(2), np.eye(1)).bounds(5) == (1.0, 1.0)
    assert QuadraticStageCost.constant(1.5 * np.eye(2), [[1.0]]).bounds(5) == (1.5, 1.5)
    got = QuadraticStageCost.constant(np.diag([2.0, 3.0]), np.eye(1)).bounds(5)
    assert got == (2.0, 3.0)


def test_cost_bounds_rejects_non_pd():
    with pytest.raises(AssumptionViolationError):
        QuadraticStageCost.constant(np.diag([1.0, 0.0]), np.eye(1)).bounds(3)
    with pytest.raises(AssumptionViolationError):
        QuadraticStageCost.constant([[1.0, 0.5], [0.2, 1.0]], np.eye(1)).bounds(3)


def test_cost_bounds_quadratic_sandwich():
    rng = np.random.default_rng(4)
    costs = QuadraticStageCost.constant(random_pd(rng, 3), random_pd(rng, 2))
    m_lower, m_upper = costs.bounds(0)
    for _ in range(100):
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        c = costs.stage(0, x, u)
        assert c >= m_lower * x @ x - 1e-12
        assert c <= m_upper * (x @ x + u @ u) + 1e-12


def test_generator_sequences_are_memoized():
    calls = []

    def gen(t):
        calls.append(t)
        return np.eye(2) * (t + 1)

    seq = MatrixSequence(gen, (2, 2), "A")
    a = seq(3)
    b = seq(3)
    assert a is b
    assert calls == [3]


def test_explicit_stack_bounds_checked():
    seq = MatrixSequence(np.zeros((4, 2, 2)), (2, 2), "A")
    with pytest.raises(ShapeError):
        seq(4)


def test_disturbance_bound_validated():
    with pytest.raises(AssumptionViolationError):
        DisturbanceSignal(np.ones((3, 2)), 1.0)
    DisturbanceSignal(np.ones((3, 2)), np.sqrt(2.0))  # exactly at the bound


def test_ltv_generator_system_simulation():
    # periodically switched scalar loop, exact hand recursion
    A = lambda t: np.array([[2.0 if t % 2 == 0 else 0.25]])
    B = lambda t: np.array([[0.0]])
    sys = SystemDynamics.ltv(A, B, n=1, m=1)
    assert sys.kind == "LTV"
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    traj = simulate(sys, LinearPolicy.constant([[0.0]]), [1.0],
                    DisturbanceSignal.zeros(1, 6), costs, 6)
    x = 1.0
    for t in range(6):
        x *= 2.0 if t % 2 == 0 else 0.25
        assert traj.states[t + 1, 0] == x


# ---------------------------------------------------------------- rollout kernel


def per_row_rollout(system, costs, x0, w, T, K=None, d=None):
    """Reference loop for one row: u_t = -K_t x_t + d_t, x_{t+1} = A_t x_t + B_t u_t + w_t."""
    x = np.asarray(x0, dtype=float)
    states, inputs, stage = [], [], []
    for t in range(T + 1):
        u = np.zeros(system.m) if K is None else -K(t) @ x
        if d is not None:
            u = u + d[t]
        states.append(x)
        inputs.append(u)
        stage.append(x @ costs.Q(t) @ x + u @ costs.R(t) @ u)
        if t < T:
            x = system.A(t) @ x + system.B(t) @ u + w[t]
    return np.array(states), np.array(inputs), np.array(stage)


def assert_rows_match(roll, references):
    for row, (states, inputs, stage) in enumerate(references):
        scale = max(1.0, float(np.max(np.abs(states))))
        np.testing.assert_allclose(roll.states[:, row], states, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(roll.inputs[:, row], inputs, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(roll.stage[:, row], stage, rtol=1e-12, atol=1e-12 * scale**2)
    assert not np.any(roll.overflow)


def test_rollout_kernel_matches_per_row_loop():
    rng = np.random.default_rng(10)
    T, rows = 30, 4

    # LTI loop under a constant gain, one disturbance signal per row
    sys, costs, _, _, _ = random_instance(rng, T_max=1)
    pol = LinearPolicy.constant(0.3 * rng.standard_normal((sys.m, sys.n)))
    x0 = rng.standard_normal((rows, sys.n))
    w = rng.standard_normal((rows, T, sys.n))
    roll = _rollout(sys, costs, x0, w, T, pol)
    assert_rows_match(roll, [per_row_rollout(sys, costs, x0[i], w[i], T, pol.K) for i in range(rows)])

    # LTV loop and weights, a time-varying gain with offsets d_t, one shared
    # disturbance scaled per row
    n, m = 3, 2
    A = 0.6 * rng.standard_normal((T, n, n))
    B = rng.standard_normal((T, n, m))
    ltv = SystemDynamics.ltv(lambda t: A[t], B, n=n, m=m)
    Qs = np.array([random_pd(rng, n) for _ in range(T + 1)])
    ltv_costs = QuadraticStageCost.varying(Qs, lambda t: (1.0 + t % 3) * np.eye(m), n, m)
    d = rng.standard_normal((T + 1, m))
    affine = LinearPolicy.varying(0.2 * rng.standard_normal((T + 1, m, n)), m, n, d=d, d_max=10.0)
    x0 = rng.standard_normal((rows, n))
    base = rng.standard_normal((T, n))
    scales = rng.uniform(0.5, 2.0, rows)
    roll = _rollout(ltv, ltv_costs, x0, base, T, affine, scales=scales)
    assert_rows_match(roll, [
        per_row_rollout(ltv, ltv_costs, x0[i], scales[i] * base, T, affine.K, d) for i in range(rows)
    ])

    # open-loop inputs
    inputs = rng.standard_normal((T + 1, m))
    roll = _rollout(ltv, ltv_costs, x0, base, T, inputs=inputs)
    assert_rows_match(roll, [
        per_row_rollout(ltv, ltv_costs, x0[i], base, T, d=inputs) for i in range(rows)
    ])


def test_rollout_kernel_rows_overflow_at_their_own_steps():
    sys = SystemDynamics.lti([[3.0]], [[1.0]])
    pol = LinearPolicy.constant([[0.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    T = 400
    w = DisturbanceSignal.zeros(1, T)
    x0 = np.array([[1.0], [1e20], [1e-20], [0.0]])
    roll = _rollout(sys, costs, x0, w.w, T, pol)
    expected = []
    for row in x0:
        try:
            traj = simulate(sys, pol, row, w, costs, T)
            expected.append(0)
            np.testing.assert_array_equal(roll.states[:, len(expected) - 1], traj.states)
        except SimulationOverflowError as exc:
            expected.append(exc.t)
    assert expected == [315, 273, 357, 0]
    np.testing.assert_array_equal(roll.overflow, expected)
    assert np.all(np.isfinite(roll.stage))


def test_jsonable_names_each_non_finite_float():
    obj = {"a": [np.inf, -np.inf, np.nan, 1.5], "b": np.float64(np.nan), "c": np.array([2.0, -np.inf])}
    assert jsonable(obj) == {"a": ["inf", "-inf", "nan", 1.5], "b": "nan", "c": [2.0, "-inf"]}
