import numpy as np
import pytest

from regretlab import (
    AssumptionViolationError,
    ConditioningError,
    DisturbanceSignal,
    LinearPolicy,
    MatrixSequence,
    QuadraticStageCost,
    ShapeError,
    SimulationOverflowError,
    SystemDynamics,
    Trajectory,
    TransitionAlignedDisturbance,
    closed_loop_matrix,
    evaluate_cost,
    simulate,
    simulate_grid,
    tracking_transform,
)

from regretlab import (
    batch_oracle,
    build_model,
    discounted_cost_closed_form,
    discounted_cost_simulated,
    regret,
    regret_curve,
    simulate_inputs,
    solve_hindsight,
    vq_recursion,
)
from regretlab.model import _BATCH_GUARD, _GUARD_CHUNK, _rollout, jsonable

from helpers import random_instance, random_pd, reference_rollout, reference_simulate_grid

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


def _disturbance_entry_points(T):
    """name -> (state dimension, call taking the disturbance w and the initial state x0)."""
    sys, costs = two_state()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    model = build_model([[2.0]], [[1.0]], [[1.0]], [[1.0]], 0.3)
    return {
        "simulate": (2, lambda w, x0: simulate(sys, pol, x0, w, costs, T)),
        "simulate_inputs": (2, lambda w, x0: simulate_inputs(sys, x0, w, np.zeros((T, 1)), costs)),
        "solve_hindsight": (2, lambda w, x0: solve_hindsight(sys, costs, x0, w, T)),
        "batch_oracle": (2, lambda w, x0: batch_oracle(sys, costs, x0, w, T)),
        "tracking_transform": (2, lambda w, x0: tracking_transform(sys, np.zeros((T + 1, 2)), w)),
        "regret": (2, lambda w, x0: regret(sys, costs, pol, x0, w, T)),
        "regret_curve": (2, lambda w, x0: regret_curve(sys, costs, pol, x0, w, [1, T])),
        "vq_recursion": (1, lambda w, x0: vq_recursion(model, w, T)),
        "discounted_cost_closed_form":
            (1, lambda w, x0: discounted_cost_closed_form(model, x0, w, T)),
        "discounted_cost_simulated": (1, lambda w, x0: discounted_cost_simulated(model, x0, w, T)),
    }


# tracking_transform reads its horizon from the disturbance, so it cannot be short
_INPUT_DEFECTS = [
    *((name, defect) for name in _disturbance_entry_points(5) for defect in ("short", "wide")
      if (name, defect) != ("tracking_transform", "short")),
    ("solve_hindsight", "x0"),
    ("batch_oracle", "x0"),
]


@pytest.mark.parametrize("name, defect", _INPUT_DEFECTS)
def test_every_disturbance_entry_point_raises_shape_error_on_bad_inputs(name, defect):
    T = 5
    n, call = _disturbance_entry_points(T)[name]
    call(np.zeros((T, n)), np.zeros(n))  # the well-formed inputs pass
    w, x0 = {
        "short": (np.zeros((T - 1, n)), np.zeros(n)),  # one row short of the horizon
        "wide": (np.zeros((T, n + 1)), np.zeros(n)),
        "x0": (np.zeros((T, n)), np.zeros(n + 1)),
    }[defect]
    with pytest.raises(ShapeError):
        call(w, x0)

@pytest.mark.parametrize("name", ["simulate", "solve_hindsight", "batch_oracle", "regret",
                                  "vq_recursion", "discounted_cost_closed_form",
                                  "discounted_cost_simulated"])
def test_negative_horizon_raises_shape_error(name):
    n, call = _disturbance_entry_points(-1)[name]
    with pytest.raises(ShapeError, match="negative"):
        call(np.zeros((5, n)), np.zeros(n))


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
    with pytest.raises(ConditioningError, match="Q at t=0 is numerically singular"):
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


def _ltv_case(rng, T, n=3, m=2, gain=0.2):
    A = 0.6 * rng.standard_normal((max(T, 1), n, n))
    B = rng.standard_normal((max(T, 1), n, m))
    ltv = SystemDynamics.ltv(lambda t: A[t], B, n=n, m=m)
    Qs = np.array([random_pd(rng, n) for _ in range(T + 1)])
    costs = QuadraticStageCost.varying(Qs, lambda t: (1.0 + t % 3) * np.eye(m), n, m)
    K = gain * rng.standard_normal((T + 1, m, n))
    return ltv, costs, K


def _kernel_cases():
    """(name, args, kwargs) of _rollout calls covering each branch of its step and guard."""
    rng = np.random.default_rng(31)
    cases = []
    for T in (0, 1, _GUARD_CHUNK, 3 * _GUARD_CHUNK + 5):
        rows = 4
        sys, costs, _, _, _ = random_instance(rng, T_max=1)
        n, m = sys.n, sys.m
        K = 0.3 * rng.standard_normal((m, n))
        x0 = rng.standard_normal((rows, n))
        w = rng.standard_normal((T, n))
        d = rng.standard_normal((T + 1, m))
        cases += [
            (f"lti T={T}", (sys, costs, x0, w, T, LinearPolicy.constant(K)), {}),
            (f"lti offsets T={T}",
             (sys, costs, x0, w, T, LinearPolicy.varying(K, m, n, d=d, d_max=10.0)), {}),
            (f"lti 3-d w T={T}",
             (sys, costs, x0, rng.standard_normal((rows, T, n)), T, LinearPolicy.constant(K)), {}),
            (f"lti no input T={T}", (sys, costs, x0, w, T), {"scales": rng.uniform(0.5, 2, rows)}),
            (f"lti open loop T={T}", (sys, costs, x0, w, T), {"inputs": d}),
        ]
        ltv, ltv_costs, Ks = _ltv_case(rng, T)
        n, m = ltv.n, ltv.m
        x0 = rng.standard_normal((rows, n))
        w = rng.standard_normal((T, n))
        d = rng.standard_normal((T + 1, m))
        affine = LinearPolicy.varying(Ks, m, n, d=d, d_max=10.0)
        cases += [
            (f"ltv T={T}", (ltv, ltv_costs, x0, w, T, LinearPolicy.varying(Ks, m, n)), {}),
            (f"ltv offsets scales T={T}", (ltv, ltv_costs, x0, w, T, affine),
             {"scales": rng.uniform(0.5, 2.0, rows)}),
            (f"ltv 3-d w T={T}",
             (ltv, ltv_costs, x0, rng.standard_normal((rows, T, n)), T, affine), {}),
            (f"ltv 3-d w scales T={T}",
             (ltv, ltv_costs, x0, rng.standard_normal((rows, T, n)), T, affine),
             {"scales": rng.uniform(0.5, 2.0, rows)}),
        ]

    # rows that overflow mid-chunk (at 315, 273, 357, at step 1, and never), with
    # offsets so that a dead row's next state is not zero before it is cleared
    scalar = SystemDynamics.lti([[3.0]], [[1.0]])
    unit = QuadraticStageCost.constant([[1.0]], [[1.0]])
    T = 400
    offsets = LinearPolicy.varying([[0.0]], 1, 1, d=np.full((T + 1, 1), 0.5), d_max=1.0)
    x0 = np.array([[1.0], [1e20], [1e-20], [1e300], [0.0]])
    zeros = np.zeros((T, 1))
    cases += [
        ("overflow mid-chunk", (scalar, unit, x0, zeros, T, LinearPolicy.constant([[0.0]])), {}),
        ("overflow with offsets", (scalar, unit, x0[:4], zeros, T, offsets), {}),
        ("overflow, one row stable",
         (scalar, unit, x0, np.ones((T, 1)), T, LinearPolicy.constant([[2.5]])),
         {"scales": np.linspace(0.0, 1.0, 5)}),
    ]
    # a 2-state loop whose rows all die before T: the loop stops at the last death
    sys = SystemDynamics.lti([[3.0, 1.0], [0.0, 2.5]], [[1.0], [0.5]])
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    policy = LinearPolicy.varying([[0.1, 0.2]], 1, 2, d=np.ones((T + 1, 1)), d_max=1.0)
    x0 = np.array([[1.0, 1.0], [1e30, 0.0], [0.0, 1e-30]])
    cases.append(("all rows dead", (sys, costs, x0, rng.standard_normal((T, 2)), T, policy), {}))
    return cases


@pytest.mark.parametrize("name,args,kwargs", [pytest.param(*c, id=c[0])
                                              for c in _kernel_cases()])
def test_rollout_kernel_is_bit_identical_to_the_per_step_guard(name, args, kwargs):
    roll = _rollout(*args, **kwargs)
    ref = reference_rollout(*args, **kwargs)
    for got, want in zip((roll.states, roll.inputs, roll.stage, roll.overflow, roll.peak), ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True), name
    if name == "all rows dead":
        stop = int(roll.overflow.max())
        assert roll.overflow.all() and stop < args[4]
        assert np.all(roll.inputs[stop:] == 0.0) and np.all(roll.states[stop:] == 0.0)


def _grid_cases():
    """(name, simulate_grid args) covering shared, distinct and signed-zero scales,
    overflow and the batch guard."""
    rng = np.random.default_rng(47)
    sys, costs, x0, _, _ = random_instance(rng, T_max=1)
    pol = LinearPolicy.constant(0.3 * rng.standard_normal((sys.m, sys.n)))
    base = rng.standard_normal((100, sys.n))
    full = np.arange(1, 101)
    cases = [
        ("equal scales H=2", (sys, pol, x0, base, np.ones(2), [7, 40], costs)),
        ("equal scales H=100", (sys, pol, x0, base, np.ones(100), full, costs)),
        ("distinct scales", (sys, pol, x0, base, rng.uniform(0.5, 2.0, 20), full[::5], costs)),
        ("H=1", (sys, pol, x0, base, [1.3], [25], costs)),
        ("signed zero scales", (sys, pol, x0, base, [0.0, -0.0, 1.0], [3, 10, 50], costs)),
    ]

    # the stable phi grid of the built-in loop: a few scales, each shared by many horizons
    loop, unit = two_state()
    stable = LinearPolicy.constant([[0.2, 0.4]])
    F = closed_loop_matrix(loop, stable, 0)
    phi_base, phi_scales = TransitionAlignedDisturbance(F, 1.0, np.array([0.3, -1.0])).realize_grid(full)
    assert 1 < len(np.unique(phi_scales)) < len(full)
    cases.append(("stable phi", (loop, stable, np.ones(2), phi_base, phi_scales, full, unit)))

    # LTV loops, with a policy and offsets, and with zero input (the filter loop)
    ltv, ltv_costs, Ks = _ltv_case(rng, 60)
    n, m = ltv.n, ltv.m
    affine = LinearPolicy.varying(Ks, m, n, d=rng.standard_normal((61, m)), d_max=10.0)
    scales = np.repeat(rng.uniform(0.5, 2.0, 4), 3)
    horizons = np.arange(5, 61, 5)
    w = rng.standard_normal((60, n))
    cases += [
        ("ltv", (ltv, affine, rng.standard_normal(n), w, scales, horizons, ltv_costs)),
        ("no input", (ltv, None, rng.standard_normal(n), w, scales, horizons, ltv_costs)),
    ]

    # x_t = s (3^t - 1) / 2 under scale s: 1e60 overflows at 190, 1e20 at 274,
    # 1e40 at 232 and 1 at 316, so horizons 100 and 250 end before their rows overflow
    grow = SystemDynamics.lti([[3.0]], [[0.0]])
    scalar = QuadraticStageCost.constant([[1.0]], [[1.0]])
    cases.append(("overflow", (grow, None, [0.0], np.ones((400, 1)),
                               [1e60, 1e60, 1e20, 1e40, 1.0], [100, 200, 250, 300, 400], scalar)))

    # a held state of 3e148: a chunk of 100 rows breaks the batch guard, one of 2 rows does not
    assert _GUARD_CHUNK * 100 * 9e296 > _BATCH_GUARD >= _GUARD_CHUNK * 2 * 9e296
    hold = SystemDynamics.lti([[1.0]], [[0.0]])
    cases.append(("batch guard", (hold, None, [3e148], np.zeros((100, 1)), np.ones(100), full, scalar)))
    return cases


@pytest.mark.parametrize("name,args", [pytest.param(*c, id=c[0]) for c in _grid_cases()])
def test_simulate_grid_is_bit_identical_to_one_row_per_horizon(name, args):
    totals, overflow = simulate_grid(*args)
    ref_totals, ref_overflow = reference_simulate_grid(*args)
    assert np.array_equal(totals, ref_totals), name
    assert np.array_equal(overflow, ref_overflow), name
    if name == "overflow":
        assert overflow.tolist() == [0, 190, 0, 232, 316]
        assert np.isfinite(totals[[0, 2]]).all() and np.isinf(totals[[1, 3, 4]]).all()
    if name == "batch guard":
        assert not overflow.any() and np.isfinite(totals).all()


def test_jsonable_names_each_non_finite_float():
    obj = {"a": [np.inf, -np.inf, np.nan, 1.5], "b": np.float64(np.nan), "c": np.array([2.0, -np.inf])}
    assert jsonable(obj) == {"a": ["inf", "-inf", "nan", 1.5], "b": "nan", "c": [2.0, "-inf"]}
