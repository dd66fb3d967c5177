import csv
from dataclasses import fields

import numpy as np
import pytest

from regretlab import (
    AssumptionViolationError,
    ConditioningError,
    DisturbanceSignal,
    LinearPolicy,
    MatrixSequence,
    NormSums,
    QuadraticStageCost,
    ShapeError,
    SimulationOverflowError,
    SystemDynamics,
    Trajectory,
    TransitionAlignedDisturbance,
    closed_loop,
    closed_loop_matrix,
    evaluate_cost,
    linear_regret_certificate,
    norm_sums,
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
from regretlab.cli import BUILTIN_EXPERIMENT
from regretlab.hindsight import _cost_to_arrive
from regretlab.model import (
    _BATCH_GUARD,
    OVERFLOW_LIMIT,
    _rollout,
    _stage_costs,
    _step_product,
    jsonable,
    write_csv,
)
from regretlab.transition import _products

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
        sys, LinearPolicy.varying(K, d=np.zeros(sys.m)), x0, w, costs, T
    )
    assert np.array_equal(plain.states, affine.states)
    assert plain.total_cost == affine.total_cost


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


def test_varying_cost_bounds_raise_the_first_failure_of_the_per_step_order():
    # Q_t then R_t for t = 0, 1, ...: the first failure in that order raises,
    # with its own class
    def indefinite_R(at):
        R = np.ones((21, 1, 1))
        R[at] = -1.0
        return R

    skewed_Q = np.array([np.eye(2)] * 21)
    skewed_Q[3] = [[1.0, 0.5], [0.2, 1.0]]

    cases = [
        (np.eye(2), indefinite_R(7), ConditioningError, "R at t=7 not PD"),
        (skewed_Q, [[1.0]], AssumptionViolationError, "Q at t=3 is not symmetric"),
        (skewed_Q, indefinite_R(7), AssumptionViolationError, "Q at t=3 is not symmetric"),
        (skewed_Q, indefinite_R(3), AssumptionViolationError, "Q at t=3 is not symmetric"),
        (skewed_Q, indefinite_R(2), ConditioningError, "R at t=2 not PD"),
    ]
    for Q, R, error, message in cases:
        with pytest.raises(error, match=message):
            QuadraticStageCost.varying(Q, R).bounds(20)
    # R_7 lies past the horizon
    assert QuadraticStageCost.varying(np.eye(2), indefinite_R(7)).bounds(6) == (1.0, 1.0)


def test_cost_bounds_quadratic_sandwich():
    rng = np.random.default_rng(4)
    costs = QuadraticStageCost.constant(random_pd(rng, 3), random_pd(rng, 2))
    m_lower, m_upper = costs.bounds(0)
    for _ in range(100):
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        c = _stage_costs(costs, x[None, None], u[None, None])[0, 0]
        assert c >= m_lower * x @ x - 1e-12
        assert c <= m_upper * (x @ x + u @ u) + 1e-12


def test_explicit_stack_bounds_checked():
    seq = MatrixSequence(np.zeros((4, 2, 2)), (2, 2), "A")
    with pytest.raises(ShapeError):
        seq(4)


def test_disturbance_bound_validated():
    with pytest.raises(AssumptionViolationError):
        DisturbanceSignal(np.ones((3, 2)), 1.0)
    DisturbanceSignal(np.ones((3, 2)), np.sqrt(2.0))  # exactly at the bound


def test_ltv_stack_system_simulation():
    # periodically switched scalar loop, exact hand recursion
    A = np.array([[[2.0 if t % 2 == 0 else 0.25]] for t in range(6)])
    B = np.zeros((6, 1, 1))
    sys = SystemDynamics.ltv(A, B, n=1, m=1)
    assert not sys.A.constant
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


def test_constant_loop_reads_the_same_from_lti_and_ltv():
    # constancy comes from the sequences, whichever constructor built them
    spec = BUILTIN_EXPERIMENT
    costs = QuadraticStageCost.constant(spec["Q"], spec["R"])
    policy = LinearPolicy.constant(dict(spec["controllers"])["K1"])
    results = []
    for build in (SystemDynamics.lti, SystemDynamics.ltv):
        system = build(spec["A"], spec["B"])
        F = closed_loop(system, policy)
        assert F.constant
        sums = norm_sums(F, 1000)
        cert = linear_regret_certificate(system, costs, policy, X=1.0, W=1.0, T_max=1000)
        results.append((F(0), sums, cert))
    (F_lti, sums_lti, cert_lti), (F_ltv, sums_ltv, cert_ltv) = results
    assert np.array_equal(F_lti, F_ltv)
    for field in fields(NormSums):
        name = field.name
        assert np.array_equal(getattr(sums_lti, name), getattr(sums_ltv, name)), name
    assert cert_lti.to_dict() == cert_ltv.to_dict()
    assert cert_lti.cw == 32.88691714362431


def test_system_dynamics_stores_only_its_sequences():
    assert [f.name for f in fields(SystemDynamics)] == ["A", "B"]
    system = SystemDynamics.ltv(np.zeros((5, 3, 3)), np.zeros((3, 2)))
    assert (system.n, system.m) == (3, 2)
    assert not system.A.constant and system.B.constant
    assert not closed_loop(system, LinearPolicy.constant(np.zeros((2, 3)))).constant
    assert not closed_loop(SystemDynamics.lti(np.eye(3), np.zeros((3, 2))),
                           LinearPolicy.varying(np.zeros((4, 2, 3)))).constant


def test_time_varying_closed_loop_is_one_stack_as_long_as_the_shortest():
    rng = np.random.default_rng(13)
    system = SystemDynamics.ltv(rng.standard_normal((7, 3, 3)), rng.standard_normal((3, 2)))
    policy = LinearPolicy.varying(rng.standard_normal((5, 2, 3)))
    F = closed_loop(system, policy)
    assert F.values.shape == (5, 3, 3)
    for t in range(5):
        assert np.array_equal(F(t), system.A(t) - system.B(t) @ policy.K(t))
    with pytest.raises(ShapeError):
        F(5)


@pytest.mark.parametrize("build", [
    lambda: QuadraticStageCost.varying(np.zeros((2, 3)), [[1.0]]),
    lambda: QuadraticStageCost.varying(np.eye(2), np.zeros((4, 1, 2))),
    lambda: QuadraticStageCost.varying(np.zeros((2, 2, 2, 2)), [[1.0]]),
    lambda: LinearPolicy.varying(np.zeros((1, 2)), d=np.zeros((5, 2))),
    lambda: LinearPolicy.varying(np.zeros((4, 2, 3)), d=np.zeros(3)),
    lambda: LinearPolicy.varying(np.zeros(3)),
    lambda: SystemDynamics.ltv(np.zeros((5, 3, 3)), np.zeros((3, 2)), n=2),
    lambda: SystemDynamics.ltv(np.eye(2), np.zeros((5, 2, 1)), m=2),
    lambda: SystemDynamics.ltv(np.zeros((5, 2, 3)), np.zeros((2, 1))),
    lambda: SystemDynamics.ltv(np.eye(2), np.zeros((5, 3, 1))),
])
def test_inferred_constructors_reject_bad_shapes(build):
    with pytest.raises(ShapeError):
        build()


def test_distinct_is_step_zero_of_a_constant_sequence_else_the_stack():
    const = MatrixSequence(np.eye(2), (2, 2))
    assert const.distinct(7).shape == (1, 2, 2)
    assert np.array_equal(const.distinct(7)[0], np.eye(2))
    stack = MatrixSequence(np.arange(12.0).reshape(3, 2, 2), (2, 2))
    assert np.array_equal(stack.distinct(3), stack.stack(3))


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("values", [
    np.arange(6.0).reshape(2, 3),  # constant, C order
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),  # constant, Fortran order
    np.arange(24.0).reshape(4, 2, 3),  # a stack
    np.arange(24.0).reshape(4, 3, 2).transpose(0, 2, 1),  # a stack of transposed views
])
def test_steps_are_the_rows_of_the_stack_with_their_strides(values, transpose):
    # a product on a step is the same BLAS call as on the stack's row only if the strides match
    seq = MatrixSequence(values, (2, 3))
    rows = seq.stack(3).transpose(0, 2, 1) if transpose else seq.stack(3)
    steps = seq.steps(3, transpose=transpose)
    assert len(steps) == 3
    for step, row in zip(steps, rows):
        assert step.shape == row.shape and step.strides == row.strides
        assert np.array_equal(step, row)
    assert len(seq.steps(0)) == 0


@pytest.mark.parametrize("read, missing", [
    (lambda seq: seq.stack(6), 4),
    (lambda seq: seq.steps(6, transpose=True), 4),
    (lambda seq: seq.steps(3, start=2), 4),
    (lambda seq: seq.steps(2, start=7), 7),
], ids=["stack", "steps", "steps-from-2", "steps-from-7"])
def test_steps_of_a_short_stack_raise_like_stack(read, missing):
    # both name the first missing step, the one a loop reading the steps in order stops at
    seq = MatrixSequence(np.zeros((4, 2, 2)), (2, 2), "A")
    with pytest.raises(ShapeError, match=rf"A defined for t < 4, got t={missing}$"):
        read(seq)
    assert len(seq.steps(0, start=7)) == 0


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
    ltv = SystemDynamics.ltv(A, B, n=n, m=m)
    Qs = np.array([random_pd(rng, n) for _ in range(T + 1)])
    ltv_costs = QuadraticStageCost.varying(Qs, cycling_weights(T + 1, m))
    d = rng.standard_normal((T + 1, m))
    affine = LinearPolicy.varying(0.2 * rng.standard_normal((T + 1, m, n)), d=d)
    x0 = rng.standard_normal((rows, n))
    base = rng.standard_normal((T, n))
    scales = rng.uniform(0.5, 2.0, rows)
    roll = _rollout(ltv, ltv_costs, x0, base, T, affine, scales=scales)
    assert_rows_match(roll, [
        per_row_rollout(ltv, ltv_costs, x0[i], scales[i] * base, T, affine.K, d) for i in range(rows)
    ])

    # open-loop inputs, the offsets of a zero gain
    inputs = rng.standard_normal((T + 1, m))
    roll = _rollout(ltv, ltv_costs, x0, base, T, open_loop(inputs, n))
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


def open_loop(inputs, n):
    """The zero-gain policy whose offsets are the open-loop inputs (T+1, m), as simulate_inputs builds it."""
    m = inputs.shape[1]
    return LinearPolicy.varying(np.zeros((m, n)), d=inputs)


def test_simulate_inputs_is_bit_identical_to_the_open_loop_reference():
    rng = np.random.default_rng(12)
    for T in (0, 1, 40):
        sys, costs, x0, _, _ = random_instance(rng, T_max=1)
        w = rng.standard_normal((T, sys.n))
        inputs = rng.standard_normal((T, sys.m))
        traj = simulate_inputs(sys, x0, w, inputs, costs)
        padded = np.vstack([inputs, np.zeros((1, sys.m))])
        states, inputs_ref, stage, _, _ = reference_rollout(sys, costs, x0[None], w, T, inputs=padded)
        for got, want in ((traj.states, states), (traj.inputs, inputs_ref), (traj.stage_costs, stage)):
            assert np.array_equal(got, want[:, 0]), T


def cycling_weights(count, m):
    """R_t = (1 + t mod 3) I_m for t < count."""
    return (1.0 + np.arange(count) % 3)[:, None, None] * np.eye(m)


def _ltv_case(rng, T, n=3, m=2, gain=0.2):
    A = 0.6 * rng.standard_normal((max(T, 1), n, n))
    B = rng.standard_normal((max(T, 1), n, m))
    ltv = SystemDynamics.ltv(A, B, n=n, m=m)
    Qs = np.array([random_pd(rng, n) for _ in range(T + 1)])
    costs = QuadraticStageCost.varying(Qs, cycling_weights(T + 1, m))
    K = gain * rng.standard_normal((T + 1, m, n))
    return ltv, costs, K


def _kernel_cases():
    """(name, args, kwargs, inputs) of _rollout calls covering each branch of its step and guard.

    inputs is None, or the open-loop inputs that args carry as a zero gain's
    offsets; reference_rollout then runs its own open-loop mode on them.
    """
    rng = np.random.default_rng(31)
    cases = []
    for T in (0, 1, 32, 101):
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
             (sys, costs, x0, w, T, LinearPolicy.varying(K, d=d)), {}),
            (f"lti 3-d w T={T}",
             (sys, costs, x0, rng.standard_normal((rows, T, n)), T, LinearPolicy.constant(K)), {}),
            (f"lti no input T={T}", (sys, costs, x0, w, T), {"scales": rng.uniform(0.5, 2, rows)}),
            (f"lti open loop T={T}", (sys, costs, x0, w, T, open_loop(d, n)), {}, d),
        ]
        ltv, ltv_costs, Ks = _ltv_case(rng, T)
        n, m = ltv.n, ltv.m
        x0 = rng.standard_normal((rows, n))
        w = rng.standard_normal((T, n))
        d = rng.standard_normal((T + 1, m))
        affine = LinearPolicy.varying(Ks, d=d)
        cases += [
            (f"ltv T={T}", (ltv, ltv_costs, x0, w, T, LinearPolicy.varying(Ks)), {}),
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
    offsets = LinearPolicy.varying([[0.0]], d=np.full((T + 1, 1), 0.5))
    x0 = np.array([[1.0], [1e20], [1e-20], [1e300], [0.0]])
    zeros = np.zeros((T, 1))
    cases += [
        ("overflow mid-chunk", (scalar, unit, x0, zeros, T, LinearPolicy.constant([[0.0]])), {}),
        ("overflow with offsets", (scalar, unit, x0[:4], zeros, T, offsets), {}),
        ("overflow, one row stable",
         (scalar, unit, x0, np.ones((T, 1)), T, LinearPolicy.constant([[2.5]])),
         {"scales": np.linspace(0.0, 1.0, 5)}),
        ("overflow open loop", (scalar, unit, x0, zeros, T, open_loop(np.full((T + 1, 1), 0.5), 1)),
         {}, np.full((T + 1, 1), 0.5)),
    ]
    # a 2-state loop whose rows all die before T: the loop stops at the last death
    sys = SystemDynamics.lti([[3.0, 1.0], [0.0, 2.5]], [[1.0], [0.5]])
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    policy = LinearPolicy.varying([[0.1, 0.2]], d=np.ones((T + 1, 1)))
    x0 = np.array([[1.0, 1.0], [1e30, 0.0], [0.0, 1e-30]])
    cases.append(("all rows dead", (sys, costs, x0, rng.standard_normal((T, 2)), T, policy), {}))

    # overflow exactly at the last step: x_t = 3^t x0 passes 1e150 first at t = T
    T = 10
    last = 1.5e150 / 3.0**T
    at_T = LinearPolicy.varying([[0.0]], d=np.full((T + 1, 1), 0.5))
    cases += [
        ("overflow at T, all rows dead",
         (scalar, unit, np.array([[last], [1.2 * last]]), np.zeros((T, 1)), T, at_T), {}),
        ("overflow at T, one row live",
         (scalar, unit, np.array([[last], [1.0]]), np.zeros((T, 1)), T, at_T), {}),
    ]
    # non-finite data: NaN in a shared w, inf in one row's w, a NaN initial state
    sys, costs, _, _, _ = random_instance(rng, T_max=1)
    n, m = sys.n, sys.m
    T, rows = 40, 3
    pol = LinearPolicy.varying(0.3 * rng.standard_normal((m, n)),
                               d=rng.standard_normal((T + 1, m)))
    w = rng.standard_normal((T, n))
    w[5, 0] = np.nan
    w3 = rng.standard_normal((rows, T, n))
    w3[1, 7, -1] = np.inf
    x0 = rng.standard_normal((rows, n))
    x0_nan = x0.copy()
    x0_nan[2, 0] = np.nan
    cases += [
        ("NaN in shared w", (sys, costs, x0, w, T, pol), {"scales": np.array([0.0, 1.0, 2.0])}),
        ("inf in 3-d w", (sys, costs, x0, w3, T, pol), {}),
        ("NaN x0", (sys, costs, x0_nan, w3[[0, 0, 2]], T, pol), {}),
    ]
    # a held state of 3e148 on 100 rows: the batch guard breaks, no row overflows
    hold = SystemDynamics.lti([[1.0]], [[0.0]])
    cases.append(("batch guard, no row dead",
                  (hold, unit, np.full((100, 1), 3e148), np.zeros((100, 1)), 100), {}))
    return [c if len(c) == 4 else (*c, None) for c in cases]


@pytest.mark.parametrize("name,args,kwargs,inputs", [pytest.param(*c, id=c[0])
                                                     for c in _kernel_cases()])
def test_rollout_kernel_is_bit_identical_to_the_per_step_guard(name, args, kwargs, inputs):
    roll = _rollout(*args, **kwargs)
    if inputs is None:
        ref = reference_rollout(*args, **kwargs)
    else:
        ref = reference_rollout(*args[:5], inputs=inputs, **kwargs)
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
    affine = LinearPolicy.varying(Ks, d=rng.standard_normal((61, m)))
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

    # a held state of 3e148: 100 rows over 100 steps break the batch guard, though no row overflows
    assert 100 * 100 * 9e296 > _BATCH_GUARD and 3e148 <= OVERFLOW_LIMIT
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


def test_write_csv_gives_the_bytes_of_csv_writer(tmp_path):
    rows = [(0, 1.5, np.inf, "ok"), (7, -0.0, np.nan, "overflow@7"), (12, np.float64(1 / 3), -np.inf, "ok")]
    write_csv(tmp_path / "a.csv", ["T", "x", "y", "flag"], "%d,%.17g,%.17g,%s", rows)
    with open(tmp_path / "b.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "x", "y", "flag"])
        writer.writerows([t, f"{x:.17g}", f"{y:.17g}", flag] for t, x, y, flag in rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


LAYOUTS = ("c", "transposed", "stack row", "reversed stack row", "reversed stack, transposed")
EXTREMES = (0.0, -0.0, 1e300, np.inf, -np.inf, np.nan)  # 1e300 overflows a product


def _operand(rng, shape, layout, entries=()):
    """A float operand of `shape` in one layout that the kernel loops pass to their products.

    A 2-d operand is C-contiguous, a transposed view (steps(transpose=True)
    of a constant), a row of a stack (steps()), a row of a reversed stack
    (the Riccati and data passes) or a transposed row of one; a 1-d operand
    is a vector, or a row of a reversed stack for any other layout.
    entries replace normals at random positions.
    """
    values = rng.standard_normal(int(np.prod(shape)))
    count = min(len(entries), values.size)
    values[rng.permutation(values.size)[:count]] = entries[:count]
    r, c = (shape[0], 1) if len(shape) == 1 else shape
    stack = np.stack([values.reshape(c, r) if layout.endswith("transposed") else values.reshape(r, c)] * 3)
    if len(shape) == 1:
        return values if layout == "c" else stack[::-1][1].ravel()
    return {
        "c": values.reshape(r, c),
        "transposed": values.reshape(c, r).T,
        "stack row": stack[1],
        "reversed stack row": stack[::-1][1],
        "reversed stack, transposed": stack[::-1].transpose(0, 2, 1)[1],
    }[layout]


def _kernel_products(n, m, rows):
    """(a, b) shapes of the 2-d products that the kernel loops make on n states and m inputs."""
    return [
        ((rows, n), (n, n)), ((rows, n), (n, m)), ((rows, m), (m, n)),  # rollout: x A', -x K', u B'
        ((n, n), (n,)), ((n, n), (n, n)),  # column recurrence of a vector and of a matrix
        ((m, n), (n, n)), ((m, n), (n, m)), ((n, n), (n, m)), ((n, m), (m, n)),  # Riccati steps
        ((n,), (n, n)),  # data pass
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_dot_gives_the_bits_of_matmul_on_every_kernel_layout(n):
    # the premise of _step_product: ndarray.dot, with and without out, reaches the BLAS call of
    # np.matmul on every 2-d operand layout the kernel loops pass, overflowing entries included
    rng = np.random.default_rng(n)
    dot = _step_product(n)
    assert dot is np.ndarray.dot
    for m in range(1, 6):
        for rows in (1, 3):
            for a_shape, b_shape in _kernel_products(n, m, rows):
                for a_layout in LAYOUTS:
                    for b_layout in LAYOUTS:
                        for extreme in (False, True):
                            a_entries = rng.permutation(EXTREMES) if extreme else ()
                            a = _operand(rng, a_shape, a_layout, a_entries)
                            # a one-element operand (a single row's u_t for m = 1) multiplies
                            # B_t', which the loop takes finite: dot's axpy skips a zero u_t
                            b_entries = EXTREMES[:3] if a.size == 1 else rng.permutation(EXTREMES)
                            b = _operand(rng, b_shape, b_layout, b_entries if extreme else ())
                            with np.errstate(all="ignore"):
                                want = np.matmul(a, b)
                                out = np.empty(want.shape)
                                got = (dot(a, b), dot(a, b, out=out), out)
                            for g in got:
                                assert g.shape == want.shape and g.tobytes() == want.tobytes(), (
                                    m, rows, a_shape, b_shape, a_layout, b_layout, a, b, want, g)


def test_one_state_loops_keep_matmul_where_dot_takes_its_scalar_route():
    # with a one-element operand dot multiplies without matmul's sum from +0.0, and its axpy
    # skips a zero factor, so an n = 1 loop would change the sign of zeros and lose 0 * inf
    assert _step_product(1) is np.matmul
    zero, minus = np.zeros((1, 1)), -np.ones((1, 1))
    assert np.signbit(zero.dot(minus)[0, 0]) and not np.signbit(np.matmul(zero, minus)[0, 0])
    col = np.array([[np.inf], [1.0]])
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.matmul(col, zero)[0, 0]) and col.dot(zero)[0, 0] == 0.0
    # so a one-state rollout from the origin keeps the +0.0 inputs that simulate writes as "0"
    system = SystemDynamics.lti([[0.5]], [[1.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    traj = simulate(system, LinearPolicy.constant([[1.0]]), [0.0], np.zeros((3, 1)), costs, 3)
    assert not np.signbit(traj.inputs).any()


def test_kernel_loops_call_matmul_as_often_at_any_horizon(monkeypatch):
    # every 2-d product inside a kernel loop goes through ndarray.dot: no np.matmul per step
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(None)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    rng = np.random.default_rng(7)
    n, m = 3, 2

    def counts(T):
        # stacks, so that no loop stops early at a fixed point
        A = rng.standard_normal((T + 1, n, n)) / n
        system = SystemDynamics.ltv(A, rng.standard_normal((T + 1, n, m)))
        costs = QuadraticStageCost.varying(
            np.array([random_pd(rng, n) for _ in range(T + 1)]),
            np.array([random_pd(rng, m) for _ in range(T + 1)]))
        policy = LinearPolicy.varying(rng.standard_normal((T + 1, m, n)))
        kernels = {
            "_rollout": lambda: _rollout(system, costs, rng.standard_normal((2, n)),
                                         rng.standard_normal((T, n)), T, policy),
            "_cost_to_arrive": lambda: _cost_to_arrive(system, costs, T),
            "_products": lambda: _products(system.A, T, np.eye(n)),
        }
        out = {}
        for name, run in kernels.items():
            calls.clear()
            run()
            out[name] = len(calls)
        return out

    assert counts(10) == counts(100)
