import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest

from regretlab import (
    BallDisturbance,
    ConditioningError,
    DisturbanceSignal,
    GrowthClass,
    LinearPolicy,
    NormSums,
    QuadraticStageCost,
    RegretCurve,
    ShapeError,
    SimulationOverflowError,
    SystemDynamics,
    TransitionAlignedDisturbance,
    closed_loop,
    constant_eigvec,
    growth_classify,
    phi_aligned,
    regret,
    regret_curve,
    hindsight_costs,
    random_ball,
    simulate,
    simulate_grid,
    solve_hindsight,
    linear_regret_certificate,
    quadratic_floor_check,
)

from helpers import overdriven_loop, random_instance, random_loop, random_pd, wavy_costs

from regretlab.cli import BUILTIN_EXPERIMENT, SchemaError, builtin_experiment_curves

hindsight_module = importlib.import_module("regretlab.hindsight")
model_module = importlib.import_module("regretlab.model")
adversary_module = importlib.import_module("regretlab.adversary")
regret_module = importlib.import_module("regretlab.regret")


def scalar_instance():
    sys = SystemDynamics.lti([[1.0]], [[1.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    return sys, costs


def four_system():
    sys = SystemDynamics.lti([[1.0, 1.0], [0.0, 1.0]], [[1.0], [0.5]])
    costs = QuadraticStageCost.constant(1.5 * np.eye(2), [[1.0]])
    return sys, costs


def synthetic_curve(values_fn, horizons=range(10, 101, 10)):
    hs = np.array(list(horizons))
    r = np.array([values_fn(T) for T in hs], dtype=float)
    return RegretCurve(hs, r, r / hs, ["ok"] * len(hs))


def test_regret_zero_for_zero_instance():
    sys, costs = scalar_instance()
    for K in ([[0.0]], [[0.8]], [[-2.0]]):
        r = regret(sys, costs, LinearPolicy.constant(K), [0.0], DisturbanceSignal.zeros(1, 5), 5)
        assert r == pytest.approx(0.0, abs=1e-12)


def test_regret_single_step_value():
    # policy K=0 pays 1 + 1 = 2; the benchmark pays 1.5, so the regret is 0.5
    sys, costs = scalar_instance()
    r = regret(sys, costs, LinearPolicy.constant([[0.0]]), [1.0], DisturbanceSignal.zeros(1, 1), 1)
    assert r == pytest.approx(0.5, abs=1e-12)


def test_regret_of_replayed_benchmark_is_zero():
    rng = np.random.default_rng(18)
    for _ in range(10):
        sys, costs, x0, w, T = random_instance(rng, T_max=30)
        sol = solve_hindsight(sys, costs, x0, w, T)
        r = regret(sys, costs, sol.feedback_policy(), x0, w, T)
        assert abs(r) <= 1e-8 * max(1.0, sol.optimal_cost)


def test_regret_nonnegative_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(30):
        sys, costs, x0, w, T = random_instance(rng, T_max=30)
        pol = LinearPolicy.constant(0.4 * rng.standard_normal((sys.m, sys.n)))
        bench = solve_hindsight(sys, costs, x0, w, T)
        r = regret(sys, costs, pol, x0, w, T)
        assert r >= -1e-9 * max(1.0, bench.optimal_cost)


def test_regret_equals_the_single_horizon_curve():
    rng = np.random.default_rng(23)
    for _ in range(10):
        sys, costs, x0, w, T = random_instance(rng, T_max=30)
        pol = LinearPolicy.constant(0.4 * rng.standard_normal((sys.m, sys.n)))
        r = regret(sys, costs, pol, x0, w, T)
        curve = regret_curve(sys, costs, pol, x0, w, [T])
        scale = max(1.0, abs(curve.benchmark_costs[0]) + abs(r))
        assert abs(r - curve.regret[0]) <= 1e-12 * scale


def test_regret_curve_flags_overflow_with_step():
    sys = SystemDynamics.lti([[3.0]], [[1.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    pol = LinearPolicy.constant([[0.0]])
    # a fixed signal and a recipe both run as one group
    for zeros in (DisturbanceSignal.zeros(1, 350), constant_eigvec([[3.0]], 0.0)):
        curve = regret_curve(sys, costs, pol, [1.0], zeros, [100, 200, 300, 350])
        assert curve.flags[:3] == ["ok", "ok", "ok"]
        assert curve.flags[3] == "overflow@315"
        assert math.isinf(curve.regret[3])
        assert np.isfinite(curve.benchmark_costs[3])


def test_regret_curve_metadata_and_monotone_horizons():
    sys, costs = scalar_instance()
    pol = LinearPolicy.constant([[0.5]])
    rec = constant_eigvec(np.array([[0.5]]), 1.0)
    curve = regret_curve(sys, costs, pol, [0.0], rec, [1, 2, 4], metadata={"policy": "p"})
    assert curve.metadata == {"policy": "p"}
    with pytest.raises(Exception):
        regret_curve(sys, costs, pol, [0.0], rec, [4, 2])


def test_result_types_keep_only_read_fields():
    # every field is read by an output, a caller or a test; derivable values are not stored
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert fields(adversary_module.ConstantEigvecDisturbance) == ["direction", "bound", "provenance"]
    assert fields(TransitionAlignedDisturbance) == ["F", "bound", "w0"]
    assert fields(BallDisturbance) == ["n", "bound", "seed"]
    assert fields(NormSums) == ["sums", "sup", "d_sum", "d_bar", "h_bar", "bibs_converged",
                                "d_sum_converged", "d_bar_converged", "h_bar_converged"]
    assert SchemaError._fields == ("path", "message", "type_mismatch")
    assert list(inspect.signature(LinearPolicy.constant).parameters) == ["K"]


def test_cost_scaling_equivariance():
    rng = np.random.default_rng(20)
    gamma = 2.75
    for _ in range(10):
        sys, costs, x0, w, T = random_instance(rng, T_max=25)
        scaled = QuadraticStageCost.varying(
            gamma * costs.Q.stack(T + 1), gamma * costs.R.stack(T + 1)
        )
        pol = LinearPolicy.constant(0.4 * rng.standard_normal((sys.m, sys.n)))
        r1 = regret(sys, costs, pol, x0, w, T)
        r2 = regret(sys, scaled, pol, x0, w, T)
        assert r2 == pytest.approx(gamma * r1, rel=1e-10, abs=1e-12)


def test_growth_classify_synthetic_curves():
    assert growth_classify(synthetic_curve(lambda T: 3.0 + 2.0 * T)) is GrowthClass.BOUNDED_AVERAGE
    assert growth_classify(synthetic_curve(lambda T: float(T) ** 2)) is GrowthClass.LINEAR_AVERAGE
    assert growth_classify(synthetic_curve(lambda T: float(T) ** 3)) is GrowthClass.SUPERLINEAR_AVERAGE
    assert growth_classify(synthetic_curve(lambda T: 0.0)) is GrowthClass.BOUNDED_AVERAGE


def test_growth_classify_reads_an_overflowed_upper_half_as_superlinear():
    # a curve that overflows before the middle of its grid is not a flat line
    inf_tail = synthetic_curve(lambda T: 5.0 * T if T < 40 else math.inf)
    assert growth_classify(inf_tail) is GrowthClass.SUPERLINEAR_AVERAGE
    one_inf = synthetic_curve(lambda T: math.inf if T == 100 else 5.0 * T)
    assert growth_classify(one_inf) is GrowthClass.SUPERLINEAR_AVERAGE


def test_growth_classify_input_validation():
    with pytest.raises(ValueError):
        growth_classify(synthetic_curve(lambda T: T, horizons=range(10, 50, 10)))
    with pytest.raises(ValueError):
        growth_classify(synthetic_curve(lambda T: T, horizons=range(10, 20)))


def test_growth_classify_invariant_under_cost_scaling():
    sys, costs = four_system()
    pol = LinearPolicy.constant([[0.0, 1.0]])
    rec = constant_eigvec(np.array([[1.0, 0.0], [0.0, 0.5]]), 1.0)
    base = regret_curve(sys, costs, pol, np.zeros(2), rec, range(10, 101, 10))
    gamma = 5.0
    scaled_costs = QuadraticStageCost.constant(gamma * 1.5 * np.eye(2), [[gamma]])
    scaled = regret_curve(sys, scaled_costs, pol, np.zeros(2), rec, range(10, 101, 10))
    assert growth_classify(base) is growth_classify(scaled)
    np.testing.assert_allclose(scaled.regret, gamma * base.regret, rtol=1e-10)


def test_certificate_scalar_geometric_constants():
    # loop A=1, B=1, K=0.5 closes to F=0.5: D_bar = H_bar = sum 0.25^t = 4/3
    sys, costs = scalar_instance()
    pol = LinearPolicy.constant([[0.5]])
    cert = linear_regret_certificate(sys, costs, pol, X=1.0, W=1.0, T_max=300, trials=5, seed=1)
    exact = (1.0 - 0.25**301) / 0.75
    assert cert.applicable
    assert cert.d_bar == pytest.approx(exact, rel=1e-12)
    assert cert.h_bar == pytest.approx(exact, rel=1e-12)
    assert cert.M == pytest.approx(1.25, rel=1e-12)
    assert cert.c0 == pytest.approx(2 * 1.25 * exact, rel=1e-12)
    assert cert.holds


def test_certificate_degenerate_zero_bounds():
    sys, costs = scalar_instance()
    pol = LinearPolicy.constant([[0.5]])
    cert = linear_regret_certificate(sys, costs, pol, X=0.0, W=0.0, T_max=100, trials=3, seed=2)
    assert cert.holds
    assert cert.c0 == 0.0 and cert.cw == 0.0


def test_certificate_not_applicable_for_unstable_loop():
    sys, costs = four_system()
    pol = LinearPolicy.constant([[-0.02, 0.5]])  # rho(F) ~ 1.037
    cert = linear_regret_certificate(sys, costs, pol, X=1.0, W=1.0, T_max=200, trials=2)
    assert not cert.applicable
    assert not cert.holds
    assert "convergence" in cert.reason


def test_inapplicable_certificate_reports_the_recorded_values():
    # recorded from the certificate's former early return; to_dict writes NaN as "nan"
    sys, costs = four_system()
    pol = LinearPolicy.constant([[-0.02, 0.5]])
    cert = linear_regret_certificate(sys, costs, pol, X=1.0, W=1.0, T_max=200, trials=2)
    assert cert.to_dict() == {
        "applicable": False, "holds": False,
        "reason": "transition-norm sums show no convergence at the test horizon",
        "M": "nan", "d_bar": "inf", "h_bar": "inf", "c0": "inf", "cw": "inf",
        "max_relative_violation": "nan", "X": 1.0, "W": 1.0, "T_max": 200, "trials": 2,
    }


def test_inapplicable_certificate_runs_no_sampled_check(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the sampled check ran")

    monkeypatch.setattr(regret_module, "_rollout", fail)
    sys, costs = four_system()
    pol = LinearPolicy.constant([[-0.02, 0.5]])
    assert not linear_regret_certificate(sys, costs, pol, X=1.0, W=1.0, T_max=200).applicable


def test_lower_bound_integrator_values():
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    chk = quadratic_floor_check(np.array([[1.0]]), costs, 1.0, 10)
    assert chk.applicable
    assert chk.bound == pytest.approx(55.0)
    # x_t = t, so the cost is sum_{t<=10} t^2 = 385
    assert chk.cost == pytest.approx(385.0, rel=1e-12)
    assert chk.satisfied


def test_lower_bound_expanding_scalar():
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    for lam in (1.05, 1.1):
        chk = quadratic_floor_check(np.array([[lam]]), costs, 1.0, 50)
        assert chk.applicable and chk.satisfied
        brute = sum(sum(lam**k for k in range(t)) ** 2 for t in range(51))
        assert chk.cost == pytest.approx(brute, rel=1e-9)


def test_lower_bound_zero_disturbance_trivial():
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    chk = quadratic_floor_check(np.array([[1.2]]), costs, 0.0, 10)
    assert chk.applicable and chk.bound == 0.0 and chk.satisfied


def test_lower_bound_overflowing_rollout_exceeds_the_floor():
    # the e1 mode grows as 3^t and passes the overflow guard at t = 315
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    chk = quadratic_floor_check(np.diag([3.0, 0.5]), costs, 1.0, 700)
    assert chk.applicable and chk.eigenvalue == 3.0
    assert chk.cost == math.inf
    assert chk.satisfied


def test_lower_bound_not_applicable_cases():
    costs2 = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    stable = quadratic_floor_check(0.5 * np.eye(2), costs2, 1.0, 10)
    assert not stable.applicable
    theta = 1.0
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    spinning = quadratic_floor_check(rot, costs2, 1.0, 10)
    assert not spinning.applicable


def test_lower_bound_needs_a_real_eigenvalue_of_at_least_one():
    # a negative eigenvalue flips the state's sign each step, so the aligned
    # disturbance does not accumulate and the floor makes no claim
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    for lam, T in ((-1.0, 50), (-1.5, 2)):
        chk = quadratic_floor_check(np.array([[lam]]), costs, 1.0, T)
        assert not chk.applicable and chk.direction is None
    costs2 = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    chk = quadratic_floor_check(np.diag([-1.3, 1.2]), costs2, 1.0, 50)
    assert chk.applicable and chk.eigenvalue == 1.2 and chk.satisfied
    np.testing.assert_array_equal(chk.direction, [0.0, 1.0])

def test_marginal_loop_average_regret_slope_is_quadratic():
    # Brute-force oracle for the marginal gain K2 = [0, 1] under its aligned
    # constant disturbance e1: the loop integrates the disturbance (x1 = t),
    # the policy input stays zero, and the benchmark settles near (0, -1) at
    # cost ~1.5/step, so R_T ~ 0.5 T^3 and log R_T/T vs log T has slope ~2.
    # Measured slope over T in [20, 100]: 1.9706.
    sys_, costs = four_system()
    K2 = np.array([[0.0, 1.0]])
    horizons = np.arange(20, 101, 10)
    reg = []
    for T in horizons:
        x = np.zeros(2)
        J_pol = 0.0
        w_rows = np.tile([1.0, 0.0], (T, 1))
        for t in range(T + 1):
            u = -K2 @ x
            J_pol += 1.5 * x @ x + float(u @ u)
            if t < T:
                x = np.array([[1.0, 1.0], [0.0, 1.0]]) @ x + np.array([[1.0], [0.5]]) @ u + w_rows[t]
        from regretlab import batch_oracle

        _, J_star = batch_oracle(sys_, costs, np.zeros(2), w_rows, int(T))
        reg.append(J_pol - J_star)
    slope = np.polyfit(np.log(horizons), np.log(np.array(reg) / horizons), 1)[0]
    assert slope == pytest.approx(1.97, abs=0.1)

    # the library path reproduces the same curve
    rec = constant_eigvec(np.array([[1.0, 0.0], [0.0, 0.5]]), 1.0)
    curve = regret_curve(sys_, costs, LinearPolicy.constant(K2), np.zeros(2), rec, horizons)
    np.testing.assert_allclose(curve.regret, reg, rtol=1e-8)


def test_unstable_loop_average_cost_diverges_under_aligned_signal():
    # one realized transition-aligned signal, scored at two horizons of the
    # same rollout: the time-averaged cost blows up on the longer prefix
    sys, costs = four_system()
    pol = LinearPolicy.constant([[-0.02, 0.5]])
    w = phi_aligned(closed_loop(sys, pol), 1.0, 60)
    traj = simulate(sys, pol, np.zeros(2), w, costs, 60)
    cum = traj.cumulative_costs()
    assert cum[60] / 60.0 > 10.0 * (cum[20] / 20.0)


# ---------------------------------------------------------------- batched curves


def _grid_recipes(rng, system, pol, F):
    n = system.n
    W = float(rng.uniform(0.5, 2.0))
    return (
        constant_eigvec(F, W),
        TransitionAlignedDisturbance(closed_loop(system, pol), W, rng.standard_normal(n)),
        BallDisturbance(n, W, int(rng.integers(0, 2**31))),
    )


def _per_horizon_reference(system, costs, pol, x0, recipe, horizons):
    """R_T, benchmark cost and flag from a fresh realization, solve and rollout per horizon."""
    reg, bench, flags = [], [], []
    for T in horizons:
        w = recipe.realize(T)
        J_star = solve_hindsight(system, costs, x0, w, T).optimal_cost
        bench.append(J_star)
        try:
            J = simulate(system, pol, x0, w, costs, T).total_cost
            reg.append(J - J_star)
            flags.append("ok")
        except SimulationOverflowError as exc:
            reg.append(math.inf)
            flags.append(f"overflow@{exc.t}")
    return np.array(reg), np.array(bench), flags


def test_batched_curve_matches_per_horizon_solves():
    # stable, marginal and unstable loops, and loops whose gain drives the
    # closed loop to radius ~60 (they overflow near T = 85), under all three
    # recipes on an irregular sparse grid; the first 12 loops also run the
    # dense grid under one recipe each, which covers every (loop class, recipe)
    # pair while keeping the per-horizon reference affordable
    rng = np.random.default_rng(21)
    overflowed = 0
    for i in range(30):
        n, m = 1 + i % 4, 1 + (i // 4) % 2
        if i % 4 == 3:
            system, pol, F = overdriven_loop(rng, n, m, 60.0)
        else:
            system, pol, F = random_loop(rng, n, m, (0.6, 1.0, 1.05)[i % 4])
        costs = QuadraticStageCost.constant(random_pd(rng, n), random_pd(rng, m))
        x0 = rng.standard_normal(n)
        for r, recipe in enumerate(_grid_recipes(rng, system, pol, F)):
            grids = [[3, 7, 40, 41, 90]]
            if i < 12 and r == i % 3:
                grids.append(list(range(1, 61)))
            for horizons in grids:
                curve = regret_curve(system, costs, pol, x0, recipe, horizons)
                reg, bench, flags = _per_horizon_reference(system, costs, pol, x0, recipe, horizons)
                assert curve.flags == flags
                ok = np.isfinite(reg)
                np.testing.assert_array_equal(np.isfinite(curve.regret), ok)
                scale = np.maximum(1.0, np.where(ok, reg, 0.0) + np.abs(bench))
                assert np.all(np.abs(curve.benchmark_costs - bench) <= 1e-9 * scale)
                assert np.all(np.abs(curve.regret[ok] - reg[ok]) <= 1e-9 * scale[ok])
                overflowed += len(flags) - int(ok.sum())
    assert overflowed > 0


def _count_solves(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[4] if len(args) > 4 else kwargs.get("T"))
        return solve_hindsight(*args, **kwargs)

    monkeypatch.setattr(hindsight_module, "solve_hindsight", counting)
    return calls


def test_batched_curve_solves_once_at_the_longest_horizon(monkeypatch):
    sys, costs = four_system()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    calls = _count_solves(monkeypatch)
    regret_curve(sys, costs, pol, np.zeros(2), BallDisturbance(2, 1.0, 3), range(5, 81, 5))
    assert calls == [80]


def _count_optimal_rollouts(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[5] if len(args) > 5 else kwargs.get("T"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(hindsight_module, "simulate", counting)
    return calls


def test_optimal_rollout_runs_on_first_read_only(monkeypatch):
    sys, costs = four_system()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    x0, w = np.ones(2), random_ball(2, 1.0, 80, seed=5).w
    calls = _count_optimal_rollouts(monkeypatch)
    regret_curve(sys, costs, pol, x0, BallDisturbance(2, 1.0, 3), range(5, 81, 5))
    regret(sys, costs, pol, x0, w, 80)
    sol = solve_hindsight(sys, costs, x0, w, 80)
    assert calls == []
    traj = sol.trajectory
    assert calls == [80]
    assert sol.trajectory is traj and sol.inputs.shape == (80, 1)
    assert calls == [80]
    replay = simulate(sys, sol.feedback_policy(), x0, w, costs, 80)
    assert np.array_equal(traj.states, replay.states)
    assert np.array_equal(sol.inputs, replay.inputs[:80])


def test_curve_raises_when_the_optimal_trajectory_overflows():
    # B = 0: the benchmark cannot act, so its trajectory grows as 3^t and
    # breaks the overflow guard at t = 315, inside the longest horizon only
    sys = SystemDynamics.lti([[3.0]], [[0.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    pol = LinearPolicy.constant([[0.0]])
    zeros = DisturbanceSignal.zeros(1, 320)
    for call in (
        lambda: regret_curve(sys, costs, pol, [1.0], zeros, [100, 200, 320]),
        lambda: regret(sys, costs, pol, [1.0], np.zeros((320, 1)), 320),
    ):
        with pytest.raises(SimulationOverflowError) as err:
            call()
        assert err.value.t == 315


def test_optimal_cost_rules_out_an_overflow_only_below_half_the_guard():
    unit = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    assert not hindsight_module._may_overflow(1e299, unit, 10)
    for cost in (0.5e300, np.inf, np.nan):
        assert hindsight_module._may_overflow(cost, unit, 10)
    # a singular Q_t anywhere in 0..T rules out nothing
    singular = QuadraticStageCost.varying([np.diag([1.0, float(t != 7)]) for t in range(11)],
                                          [[1.0]])
    assert not hindsight_module._may_overflow(1.0, singular, 6)
    assert hindsight_module._may_overflow(1.0, singular, 7)


def test_ltv_curve_solves_once_at_the_longest_horizon(monkeypatch):
    rng = np.random.default_rng(22)
    A = 0.9 * np.linalg.qr(rng.standard_normal((41, 2, 2)))[0]
    sys = SystemDynamics.ltv(A, [[1.0], [0.5]], n=2, m=1)
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    pol = LinearPolicy.constant([[0.1, 0.2]])
    calls = _count_solves(monkeypatch)
    draws = []

    def counting_ball(*args, **kwargs):
        draws.append(args[2])
        return random_ball(*args, **kwargs)

    monkeypatch.setattr(adversary_module, "random_ball", counting_ball)
    horizons = [5, 10, 20, 40]
    curve = regret_curve(sys, costs, pol, np.ones(2), BallDisturbance(2, 1.0, 4), horizons)
    assert calls == [40]
    assert draws == [40]
    assert curve.flags == ["ok"] * 4


def _assert_matches_per_horizon_solves(sys, costs, x0, w, scales, horizons):
    got = hindsight_costs(sys, costs, x0, w, scales, horizons)
    ref = np.array([
        solve_hindsight(sys, costs, x0, c * w[:T], T).optimal_cost
        for c, T in zip(scales, horizons)
    ])
    assert got[-1] == ref[-1]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))


def test_hindsight_costs_on_an_ltv_loop():
    # the forward pass gives every horizon of a grid on a time-varying loop,
    # with time-varying weights too; the longest horizon is solve_hindsight's
    rng = np.random.default_rng(24)
    A = 0.9 * np.linalg.qr(rng.standard_normal((30, 2, 2)))[0] + np.diag([0.3, 0.0])
    sys = SystemDynamics.ltv(A, [[1.0], [0.5]], n=2, m=1)
    costs = QuadraticStageCost.constant(np.eye(2), [[1.0]])
    w = random_ball(2, 1.0, 30, 5).w
    _assert_matches_per_horizon_solves(sys, costs, np.ones(2), w, [1.0, 1.0], [10, 30])
    _assert_matches_per_horizon_solves(sys, costs, np.ones(2), w, [1.0], [30])

    T = 120
    A = 1.05 * np.linalg.qr(rng.standard_normal((T, 3, 3)))[0]
    B = rng.standard_normal((T, 3, 2))
    sys = SystemDynamics.ltv(A, B)
    costs = wavy_costs(T + 1, 3, 2)
    w = random_ball(3, 1.0, T, 6).w
    horizons = np.arange(1, T + 1)
    scales = np.linspace(0.5, 2.0, T)
    _assert_matches_per_horizon_solves(sys, costs, rng.standard_normal(3), w, scales, horizons)


def test_hindsight_costs_past_the_filter_fixed_point():
    # a constant loop whose filter recursion settles long before the last horizon
    sys, costs = four_system()
    w = random_ball(2, 1.0, 300, 7).w
    horizons = np.arange(1, 301)
    _assert_matches_per_horizon_solves(sys, costs, np.ones(2), w, np.linspace(0.5, 2.0, 300), horizons)


def test_hindsight_costs_from_a_zero_horizon():
    # J*_0 = x0'Q_0 x0: no input acts before the horizon ends
    sys, costs = four_system()
    x0, w = np.array([0.7, -1.2]), random_ball(2, 1.0, 8, 3).w
    _assert_matches_per_horizon_solves(sys, costs, x0, w, [1.0, 1.0, 1.0], [0, 3, 8])
    _assert_matches_per_horizon_solves(sys, costs, x0, w, [1.0, 1.0], [0, 8])
    got = hindsight_costs(sys, costs, x0, w, [1.0, 1.0], [0, 8])
    assert got[0] == pytest.approx(x0 @ costs.Q(0) @ x0, rel=1e-15)

    varying = wavy_costs(9, 2, 1)
    _assert_matches_per_horizon_solves(sys, varying, x0, w, [2.0, 1.0], [0, 8])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("horizons", [[], [0], [0, 5], [-1, 5], [5, 5], [5, 3], [1.5, 2.9],
                                      [1.0, np.nan], [1.0, np.inf]], ids=str)
def test_regret_curve_rejects_bad_grids(horizons):
    sys, costs = four_system()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    with pytest.raises(ShapeError, match="horizons"):
        regret_curve(sys, costs, pol, np.zeros(2), np.zeros((10, 2)), horizons)


@pytest.mark.parametrize("horizons, scales", [
    ([], []), ([-1, 5], [1.0, 1.0]), ([5, 5], [1.0, 1.0]), ([3, 5], [1.0]), ([3, 5], [1.0, 1.0, 1.0]),
    ([3, 5], [[1.0, 1.0]]), ([1.5, 2.9], [1.0, 1.0]), ([1.0, np.nan], [1.0, 1.0]),
], ids=["empty", "negative", "repeated", "short scales", "long scales", "2-d scales", "fractional",
        "nan"])
def test_grid_functions_reject_bad_grids(horizons, scales):
    sys, costs = four_system()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    w = np.zeros((10, 2))
    with pytest.raises(ShapeError):
        hindsight_costs(sys, costs, np.zeros(2), w, scales, horizons)
    with pytest.raises(ShapeError):
        simulate_grid(sys, pol, np.zeros(2), w, scales, horizons, costs)


def test_integral_float_horizons_are_horizons():
    sys, costs = four_system()
    pol = LinearPolicy.constant([[0.2, 0.4]])
    x0, w = np.array([0.3, -0.2]), random_ball(2, 1.0, 10, 4).w
    got = regret_curve(sys, costs, pol, x0, w, [3.0, 5.0])
    want = regret_curve(sys, costs, pol, x0, w, [3, 5])
    assert got.horizons.tolist() == [3, 5]
    assert np.array_equal(got.regret, want.regret)


def test_hindsight_costs_reads_a_disturbance_signal_base():
    sys = SystemDynamics.lti([[0.9]], [[1.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    w = np.ones((5, 1))
    got = hindsight_costs(sys, costs, [0.5], DisturbanceSignal(w, 1.0), [1.0, 1.0], [3, 5])
    assert np.array_equal(got, hindsight_costs(sys, costs, [0.5], w, [1.0, 1.0], [3, 5]))


def test_regret_at_a_zero_horizon_is_the_first_input_cost():
    sys, costs = four_system()
    K, x0 = np.array([[0.2, 0.4]]), np.array([0.7, -1.2])
    u0 = K @ x0
    got = regret(sys, costs, LinearPolicy.constant(K), x0, np.zeros((0, 2)), 0)
    assert got == pytest.approx(float(u0 @ costs.R(0) @ u0), rel=1e-12)


def test_grid_rolls_out_one_row_per_distinct_scale(monkeypatch):
    rows = []
    rollout = model_module._rollout

    def recording(system, costs, x0, *args, **kwargs):
        rows.append(len(x0))
        return rollout(system, costs, x0, *args, **kwargs)

    monkeypatch.setattr(model_module, "_rollout", recording)
    # figure1: one scale per curve, so its filter and policy rollouts hold two rows each
    builtin_experiment_curves()
    assert rows == [2, 2] * 3

    rows.clear()
    sys, costs = four_system()
    regret(sys, costs, LinearPolicy.constant([[0.2, 0.4]]), np.ones(2), np.ones((30, 2)), 30)
    assert rows == [1]

    # the unstable gain's phi scales differ at every horizon: H - 1 filter rows, H policy rows
    rows.clear()
    unstable = LinearPolicy.constant(dict(BUILTIN_EXPERIMENT["controllers"])["K3"])
    recipe = TransitionAlignedDisturbance(closed_loop(sys, unstable)(0), 1.0)
    horizons = np.arange(1, 101)
    assert len(np.unique(recipe.realize_grid(horizons)[1])) == len(horizons)
    regret_curve(sys, costs, unstable, np.zeros(2), recipe, horizons)
    assert rows == [99, 100]


def test_forward_costs_match_backward_solves_on_random_loops():
    # open loops from contracting to radius 3, a rank-one B on every fourth
    # instance, every horizon 1..T against its own backward solve
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(100):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        T = int(rng.integers(2, 60))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.2, 3.0) / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-9)
        B = rng.standard_normal((n, m))
        if i % 4 == 0:
            B = np.outer(rng.standard_normal(n), rng.standard_normal(m))
        sys = SystemDynamics.lti(A, B)
        costs = QuadraticStageCost.constant(random_pd(rng, n), random_pd(rng, m))
        x0, w = rng.standard_normal(n), rng.standard_normal((T, n))
        horizons = np.arange(1, T + 1)
        got = hindsight_costs(sys, costs, x0, w, np.ones(T), horizons)
        ref = np.array([solve_hindsight(sys, costs, x0, w, k).optimal_cost for k in horizons])
        assert got[-1] == ref[-1]
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))))
    assert worst <= 1e-9


def test_batched_curve_rejects_singular_input_hessian():
    sys = SystemDynamics.lti([[0.5]], [[0.0]])
    costs = QuadraticStageCost.constant([[1.0]], [[0.0]])
    rec = constant_eigvec(np.array([[0.5]]), 1.0)
    with pytest.raises(ConditioningError):
        regret_curve(sys, costs, LinearPolicy.constant([[0.0]]), [1.0], rec, [1, 2, 3])
