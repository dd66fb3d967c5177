"""Acceptance suite: one test per release criterion.

Each test evaluates its criterion at the stated tolerance, prints a single
PASS/FAIL line (run with `pytest -s` to see them live), and then asserts.
Budgets are wall-clock seconds measured around the computation.
"""

import time

import numpy as np

from regretlab import (
    GrowthClass,
    LinearPolicy,
    QuadraticStageCost,
    Stability,
    SystemDynamics,
    batch_oracle,
    build_model,
    classify_lti,
    closed_loop,
    constant_eigvec,
    discounted_cost_closed_form,
    discounted_cost_simulated,
    linear_regret_despite_instability,
    phi_aligned,
    random_ball,
    regret,
    regret_curve,
    growth_classify,
    simulate,
    simulate_inputs,
    solve_hindsight,
    linear_regret_certificate,
    quadratic_floor_check,
    tracking_transform,
    transition_matrix,
)
from regretlab.cli import builtin_experiment_curves

from helpers import random_instance, random_loop, random_pd


def announce(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def trailing_smooth(y, width=5):
    return np.array([np.mean(y[max(0, i - width + 1) : i + 1]) for i in range(len(y))])


def test_acceptance_1_builtin_experiment_reproduction():
    t0 = time.perf_counter()
    curves = builtin_experiment_curves()
    elapsed = time.perf_counter() - t0

    y1 = curves["K1"].time_averaged
    h = curves["K1"].horizons
    arg = int(np.argmax(y1))
    a_ok = bool(h[arg] < 100) and bool(y1[-1] >= 0.95 * y1[arg])

    b_ok = True
    for name in ("K2", "K3"):
        sm = trailing_smooth(curves[name].time_averaged)
        window = (h >= 20) & (h <= 100)
        b_ok = b_ok and bool(np.all(np.diff(sm[window]) > 0.0))

    finals = {k: c.time_averaged[-1] for k, c in curves.items()}
    c_ok = bool(finals["K1"] < finals["K2"] < finals["K3"])
    time_ok = elapsed < 10.0

    ok = a_ok and b_ok and c_ok and time_ok
    announce(
        1,
        "three-controller curve reproduction",
        ok,
        f"K1 max@T={h[arg]} final/max={y1[-1] / y1[arg]:.3f}, "
        f"increasing={b_ok}, ordering={c_ok}, {elapsed:.2f}s",
    )
    assert a_ok, f"bounded-curve check failed: max at T={h[arg]}, final/max={y1[-1] / y1[arg]:.3f}"
    assert b_ok, "smoothed marginal/unstable curves are not strictly increasing on [20, 100]"
    assert c_ok, f"ordering at T=100 violated: {finals}"
    assert time_ok, f"runtime {elapsed:.2f}s exceeds 10s"


def test_acceptance_2_growth_stability_equivalence():
    t0 = time.perf_counter()
    horizons = range(20, 201, 20)
    cases = []

    system = SystemDynamics.lti([[1.0, 1.0], [0.0, 1.0]], [[1.0], [0.5]])
    costs = QuadraticStageCost.constant(1.5 * np.eye(2), [[1.0]])
    # rho(F) ~ 1500 for the last gain: its curve overflows inside the grid
    for K in ([[0.2, 0.4]], [[0.0, 1.0]], [[-0.02, 0.5]], [[-1000.0, -1000.0]]):
        pol = LinearPolicy.constant(K)
        F = np.asarray(closed_loop(system, pol)(0))
        cases.append((system, costs, pol, F))

    rng = np.random.default_rng(20260810)
    for i in range(20):
        target = rng.uniform(0.25, 0.9) if i % 2 == 0 else rng.uniform(1.05, 1.5)
        sys_i, pol_i, F_i = random_loop(rng, 2, 1, target)
        costs_i = QuadraticStageCost.constant(np.eye(2), np.eye(1))
        cases.append((sys_i, costs_i, pol_i, F_i))

    mismatches = []
    for idx, (sys_i, costs_i, pol_i, F_i) in enumerate(cases):
        rep = classify_lti(F_i)
        assert rep.classification is not Stability.INCONCLUSIVE
        recipe = constant_eigvec(F_i, 1.0)
        curve = regret_curve(sys_i, costs_i, pol_i, np.zeros(sys_i.n), recipe, horizons)
        g = growth_classify(curve)
        stable = rep.classification is Stability.ASYMPTOTICALLY_STABLE
        bounded = g is GrowthClass.BOUNDED_AVERAGE
        if stable != bounded:
            mismatches.append((idx, rep.classification.value, g.value))
    elapsed = time.perf_counter() - t0

    ok = not mismatches and elapsed < 60.0
    announce(2, "bounded-average equals stable", ok,
             f"{len(cases)} loops, mismatches={mismatches}, {elapsed:.2f}s")
    assert not mismatches, f"equivalence mismatches: {mismatches}"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_acceptance_3_linear_regret_certificate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = []
    worst = -np.inf
    for i in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        sys_i, pol_i, _ = random_loop(rng, n, m, rng.uniform(0.2, 0.9))
        costs_i = QuadraticStageCost.constant(random_pd(rng, n), random_pd(rng, m))
        cert = linear_regret_certificate(
            sys_i, costs_i, pol_i, X=1.0, W=1.0, T_max=300, trials=10,
            seed=int(rng.integers(0, 2**31)),
        )
        worst = max(worst, cert.max_relative_violation)
        if not (cert.applicable and cert.holds):
            violations.append((i, cert.reason, cert.max_relative_violation))
    elapsed = time.perf_counter() - t0

    ok = not violations
    announce(3, "cost bound certificate on stable loops", ok,
             f"50 loops x 10 draws, worst rel violation={worst:.3e}, {elapsed:.2f}s")
    assert not violations, f"certificate failures: {violations}"


def test_acceptance_4_quadratic_lower_bound():
    t0 = time.perf_counter()
    costs = QuadraticStageCost.constant([[1.0]], [[1.0]])
    failures = []
    for lam in (1.0, 1.05, 1.1):
        for T in range(1, 101):
            chk = quadratic_floor_check(np.array([[lam]]), costs, 1.0, T)
            if not (chk.applicable and chk.satisfied):
                failures.append((lam, T, chk.cost, chk.bound))
    elapsed = time.perf_counter() - t0

    ok = not failures
    announce(4, "quadratic growth floor for non-contracting loops", ok,
             f"3 gains x 100 horizons, {elapsed:.2f}s")
    assert not failures, f"lower-bound failures: {failures[:5]}"


def test_acceptance_5_benchmark_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cost_mismatches = []
    stationarity_failures = []
    for i in range(100):
        sys_i, costs_i, x0, w, T = random_instance(rng, n_max=4, m_max=2, T_max=50)
        sol = solve_hindsight(sys_i, costs_i, x0, w, T)
        _, J_batch = batch_oracle(sys_i, costs_i, x0, w, T)
        if abs(sol.optimal_cost - J_batch) > 1e-8 * max(1.0, abs(sol.optimal_cost)):
            cost_mismatches.append((i, sol.optimal_cost, J_batch))
        for _ in range(3):
            delta = rng.standard_normal(sol.inputs.shape)
            delta *= 1e-4 / max(np.linalg.norm(delta), 1e-300)
            J_pert = simulate_inputs(sys_i, x0, w, sol.inputs + delta, costs_i).total_cost
            if J_pert < sol.optimal_cost - 1e-10:
                stationarity_failures.append((i, J_pert - sol.optimal_cost))
    elapsed = time.perf_counter() - t0

    ok = not cost_mismatches and not stationarity_failures
    announce(5, "benchmark two-route equivalence", ok,
             f"100 instances, {elapsed:.2f}s")
    assert not cost_mismatches, f"route disagreement: {cost_mismatches[:3]}"
    assert not stationarity_failures, f"stationarity violated: {stationarity_failures[:3]}"


def test_acceptance_6_discounted_counterexample_pipeline():
    t0 = time.perf_counter()
    model = build_model([[2.0]], [[1.0]], [[1.0]], [[1.0]], 0.1)
    residual_ok = model.residual <= 1e-10
    gamma_ok = model.in_gamma and model.spectral_radius > 1.0 and model.discounted_norm < 1.0

    rng = np.random.default_rng(33)
    worst_eq = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 101))
        x0 = rng.uniform(-1.0, 1.0, size=1)
        w = random_ball(1, 1.0, T, seed=int(rng.integers(0, 2**31)))
        cf = discounted_cost_closed_form(model, x0, w, T)
        sim = discounted_cost_simulated(model, x0, w, T)
        worst_eq = max(worst_eq, abs(cf - sim) / max(1.0, abs(sim)))
    equality_ok = worst_eq <= 1e-8

    report = linear_regret_despite_instability(
        model, W=1.0, X=1.0, T_grid=range(1, 501), seed=0
    )
    bound_ok = report.applicable and report.bound_holds and report.unstable_confirmed

    # undiscounted average cost of the very same loop must blow up
    costs = QuadraticStageCost.constant(model.Q, model.R)
    w_const = constant_eigvec(model.F, 1.0).realize(200)
    traj = simulate(model.system(), model.policy(), [1.0], w_const, costs, 200)
    cum = traj.cumulative_costs()
    divergence_ok = (cum[200] / 200.0) > 100.0 * (cum[20] / 20.0)
    elapsed = time.perf_counter() - t0

    ok = residual_ok and gamma_ok and equality_ok and bound_ok and divergence_ok
    announce(6, "discounted gain: linear cost bound despite instability", ok,
             f"residual={model.residual:.2e}, closed-form gap={worst_eq:.2e}, "
             f"bound gap={report.max_relative_gap:.2e}, "
             f"undiscounted ratio={(cum[200] / 200.0) / (cum[20] / 20.0):.2e}, {elapsed:.2f}s")
    assert residual_ok
    assert gamma_ok
    assert equality_ok, f"closed form vs simulation gap {worst_eq:.3e}"
    assert bound_ok, f"cost bound violated, gap {report.max_relative_gap:.3e}"
    assert divergence_ok


def test_acceptance_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)

    # transition products compose: Phi(t, k) = Phi(t, j) Phi(j, k), 1e-10
    for _ in range(200):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(2, 31))
        Fs = np.array([rng.standard_normal((n, n)) for _ in range(t)])
        j = int(rng.integers(0, t + 1))
        k = int(rng.integers(0, j + 1))
        whole = transition_matrix(Fs, t, k)
        split = transition_matrix(Fs, t, j) @ transition_matrix(Fs, j, k)
        assert np.linalg.norm(whole - split) <= 1e-10 * max(1.0, np.linalg.norm(whole))

    # regret is never materially negative: floor at -1e-9 relative
    for _ in range(200):
        sys_i, costs_i, x0, w, T = random_instance(rng, T_max=30)
        pol = LinearPolicy.constant(0.4 * rng.standard_normal((sys_i.m, sys_i.n)))
        bench = solve_hindsight(sys_i, costs_i, x0, w, T)
        r = regret(sys_i, costs_i, pol, x0, w, T)
        assert r >= -1e-9 * max(1.0, bench.optimal_cost)

    # scaling every weight by gamma scales regret by exactly gamma, 1e-10
    for _ in range(200):
        sys_i, costs_i, x0, w, T = random_instance(rng, T_max=25)
        gamma = float(rng.uniform(0.1, 10.0))
        scaled = QuadraticStageCost.varying(
            gamma * costs_i.Q.stack(T + 1), gamma * costs_i.R.stack(T + 1)
        )
        pol = LinearPolicy.constant(0.4 * rng.standard_normal((sys_i.m, sys_i.n)))
        r1 = regret(sys_i, costs_i, pol, x0, w, T)
        r2 = regret(sys_i, scaled, pol, x0, w, T)
        assert abs(r2 - gamma * r1) <= 1e-10 * max(1.0, abs(gamma * r1))

    # aligned signal forces x_t = t C Phi(t,0) w0 (= t w_{t-1}), 1e-8
    for _ in range(200):
        n = int(rng.integers(1, 5))
        T = int(rng.integers(2, 31))
        Fs = np.array([rng.standard_normal((n, n)) * 0.8 for _ in range(T)])
        sig = phi_aligned(Fs, 1.0, T, w0=rng.standard_normal(n))
        x = np.zeros(n)
        for t in range(1, T + 1):
            x = Fs[t - 1] @ x + sig.w[t - 1]
            expected = t * sig.w[t - 1]
            assert np.linalg.norm(x - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))

    # reference folding: error-loop rollout equals original minus reference, 1e-12
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(1, 21))
        A = rng.standard_normal((n, n)) * 0.6
        B = rng.standard_normal((n, m))
        K = 0.4 * rng.standard_normal((m, n))
        sys_i = SystemDynamics.lti(A, B)
        costs_i = QuadraticStageCost.constant(np.eye(n), np.eye(m))
        r_ref = rng.standard_normal((T + 1, n))
        w = random_ball(n, 1.0, T, seed=int(rng.integers(0, 2**31)))
        nu = tracking_transform(sys_i, r_ref, w)
        x0 = rng.standard_normal(n)
        err = simulate(sys_i, LinearPolicy.constant(K), x0 - r_ref[0], nu, costs_i, T)
        x = x0.copy()
        for t in range(T):
            u = -K @ (x - r_ref[t])
            x = A @ x + B @ u + w.w[t]
            assert np.linalg.norm((x - r_ref[t + 1]) - err.states[t + 1]) <= 1e-12 * max(
                1.0, np.linalg.norm(x)
            )

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    announce(7, "randomized structural property suites", ok,
             f"5 suites x 200 cases, {elapsed:.2f}s")
    assert ok, f"runtime {elapsed:.2f}s exceeds 120s"
