"""Construction helpers for randomized test instances, and the loops batched code must match."""

import numpy as np

from regretlab import LinearPolicy, QuadraticStageCost, SystemDynamics
from regretlab.model import OVERFLOW_LIMIT, _stage_costs, matrix_sequence


def random_loop(rng, n, m, rho_target):
    """Random (system, policy) whose closed loop has spectral radius rho_target.

    Draws F with the requested radius and back-solves A = F + B K, so the
    closed loop is exact by construction.
    """
    while True:
        raw = rng.standard_normal((n, n))
        rho0 = float(np.max(np.abs(np.linalg.eigvals(raw))))
        if rho0 > 1e-9:
            break
    F = raw * (rho_target / rho0)
    B = rng.standard_normal((n, m))
    K = 0.5 * rng.standard_normal((m, n))
    A = F + B @ K
    return SystemDynamics.lti(A, B), LinearPolicy.constant(K), F


def overdriven_loop(rng, n, m, rho_target):
    """Random (system, policy, F): a stable open loop and a gain that makes F = A - B K expand.

    The open loop has spectral radius 0.9, so the benchmark stays well
    conditioned; the gain is scaled so that B K has spectral radius
    rho_target, which dominates the closed loop when rho_target >> 1.
    """
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-9)
    B = rng.standard_normal((n, m))
    K = rng.standard_normal((m, n))
    K *= rho_target / float(np.max(np.abs(np.linalg.eigvals(B @ K))))
    return SystemDynamics.lti(A, B), LinearPolicy.constant(K), A - B @ K


def random_pd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix."""
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T + n * np.eye(n))


def random_instance(rng, n_max=4, m_max=2, T_max=50):
    """Random well-conditioned LQ instance for benchmark cross-checks.

    The open loop is scaled to spectral radius at most ~1.05 so the stacked
    response stays within float range over the horizon.
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    T = int(rng.integers(1, T_max + 1))
    A = rng.standard_normal((n, n))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho > 1e-9:
        A *= rng.uniform(0.2, 1.05) / rho
    B = rng.standard_normal((n, m))
    system = SystemDynamics.lti(A, B)
    costs = QuadraticStageCost.constant(random_pd(rng, n), random_pd(rng, m))
    x0 = rng.standard_normal(n)
    w = rng.standard_normal((T, n)) * 0.5
    return system, costs, x0, w, T


def reference_random_ball(n, W, T, seed):
    """The per-row sampler loop that random_ball batches: n normals, then one uniform, per row."""
    rng = np.random.default_rng(seed)
    w = np.zeros((T, n))
    for t in range(T):
        w[t] = reference_ball_point(rng, n, W)
    return w


def reference_ball_point(rng, n, radius):
    """One draw from the radius ball in R^n, one row of reference_random_ball."""
    g = rng.standard_normal(n)
    norm = np.linalg.norm(g)
    direction = g / norm if norm > 0 else np.eye(n)[0]
    return radius * rng.uniform() ** (1.0 / n) * direction


def reference_transition_norms(F, T, cap):
    """The per-step column loop that transition_norms batches: one SVD per product."""
    seq = matrix_sequence(F, what="F")
    norms = np.zeros(T + 1)
    norms[0] = 1.0
    M = np.eye(seq.shape[0])
    for t in range(1, T + 1):
        M = seq(t - 1) @ M
        norm = float(np.linalg.norm(M, 2))
        if not np.isfinite(norm) or norm > cap:
            norms[t:] = np.inf
            return norms, True
        norms[t] = norm
    return norms, False


def reference_rollout(system, costs, x0, w, T, policy=None, inputs=None, scales=None):
    """The per-step loop that model._rollout chunks: the overflow guard tested after every step.

    Returns (states, inputs, stage, overflow, peak) with the shapes of _Rollout.
    """
    n, m = system.n, system.m
    AT = system.A.stack(T).transpose(0, 2, 1)
    BT = system.B.stack(T).transpose(0, 2, 1)
    KT = None if policy is None else policy.K.stack(T + 1).transpose(0, 2, 1)
    d = inputs if policy is None else policy.offsets(T)
    if w.ndim == 3:
        w = w.transpose(1, 0, 2)
    rows = len(x0)
    X = np.zeros((T + 1, rows, n))
    U = np.zeros((T + 1, rows, m))
    X[0] = x0
    overflow = np.zeros(rows, dtype=int)
    peak = np.zeros(rows)
    dead = None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            x, u = X[t], U[t]
            if KT is not None:
                np.matmul(-x, KT[t], out=u)
            if d is not None:
                u += d[t]
            if t == T:
                break
            nxt = x @ AT[t] + u @ BT[t] + (w[t] if scales is None else scales[:, None] * w[t])
            if not np.vdot(nxt, nxt) <= 0.99 * OVERFLOW_LIMIT**2:
                norms = np.linalg.norm(nxt, axis=1)
                burst = ~(norms <= OVERFLOW_LIMIT) & (overflow == 0)
                overflow[burst] = t + 1
                peak[burst] = norms[burst]
                dead = overflow > 0
                if dead.all():
                    break
            if dead is not None:
                nxt[dead] = 0.0
            X[t + 1] = nxt
        stage = _stage_costs(costs, X, U)
    return X, U, stage, overflow, peak


def reference_simulate_grid(system, policy, x0, base, scales, horizons, costs):
    """The grid that simulate_grid deduplicates: one row per horizon, through reference_rollout.

    Returns (totals, overflow) as simulate_grid does.
    """
    horizons = np.asarray(horizons, dtype=int)
    T = int(horizons[-1])
    x0s = np.tile(np.asarray(x0, dtype=float), (len(horizons), 1))
    scales = np.asarray(scales, dtype=float)
    _, _, stage, overflow, _ = reference_rollout(system, costs, x0s, base[:T], T, policy, scales=scales)
    totals = np.cumsum(stage, axis=0)[horizons, np.arange(len(horizons))]
    overflow = np.where(overflow <= horizons, overflow, 0)
    totals[overflow > 0] = np.inf
    return totals, overflow


def reference_hindsight_pass(system, costs, x0, w, T):
    """The per-step backward pass that solve_hindsight splits: one joint solve per step.

    Returns (optimal_cost, P, p, s, gains, offsets) with the shapes of HindsightSolution.
    """
    n, m = system.n, system.m
    x0, w = np.asarray(x0, dtype=float), np.asarray(w, dtype=float)
    P = np.zeros((T + 1, n, n))
    p = np.zeros((T + 1, n))
    s = np.zeros(T + 1)
    gains = np.zeros((T + 1, m, n))
    offsets = np.zeros((T + 1, m))
    P[T] = 0.5 * (costs.Q(T) + costs.Q(T).T)
    for t in reversed(range(T)):
        A, B, Pn, pn, wt = system.A(t), system.B(t), P[t + 1], p[t + 1], w[t]
        G = costs.R(t) + B.T @ Pn @ B
        G = 0.5 * (G + G.T)
        H = B.T @ Pn @ A
        h = B.T @ (Pn @ wt + 0.5 * pn)
        sol = np.linalg.solve(G, np.column_stack([H, h]))
        KG, kg = sol[:, :n], sol[:, n]
        Pt = costs.Q(t) + A.T @ Pn @ A - H.T @ KG
        P[t] = 0.5 * (Pt + Pt.T)
        p[t] = 2.0 * A.T @ (Pn @ wt) + A.T @ pn - 2.0 * H.T @ kg
        s[t] = wt @ Pn @ wt + pn @ wt + s[t + 1] - h @ kg
        gains[t] = KG
        offsets[t] = kg
    optimal = float(x0 @ P[0] @ x0 + p[0] @ x0 + s[0])
    return optimal, P, p, s, gains, offsets
