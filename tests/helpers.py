"""Construction helpers for randomized test instances, and the loops batched code must match.

The frozen reference loops keep np.matmul and @ on purpose, where the kernel
loops call ndarray.dot (model._step_product): a reference that took the same
route would repeat the kernels' premise instead of checking it.
"""

import numpy as np

from regretlab import LinearPolicy, QuadraticStageCost, SystemDynamics
from regretlab.hindsight import FIXED_POINT_TOL
from regretlab.model import (
    OVERFLOW_LIMIT,
    _check_pd,
    _stage_costs,
    _sym,
    disturbance_prefix,
    matrix_sequence,
)


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


def wavy_costs(count, n, m):
    """Weights of steps t < count: Q_t = (1 + sin(t)/2) I_n, R_t = diag(1 + cos(t)/2, 2, ..., 2)."""
    t = np.arange(count)
    Q = (1.0 + 0.5 * np.sin(t))[:, None, None] * np.eye(n)
    R = np.array([np.diag([1.0 + 0.5 * np.cos(k)] + [2.0] * (m - 1)) for k in t])
    return QuadraticStageCost.varying(Q, R)


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


def random_ltv_stack(rng, overflow=False):
    """Random closed-loop stack F (T, n, n), n in 1..5 and T in 0..120; with overflow,
    scaled so that its products leave the float range within the stack."""
    n, T = int(rng.integers(1, 6)), int(rng.integers(0, 121))
    F = rng.standard_normal((T, n, n))
    return F * (1e30 if overflow else 1.0 / np.sqrt(n))


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


def _svd_norms(blocks):
    return np.linalg.norm(blocks, 2, axis=(1, 2))


def reference_row_norm_sums(F, T, cap, block_norms=_svd_norms):
    """The per-row pass that transition._row_norm_sums chunks: one block_norms call per row.

    block_norms defaults to one SVD per block; transition._spectral_norms
    gives the pass that _row_norm_sums must match bit for bit.  Returns
    (sums, squares) over t = 1..T, each +inf from the first row at which it
    exceeds cap (or is not finite) on.
    """
    seq = matrix_sequence(F, what="F")
    sums = np.full(T, np.inf)
    squares = np.full(T, np.inf)
    squares_ok = True
    for t, row in enumerate(reference_row_stacks(seq, T), start=1):
        blocks = row[1:]
        if not np.all(np.isfinite(blocks)):
            break
        norms = block_norms(blocks)
        total = norms.sum()
        if not total <= cap:
            break
        sums[t - 1] = total
        square = np.sum(norms**2)
        squares_ok = squares_ok and square <= cap
        if squares_ok:
            squares[t - 1] = square
    return sums, squares


def reference_row_stacks(seq, T):
    """The row recurrence that transition._row_stacks steps through views: one product per row.

    Yields row t, Phi(t, k) for k = 0..t stacked, for t = 1..T; the yielded
    stack is a view that the next step overwrites.
    """
    n = seq.shape[0]
    rows = np.empty((T + 1, n, n))
    rows[0] = np.eye(n)
    for t in range(1, T + 1):
        rows[:t] = seq(t - 1) @ rows[:t]
        rows[t] = np.eye(n)
        yield rows[: t + 1]


def reference_transition_matrix(F, t, k):
    """The product loop that transition._products replaces in transition_matrix: F_{t-1} ... F_k."""
    seq = matrix_sequence(F, what="F")
    M = np.eye(seq.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k, t):
            M = seq(j) @ M
    return M


def reference_phi_rows(F, T, w0):
    """The product loop that transition._products replaces in adversary._phi_rows:
    Phi(k, 0) w0 for k = 0..T, each non-finite from its first overflow on."""
    seq = matrix_sequence(F, what="F")
    vecs = np.zeros((T + 1, seq.shape[0]))
    vecs[0] = w0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, T + 1):
            vecs[k] = seq(k - 1) @ vecs[k - 1]
    return vecs


def reference_rollout(system, costs, x0, w, T, policy=None, inputs=None, scales=None):
    """The per-step loop that model._rollout matches: the overflow guard tested after every step.

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


def _settled(new, old):
    """True when no entry moved by more than FIXED_POINT_TOL of max|new|."""
    return abs(new - old).max() <= FIXED_POINT_TOL * abs(new).max()


def reference_split_pass(system, costs, x0, w, T=None):
    """The per-step Riccati pass and data pass that solve_hindsight steps through views.

    Each step reads its operands with seq(t), symmetrizes with _sym, stacks
    the right-hand side [H | B'] anew and tests the fixed point with
    _settled.  Returns (optimal_cost, P, p, s, gains, offsets) with the shapes
    of HindsightSolution.
    """
    x0 = np.asarray(x0, dtype=float)
    wt, T = disturbance_prefix(w, system.n, T)
    n, m = system.n, system.m

    P = np.zeros((T + 1, n, n))
    gains = np.zeros((T + 1, m, n))
    L = np.zeros((T, m, n))  # G_t^-1 B_t'
    Gs = np.empty((T, m, m))  # the input Hessians G_first..G_{T-1}, checked after the pass
    first = T
    P[T] = _sym(costs.Q(T))
    constant = all(seq.constant for seq in (system.A, system.B, costs.Q, costs.R))
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t in reversed(range(T)):  # data-free Riccati pass
                A, B, Pn = system.A(t), system.B(t), P[t + 1]
                BP = B.T @ Pn
                G = Gs[t] = _sym(costs.R(t) + BP @ B)
                first = t
                H = BP @ A
                sol = np.linalg.solve(G, np.column_stack([H, B.T]))
                gains[t], L[t] = sol[:, :n], sol[:, n:]
                P[t] = _sym(costs.Q(t) + A.T @ Pn @ A - H.T @ gains[t])
                if constant and _settled(P[t], Pn):  # earlier steps repeat this one
                    P[:t], gains[:t], L[:t] = P[t], gains[t], L[t]
                    break
    except Exception as exc:  # raised after the check: a bad Hessian before it outranks it
        failure = exc
    _check_pd(Gs[first:][::-1], "input Hessian", range(T - 1, first - 1, -1))
    if failure is not None:
        raise failure

    # data pass, linear in w: v_t = p_{t+1} + 2 P_{t+1} w_t and p_t = F_t' v_t
    B = system.B.stack(T)
    F = system.A.stack(T) - B @ gains[:T]
    Pw2 = 2.0 * (P[1:] @ wt[:, :, None])[:, :, 0]
    p = np.zeros((T + 1, n))
    for t in reversed(range(T)):
        p[t] = (p[t + 1] + Pw2[t]) @ F[t]
    v = p[1:] + Pw2
    kg = 0.5 * (L @ v[:, :, None])[:, :, 0]
    terms = ((0.5 * Pw2 + p[1:]) * wt).sum(1) - 0.5 * np.einsum("ti,tij,tj->t", v, B, kg)
    s = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
    offsets = np.vstack([kg, np.zeros((1, m))])

    optimal = float(x0 @ P[0] @ x0 + p[0] @ x0 + s[0])
    return optimal, P, p, s, gains, offsets


def reference_cost_to_arrive(system, costs, T):
    """The per-step cost-to-arrive pass that hindsight._cost_to_arrive steps through views.

    Returns the filter loop's (AS, QS): A_t S_t for t < T and Q_t S_t for t <= T.
    """
    n = system.n
    A, B, Q, R = system.A.stack(T), system.B.stack(T), costs.Q.stack(T + 1), costs.R.stack(T)
    BRB = B @ np.linalg.solve(R, B.transpose(0, 2, 1))  # B_t R_t^-1 B_t'
    AS = np.empty((T, n, n))
    QS = np.empty((T + 1, n, n))
    Sigma, eye = np.zeros((n, n)), np.eye(n)
    constant = all(seq.constant for seq in (system.A, system.B, costs.Q, costs.R))
    for t in range(T + 1):
        S = np.linalg.inv(eye + Sigma @ Q[t])
        QS[t] = Q[t] @ S
        if t < T:
            AS[t] = A[t] @ S
            Sigma, prev = _sym(AS[t] @ Sigma @ A[t].T + BRB[t]), Sigma
            if constant and _settled(Sigma, prev):  # later steps repeat this one
                AS[t + 1:], QS[t + 1:] = AS[t], QS[t]
                break
    return AS, QS
