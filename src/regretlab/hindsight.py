"""Noncausal benchmark: the cost minimizer computed with the disturbance known.

* `solve_hindsight` runs the affine backward value-function pass (exact for
  linear dynamics with quadratic costs and a known additive disturbance) as a
  data-free Riccati pass and a data pass linear in w; the optimal rollout runs
  on first access to the solution's trajectory or inputs;
* `hindsight_costs` gives the optimal cost at every horizon of a grid on any
  loop, the shorter horizons from one forward cost-to-arrive pass (the
  Kalman-filter dual of the backward pass);
* `batch_oracle` stacks the dynamics into one dense least-squares problem in
  the input vector, an independent check where the open loop is not unstable.

The benchmark optimizes u_0..u_{T-1}; the terminal input is zero (optimal,
since R_T is PD and u_T affects no state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConditioningError
from .model import (
    OVERFLOW_LIMIT,
    LinearPolicy,
    MatrixSequence,
    QuadraticStageCost,
    SystemDynamics,
    Trajectory,
    _check_pd,
    _sym,
    check_dims,
    check_grid,
    disturbance_prefix,
    simulate,
    simulate_grid,
)

FIXED_POINT_TOL = 4.0 * np.finfo(float).eps  # relative to the largest entry


def _settled(new: np.ndarray, old: np.ndarray) -> bool:
    """True when no entry moved by more than FIXED_POINT_TOL of max|new|."""
    return abs(new - old).max() <= FIXED_POINT_TOL * abs(new).max()


@dataclass
class HindsightSolution:
    """Optimal cost, the affine value-function parameters, and the optimal rollout on demand.

    The value of being in state x at time t is x'P_t x + p_t'x + s_t; the
    optimal input is u_t = -gains[t] x_t - offsets[t].  The optimal cost
    equals the value at (0, x_0).
    """

    optimal_cost: float
    P: np.ndarray  # (T+1, n, n)
    p: np.ndarray  # (T+1, n)
    s: np.ndarray  # (T+1,)
    gains: np.ndarray  # (T+1, m, n), zero at the terminal step
    offsets: np.ndarray  # (T+1, m), zero at the terminal step
    problem: tuple = field(repr=False)  # (system, costs, x0, w) that the rollout replays

    @property
    def horizon(self) -> int:
        return len(self.P) - 1

    @cached_property
    def trajectory(self) -> Trajectory:
        """The optimal rollout: simulate() under feedback_policy(), run on first access.

        It carries simulate's overflow guard: an optimal trajectory whose
        state norm exceeds it raises SimulationOverflowError here.
        """
        system, costs, x0, w = self.problem
        return simulate(system, self.feedback_policy(), x0, w, costs, self.horizon)

    @cached_property
    def inputs(self) -> np.ndarray:
        """The optimal inputs u_0..u_{T-1}, (T, m), read off the trajectory."""
        return self.trajectory.inputs[: self.horizon].copy()

    def value(self, t: int, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.P[t] @ x + self.p[t] @ x + self.s[t])

    def feedback_policy(self) -> LinearPolicy:
        """The optimal inputs as an affine policy, replayable via simulate()."""
        m, n = self.gains.shape[1], self.gains.shape[2]
        d = -self.offsets
        d_max = float(np.max(np.linalg.norm(d, axis=1))) if len(d) else 0.0
        return LinearPolicy(
            K=MatrixSequence(self.gains, (m, n), "K*"),
            d=MatrixSequence(d, (m,), "d*"),
            d_max=d_max,
        )


def solve_hindsight(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    w,
    T: int | None = None,
) -> HindsightSolution:
    """Backward affine value-function pass; the optimal rollout waits for its first reader.

    The Riccati pass checks each input Hessian G_t = R_t + B_t'P_{t+1}B_t; on a
    loop with constant A, B, Q and R it stops once P_t is within FIXED_POINT_TOL
    of P_{t+1}, and earlier steps repeat that one.  The data pass is one matvec
    per step, p_t = F_t'(p_{t+1} + 2P_{t+1}w_t) with F_t = A_t - B_t gains_t.

    The rollout is simulate() under feedback_policy(), run on first access to
    the solution's trajectory or inputs, so it carries the overflow guard: an
    optimal trajectory whose state norm exceeds it raises
    SimulationOverflowError at that access, not here.
    """
    x0 = np.asarray(x0, dtype=float)
    wt, T = disturbance_prefix(w, system.n, T)
    check_dims(system, costs, x0[None])
    n, m = system.n, system.m

    P = np.zeros((T + 1, n, n))
    gains = np.zeros((T + 1, m, n))
    L = np.zeros((T, m, n))  # G_t^-1 B_t'
    P[T] = _sym(costs.Q(T))
    constant = all(seq.constant for seq in (system.A, system.B, costs.Q, costs.R))
    for t in reversed(range(T)):  # data-free Riccati pass
        A, B, Pn = system.A(t), system.B(t), P[t + 1]
        BP = B.T @ Pn
        G = _sym(costs.R(t) + BP @ B)
        _check_pd(G, "input Hessian", t)
        H = BP @ A
        sol = np.linalg.solve(G, np.column_stack([H, B.T]))
        gains[t], L[t] = sol[:, :n], sol[:, n:]
        P[t] = _sym(costs.Q(t) + A.T @ Pn @ A - H.T @ gains[t])
        if constant and _settled(P[t], Pn):  # earlier steps repeat this one
            P[:t], gains[:t], L[:t] = P[t], gains[t], L[t]
            break

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
    return HindsightSolution(optimal, P, p, s, gains, offsets, (system, costs, x0, wt))


def _may_overflow(cost: float, costs: QuadraticStageCost, T: int) -> bool:
    """False when an optimal cost rules out an overflow of its rollout over 0..T.

    A state past OVERFLOW_LIMIT costs at least q_min OVERFLOW_LIMIT^2, with
    q_min the smallest eigenvalue of Q_0..Q_T; the factor 1/2 leaves room for
    rounding between optimal_cost and the rollout's total.  q_min <= 0 and a
    non-finite cost rule out nothing.
    """
    if not np.isfinite(cost):
        return True
    Q = costs.Q(0)[None] if costs.Q.constant else costs.Q.stack(T + 1)
    q_min = np.linalg.eigvalsh(0.5 * (Q + Q.transpose(0, 2, 1))).min()
    return not cost < 0.5 * q_min * OVERFLOW_LIMIT**2


def hindsight_costs(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    base,
    scales,
    horizons,
) -> np.ndarray:
    """Optimal costs on a horizon grid of any loop; horizon horizons[i] sees scales[i] * base.

    The longest horizon's cost is the optimal_cost of solve_hindsight at
    T_max, which also checks every input Hessian.  Its optimal rollout runs
    only when that cost cannot rule out an overflow (_may_overflow); an
    overflowing one raises SimulationOverflowError.  The shorter ones come from
    the forward cost-to-arrive pass: with Sigma_0 = 0, S_t = (I + Sigma_t Q_t)^-1
    and Sigma_{t+1} = A_t S_t Sigma_t A_t' + B_t R_t^-1 B_t' (data-free), the
    cost at horizon T is J*_T = sum_{t <= T} mu_t' Q_t S_t mu_t along
    mu_0 = x0, mu_{t+1} = A_t S_t mu_t + w_t: one simulate_grid call on that
    filter loop over the shorter horizons.  The shortest horizon may be 0,
    where J*_0 = x0'Q_0 x0.  The pass needs each R_t PD
    (checked once when R is constant, else per step) and each Q_t PSD; on a
    constant loop it stops once Sigma_t is within FIXED_POINT_TOL of Sigma_{t-1}.
    """
    horizons = check_grid(horizons, scales)
    scales = np.asarray(scales, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    T_max = int(horizons[-1])
    ref = solve_hindsight(system, costs, x0, scales[-1] * base[:T_max], T_max)
    if _may_overflow(ref.optimal_cost, costs, T_max):
        ref.trajectory  # raises SimulationOverflowError if the optimal rollout overflows
    out = np.empty(len(horizons))
    out[-1] = ref.optimal_cost
    if len(horizons) == 1:
        return out

    T, n, m = int(horizons[-2]), system.n, system.m
    A, B, Q, R = system.A.stack(T), system.B.stack(T), costs.Q.stack(T + 1), costs.R.stack(T)
    for t in range(1 if costs.R.constant else T):  # the pass needs each R_t^-1
        _check_pd(_sym(costs.R(t)), "input weight R", t)
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
    # the filter loop runs with zero input
    filt = SystemDynamics.ltv(AS, np.zeros((n, m)), n, m)
    weight = QuadraticStageCost.varying(QS, np.zeros((m, m)), n, m)
    out[:-1], _ = simulate_grid(filt, None, x0, base, scales[:-1], horizons[:-1], weight)
    return out


def batch_oracle(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    w,
    T: int | None = None,
    size_cap: int = 2000,
) -> tuple[np.ndarray, float]:
    """Dense least-squares solve for the same minimizer; O((Tm)^3), cap T*m <= 2000.

    Its design holds A^k up to k = T, so it loses all digits on unstable open
    loops (1.7e21 against 6.6e3 from both O(T) routes at rho(A) = 2.9, T = 55).
    """
    x0 = np.asarray(x0, dtype=float)
    w, T = disturbance_prefix(w, system.n, T)
    check_dims(system, costs, x0[None])
    n, m = system.n, system.m
    if T * m > size_cap:
        raise ValueError(f"batch oracle limited to T*m <= {size_cap}, got {T * m}")

    N = (T + 1) * n
    M = T * m
    base = np.zeros(N)
    Su = np.zeros((N, M))
    base[0:n] = x0
    for t in range(T):
        rows = slice(t * n, (t + 1) * n)
        nxt = slice((t + 1) * n, (t + 2) * n)
        A = system.A(t)
        base[nxt] = A @ base[rows] + w[t]
        Su[nxt, :] = A @ Su[rows, :]
        Su[nxt, t * m : (t + 1) * m] += system.B(t)

    def sqrt_pd(Mx):
        vals, vecs = np.linalg.eigh(_sym(Mx))
        if vals[0] <= 0.0:
            raise ConditioningError("stage-cost weight not PD in batch oracle")
        return vecs @ np.diag(np.sqrt(vals)) @ vecs.T

    sqrtQ = np.zeros((N, N))
    for t in range(T + 1):
        blk = slice(t * n, (t + 1) * n)
        sqrtQ[blk, blk] = sqrt_pd(costs.Q(t))
    sqrtR = np.zeros((M, M))
    for t in range(T):
        blk = slice(t * m, (t + 1) * m)
        sqrtR[blk, blk] = sqrt_pd(costs.R(t))

    if M == 0:
        q = sqrtQ @ base
        return np.zeros((0, m)), float(q @ q)

    # least-squares form || [sqrtQ Su; sqrtR] u + [sqrtQ base; 0] ||^2 avoids
    # forming the normal equations, which lose half the digits for loops with
    # an unstable open-loop response.
    design = np.vstack([sqrtQ @ Su, sqrtR])
    target = -np.concatenate([sqrtQ @ base, np.zeros(M)])
    u, *_ = np.linalg.lstsq(design, target, rcond=None)
    state_res = sqrtQ @ (base + Su @ u)
    input_res = sqrtR @ u
    cost = float(state_res @ state_res + input_res @ input_res)
    return u.reshape(T, m), cost
