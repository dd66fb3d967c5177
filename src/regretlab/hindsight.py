"""Noncausal benchmark: the cost minimizer computed with the disturbance known.

Two independent routes to the same minimizer:

* `solve_hindsight` runs an affine backward value-function pass (exact for
  linear dynamics with quadratic costs and a known additive disturbance) in
  O(T) followed by the optimal rollout; `hindsight_costs` reuses one such pass
  for a whole horizon grid of a constant loop;
* `batch_oracle` stacks the dynamics into one dense strictly convex quadratic
  in the input vector and solves the stationarity system directly.

The benchmark optimizes u_0..u_{T-1}; the terminal input is zero (optimal,
since R_T is PD and u_T affects no state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ShapeError
from .model import (
    LinearPolicy,
    MatrixSequence,
    QuadraticStageCost,
    SystemDynamics,
    Trajectory,
    as_disturbance,
    simulate,
)

RCOND_FLOOR = 1e-14


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


@dataclass
class HindsightSolution:
    """Optimal inputs, cost, and the affine value-function parameters.

    The value of being in state x at time t is x'P_t x + p_t'x + s_t; the
    optimal input is u_t = -gains[t] x_t - offsets[t].  The optimal cost
    equals the value at (0, x_0).
    """

    inputs: np.ndarray  # (T, m)
    optimal_cost: float
    P: np.ndarray  # (T+1, n, n)
    p: np.ndarray  # (T+1, n)
    s: np.ndarray  # (T+1,)
    gains: np.ndarray  # (T+1, m, n), zero at the terminal step
    offsets: np.ndarray  # (T+1, m), zero at the terminal step
    trajectory: Trajectory

    @property
    def horizon(self) -> int:
        return len(self.P) - 1

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
    """Backward affine value-function pass followed by the optimal rollout.

    The rollout is simulate() under feedback_policy(), so it carries the
    overflow guard: an optimal trajectory whose state norm exceeds it raises
    SimulationOverflowError.
    """
    x0 = np.asarray(x0, dtype=float)
    w = as_disturbance(w, system.n)
    if T is None:
        T = w.horizon
    if w.horizon < T:
        raise ShapeError(f"disturbance covers {w.horizon} steps, need {T}")
    n, m = system.n, system.m
    if x0.shape != (n,):
        raise ShapeError(f"x0 has shape {x0.shape}, expected ({n},)")
    if costs.n != n or costs.m != m:
        raise ShapeError("cost weights do not match the system dimensions")

    P = np.zeros((T + 1, n, n))
    p = np.zeros((T + 1, n))
    s = np.zeros(T + 1)
    gains = np.zeros((T + 1, m, n))
    offsets = np.zeros((T + 1, m))
    P[T] = _sym(costs.Q(T))

    for t in reversed(range(T)):
        A = system.A(t)
        B = system.B(t)
        Pn = P[t + 1]
        pn = p[t + 1]
        wt = w.w[t]
        G = _sym(costs.R(t) + B.T @ Pn @ B)
        # G is symmetric: its eigenvalues give both the exact 2-norm rcond and
        # the PD test (a NaN entry reads as singular)
        eigs = np.linalg.eigvalsh(G)
        top = np.max(np.abs(eigs))
        if not (top > 0.0 and np.min(np.abs(eigs)) / top >= RCOND_FLOOR):
            raise ConditioningError(
                f"input Hessian at t={t} is numerically singular (rcond below {RCOND_FLOOR:.0e})"
            )
        if eigs[0] <= 0.0:
            raise ConditioningError(
                f"input Hessian at t={t} not PD (min eigenvalue {eigs[0]:.3e})"
            )
        H = B.T @ Pn @ A
        h = B.T @ (Pn @ wt + 0.5 * pn)
        sol = np.linalg.solve(G, np.column_stack([H, h]))
        KG, kg = sol[:, :n], sol[:, n]
        P[t] = _sym(costs.Q(t) + A.T @ Pn @ A - H.T @ KG)
        p[t] = 2.0 * A.T @ (Pn @ wt) + A.T @ pn - 2.0 * H.T @ kg
        s[t] = wt @ Pn @ wt + pn @ wt + s[t + 1] - h @ kg
        gains[t] = KG
        offsets[t] = kg

    optimal = float(x0 @ P[0] @ x0 + p[0] @ x0 + s[0])
    sol = HindsightSolution(None, optimal, P, p, s, gains, offsets, trajectory=None)
    sol.trajectory = simulate(system, sol.feedback_policy(), x0, w, costs, T)
    sol.inputs = sol.trajectory.inputs[:T].copy()
    return sol


def _constant_loop(system: SystemDynamics, costs: QuadraticStageCost) -> bool:
    """A, B, Q and R constant: one Riccati table serves every horizon."""
    return all(seq.constant for seq in (system.A, system.B, costs.Q, costs.R))


def hindsight_costs(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    base,
    scales,
    horizons,
) -> np.ndarray:
    """Optimal costs on a horizon grid, from one reference solve.

    Horizon horizons[i] sees the disturbance scales[i] * base[:horizons[i]].
    The longest horizon's cost is the optimal_cost of solve_hindsight at
    T_max, which also checks every input Hessian.  With A, B, Q, R constant,
    its P[T_max - k] is the Riccati solution at time-to-go k for every
    horizon, and only the affine parts differ: for the shorter horizons, p
    (one row per horizon) and s are advanced together, one time-to-go step at
    a time, and each cost is read at time-to-go horizons[i].  A single horizon
    works on any loop; a grid of several needs A, B, Q, R constant.
    """
    horizons = np.asarray(horizons, dtype=int)
    scales = np.asarray(scales, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if len(horizons) > 1 and not _constant_loop(system, costs):
        raise ValueError("a grid of several horizons needs constant A, B, Q and R")
    T_max = int(horizons[-1])
    ref = solve_hindsight(system, costs, x0, scales[-1] * base[:T_max], T_max)
    out = np.empty(len(horizons))
    out[-1] = ref.optimal_cost
    short = horizons[:-1]
    if len(short) == 0:
        return out

    T_s = int(short[-1])
    A, B = system.A(0), system.B(0)
    # indexed by time-to-go k; G[k - 1] is the input Hessian of step k
    P = ref.P[::-1]
    F = A - B @ ref.gains[::-1][: T_s + 1]
    G = costs.R(0) + B.T @ P[:T_s] @ B
    G = 0.5 * (G + G.swapaxes(1, 2))
    BGinv = np.linalg.solve(G, np.broadcast_to(B.T, (T_s, *B.T.shape))).swapaxes(1, 2)

    p = np.zeros((len(short), system.n))
    s = np.zeros(len(short))
    for k in range(1, T_s + 1):
        lo = int(np.searchsorted(short, k))  # horizons with at least k steps to go
        w = scales[lo:-1, None] * base[short[lo:] - k]
        pn = p[lo:]
        Pw = w @ P[k - 1]
        v = Pw + 0.5 * pn
        s[lo:] += np.sum(w * (Pw + pn), axis=1) - np.sum((v @ B) * (v @ BGinv[k - 1]), axis=1)
        p[lo:] = 2.0 * v @ F[k]
    out[:-1] = np.einsum("i,hij,j->h", x0, P[short], x0) + p @ x0 + s
    return out


def batch_oracle(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    w,
    T: int | None = None,
    size_cap: int = 2000,
) -> tuple[np.ndarray, float]:
    """Dense stationarity solve for the same minimizer; O((Tm)^3), cap T*m <= 2000."""
    x0 = np.asarray(x0, dtype=float)
    w = as_disturbance(w, system.n)
    if T is None:
        T = w.horizon
    if w.horizon < T:
        raise ShapeError(f"disturbance covers {w.horizon} steps, need {T}")
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
        base[nxt] = A @ base[rows] + w.w[t]
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
