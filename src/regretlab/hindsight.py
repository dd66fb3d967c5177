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

from .errors import ConditioningError, SimulationOverflowError
from .model import (
    OVERFLOW_LIMIT,
    LinearPolicy,
    MatrixSequence,
    QuadraticStageCost,
    SystemDynamics,
    Trajectory,
    _check_pd,
    _step_product,
    _sym,
    check_dims,
    check_grid,
    disturbance_prefix,
    simulate,
    simulate_grid,
)

FIXED_POINT_TOL = 4.0 * np.finfo(float).eps  # relative to the largest entry

BATCH_ORACLE_CAP = 2000  # the largest T*m batch_oracle takes: its solve is O((T m)^3)


def _settled(new: np.ndarray, old: np.ndarray, buf: np.ndarray) -> bool:
    """True when no entry moved by more than FIXED_POINT_TOL of max|new|; buf takes the differences."""
    moved = np.maximum.reduce(np.abs(np.subtract(new, old, out=buf), out=buf), axis=None)
    return moved <= FIXED_POINT_TOL * np.maximum.reduce(np.abs(new, out=buf), axis=None)


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
        return LinearPolicy(
            K=MatrixSequence(self.gains, (m, n), "K*"),
            d=MatrixSequence(-self.offsets, (m,), "d*"),
        )


def _riccati_pass(system: SystemDynamics, costs: QuadraticStageCost, T: int):
    """The data-free Riccati pass of solve_hindsight: (P, gains, L) with L_t = G_t^-1 B_t'.

    Each step's operands come from MatrixSequence.steps, taken once before
    the loop, so a short stack raises its ShapeError before any Hessian is
    built.  The right-hand sides [H_t | B_t'] (H_t = B_t'P_{t+1}A_t) are
    laid out once, by column, with B_t' filled in up front; H_t' = A_t'(B_t'P_{t+1})'
    is written into the transpose of the left half, a C-contiguous view as
    dot's out must be, the BLAS call of matmul(B_t'P_{t+1}, A_t) into the
    block itself.  The solve's output [gains_t | L_t] is kept whole and
    split after the loop.  G_t and P_t are symmetrized in place into their slots.
    The products (_step_product), sums and solves are those of a per-step
    loop, in the same order.
    """
    n, m = system.n, system.m
    constant = all(seq.constant for seq in (system.A, system.B, costs.Q, costs.R))
    Q = costs.Q.steps(T + 1)
    A, B = system.A, system.B
    operands = [X[::-1] for X in (A.steps(T), A.steps(T, transpose=True), B.steps(T),
                                  B.steps(T, transpose=True), Q[:T], costs.R.steps(T))]
    P = np.empty((T + 1, n, n))
    Gs = np.empty((T, m, m))  # the input Hessians G_first..G_{T-1}, checked after the pass
    # the solve's right-hand sides [H_t | B_t'] and outputs [gains_t | L_t], each block
    # stored by column: for n = 1, H_t'gains_t is a dot product of length m, which
    # OpenBLAS sums in another order on non-unit strides once m >= 4
    rhs, KL = np.empty((2, T, 2 * n, m)).transpose(0, 1, 3, 2)
    rhs[:, :, n:] = np.swapaxes(B.distinct(T), -1, -2)
    HT, K = rhs[:, :, :n].transpose(0, 2, 1), KL[:, :, :n]
    outputs = (P[1:], P[:T], Gs, HT, rhs, KL, K)
    steps = zip(range(T - 1, -1, -1), *operands, *(X[::-1] for X in outputs))
    diff = np.empty((n, n))
    dot = _step_product(n)
    P[T] = _sym(Q[T])
    first = T
    failure = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t, At, ATt, Bt, BTt, Qt, Rt, Pn, Pt, G, HTt, rhs_t, KLt, Kt in steps:
                BP = dot(BTt, Pn)
                _sym(Rt + dot(BP, Bt), out=G)
                first = t
                dot(ATt, BP.T, out=HTt)
                KLt[...] = np.linalg.solve(G, rhs_t)
                _sym(Qt + dot(dot(ATt, Pn), At) - dot(HTt, Kt), out=Pt)
                if constant and _settled(Pt, Pn, diff):
                    P[:t], KL[:t] = Pt, KLt  # earlier steps repeat this one
                    break
    except Exception as exc:  # raised after the check: a bad Hessian before it outranks it
        failure = exc
    _check_pd(Gs[first:][::-1], "input Hessian", range(T - 1, first - 1, -1))
    if failure is not None:
        raise failure
    gains = np.zeros((T + 1, m, n))
    gains[:T] = K
    return P, gains, np.ascontiguousarray(KL[:, :, n:])


def solve_hindsight(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    w,
    T: int | None = None,
) -> HindsightSolution:
    """Backward affine value-function pass; the optimal rollout waits for its first reader.

    The Riccati pass (_riccati_pass) stores each input Hessian
    G_t = R_t + B_t'P_{t+1}B_t and checks them all in one _check_pd call after
    its loop, labelled T-1, T-2, ...: the error names the G_t that a check at
    every step would have named.  The loop runs with overflow warnings off; if
    it raises (a LinAlgError from the solve), the Hessians built so far are
    checked first and their error wins.  On a loop with constant A, B, Q and R
    it stops once P_t is within FIXED_POINT_TOL of P_{t+1}, and earlier steps
    repeat that one.  The data pass is one matvec (_step_product) per step,
    p_t = F_t'v_t with v_t = p_{t+1} + 2P_{t+1}w_t and F_t = A_t - B_t gains_t,
    written into its row of v and p; it and the optimal cost also run with
    overflow warnings off, so an overflow shows as an inf or NaN cost.

    The rollout is simulate() under feedback_policy(), run on first access to
    the solution's trajectory or inputs, so it carries the overflow guard: an
    optimal trajectory whose state norm exceeds it raises
    SimulationOverflowError at that access, not here.
    """
    x0 = np.asarray(x0, dtype=float)
    wt, T = disturbance_prefix(w, system.n, T)
    check_dims(system, costs, x0[None])
    n, m = system.n, system.m
    P, gains, L = _riccati_pass(system, costs, T)

    with np.errstate(over="ignore", invalid="ignore"):
        # data pass, linear in w: v_t = p_{t+1} + 2 P_{t+1} w_t and p_t = F_t' v_t
        B = system.B.stack(T)
        F = system.A.stack(T) - B @ gains[:T]
        Pw2 = 2.0 * (P[1:] @ wt[:, :, None])[:, :, 0]
        p = np.zeros((T + 1, n))
        v = np.empty((T, n))
        dot = _step_product(n)
        for pn, pw, vt, Ft, pt in zip(p[1:][::-1], Pw2[::-1], v[::-1], F[::-1], p[:-1][::-1]):
            dot(np.add(pn, pw, out=vt), Ft, out=pt)
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
    Q = costs.Q.distinct(T + 1)
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
    overflowing one raises SimulationOverflowError.  Before it runs, a
    value function with a non-finite entry in P_t or p_t (an overflowed
    backward pass, whose offsets are NaN) raises SimulationOverflowError at
    its latest non-finite step instead.  The shorter ones come from
    the forward cost-to-arrive pass: with Sigma_0 = 0, S_t = (I + Sigma_t Q_t)^-1
    and Sigma_{t+1} = A_t S_t Sigma_t A_t' + B_t R_t^-1 B_t' (data-free), the
    cost at horizon T is J*_T = sum_{t <= T} mu_t' Q_t S_t mu_t along
    mu_0 = x0, mu_{t+1} = A_t S_t mu_t + w_t: one simulate_grid call on that
    filter loop over the shorter horizons.  The shortest horizon may be 0,
    where J*_0 = x0'Q_0 x0.  The pass needs each R_t PD (checked once when
    R is constant, else in one call on the stack) and each Q_t PSD; on a
    constant loop it stops once Sigma_t is within FIXED_POINT_TOL of Sigma_{t-1}.
    """
    horizons = check_grid(horizons, scales)
    scales = np.asarray(scales, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    base, T_max = disturbance_prefix(base, system.n, horizons[-1])
    ref = solve_hindsight(system, costs, x0, scales[-1] * base, T_max)
    if _may_overflow(ref.optimal_cost, costs, T_max):
        # a non-finite value function gives NaN offsets, under which the rollout's state is NaN
        entries = np.abs(np.column_stack([ref.P.reshape(T_max + 1, -1), ref.p])).max(axis=1)
        if not np.isfinite(entries).all():
            t = T_max - int(np.argmin(np.isfinite(entries[::-1])))
            raise SimulationOverflowError(t, entries[t], np.finfo(float).max,
                                          "value function entry")
        ref.trajectory  # raises SimulationOverflowError if the optimal rollout overflows
    out = np.empty(len(horizons))
    out[-1] = ref.optimal_cost
    if len(horizons) == 1:
        return out

    T, n, m = int(horizons[-2]), system.n, system.m
    AS, QS = _cost_to_arrive(system, costs, T)
    # the filter loop runs with zero input
    filt = SystemDynamics.ltv(AS, np.zeros((n, m)))
    weight = QuadraticStageCost.varying(QS, np.zeros((m, m)))
    out[:-1], _ = simulate_grid(filt, None, x0, base, scales[:-1], horizons[:-1], weight)
    return out


def _cost_to_arrive(system: SystemDynamics, costs: QuadraticStageCost, T: int):
    """The forward cost-to-arrive pass of hindsight_costs: the filter loop's A_t S_t and Q_t S_t.

    Each step's operands come from MatrixSequence.steps; Sigma_{t+1} is
    symmetrized in place into the one of two buffers that Sigma_t does not
    hold.  The products (_step_product), sums and inverses are those of a
    per-step loop, in the same order.
    """
    n = system.n
    A, AT = system.A.steps(T), system.A.steps(T, transpose=True)
    B, Q, R = system.B.stack(T), costs.Q.steps(T + 1), costs.R.stack(T)
    R_distinct = costs.R.distinct(T)  # the pass needs each R_t^-1
    _check_pd(0.5 * (R_distinct + R_distinct.transpose(0, 2, 1)), "input weight R",
              range(len(R_distinct)))
    BRB = B @ np.linalg.solve(R, B.transpose(0, 2, 1))  # B_t R_t^-1 B_t'
    AS = np.empty((T, n, n))
    QS = np.empty((T + 1, n, n))
    Sigma, nxt = np.zeros((2, n, n))  # Sigma_t and the buffer Sigma_{t+1} goes into
    eye, diff = np.eye(n), np.empty((n, n))
    constant = all(seq.constant for seq in (system.A, system.B, costs.Q, costs.R))
    dot = _step_product(n)
    for t, (At, ATt, Qt, BRBt, ASt, QSt) in enumerate(zip(A, AT, Q, BRB, AS, QS)):
        S = np.linalg.inv(eye + dot(Sigma, Qt))
        dot(Qt, S, out=QSt)
        dot(At, S, out=ASt)
        _sym(dot(dot(ASt, Sigma), ATt) + BRBt, out=nxt)
        if constant and _settled(nxt, Sigma, diff):
            AS[t + 1:], QS[t + 1:] = ASt, QSt  # later steps repeat this one
            break
        Sigma, nxt = nxt, Sigma
    else:
        dot(Q[T], np.linalg.inv(eye + dot(Sigma, Q[T])), out=QS[T])
    return AS, QS


def batch_oracle(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    x0,
    w,
    T: int | None = None,
) -> tuple[np.ndarray, float]:
    """Dense least-squares solve for the same minimizer; O((Tm)^3), T*m <= BATCH_ORACLE_CAP.

    Its design holds A^k up to k = T, so it loses all digits on unstable open
    loops (1.7e21 against 6.6e3 from both O(T) routes at rho(A) = 2.9, T = 55).
    """
    x0 = np.asarray(x0, dtype=float)
    w, T = disturbance_prefix(w, system.n, T)
    check_dims(system, costs, x0[None])
    n, m = system.n, system.m
    if T * m > BATCH_ORACLE_CAP:
        raise ValueError(f"batch oracle limited to T*m <= {BATCH_ORACLE_CAP}, got {T * m}")

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
