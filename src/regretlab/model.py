"""Core types and closed-loop simulation for linear systems with bounded disturbances.

The loop under study is

    x_{t+1} = A_t x_t + B_t u_t + w_t,      u_t = -K_t x_t (+ d_t),

with quadratic stage costs x'Q_t x + u'R_t u and disturbances bounded in
Euclidean norm.  All operations here are pure and deterministic; generator
sequences are memoized so repeated queries return identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AssumptionViolationError, ConditioningError, ShapeError, SimulationOverflowError

# Rollouts abort with a structured error instead of propagating non-finite values.
OVERFLOW_LIMIT = 1e150

# Slack allowed on declared norm bounds (disturbances, affine offsets).
BOUND_SLACK = 1e-12

RCOND_FLOOR = 1e-14  # smallest 2-norm rcond of a PD weight or input Hessian


def jsonable(obj):
    """obj with numpy values as Python ones and non-finite floats as "inf", "-inf", "nan"."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return "nan" if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _as_array(value, shape, what):
    arr = np.asarray(value, dtype=float)
    if arr.shape != tuple(shape):
        raise ShapeError(f"{what} has shape {arr.shape}, expected {tuple(shape)}")
    return arr


class MatrixSequence:
    """Time-indexed family of fixed-shape arrays.

    Accepts a single constant array, an explicit stack indexed by t, or a
    generator function of t.  Generator output is memoized per instance, so a
    given sequence always replays identically.  Works for matrices and for
    vectors (pass a 1-d shape).
    """

    def __init__(self, source, shape, what="matrix"):
        self.shape = tuple(shape)
        self.what = what
        self._fn = None
        self._stack = None
        self._const = None
        self._cache = {}
        if callable(source):
            self._fn = source
        else:
            arr = np.asarray(source, dtype=float)
            if arr.ndim == len(self.shape):
                self._const = _as_array(arr, self.shape, what)
            elif arr.ndim == len(self.shape) + 1:
                if arr.shape[1:] != self.shape:
                    raise ShapeError(
                        f"{what} stack has per-step shape {arr.shape[1:]}, "
                        f"expected {self.shape}"
                    )
                self._stack = arr
            else:
                raise ShapeError(f"{what} must have shape {self.shape} per step")

    @property
    def constant(self) -> bool:
        return self._const is not None

    def __call__(self, t: int) -> np.ndarray:
        if t < 0:
            raise ShapeError(f"{self.what} queried at negative time {t}")
        if self._const is not None:
            return self._const
        if self._stack is not None:
            if t >= len(self._stack):
                raise ShapeError(
                    f"{self.what} defined for t < {len(self._stack)}, got t={t}"
                )
            return self._stack[t]
        if t not in self._cache:
            self._cache[t] = _as_array(self._fn(t), self.shape, f"{self.what}(t={t})")
        return self._cache[t]

    def __getitem__(self, t):
        return self(t)

    def stack(self, count: int) -> np.ndarray:
        """Steps 0..count-1 as one (count, *shape) array; a read-only view when constant."""
        if self._const is not None:
            return np.broadcast_to(self._const, (count, *self.shape))
        if self._stack is not None:
            if count > len(self._stack):
                self(count - 1)  # raises the ShapeError naming the missing step
            return self._stack[:count]
        return np.array([self(t) for t in range(count)]).reshape(count, *self.shape)


def matrix_sequence(source, shape=None, what="matrix") -> MatrixSequence:
    """Coerce an array / stack / callable / MatrixSequence to a MatrixSequence.

    Without shape, the per-step shape is inferred: a 2-d array is constant, a
    3-d array is a stack of its steps, and a callable is probed at t = 0.
    """
    if isinstance(source, MatrixSequence):
        if shape is not None and source.shape != tuple(shape):
            raise ShapeError(
                f"{what} sequence has shape {source.shape}, expected {tuple(shape)}"
            )
        return source
    if shape is None:
        if not callable(source):
            source = np.asarray(source, dtype=float)
            if source.ndim not in (2, 3):
                raise ShapeError(f"{what} must be a matrix or a stack of matrices, "
                                 f"got shape {source.shape}")
        shape = np.shape(source(0) if callable(source) else source)[-2:]
    return MatrixSequence(source, shape, what)


@dataclass
class SystemDynamics:
    """Time-indexed state-space pair (A_t, B_t) with state dim n, input dim m."""

    A: MatrixSequence
    B: MatrixSequence
    n: int
    m: int
    kind: str  # "LTI" | "LTV"

    @classmethod
    def lti(cls, A, B) -> "SystemDynamics":
        A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        if A.ndim != 2 or B.ndim != 2:
            raise ShapeError(f"A and B must be matrices, got shapes {A.shape} and {B.shape}")
        return replace(cls.ltv(A, B), kind="LTI")

    @classmethod
    def ltv(cls, A, B, n=None, m=None) -> "SystemDynamics":
        """(A_t, B_t) from matrices, stacks or callables of t; n and m default to inferred ones."""
        A = matrix_sequence(A, None if n is None else (n, n), "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ShapeError(f"A must be square, got {A.shape}")
        B = matrix_sequence(B, None if m is None else (n, m), "B")
        if B.shape[0] != n:
            raise ShapeError(f"B must be {n}xm, got {B.shape}")
        return cls(A=A, B=B, n=n, m=B.shape[1], kind="LTV")


@dataclass
class LinearPolicy:
    """State feedback u_t = -K_t x_t, optionally with a bounded offset d_t."""

    K: MatrixSequence
    d: MatrixSequence | None = None
    d_max: float = 0.0

    @classmethod
    def constant(cls, K, d=None, d_max=None) -> "LinearPolicy":
        K = np.asarray(K, dtype=float)
        if K.ndim != 2:
            raise ShapeError(f"gain must be 2-d, got shape {K.shape}")
        if d is not None and d_max is None:
            d_max = np.linalg.norm(d)
        return cls.varying(K, *K.shape, d, d_max or 0.0)

    @classmethod
    def varying(cls, K, m, n, d=None, d_max=0.0) -> "LinearPolicy":
        off = None if d is None else matrix_sequence(d, (m,), "d")
        return cls(K=matrix_sequence(K, (m, n), "K"), d=off, d_max=float(d_max))

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def n(self) -> int:
        return self.K.shape[1]

    def offsets(self, T: int) -> np.ndarray | None:
        """Offsets d_0..d_T as a (T+1, m) array, None without offsets; checked against d_max."""
        if self.d is None:
            return None
        d = self.d.stack(T + 1)
        norms = np.linalg.norm(d, axis=1)
        over = np.flatnonzero(norms > self.d_max + BOUND_SLACK)
        if len(over):
            t = int(over[0])
            raise AssumptionViolationError(
                f"offset norm {norms[t]:.3e} exceeds d_max={self.d_max:.3e} at t={t}"
            )
        return d


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _check_pd(G: np.ndarray, what: str, t: int) -> np.ndarray:
    """Ascending eigenvalues of the symmetric G, else ConditioningError naming what and t.

    The one PD test of cost weights and input Hessians: G must be PD with
    rcond >= RCOND_FLOOR.  The eigenvalues give both the exact 2-norm rcond and
    the PD test; a non-finite G is singular without asking eigvalsh, whose NaN
    output depends on LAPACK.  The diagnosis runs only on failure.
    """
    eigs = np.linalg.eigvalsh(G) if np.isfinite(G).all() else np.zeros(1)
    if eigs[0] > 0.0 and eigs[0] >= RCOND_FLOOR * eigs[-1]:
        return eigs
    mags = np.abs(eigs)
    if not (mags.max() > 0.0 and mags.min() / mags.max() >= RCOND_FLOOR):
        raise ConditioningError(
            f"{what} at t={t} is numerically singular (rcond below {RCOND_FLOOR:.0e})"
        )
    raise ConditioningError(f"{what} at t={t} not PD (min eigenvalue {eigs[0]:.3e})")


@dataclass
class QuadraticStageCost:
    """Stage cost c_t(x, u) = x'Q_t x + u'R_t u with PD weights.

    The derived constants (M_lower, M_upper) returned by `bounds` satisfy
        M_lower ||x||^2 <= c_t(x, u) <= M_upper (||x||^2 + ||u||^2)
    for all t in the queried range; M_lower is the smallest eigenvalue of any
    Q_t, so unstable states cannot be hidden from the cost.
    """

    Q: MatrixSequence
    R: MatrixSequence

    @classmethod
    def constant(cls, Q, R) -> "QuadraticStageCost":
        Q, R = np.asarray(Q, dtype=float), np.asarray(R, dtype=float)
        if Q.ndim != 2 or R.ndim != 2:
            raise ShapeError(f"Q and R must be matrices, got shapes {Q.shape} and {R.shape}")
        return cls.varying(Q, R, len(Q), len(R))

    @classmethod
    def varying(cls, Q, R, n, m) -> "QuadraticStageCost":
        return cls(Q=matrix_sequence(Q, (n, n), "Q"), R=matrix_sequence(R, (m, m), "R"))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def stage(self, t: int, x: np.ndarray, u: np.ndarray) -> float:
        Qt = self.Q(t)
        Rt = self.R(t)
        return float(x @ Qt @ x + u @ Rt @ u)

    def bounds(self, T: int) -> tuple[float, float]:
        """(M_lower, M_upper) over 0..T from _check_pd on each weight's symmetric part.

        A weight not symmetric within 1e-10 (1 + max|M|) then raises
        AssumptionViolationError; tested second, a NaN weight reads singular.
        """
        ts = [0] if (self.Q.constant and self.R.constant) else range(T + 1)
        m_lower, m_upper = np.inf, 0.0
        for t in ts:
            for seq in (self.Q, self.R):
                M = seq(t)
                eigs = _check_pd(_sym(M), seq.what, t)
                if not np.allclose(M, M.T, atol=1e-10 * (1.0 + np.abs(M).max())):
                    raise AssumptionViolationError(f"{seq.what} at t={t} is not symmetric")
                if seq is self.Q:
                    m_lower = min(m_lower, eigs[0])
                m_upper = max(m_upper, eigs[-1])
        return float(m_lower), float(m_upper)


@dataclass
class DisturbanceSignal:
    """Realized disturbance rows w_0..w_{T-1} with a declared norm bound."""

    w: np.ndarray
    bound: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2:
            raise ShapeError(f"disturbance must be (T, n), got shape {self.w.shape}")
        self.bound = float(self.bound)
        if len(self.w):
            worst = float(np.max(np.linalg.norm(self.w, axis=1)))
            if worst > self.bound + BOUND_SLACK:
                raise AssumptionViolationError(
                    f"disturbance norm {worst:.6e} exceeds declared bound {self.bound:.6e}"
                )

    @classmethod
    def zeros(cls, n: int, T: int) -> "DisturbanceSignal":
        return cls(np.zeros((T, n)), 0.0)

    @property
    def horizon(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]


def disturbance_prefix(w, n: int, T: int | None = None) -> tuple[np.ndarray, int]:
    """The rows w_0..w_{T-1} of w and T, which defaults to the length of w.

    w is a DisturbanceSignal or a (steps, n) array (a 1-d array when n = 1);
    a width other than n, a negative T, or fewer than T steps raises ShapeError.
    """
    rows = w.w if isinstance(w, DisturbanceSignal) else np.asarray(w, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ShapeError(f"disturbance has shape {rows.shape}, expected (steps, {n})")
    T = len(rows) if T is None else int(T)
    if T < 0:
        raise ShapeError(f"horizon T={T} is negative")
    if len(rows) < T:
        raise ShapeError(f"disturbance covers {len(rows)} steps, need {T}")
    return rows[:T], T


def check_grid(horizons, scales=None) -> np.ndarray:
    """horizons as an int array; ShapeError unless they are nonempty, strictly
    increasing and >= 0, and scales, when given, holds one scale per horizon."""
    horizons = np.asarray(horizons, dtype=int)
    if (horizons.ndim != 1 or not len(horizons) or horizons[0] < 0
            or (horizons[1:] <= horizons[:-1]).any()):
        raise ShapeError(f"horizons must be nonempty, strictly increasing and >= 0, got {horizons}")
    if scales is not None and np.shape(scales) != horizons.shape:
        raise ShapeError(f"{np.shape(scales)} scales for {len(horizons)} horizons")
    return horizons


@dataclass
class Trajectory:
    """One rollout: states x_0..x_T, inputs u_0..u_T, per-step and total cost."""

    states: np.ndarray
    inputs: np.ndarray
    stage_costs: np.ndarray
    total_cost: float

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    def cumulative_costs(self) -> np.ndarray:
        return np.cumsum(self.stage_costs)


def closed_loop_matrix(system: SystemDynamics, policy: LinearPolicy, t: int) -> np.ndarray:
    """Closed-loop matrix A_t - B_t K_t at time t."""
    return system.A(t) - system.B(t) @ policy.K(t)


def closed_loop(system: SystemDynamics, policy: LinearPolicy) -> MatrixSequence:
    """The closed-loop matrix sequence; collapses to a constant when both are."""
    n = system.n
    if system.kind == "LTI" and policy.K.constant:
        return MatrixSequence(closed_loop_matrix(system, policy, 0), (n, n), "F")
    return MatrixSequence(
        lambda t: closed_loop_matrix(system, policy, t), (n, n), "F"
    )


# The guard is first tested on the whole batch: while the batch's sum of
# squares stays below this, every row is within OVERFLOW_LIMIT.
_BATCH_GUARD = 0.99 * OVERFLOW_LIMIT**2

# The batch guard is tested once per chunk of this many steps.
_GUARD_CHUNK = 32


@dataclass
class _Rollout:
    """One batched rollout: states (T+1, rows, n), inputs (T+1, rows, m) and
    stage costs (T+1, rows); per row, the step at which the state norm `peak`
    broke the overflow guard, or 0."""

    states: np.ndarray
    inputs: np.ndarray
    stage: np.ndarray
    overflow: np.ndarray
    peak: np.ndarray

    def raise_overflow(self) -> None:
        """Raise SimulationOverflowError for the first row that overflowed, if any."""
        bad = np.flatnonzero(self.overflow)
        if len(bad):
            i = bad[0]
            raise SimulationOverflowError(self.overflow[i], self.peak[i], OVERFLOW_LIMIT)

    def trajectory(self) -> Trajectory:
        """The first row as a Trajectory."""
        stage = self.stage[:, 0]
        return Trajectory(self.states[:, 0], self.inputs[:, 0], stage, float(stage.sum()))


def _stage_costs(costs: QuadraticStageCost, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """x_t'Q_t x_t + u_t'R_t u_t for states X (T+1, rows, n) and inputs U (T+1, rows, m)."""
    total = 0.0
    for seq, V in ((costs.Q, X), (costs.R, U)):
        if seq.constant:
            VM = (V.reshape(-1, V.shape[-1]) @ seq(0)).reshape(V.shape)
        else:
            VM = V @ seq.stack(len(V))
        total = total + np.sum(VM * V, axis=-1)
    return total


def check_dims(system: SystemDynamics, costs: QuadraticStageCost, x0, policy=None) -> None:
    """Raise ShapeError unless the initial states x0 (rows, n), the cost weights and
    the policy's gain fit the system's (n, m)."""
    n, m = system.n, system.m
    if np.shape(x0)[1:] != (n,):
        raise ShapeError(f"x0 has shape {np.shape(x0)[1:]}, expected ({n},)")
    if costs.n != n or costs.m != m:
        raise ShapeError(
            f"cost weights sized for (n={costs.n}, m={costs.m}), system has (n={n}, m={m})"
        )
    if policy is not None and (policy.m, policy.n) != (m, n):
        raise ShapeError(f"gain is {policy.K.shape}, expected ({m}, {n}) for this system")


def _rollout(system, costs, x0, w, T, policy=None, inputs=None, scales=None) -> _Rollout:
    """The rollout kernel: rows of (x0, w) stepped together for T steps.

    The input is u_t = -K_t x_t + d_t under `policy`, else the open-loop
    inputs[t] (T+1, m), else zero.  x0 is (rows, n); w is (T, n), shared by
    all rows and multiplied by scales[row] when scales is given, or one
    signal per row, (rows, T, n).  A row whose state norm exceeds
    OVERFLOW_LIMIT (or is not finite) at step t records overflow = t and is
    held at zero afterwards; the loop stops once every row has overflowed.
    Stage costs are computed after the loop.

    The floats are those of a per-step loop with the guard after every step.
    The disturbance, scaled per row, is written into the states up front, and
    each step adds x_t A_t' + u_t B_t' to it (IEEE addition commutes).  The
    guard is tested once per _GUARD_CHUNK steps, on the chunk's sum of
    squares.  A chunk that trips it is replayed from its first state, step by
    step with the per-step guard; rows never depend on each other, so the
    replay gives the states, inputs, overflow steps and peaks of a per-step
    guard.  The caller decides whether an overflow raises (raise_overflow).
    """
    check_dims(system, costs, x0, policy)
    n, m = system.n, system.m
    AT = system.A.stack(T).transpose(0, 2, 1)
    BT = system.B.stack(T).transpose(0, 2, 1)
    # x (-K)' equals -(x K') exactly, so the gain stack is negated once
    negKT = None if policy is None else (-policy.K.stack(T + 1)).transpose(0, 2, 1)
    d = inputs if policy is None else policy.offsets(T)
    driven = negKT is not None or d is not None
    if w.ndim == 3:
        w = w.transpose(1, 0, 2)

    rows = len(x0)
    X = np.zeros((T + 1, rows, n))
    U = np.zeros((T + 1, rows, m))
    X[0] = x0
    overflow = np.zeros(rows, dtype=int)
    peak = np.zeros(rows)
    drift = np.empty((rows, n))

    def disturb(lo, hi):
        """Write w_lo..w_{hi-1} (times scales[row]) into X[lo+1 : hi+1]."""
        wr = w[lo:hi] if w.ndim == 3 else w[lo:hi, None]
        if scales is None:
            X[lo + 1 : hi + 1] = wr
        else:
            np.multiply(scales[:, None], wr, out=X[lo + 1 : hi + 1])

    def step(t):
        """Write u_t and, for t < T, add x_t A_t' + u_t B_t' to the w_t in X[t+1]."""
        x, u = X[t], U[t]
        if negKT is not None:
            np.matmul(x, negKT[t], out=u)
        if d is not None:
            u += d[t]
        if t < T:
            np.matmul(x, AT[t], out=drift)
            if driven:
                np.add(drift, u @ BT[t], out=drift)
            X[t + 1] += drift

    def run():
        dead = None
        for t0 in range(0, T, _GUARD_CHUNK):
            t1 = min(t0 + _GUARD_CHUNK, T)
            for t in range(t0, t1):
                step(t)
                if dead is not None:
                    X[t + 1, dead] = 0.0
            chunk = X[t0 + 1 : t1 + 1]
            if np.vdot(chunk, chunk) <= _BATCH_GUARD:
                continue
            disturb(t0, t1)
            U[t0:t1] = 0.0
            for t in range(t0, t1):
                step(t)
                nxt = X[t + 1]
                if not np.vdot(nxt, nxt) <= _BATCH_GUARD:
                    norms = np.linalg.norm(nxt, axis=1)
                    burst = ~(norms <= OVERFLOW_LIMIT) & (overflow == 0)
                    overflow[burst] = t + 1
                    peak[burst] = norms[burst]
                    dead = overflow > 0
                if dead is not None:
                    nxt[dead] = 0.0
                    if dead.all():
                        X[t + 2 :] = 0.0
                        return
        step(T)

    with np.errstate(over="ignore", invalid="ignore"):
        disturb(0, T)
        run()
        stage = _stage_costs(costs, X, U)
    return _Rollout(X, U, stage, overflow, peak)


def simulate(
    system: SystemDynamics,
    policy: LinearPolicy,
    x0,
    w,
    costs: QuadraticStageCost,
    T: int | None = None,
) -> Trajectory:
    """Roll out the closed loop for T steps and accumulate stage costs.

    The disturbance gives steps 0..T-1.  The terminal input u_T = -K_T x_T is
    applied (it enters c_T but has no successor state).  Aborts with
    SimulationOverflowError at the first state whose norm exceeds the guard.
    """
    w, T = disturbance_prefix(w, system.n, T)
    roll = _rollout(system, costs, np.asarray(x0, dtype=float)[None], w, T, policy)
    roll.raise_overflow()
    return roll.trajectory()


def simulate_grid(
    system: SystemDynamics,
    policy: LinearPolicy | None,
    x0,
    base,
    scales,
    horizons,
    costs: QuadraticStageCost,
) -> tuple[np.ndarray, np.ndarray]:
    """Total costs of the closed loop on a horizon grid, one rollout of each distinct scale.

    Entry i is the total of simulate(system, policy, x0, scales[i] * base[:T],
    costs, T) with T = horizons[i], equal in value; policy None applies zero
    input.  Horizons with equal scales share one row of a batch run up to the
    longest horizon, and each total is read at its own horizon.  A batch of one
    row takes numpy's matrix-vector path, which rounds differently, so a grid
    of two or more horizons rolls out at least two rows: its floats do not
    depend on how many horizons share a scale.
    Returns (totals, overflow): a horizon whose rollout breaks the guard at
    step t <= T gets overflow[i] = t and totals[i] = inf, the step that
    simulate reports in its SimulationOverflowError; overflow[i] = 0 otherwise.
    """
    x0 = np.asarray(x0, dtype=float)
    horizons = check_grid(horizons, scales)
    base, T_max = disturbance_prefix(base, system.n, horizons[-1])
    scales = np.asarray(scales, dtype=float)
    if len(horizons) == 1:
        distinct, row = scales, np.zeros(1, dtype=int)
    else:
        distinct, row = np.unique(scales, return_inverse=True)
        if len(distinct) == 1:
            distinct = np.repeat(distinct, 2)
    x0s = np.tile(x0, (len(distinct), 1))
    roll = _rollout(system, costs, x0s, base, T_max, policy, scales=distinct)
    # sequential prefix sums: each total adds its stage costs in time order
    totals = np.cumsum(roll.stage, axis=0)[horizons, row]
    overflow = np.where(roll.overflow[row] <= horizons, roll.overflow[row], 0)
    totals[overflow > 0] = np.inf
    return totals, overflow


def simulate_inputs(
    system: SystemDynamics,
    x0,
    w,
    inputs,
    costs: QuadraticStageCost,
) -> Trajectory:
    """Roll out an explicit input sequence u_0..u_{T-1}; the terminal input is 0."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    w, T = disturbance_prefix(w, system.n, len(inputs))
    if inputs.shape[1] != system.m:
        raise ShapeError(f"inputs have m={inputs.shape[1]}, expected {system.m}")
    u = np.zeros((T + 1, system.m))
    u[:T] = inputs
    roll = _rollout(system, costs, np.asarray(x0, dtype=float)[None], w, T, inputs=u)
    roll.raise_overflow()
    return roll.trajectory()


def evaluate_cost(traj: Trajectory, costs: QuadraticStageCost) -> float:
    """Recompute the total cost of a trajectory; idempotent with total_cost."""
    if len(traj.states) != len(traj.inputs):
        raise ShapeError("trajectory states and inputs have different lengths")
    return float(_stage_costs(costs, traj.states[:, None], traj.inputs[:, None]).sum())


def tracking_transform(system: SystemDynamics, r, w) -> DisturbanceSignal:
    """Fold a reference signal into an equivalent regulation disturbance.

    nu_t = w_t - r_{t+1} + A_t r_t.  Simulating the error dynamics (same A, B)
    under nu reproduces x_t - r_t of the original loop when the controller
    feeds back on the error.
    """
    w, T = disturbance_prefix(w, system.n)
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    if r.shape[0] < T + 1:
        raise ShapeError(f"reference must cover 0..{T} ({T + 1} rows), got {r.shape[0]}")
    if r.shape[1] != system.n:
        raise ShapeError(f"reference has n={r.shape[1]}, expected {system.n}")
    nu = np.zeros((T, system.n))
    for t in range(T):
        nu[t] = w[t] - r[t + 1] + system.A(t) @ r[t]
    bound = float(np.max(np.linalg.norm(nu, axis=1))) if T else 0.0
    return DisturbanceSignal(nu, bound)
