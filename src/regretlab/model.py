"""Core types and closed-loop simulation for linear systems with bounded disturbances.

The loop under study is

    x_{t+1} = A_t x_t + B_t u_t + w_t,      u_t = -K_t x_t (+ d_t),

with quadratic stage costs x'Q_t x + u'R_t u and disturbances bounded in
Euclidean norm.  All operations here are pure and deterministic; generator
sequences are memoized so repeated queries return identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, ShapeError, SimulationOverflowError

# Rollouts abort with a structured error instead of propagating non-finite values.
OVERFLOW_LIMIT = 1e150

# Slack allowed on declared norm bounds (disturbances, affine offsets).
BOUND_SLACK = 1e-12


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


def matrix_sequence(source, shape, what="matrix") -> MatrixSequence:
    """Coerce an array / stack / callable / MatrixSequence to a MatrixSequence."""
    if isinstance(source, MatrixSequence):
        if source.shape != tuple(shape):
            raise ShapeError(
                f"{what} sequence has shape {source.shape}, expected {tuple(shape)}"
            )
        return source
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
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.ndim != 2 or B.shape[0] != n:
            raise ShapeError(f"B must be {n}xm, got {B.shape}")
        m = B.shape[1]
        return cls(
            A=MatrixSequence(A, (n, n), "A"),
            B=MatrixSequence(B, (n, m), "B"),
            n=n,
            m=m,
            kind="LTI",
        )

    @classmethod
    def ltv(cls, A, B, n=None, m=None) -> "SystemDynamics":
        if n is None or m is None:
            if callable(A) or callable(B):
                probe_A = np.asarray(A(0) if callable(A) else np.asarray(A)[0], float)
                probe_B = np.asarray(B(0) if callable(B) else np.asarray(B)[0], float)
            else:
                probe_A = np.asarray(A, dtype=float)[0]
                probe_B = np.asarray(B, dtype=float)[0]
            n = probe_A.shape[0]
            m = probe_B.shape[1]
        return cls(
            A=matrix_sequence(A, (n, n), "A"),
            B=matrix_sequence(B, (n, m), "B"),
            n=n,
            m=m,
            kind="LTV",
        )


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
        m, n = K.shape
        seq = MatrixSequence(K, (m, n), "K")
        if d is None:
            return cls(K=seq)
        d = np.asarray(d, dtype=float)
        bound = float(np.linalg.norm(d)) if d_max is None else float(d_max)
        return cls(K=seq, d=MatrixSequence(d, (m,), "d"), d_max=bound)

    @classmethod
    def varying(cls, K, m, n, d=None, d_max=0.0) -> "LinearPolicy":
        seq = matrix_sequence(K, (m, n), "K")
        off = None if d is None else matrix_sequence(d, (m,), "d")
        return cls(K=seq, d=off, d_max=float(d_max))

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
        Q = np.asarray(Q, dtype=float)
        R = np.asarray(R, dtype=float)
        return cls(
            Q=MatrixSequence(Q, Q.shape, "Q"),
            R=MatrixSequence(R, R.shape, "R"),
        )

    @classmethod
    def varying(cls, Q, R, n, m) -> "QuadraticStageCost":
        return cls(
            Q=matrix_sequence(Q, (n, n), "Q"),
            R=matrix_sequence(R, (m, m), "R"),
        )

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
        """(M_lower, M_upper) over 0..T; raises if any weight is not symmetric PD."""
        ts = [0] if (self.Q.constant and self.R.constant) else range(T + 1)
        m_lower = np.inf
        m_upper = 0.0
        for t in ts:
            for name, M in (("Q", self.Q(t)), ("R", self.R(t))):
                if not np.allclose(M, M.T, atol=1e-10 * (1.0 + np.abs(M).max())):
                    raise AssumptionViolationError(f"{name}_{t} is not symmetric")
                eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
                if eigs[0] <= 0.0:
                    raise AssumptionViolationError(
                        f"{name}_{t} is not positive definite (min eig {eigs[0]:.3e})"
                    )
                if name == "Q":
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


def as_disturbance(w, n=None) -> DisturbanceSignal:
    if not isinstance(w, DisturbanceSignal):
        arr = np.asarray(w, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        bound = float(np.max(np.linalg.norm(arr, axis=1))) if len(arr) else 0.0
        w = DisturbanceSignal(arr, bound)
    if n is not None and w.n != n:
        raise ShapeError(f"disturbance has n={w.n}, expected {n}")
    return w


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


def _rollout(system, costs, x0, w, T, policy=None, inputs=None, scales=None) -> _Rollout:
    """The rollout kernel: rows of (x0, w) stepped together for T steps.

    The input is u_t = -K_t x_t + d_t under `policy`, else the open-loop
    inputs[t] (T+1, m), else zero.  x0 is (rows, n); w is (T, n), shared by
    all rows and multiplied by scales[row] when scales is given, or one
    signal per row, (rows, T, n).  A row whose state norm exceeds
    OVERFLOW_LIMIT (or is not finite) at step t records overflow = t and is
    held at zero afterwards; the loop stops once every row has overflowed.
    Stage costs are computed after the loop.
    """
    n, m = system.n, system.m
    if x0.shape[1:] != (n,):
        raise ShapeError(f"x0 has shape {x0.shape[1:]}, expected ({n},)")
    if costs.n != n or costs.m != m:
        raise ShapeError(
            f"cost weights sized for (n={costs.n}, m={costs.m}), system has (n={n}, m={m})"
        )
    if policy is not None and (policy.m, policy.n) != (m, n):
        raise ShapeError(f"gain is {policy.K.shape}, expected ({m}, {n}) for this system")
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
            if not np.vdot(nxt, nxt) <= _BATCH_GUARD:
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

    The disturbance covers steps 0..T-1.  The terminal input u_T = -K_T x_T is
    applied (it enters c_T but has no successor state).  Aborts with
    SimulationOverflowError at the first state whose norm exceeds the guard.
    """
    w = as_disturbance(w, system.n)
    if T is None:
        T = w.horizon
    if w.horizon < T:
        raise ShapeError(f"disturbance covers {w.horizon} steps, need {T}")
    roll = _rollout(system, costs, np.asarray(x0, dtype=float)[None], w.w[:T], T, policy)
    roll.raise_overflow()
    return roll.trajectory()


def simulate_grid(
    system: SystemDynamics,
    policy: LinearPolicy,
    x0,
    base,
    scales,
    horizons,
    costs: QuadraticStageCost,
) -> tuple[np.ndarray, np.ndarray]:
    """Total costs of the closed loop on a horizon grid, all horizons rolled out together.

    Row i is simulate(system, policy, x0, scales[i] * base[:T], costs, T) with
    T = horizons[i]; the rows run as one batch up to the longest horizon.
    Returns (totals, overflow): a row whose state norm exceeds the guard at
    step t <= T gets overflow[i] = t and totals[i] = inf, the step that
    simulate reports in its SimulationOverflowError; overflow[i] = 0 otherwise.
    """
    x0 = np.asarray(x0, dtype=float)
    horizons = np.asarray(horizons, dtype=int)
    T_max = int(horizons[-1])
    if len(base) < T_max:
        raise ShapeError(f"disturbance covers {len(base)} steps, need {T_max}")
    x0s = np.tile(x0, (len(horizons), 1))
    roll = _rollout(
        system, costs, x0s, base[:T_max], T_max, policy, scales=np.asarray(scales, dtype=float)
    )
    # sequential prefix sums: each total adds its stage costs in time order
    totals = np.cumsum(roll.stage, axis=0)[horizons, np.arange(len(horizons))]
    overflow = np.where(roll.overflow <= horizons, roll.overflow, 0)
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
    T = inputs.shape[0]
    w = as_disturbance(w, system.n)
    if w.horizon < T:
        raise ShapeError(f"disturbance covers {w.horizon} steps, need {T}")
    if inputs.shape[1] != system.m:
        raise ShapeError(f"inputs have m={inputs.shape[1]}, expected {system.m}")
    u = np.zeros((T + 1, system.m))
    u[:T] = inputs
    roll = _rollout(system, costs, np.asarray(x0, dtype=float)[None], w.w[:T], T, inputs=u)
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
    w = as_disturbance(w, system.n)
    T = w.horizon
    r = np.asarray(r, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    if r.shape[0] < T + 1:
        raise ShapeError(f"reference must cover 0..{T} ({T + 1} rows), got {r.shape[0]}")
    if r.shape[1] != system.n:
        raise ShapeError(f"reference has n={r.shape[1]}, expected {system.n}")
    nu = np.zeros((T, system.n))
    for t in range(T):
        nu[t] = w.w[t] - r[t + 1] + system.A(t) @ r[t]
    bound = float(np.max(np.linalg.norm(nu, axis=1))) if T else 0.0
    return DisturbanceSignal(nu, bound)
