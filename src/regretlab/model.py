"""Core types and closed-loop simulation for linear systems with bounded disturbances.

The loop under study is

    x_{t+1} = A_t x_t + B_t u_t + w_t,      u_t = -K_t x_t (+ d_t),

with quadratic stage costs x'Q_t x + u'R_t u and disturbances bounded in
Euclidean norm.  Each time-indexed input is one array: a constant of the
per-step shape, or a stack of its steps.  All operations here are pure and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, ConditioningError, ShapeError, SimulationOverflowError

# Rollouts abort with a structured error instead of propagating non-finite values.
OVERFLOW_LIMIT = 1e150

# Slack allowed on a declared disturbance bound, relative to max(1, bound).
BOUND_SLACK = 1e-12

# A sampled cost may pass a certified bound, or fall short of a floor, by this fraction of it.
REL_SLACK = 1e-9

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


def write_csv(path, header, row_format, rows) -> None:
    """Write the header fields, then row_format % row for each row, every line ending in \r\n.

    The bytes are those of csv.writer on the same text, since no field
    written here needs quoting; "%.17g" prints a float as f"{x:.17g}" does.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % tuple(row) + "\r\n" for row in rows)


class MatrixSequence:
    """Time-indexed family of fixed-shape arrays: one constant array, or a stack indexed by t.

    `values` holds the array: of the per-step shape when constant, else
    (count, *shape) with step t at values[t].  Works for matrices and for
    vectors (pass a 1-d shape).
    """

    def __init__(self, source, shape, what="matrix"):
        self.shape = tuple(shape)
        self.what = what
        self.values = v = np.asarray(source, dtype=float)
        self.constant = v.ndim == len(self.shape)
        if self.constant:
            if v.shape != self.shape:
                raise ShapeError(f"{what} has shape {v.shape}, expected {self.shape}")
        elif v.ndim != len(self.shape) + 1:
            raise ShapeError(f"{what} must have shape {self.shape} per step")
        elif v.shape[1:] != self.shape:
            raise ShapeError(f"{what} stack has per-step shape {v.shape[1:]}, "
                             f"expected {self.shape}")

    def __call__(self, t: int) -> np.ndarray:
        if t < 0:
            raise ShapeError(f"{self.what} queried at negative time {t}")
        if self.constant:
            return self.values
        if t >= len(self.values):
            raise ShapeError(f"{self.what} defined for t < {len(self.values)}, got t={t}")
        return self.values[t]

    def _rows(self, start: int, count: int) -> np.ndarray:
        """Rows start..start+count-1 of a stack; a stack too short for them raises the
        ShapeError of its first missing step, the one a loop reading them in order stops at."""
        if count and len(self.values) < start + count:
            self(max(start, len(self.values)))
        return self.values[start : start + count]

    def stack(self, count: int) -> np.ndarray:
        """Steps 0..count-1 as one (count, *shape) array; a read-only view when constant."""
        if self.constant:
            return np.broadcast_to(self.values, (count, *self.shape))
        return self._rows(0, count)

    def steps(self, count: int, transpose: bool = False, start: int = 0) -> list[np.ndarray] | np.ndarray:
        """Steps start..start+count-1 (each transposed when asked) for a loop to step through.

        The one step reader of the kernel loops.  A stack's are its rows; a
        constant's are its one array, count times over in a list, so that no
        stack is built and no view is made per step.  Either way each step has
        the strides of a row of stack(), so a product on it is the same BLAS
        call.  A short stack raises as stack() does, naming its first missing step.
        """
        if self.constant:
            return [self.values.T if transpose else self.values] * count
        rows = self._rows(start, count)
        return rows.transpose(0, 2, 1) if transpose else rows

    def distinct(self, count: int) -> np.ndarray:
        """Step 0 alone as a (1, *shape) array when constant, else stack(count)."""
        return self.values[None] if self.constant else self.stack(count)


def matrix_sequence(source, shape=None, what="matrix") -> MatrixSequence:
    """Coerce an array / stack / MatrixSequence to a MatrixSequence.

    Without shape, the per-step shape is inferred: a 2-d array is constant and
    a 3-d array is a stack of its steps.
    """
    if isinstance(source, MatrixSequence):
        if shape is not None and source.shape != tuple(shape):
            raise ShapeError(
                f"{what} sequence has shape {source.shape}, expected {tuple(shape)}"
            )
        return source
    if shape is None:
        source = np.asarray(source, dtype=float)
        if source.ndim not in (2, 3):
            raise ShapeError(f"{what} must be a matrix or a stack of matrices, "
                             f"got shape {source.shape}")
        shape = source.shape[-2:]
    return MatrixSequence(source, shape, what)


@dataclass
class SystemDynamics:
    """Time-indexed state-space pair (A_t, B_t); n, m and constancy are read from them."""

    A: MatrixSequence
    B: MatrixSequence

    @classmethod
    def lti(cls, A, B) -> "SystemDynamics":
        A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        if A.ndim != 2 or B.ndim != 2:
            raise ShapeError(f"A and B must be matrices, got shapes {A.shape} and {B.shape}")
        return cls.ltv(A, B)

    @classmethod
    def ltv(cls, A, B, n=None, m=None) -> "SystemDynamics":
        """(A_t, B_t) from matrices or stacks; n and m default to inferred ones."""
        A = matrix_sequence(A, None if n is None else (n, n), "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ShapeError(f"A must be square, got {A.shape}")
        B = matrix_sequence(B, None if m is None else (n, m), "B")
        if B.shape[0] != n:
            raise ShapeError(f"B must be {n}xm, got {B.shape}")
        return cls(A=A, B=B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass
class LinearPolicy:
    """State feedback u_t = -K_t x_t, optionally with an offset d_t."""

    K: MatrixSequence
    d: MatrixSequence | None = None

    @classmethod
    def constant(cls, K) -> "LinearPolicy":
        K = np.asarray(K, dtype=float)
        if K.ndim != 2:
            raise ShapeError(f"gain must be 2-d, got shape {K.shape}")
        return cls.varying(K)

    @classmethod
    def varying(cls, K, d=None) -> "LinearPolicy":
        """K_t from a matrix or stack; d_t, if given, has length m = K's rows."""
        K = matrix_sequence(K, what="K")
        return cls(K=K, d=None if d is None else matrix_sequence(d, K.shape[:1], "d"))

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def n(self) -> int:
        return self.K.shape[1]

    def offsets(self, T: int) -> np.ndarray | None:
        """Offsets d_0..d_T as a (T+1, m) array, None without offsets."""
        return None if self.d is None else self.d.stack(T + 1)


def _step_product(n: int):
    """The 2-D product of the kernel loops on n-state steps: ndarray.dot, np.matmul for n = 1.

    dot(a, b, out=buf) skips np.matmul's gufunc dispatch and reaches the same
    BLAS call, so the same bits, on 2-D operands: 0.65 against 1.69 us for a
    (2,4)x(4,4) product into a buffer, 0.73 against 1.67 us for an allocating
    3x3 one (numpy 2.4.6, 2-vCPU Intel Xeon).  Its limits: out must be
    C-contiguous (else ValueError), N-D dot is another contraction (batched
    products stay on np.matmul), and an overflow warning reads "in dot".  A
    one-element operand sends dot to numpy's scalar route, a bare product
    (-0.0 where matmul's sum from +0.0 gives +0.0) or an axpy that skips a
    zero factor (0 where matmul gives 0 * inf = NaN), so one-state loops keep
    np.matmul; for n >= 2 the only one-element operand is a single row's
    u_t at m = 1, whose product with a finite B_t' is matmul's.
    """
    return np.matmul if n == 1 else np.ndarray.dot


def _sym(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(M + M') / 2, written into out when given."""
    return np.multiply(np.add(M, M.T, out=out), 0.5, out=out)


def _check_pd(G: np.ndarray, what: str, t) -> np.ndarray:
    """Ascending eigenvalues of the symmetric G, else ConditioningError naming what and a step.

    The one PD test of cost weights and input Hessians: G must be PD with
    rcond >= RCOND_FLOOR.  The eigenvalues give both the exact 2-norm rcond and
    the PD test.  G is one (m, m) matrix of step t, or a (count, m, m) stack
    whose entry i is step t[i]: one batched eigvalsh checks it, and the error
    names the first entry that fails, in the order given.  A non-finite entry
    (say, overflowed) is reported as not finite without eigvalsh, whose NaN
    output depends on LAPACK, once every finite entry before it passed.  The
    diagnosis runs only on failure.
    """
    single = np.ndim(G) == 2
    stack = G[None] if single else G
    finite = np.isfinite(stack).all(axis=(1, 2))
    k = len(stack) if finite.all() else int(np.argmin(finite))
    eigs = np.linalg.eigvalsh(stack[:k])
    ok = (eigs[:, 0] > 0.0) & (eigs[:, 0] >= RCOND_FLOOR * eigs[:, -1])
    if ok.all() and k == len(stack):
        return eigs[0] if single else eigs
    if ok.all():
        fault = "is not finite (a NaN or inf entry, or an overflow)"
    else:
        k = int(np.argmin(ok))
        mags = np.abs(eigs[k])
        if not (mags.max() > 0.0 and mags.min() / mags.max() >= RCOND_FLOOR):
            fault = f"is numerically singular (rcond below {RCOND_FLOOR:.0e})"
        else:
            fault = f"not PD (min eigenvalue {eigs[k, 0]:.3e})"
    raise ConditioningError(f"{what} at t={t if single else t[k]} {fault}")


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
        return cls.varying(Q, R)

    @classmethod
    def varying(cls, Q, R) -> "QuadraticStageCost":
        """Q_t and R_t from matrices or stacks; each must be square."""
        Q, R = matrix_sequence(Q, what="Q"), matrix_sequence(R, what="R")
        if Q.shape[0] != Q.shape[1] or R.shape[0] != R.shape[1]:
            raise ShapeError(f"Q and R must be square, got shapes {Q.shape} and {R.shape}")
        return cls(Q=Q, R=R)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def bounds(self, T: int) -> tuple[float, float]:
        """(M_lower, M_upper) over 0..T from _check_pd on each weight's symmetric part.

        A weight not symmetric within 1e-10 (1 + max|M|) then raises
        AssumptionViolationError; tested second, a NaN weight reads not finite.
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
    """Realized disturbance rows w_0..w_{T-1} with a declared norm bound.

    A row may exceed the bound by BOUND_SLACK * max(1, bound): the rounding of
    a signal built as bound * (unit vector) grows with the bound.
    """

    w: np.ndarray
    bound: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2:
            raise ShapeError(f"disturbance must be (T, n), got shape {self.w.shape}")
        self.bound = float(self.bound)
        if len(self.w):
            worst = float(np.max(np.linalg.norm(self.w, axis=1)))
            if worst > self.bound + BOUND_SLACK * max(1.0, self.bound):
                raise AssumptionViolationError(
                    f"disturbance norm {worst:.6e} exceeds declared bound {self.bound:.6e}"
                )

    @classmethod
    def zeros(cls, n: int, T: int) -> "DisturbanceSignal":
        return cls(np.zeros((T, n)), 0.0)

    def realize(self, T: int) -> "DisturbanceSignal":
        """The first T rows: a fixed signal is its own recipe."""
        return DisturbanceSignal(self.w[:T], self.bound)

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
    """horizons as an int array; ShapeError unless they are nonempty, integral, strictly
    increasing and >= 0, and scales, when given, holds one scale per horizon."""
    values = np.asarray(horizons, dtype=float)
    if not np.isfinite(values).all() or (values % 1).any():
        raise ShapeError(f"horizons must be integers, got {horizons}")
    horizons = values.astype(int)
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
    """The closed-loop matrix sequence F_t = A_t - B_t K_t.

    Constant when A, B and K all are; else a stack as long as the shortest
    stack among them, formed in one batched product.
    """
    seqs = (system.A, system.B, policy.K)
    if all(seq.constant for seq in seqs):
        F = closed_loop_matrix(system, policy, 0)
    else:
        c = min(len(seq.values) for seq in seqs if not seq.constant)
        F = system.A.stack(c) - system.B.stack(c) @ policy.K.stack(c)
    return MatrixSequence(F, (system.n, system.n), "F")


# While the sum of squares of all states after x0 stays below this, every
# row is within OVERFLOW_LIMIT; the margin covers rounding between that sum
# and a row's norm.
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


def _rollout(system, costs, x0, w, T, policy=None, scales=None) -> _Rollout:
    """The rollout kernel: rows of (x0, w) stepped together for T steps.

    Every row runs under one input rule: u_t = -K_t x_t + d_t under `policy`,
    else zero; open-loop inputs are the offsets of a zero gain
    (simulate_inputs).  x0 is (rows, n); w is (T, n), shared by all rows and
    multiplied by scales[row] when scales is given, or one signal per row,
    (rows, T, n).  A row whose state norm exceeds
    OVERFLOW_LIMIT (or is not finite) first at step t >= 1 records
    overflow = t and is dead from t on: its states are zero and its inputs
    are the offsets d_t (zero without them), and once every row is dead all
    inputs are zero.  Stage costs are computed after the guard.

    The floats are those of a per-step loop with the guard after every step.
    The disturbance, scaled per row, is written into the states up front, and
    each step adds x_t A_t' + u_t B_t' to it (IEEE addition commutes).  The
    loop steps through views and MatrixSequence.steps zipped once, and
    writes each product (_step_product) into a buffer made before it.
    Every row is stepped to T, a diverging one on inf and NaN; the guard
    runs once after the loop, on the batch's sum of squares and, only when
    that breaks _BATCH_GUARD, on each state's norm.  Rows never depend on each other, so
    a row's states up to its overflow, its overflow step and its peak are
    those of a per-step guard.  The caller decides whether an overflow raises
    (raise_overflow).
    """
    check_dims(system, costs, x0, policy)
    n, m = system.n, system.m
    AT, BT = system.A.steps(T, transpose=True), system.B.steps(T, transpose=True)
    # x (-K)' equals -(x K') exactly, so the gain stack is negated once
    negKT = None if policy is None else (-policy.K.stack(T + 1)).transpose(0, 2, 1)
    d = None if policy is None else policy.offsets(T)
    w = w.transpose(1, 0, 2) if w.ndim == 3 else w[:, None]

    rows = len(x0)
    X = np.zeros((T + 1, rows, n))
    U = np.zeros((T + 1, rows, m))
    X[0] = x0
    overflow = np.zeros(rows, dtype=int)
    peak = np.zeros(rows)
    drift = np.empty((rows, n))
    dot = _step_product(n)
    with np.errstate(over="ignore", invalid="ignore"):
        if scales is None:
            X[1:] = w
        else:
            np.multiply(scales[:, None], w, out=X[1:])
        if policy is None:
            for x, ATt, nxt in zip(X, AT, X[1:]):
                nxt += dot(x, ATt, out=drift)
        else:
            push = np.empty((rows, n))
            offsets = [None] * T if d is None else d
            for x, u, negKTt, dt, ATt, BTt, nxt in zip(X, U, negKT, offsets, AT, BT, X[1:]):
                dot(x, negKTt, out=u)
                if dt is not None:
                    u += dt
                dot(x, ATt, out=drift)
                drift += dot(u, BTt, out=push)
                nxt += drift
            dot(X[T], negKT[T], out=U[T])  # the terminal input
            if d is not None:
                U[T] += d[T]

        if not np.vdot(X[1:], X[1:]) <= _BATCH_GUARD:
            norms = np.linalg.norm(X[1:], axis=2)
            burst = ~(norms <= OVERFLOW_LIMIT)
            hit = burst.any(axis=0)
            overflow[hit] = burst[:, hit].argmax(axis=0) + 1
            peak[hit] = norms[overflow[hit] - 1, hit]
            dead = hit & (np.arange(T + 1)[:, None] >= overflow)
            X[dead] = 0.0
            U[dead] = 0.0 if d is None else np.broadcast_to(d[:, None], U.shape)[dead]
            if hit.all():
                U[overflow.max():] = 0.0
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
    """Roll out an explicit input sequence u_0..u_{T-1}; the terminal input is 0.

    The inputs are the offsets d_t of a zero gain.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    w, T = disturbance_prefix(w, system.n, len(inputs))
    n, m = system.n, system.m
    if inputs.shape[1] != m:
        raise ShapeError(f"inputs have m={inputs.shape[1]}, expected {m}")
    u = np.zeros((T + 1, m))
    u[:T] = inputs
    return simulate(system, LinearPolicy.varying(np.zeros((m, n)), d=u), x0, w, costs, T)


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
