"""Discounted LQR whose optimal gain destabilizes the loop at linear cost.

With a discount factor alpha the certainty-equivalent gain solves the Riccati
equation of the modified pair (sqrt(alpha) A, B); for alpha small enough the
closed loop F_alpha = A - B K_alpha can be unstable while the discounted cost
stays summable.  The interesting regime is

    Gamma = { alpha in (0, 1) : alpha ||F_alpha|| < 1  and  rho(F_alpha) > 1 },

where the discounted cost admits an affine-per-horizon bound C_0 + C_w T even
though the state diverges.  Discounted stage costs have no uniform quadratic
lower bound in the state, which is exactly how the instability stays hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import ball_point, dominant_direction, random_ball
from .errors import AssumptionViolationError, ConvergenceError
from .model import (
    REL_SLACK,
    LinearPolicy,
    QuadraticStageCost,
    SystemDynamics,
    _rollout,
    _step_product,
    _sym,
    disturbance_prefix,
    jsonable,
    simulate,
)
from .transition import spectral_radius

DARE_TOL = 1e-12  # dare_modified stops once an iterate moves by at most this (Frobenius)
DARE_MAX_ITER = 100_000  # the most iterates dare_modified runs before it gives up
INSTABILITY_TRIALS = 8  # signals of the instability report: the eigenvector one, then draws


def _riccati_step(P, A, B, Q, R, alpha):
    """The discounted Riccati map of P; products associate as ((alpha A')P)B, via _step_product."""
    dot = _step_product(len(A))
    APB = dot(dot(alpha * A.T, P), B)
    G = R + dot(dot(alpha * B.T, P), B)
    return Q + dot(dot(alpha * A.T, P), A) - dot(APB, np.linalg.solve(G, APB.T))


def dare_residual(A, B, Q, R, alpha, P) -> float:
    """Relative Frobenius residual of the discounted Riccati fixed point."""
    A, B, Q, R, P = (np.asarray(M, dtype=float) for M in (A, B, Q, R, P))
    lhs = P - _riccati_step(P, A, B, Q, R, alpha)
    return float(np.linalg.norm(lhs, "fro") / max(1.0, np.linalg.norm(P, "fro")))


def dare_modified(A, B, Q, R, alpha) -> np.ndarray:
    """Fixed-point iteration of the discounted Riccati map from P^0 = Q.

    Q and R must pass QuadraticStageCost.bounds (PD and symmetric).  The
    iterates are monotone nondecreasing from Q (asserted each step); the
    loop stops when the Frobenius change drops below DARE_TOL and the returned
    P, whose Frobenius norm must be finite, is residual-checked (a NaN
    residual fails).  Divergence (e.g. the modified pair is not stabilizable)
    raises ConvergenceError carrying the last residual and the iterates run.
    """
    A, B, Q, R = (np.asarray(M, dtype=float) for M in (A, B, Q, R))
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    QuadraticStageCost.constant(Q, R).bounds(0)
    P = Q.copy()
    fro = np.linalg.norm(P, "fro")  # ||P||_F, carried from one iterate to the next
    outcome = f"did not converge within {DARE_MAX_ITER} steps"
    for iterations in range(1, DARE_MAX_ITER + 1):
        nxt = _sym(_riccati_step(P, A, B, Q, R, alpha))
        increment = nxt - P
        step = np.linalg.eigvalsh(increment)[0]
        if step < -1e-9 * (1.0 + fro):
            raise AssumptionViolationError(
                f"Riccati iteration lost monotonicity (min eig of increment {step:.3e})"
            )
        delta = float(np.linalg.norm(increment, "fro"))
        P, fro = nxt, np.linalg.norm(nxt, "fro")
        if delta <= DARE_TOL and np.isfinite(fro):
            resid = dare_residual(A, B, Q, R, alpha, P)
            if not resid <= 1e-10:
                raise ConvergenceError(
                    f"Riccati residual {resid:.3e} above 1e-10 after convergence",
                    residual=resid,
                )
            return P
        if not np.isfinite(delta) or fro > 1e120:
            outcome = f"diverged after {iterations} steps"
            break
    resid = dare_residual(A, B, Q, R, alpha, P) if np.isfinite(fro) else np.inf
    raise ConvergenceError(
        f"Riccati iteration {outcome} (last residual {resid:.3e}); "
        f"the modified pair may not be stabilizable",
        residual=resid,
        iterations=iterations,
    )


def discounted_gain(P, A, B, R, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Gain K_alpha (stored so that u = -K_alpha x) and closed loop F = A - B K_alpha."""
    A, B, R = (np.asarray(M, dtype=float) for M in (A, B, R))
    G = R + alpha * B.T @ P @ B
    K = alpha * np.linalg.solve(G, B.T @ P @ A)
    F = A - B @ K
    return K, F


@dataclass
class DiscountedLqrModel:
    """Solved discounted-LQR instance with its Gamma-membership diagnostics."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    alpha: float
    P: np.ndarray
    K: np.ndarray
    F: np.ndarray
    spectral_radius: float
    discounted_norm: float  # alpha * ||F||
    in_gamma: bool
    residual: float

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def system(self) -> SystemDynamics:
        return SystemDynamics.lti(self.A, self.B)

    def policy(self) -> LinearPolicy:
        return LinearPolicy.constant(self.K)


def build_model(A, B, Q, R, alpha) -> DiscountedLqrModel:
    A, B, Q, R = (np.asarray(M, dtype=float) for M in (A, B, Q, R))
    P = dare_modified(A, B, Q, R, alpha)
    K, F = discounted_gain(P, A, B, R, alpha)
    rho = spectral_radius(F)
    anorm = float(alpha * np.linalg.norm(F, 2))
    return DiscountedLqrModel(
        A=A,
        B=B,
        Q=Q,
        R=R,
        alpha=float(alpha),
        P=P,
        K=K,
        F=F,
        spectral_radius=rho,
        discounted_norm=anorm,
        in_gamma=bool(anorm < 1.0 and rho > 1.0),
        residual=dare_residual(A, B, Q, R, alpha, P),
    )


def gamma_check(A, B, Q, R, alpha) -> DiscountedLqrModel:
    """The solved model at alpha, whose in_gamma evaluates both Gamma conditions
    (spectral norm and spectral radius)."""
    return build_model(A, B, Q, R, alpha)


@dataclass
class GammaScanRow:
    alpha: float
    converged: bool
    in_gamma: bool
    spectral_radius: float
    discounted_norm: float
    model: DiscountedLqrModel | None  # the solved model, None when the DARE did not converge


def gamma_scan(A, B, Q, R, alphas) -> list[GammaScanRow]:
    """Per-alpha Gamma membership with the solved model; non-convergent discount
    factors are flagged.  One DARE solve per alpha."""
    QuadraticStageCost.constant(Q, R).bounds(0)  # a bad weight is not a per-alpha failure
    rows = []
    for alpha in alphas:
        try:
            model = gamma_check(A, B, Q, R, float(alpha))
            rows.append(GammaScanRow(float(alpha), True, model.in_gamma, model.spectral_radius,
                                     model.discounted_norm, model))
        except (ConvergenceError, AssumptionViolationError):
            rows.append(GammaScanRow(float(alpha), False, False, float("nan"), float("nan"), None))
    return rows


@dataclass
class ValueParams:
    """Affine value-function corrections: v_t (vector) and q_t (scalar)."""

    v: np.ndarray  # (T+1, n), v_T = 0
    q: np.ndarray  # (T+1,), q_T = 0


def vq_recursion(model: DiscountedLqrModel, w, T: int | None = None) -> ValueParams:
    """Backward recursion for the disturbance-induced value corrections.

    v_t = 2 alpha F' (P w_t + v_{t+1} / 2),  q_t = alpha (w_t' P w_t + w_t' v_{t+1} + q_{t+1}).

    The closed-loop transpose on F is the variant under which the closed-form
    cost below matches the simulated discounted cost; that equality is the
    module's ground truth and is enforced in the test suite.
    """
    w, T = disturbance_prefix(w, model.n, T)
    v = np.zeros((T + 1, model.n))
    q = np.zeros(T + 1)
    P, F, alpha = model.P, model.F, model.alpha
    for t in reversed(range(T)):
        wt = w[t]
        v[t] = 2.0 * alpha * F.T @ (P @ wt + 0.5 * v[t + 1])
        q[t] = alpha * (wt @ P @ wt + wt @ v[t + 1] + q[t + 1])
    return ValueParams(v=v, q=q)


def discounted_cost_closed_form(model: DiscountedLqrModel, x0, w, T: int | None = None) -> float:
    """x0' P x0 + v_0' x0 + q_0, the discounted cost under u = -K_alpha x."""
    x0 = np.asarray(x0, dtype=float)
    params = vq_recursion(model, w, T)
    return float(x0 @ model.P @ x0 + params.v[0] @ x0 + params.q[0])


def discounted_cost_simulated(model: DiscountedLqrModel, x0, w, T: int | None = None) -> float:
    """Rollout value of sum_i alpha^i (x'Qx + u'Ru) plus the discounted terminal term.

    The terminal term is alpha^T x_T' P x_T, the scaling under which the value
    recursion closes; simulation and closed form then agree to rounding.
    """
    w, T = disturbance_prefix(w, model.n, T)
    costs = QuadraticStageCost.constant(model.Q, model.R)
    traj = simulate(model.system(), model.policy(), x0, w, costs, T)
    disc = model.alpha ** np.arange(T + 1)
    terminal = float(traj.states[T] @ model.P @ traj.states[T])
    return float(np.sum(disc[:T] * traj.stage_costs[:T]) + disc[T] * terminal)


@dataclass
class InstabilityReport:
    """Linear cost bound certified next to a diverging undiscounted average."""

    applicable: bool
    reason: str
    alpha: float
    spectral_radius: float
    sigma: float  # alpha * ||F||
    c0: float
    cw: float
    bound_holds: bool
    max_relative_gap: float
    unstable_confirmed: bool
    undiscounted_ratio: float
    undiscounted_diverges: bool
    horizons: list[int]
    trials: int

    def to_dict(self) -> dict:
        return jsonable(self.__dict__)


def linear_regret_despite_instability(
    model: DiscountedLqrModel,
    W: float,
    X: float,
    T_grid,
    seed: int = 0,
) -> InstabilityReport:
    """Certify the affine discounted-cost bound for an unstable in-Gamma loop.

    The constants come from the norm bounds on the value corrections: with
    sigma = alpha ||F|| < 1,

        C_0 = ||P|| (X^2 + 2 X W sigma/(1-sigma) + W^2 alpha/(1-alpha)),
        C_w = 2 ||P|| sigma W^2 / (1-sigma),

    and every sampled (x0, w) of INSTABILITY_TRIALS signals must satisfy
    J^d_T <= C_0 + C_w T on the grid, up to the relative slack REL_SLACK.
    The same rollouts are also scored undiscounted to exhibit the diverging
    time-averaged cost of the very same loop.
    """
    T_grid = sorted(int(t) for t in T_grid)
    applicable = bool(model.in_gamma)
    c0 = cw = worst_gap = ratio = float("nan")
    if applicable:
        T_max = T_grid[-1]
        sigma = model.discounted_norm
        alpha = model.alpha
        p_norm = float(np.linalg.norm(model.P, 2))
        c0 = p_norm * (X**2 + 2.0 * X * W * sigma / (1.0 - sigma) + W**2 * alpha / (1.0 - alpha))
        cw = 2.0 * p_norm * sigma * W**2 / (1.0 - sigma)

        n = model.n
        v_dom, _, _ = dominant_direction(model.F)
        rng = np.random.default_rng(seed)
        signals = [np.tile(W * v_dom, (T_max, 1))]
        for _ in range(INSTABILITY_TRIALS - 1):
            signals.append(random_ball(n, W, T_max, seed=int(rng.integers(0, 2**31))).w)
        starts = [X * v_dom, np.zeros(n)]
        for _ in range(2):
            starts.append(ball_point(rng, n, X))

        # one row per (signal, start) pair, signal-major
        costs = QuadraticStageCost.constant(model.Q, model.R)
        x0 = np.tile(starts, (len(signals), 1))
        w = np.repeat(signals, len(starts), axis=0)
        roll = _rollout(model.system(), costs, x0, w, T_max, model.policy())
        roll.raise_overflow()
        disc_prefix = np.cumsum(alpha ** np.arange(T_max)[:, None] * roll.stage[:T_max], axis=0)
        disc_prefix = np.concatenate((np.zeros((1, len(x0))), disc_prefix))
        Ts = np.array(T_grid)
        x_T = roll.states[Ts]
        terminal = alpha ** Ts[:, None] * np.sum((x_T @ model.P) * x_T, axis=-1)
        bound = (c0 + cw * Ts)[:, None]
        worst_gap = float(np.max((disc_prefix[Ts] + terminal - bound) / np.maximum(1.0, bound)))
        undisc = np.max(np.cumsum(roll.stage, axis=0)[Ts] / Ts[:, None], axis=1, initial=0.0)
        ratio = float(undisc[-1] / max(undisc[0], 1e-300))
    # outside Gamma the NaN gap and ratio make bound_holds and undiscounted_diverges False
    return InstabilityReport(
        applicable=applicable,
        reason="" if applicable else "discount factor not in Gamma",
        alpha=model.alpha,
        spectral_radius=model.spectral_radius,
        sigma=model.discounted_norm,
        c0=c0,
        cw=cw,
        bound_holds=bool(worst_gap <= REL_SLACK),
        max_relative_gap=worst_gap,
        unstable_confirmed=bool(model.spectral_radius > 1.0),
        undiscounted_ratio=ratio,
        undiscounted_diverges=bool(ratio > 100.0),
        horizons=T_grid,
        trials=INSTABILITY_TRIALS,
    )
