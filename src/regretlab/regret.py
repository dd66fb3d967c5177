"""Dynamic regret, regret curves, and the regret-stability certificates.

Regret of a policy is its accumulated cost minus the cost of the noncausal
minimizer computed with the realized disturbance known.  A policy has linear
regret when R_T <= C_0 + C_w T uniformly over bounded initial states and
disturbances; the certificate below evaluates the explicit constants

    C_0 = 2 M D_bar X^2,   C_w = 2 M H_bar W^2,   M = M_upper (1 + max_t ||K_t||^2)

from the transition-norm sums and falsifies the bound on sampled rollouts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .adversary import ball_point, random_ball
from .errors import ShapeError
from .model import (
    REL_SLACK,
    LinearPolicy,
    QuadraticStageCost,
    SystemDynamics,
    _rollout,
    check_grid,
    closed_loop,
    disturbance_prefix,
    jsonable,
    simulate_grid,
    write_csv,
)
from .hindsight import hindsight_costs
from .transition import converged_sums, norm_sums


class GrowthClass(str, Enum):
    BOUNDED_AVERAGE = "BoundedAverage"
    LINEAR_AVERAGE = "LinearAverage"
    SUPERLINEAR_AVERAGE = "SuperlinearAverage"


def regret(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    policy: LinearPolicy,
    x0,
    w,
    T: int | None = None,
) -> float:
    """Policy cost minus benchmark cost; +inf when the policy rollout overflows."""
    w, T = disturbance_prefix(w, system.n, T)
    reg, _, _ = _regret_group(system, costs, policy, x0, w, [1.0], [T])
    return float(reg[0])


@dataclass
class RegretCurve:
    """Regret against the horizon, with the time-averaged view R_T / T."""

    horizons: np.ndarray
    regret: np.ndarray
    time_averaged: np.ndarray
    flags: list[str]
    metadata: dict = field(default_factory=dict)
    benchmark_costs: np.ndarray | None = None

    def to_csv(self, path) -> None:
        write_csv(path, ["T", "R_T", "R_T_over_T", "flag"], "%d,%.17g,%.17g,%s",
                  zip(self.horizons, self.regret, self.time_averaged, self.flags))

    @classmethod
    def from_csv(cls, path) -> "RegretCurve":
        horizons, reg, avg, flags = [], [], [], []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["T", "R_T", "R_T_over_T", "flag"]:
                raise ValueError(f"unexpected curve header {header}")
            for row in reader:
                horizons.append(int(row[0]))
                reg.append(float(row[1]))
                avg.append(float(row[2]))
                flags.append(row[3])
        return cls(
            horizons=np.asarray(horizons, dtype=int),
            regret=np.asarray(reg, dtype=float),
            time_averaged=np.asarray(avg, dtype=float),
            flags=flags,
        )


def regret_curve(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    policy: LinearPolicy,
    x0,
    disturbances,
    horizons,
    metadata: dict | None = None,
) -> RegretCurve:
    """One regret evaluation per horizon, all horizons evaluated as one group.

    `disturbances` is a recipe with .realize_grid, realized once for the whole
    grid, or one fixed signal (a DisturbanceSignal or a (steps, n) array) of
    which each horizon sees its prefix.  Horizons must be >= 1, strictly
    increasing and nonempty (ShapeError otherwise).  The group costs one
    benchmark-cost call (hindsight_costs, on any loop) and one policy rollout
    with a row per distinct scale (simulate_grid).  Overflowing policy rollouts
    are recorded as +inf with an overflow flag; the benchmark is still evaluated.
    """
    horizons = check_grid(list(horizons))
    if horizons[0] < 1:
        raise ShapeError(f"regret_curve divides by T, so horizons must be >= 1, got {horizons[0]}")
    if hasattr(disturbances, "realize_grid"):
        base, scales = disturbances.realize_grid(horizons)
    else:
        base, scales = disturbance_prefix(disturbances, system.n)[0], np.ones(len(horizons))
    reg, bench_costs, overflow = _regret_group(system, costs, policy, x0, base, scales, horizons)
    flags = [f"overflow@{t}" if t else "ok" for t in overflow]
    return RegretCurve(
        horizons=horizons,
        regret=reg,
        time_averaged=reg / horizons,
        flags=flags,
        metadata=dict(metadata or {}),
        benchmark_costs=bench_costs,
    )


def _regret_group(system, costs, policy, x0, base, scales, horizons):
    """(regret, benchmark costs, overflow steps) of horizons sharing one realization.

    Horizon horizons[i] sees scales[i] * base[:horizons[i]]; one benchmark-cost
    call and one simulate_grid rollout serve the group.  An overflowing policy
    rollout gives regret +inf and its overflow step; the benchmark is still
    evaluated.
    """
    bench = hindsight_costs(system, costs, x0, base, scales, horizons)
    totals, overflow = simulate_grid(system, policy, x0, base, scales, horizons, costs)
    return totals - bench, bench, overflow


def check_growth_grid(horizons) -> None:
    """Raise ValueError unless the grid can be growth-classified: 10+ horizons spanning a decade."""
    h = np.asarray(horizons, dtype=float)
    if len(h) < 10:
        raise ValueError(f"need at least 10 horizons, got {len(h)}")
    if h[-1] / h[0] < 10.0:
        raise ValueError("horizons must span at least a decade")


def growth_classify(
    curve: RegretCurve,
    bounded_slope: float = 0.1,
    superlinear_slope: float = 1.5,
) -> GrowthClass:
    """Log-log slope of R_T / T over the upper half of the horizons.

    slope < bounded_slope reads as a bounded average (linear regret), up to
    superlinear_slope as a linearly growing average, and beyond as faster.
    A non-finite value in the upper half (an overflowed rollout) reads as
    faster.  Needs at least 10 horizons spanning a decade.
    """
    check_growth_grid(curve.horizons)
    h = np.asarray(curve.horizons, dtype=float)
    y = np.asarray(curve.time_averaged, dtype=float)
    upper = slice(len(h) // 2, None)
    if not np.all(np.isfinite(y[upper])):
        return GrowthClass.SUPERLINEAR_AVERAGE
    ymax = float(np.max(np.abs(y[np.isfinite(y)])))
    floor = max(1e-300, 1e-15 * max(ymax, 1.0))
    slope = float(np.polyfit(np.log(h[upper]), np.log(np.maximum(y[upper], floor)), 1)[0])
    if slope < bounded_slope:
        return GrowthClass.BOUNDED_AVERAGE
    if slope <= superlinear_slope:
        return GrowthClass.LINEAR_AVERAGE
    return GrowthClass.SUPERLINEAR_AVERAGE


@dataclass
class LinearRegretCertificate:
    """Explicit linear-regret constants plus a sampled falsification check.

    holds means no sampled rollout violated J_T <= C_0 + C_w T beyond the
    relative slack; applicable is False when the norm sums show no sign of
    converging at the test horizon, in which case the constants are not valid
    bounds and nothing is claimed.
    """

    applicable: bool
    holds: bool
    reason: str
    M: float
    d_bar: float
    h_bar: float
    c0: float
    cw: float
    max_relative_violation: float
    X: float
    W: float
    T_max: int
    trials: int

    def to_dict(self) -> dict:
        return jsonable(self.__dict__)


def linear_regret_certificate(
    system: SystemDynamics,
    costs: QuadraticStageCost,
    policy: LinearPolicy,
    X: float,
    W: float,
    T_max: int = 300,
    trials: int = 10,
    seed: int = 0,
) -> LinearRegretCertificate:
    """Evaluate the linear-regret constants and test the cost bound on samples.

    Requires the BIBS row sums and both norm sums to look convergent at T_max;
    otherwise returns applicable=False and claims nothing.  The sampled check
    draws `trials` initial states from the radius-X ball and disturbances from
    the radius-W ball and verifies J_T <= C_0 + C_w T for every prefix T, up to
    the relative slack REL_SLACK.
    """
    gated = converged_sums(norm_sums(closed_loop(system, policy), T_max))
    applicable = bool(np.all(np.isfinite(list(gated.values()))))
    M, c0, cw, worst = math.nan, math.inf, math.inf, math.nan
    if applicable:
        _, m_upper = costs.bounds(T_max)
        k_max = float(np.linalg.norm(policy.K.distinct(T_max + 1), 2, axis=(1, 2)).max())
        M = m_upper * (1.0 + k_max**2)
        c0 = 2.0 * M * gated["d_bar"] * X**2
        cw = 2.0 * M * gated["h_bar"] * W**2

        rng = np.random.default_rng(seed)
        n = system.n
        x0 = np.zeros((trials, n))
        w = np.zeros((trials, T_max, n))
        for i in range(trials):
            x0[i] = ball_point(rng, n, X)
            w[i] = random_ball(n, W, T_max, seed=int(rng.integers(0, 2**31))).w
        roll = _rollout(system, costs, x0, w, T_max, policy)
        roll.raise_overflow()
        J = np.cumsum(roll.stage, axis=0)[1:]
        bound = c0 + cw * np.arange(1, T_max + 1)[:, None]
        rel = (J - bound) / np.maximum(1.0, bound)
        worst = float(np.max(rel, initial=-math.inf))
    return LinearRegretCertificate(
        applicable=applicable,
        holds=worst <= REL_SLACK,  # False for the NaN of an inapplicable certificate
        reason="" if applicable else "transition-norm sums show no convergence at the test horizon",
        M=M,
        d_bar=gated["d_bar"],
        h_bar=gated["h_bar"],
        c0=c0,
        cw=cw,
        max_relative_violation=worst,
        X=float(X),
        W=float(W),
        T_max=T_max,
        trials=trials,
    )


@dataclass
class LowerBoundCheck:
    """Quadratic-growth floor for a non-contracting loop under the aligned signal."""

    applicable: bool
    reason: str
    bound: float
    cost: float
    satisfied: bool
    eigenvalue: float
    direction: np.ndarray | None


def quadratic_floor_check(
    F,
    costs: QuadraticStageCost,
    W: float,
    T: int,
) -> LowerBoundCheck:
    """Check J_T >= M_lower W^2 (T^2 + T)/2 (1 - REL_SLACK) under the constant eigenvector signal.

    Applies when F has a real eigenvalue lambda >= 1 with a real eigenvector
    (the largest such lambda is used; a negative eigenvalue alternates the
    sign of the state, so it does not accumulate); the rollout starts at the
    origin with zero input, so the state accumulates at least t aligned
    disturbance steps.  A rollout that overflows reports cost = inf, which
    satisfies the floor.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    vals, vecs = np.linalg.eig(F)
    rho = float(np.max(np.abs(vals)))
    lam, v = 0.0, None
    real_above_one = (np.abs(vals.imag) <= 1e-9 * max(1.0, rho)) & (vals.real >= 1.0)
    for i in np.flatnonzero(real_above_one):
        u = vecs[:, i]
        j = int(np.argmax(np.abs(u)))
        u = u * (np.conj(u[j]) / abs(u[j]))
        if np.linalg.norm(np.imag(u)) <= 1e-9 and vals[i].real > lam:
            lam, v = float(vals[i].real), np.real(u)
    if v is None:
        reason = "no real eigenvalue >= 1 with a real eigenvector"
        return LowerBoundCheck(False, reason, 0.0, 0.0, False, rho, None)
    v = v / np.linalg.norm(v)

    m_lower, _ = costs.bounds(T)
    free = SystemDynamics.lti(F, np.zeros((n, costs.m)))
    roll = _rollout(free, costs, np.zeros((1, n)), np.tile(W * v, (T, 1)), T)
    cost = math.inf if roll.overflow[0] else float(roll.stage.sum())
    bound = m_lower * W**2 * (T**2 + T) / 2.0
    satisfied = cost >= bound * (1.0 - REL_SLACK)
    return LowerBoundCheck(True, "", float(bound), cost, bool(satisfied), lam, v)
