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
    DisturbanceSignal,
    LinearPolicy,
    QuadraticStageCost,
    SystemDynamics,
    _rollout,
    as_disturbance,
    closed_loop,
    jsonable,
    simulate_grid,
)
from .hindsight import _constant_loop, hindsight_costs
from .transition import norm_sums, partial_sums_converged


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
    w = w if isinstance(w, DisturbanceSignal) else DisturbanceSignal(np.asarray(w, float), np.inf)
    if T is None:
        T = w.horizon
    reg, _, _ = _regret_group(system, costs, policy, x0, w.w, [1.0], [T])
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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["T", "R_T", "R_T_over_T", "flag"])
            for i, T in enumerate(self.horizons):
                writer.writerow(
                    [
                        int(T),
                        f"{self.regret[i]:.17g}",
                        f"{self.time_averaged[i]:.17g}",
                        self.flags[i],
                    ]
                )

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
    """One regret evaluation per horizon.

    `disturbances` is a recipe with .realize_grid (realized once for the whole
    grid), a recipe with .realize(T) or a callable T -> signal (realized per
    horizon).  Horizons are evaluated in groups that share one benchmark-cost
    call and one rollout: all horizons together on a constant loop (A, B, Q,
    R) with a grid realization, one horizon per group otherwise.  Overflowing
    policy rollouts are recorded as +inf with an overflow flag, the benchmark
    is still evaluated.
    """
    horizons = np.asarray(list(horizons), dtype=int)
    if len(horizons) == 0 or np.any(np.diff(horizons) <= 0):
        raise ShapeError("horizons must be strictly increasing and nonempty")
    if hasattr(disturbances, "realize_grid"):
        base, scales = disturbances.realize_grid(horizons)
        if _constant_loop(system, costs):
            groups = [(base, scales, horizons)]
        else:
            groups = [(base, scales[i : i + 1], horizons[i : i + 1]) for i in range(len(horizons))]
    else:
        realize = getattr(disturbances, "realize", disturbances)
        groups = [
            (as_disturbance(realize(int(T)), system.n).w, [1.0], [T]) for T in horizons
        ]
    parts = [_regret_group(system, costs, policy, x0, *group) for group in groups]
    reg, bench_costs, overflow = (np.concatenate(col) for col in zip(*parts))
    flags = [f"overflow@{t}" if t else "ok" for t in overflow]
    meta = dict(metadata or {})
    if hasattr(disturbances, "bound"):
        meta.setdefault("W", float(disturbances.bound))
    if hasattr(disturbances, "kind"):
        meta.setdefault("disturbance", disturbances.kind)
    return RegretCurve(
        horizons=horizons,
        regret=reg,
        time_averaged=reg / horizons,
        flags=flags,
        metadata=meta,
        benchmark_costs=bench_costs,
    )


def _regret_group(system, costs, policy, x0, base, scales, horizons):
    """(regret, benchmark costs, overflow steps) of horizons sharing one realization.

    Horizon horizons[i] sees scales[i] * base[:horizons[i]]; one benchmark-cost
    call and one rollout of all rows serve the group.  An overflowing policy
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
    Needs at least 10 horizons spanning a decade.
    """
    check_growth_grid(curve.horizons)
    h = np.asarray(curve.horizons, dtype=float)
    y = np.asarray(curve.time_averaged, dtype=float)
    upper = slice(len(h) // 2, None)
    ymax = float(np.max(np.abs(y[np.isfinite(y)]))) if np.any(np.isfinite(y)) else 0.0
    floor = max(1e-300, 1e-15 * max(ymax, 1.0))
    yy = np.where(np.isfinite(y), np.maximum(y, floor), 1e300)
    slope = float(np.polyfit(np.log(h[upper]), np.log(yy[upper]), 1)[0])
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
    rel_slack: float = 1e-9,
) -> LinearRegretCertificate:
    """Evaluate the linear-regret constants and test the cost bound on samples.

    Requires the BIBS row sums and both norm sums to look convergent at T_max;
    otherwise returns applicable=False and claims nothing.  The sampled check
    draws `trials` initial states from the radius-X ball and disturbances from
    the radius-W ball and verifies J_T <= C_0 + C_w T for every prefix T.
    """
    bibs, sums = norm_sums(closed_loop(system, policy), T_max)
    bibs_ok = (not bibs.capped) and partial_sums_converged(bibs.sums)
    if not (bibs_ok and sums.d_sum_converged and sums.d_bar_converged and sums.h_bar_converged):
        return LinearRegretCertificate(
            applicable=False,
            holds=False,
            reason="transition-norm sums show no convergence at the test horizon",
            M=float("nan"),
            d_bar=sums.d_bar if sums.d_bar_converged else float("inf"),
            h_bar=sums.h_bar if sums.h_bar_converged else float("inf"),
            c0=float("inf"),
            cw=float("inf"),
            max_relative_violation=float("nan"),
            X=float(X),
            W=float(W),
            T_max=T_max,
            trials=trials,
        )

    _, m_upper = costs.bounds(T_max)
    if policy.K.constant:
        k_max = float(np.linalg.norm(policy.K(0), 2))
    else:
        k_max = max(float(np.linalg.norm(policy.K(t), 2)) for t in range(T_max + 1))
    M = m_upper * (1.0 + k_max**2)
    c0 = 2.0 * M * sums.d_bar * X**2
    cw = 2.0 * M * sums.h_bar * W**2

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
        applicable=True,
        holds=worst <= rel_slack,
        reason="",
        M=M,
        d_bar=sums.d_bar,
        h_bar=sums.h_bar,
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
    rel_slack: float = 1e-9,
) -> LowerBoundCheck:
    """Check J_T >= M_lower W^2 (T^2 + T)/2 under the constant eigenvector signal.

    Applies when the dominant eigenvalue is real, at least one, and has a real
    eigenvector; the rollout starts at the origin with zero input, so the
    state accumulates at least t aligned disturbance steps.  A rollout that
    overflows reports cost = inf, which satisfies the floor.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    vals, vecs = np.linalg.eig(F)
    rho = float(np.max(np.abs(vals)))
    if rho < 1.0:
        return LowerBoundCheck(False, "spectral radius below one", 0.0, 0.0, False, rho, None)
    idx = None
    for i in range(len(vals)):
        if abs(abs(vals[i]) - rho) <= 1e-9 * max(1.0, rho) and abs(np.imag(vals[i])) <= 1e-9 * max(1.0, rho):
            v = vecs[:, i]
            j = int(np.argmax(np.abs(v)))
            v = v * (np.conj(v[j]) / abs(v[j]))
            if np.linalg.norm(np.imag(v)) <= 1e-9:
                idx = i
                v = np.real(v)
                break
    if idx is None:
        return LowerBoundCheck(
            False, "no real dominant eigenvector", 0.0, 0.0, False, rho, None
        )
    lam = float(np.real(vals[idx]))
    v = v / np.linalg.norm(v)

    m_lower, _ = costs.bounds(T)
    free = SystemDynamics.lti(F, np.zeros((n, costs.m)))
    roll = _rollout(free, costs, np.zeros((1, n)), np.tile(W * v, (T, 1)), T)
    cost = math.inf if roll.overflow[0] else float(roll.stage.sum())
    bound = m_lower * W**2 * (T**2 + T) / 2.0
    satisfied = cost >= bound * (1.0 - rel_slack)
    return LowerBoundCheck(True, "", float(bound), cost, bool(satisfied), lam, v)
