"""State transition matrices of the free closed loop and stability diagnostics.

Phi(t, k) = F_{t-1} ... F_k (with Phi(t, t) = I) propagates the unforced state
from time k to time t.  Spectral-norm tables of these products drive the
bounded-input-bounded-state check, the summability constants used by the
regret certificates, and the empirical stability classification.

Norm sums over a finite horizon cannot certify limits; convergence is reported
through documented heuristics (relative tail growth, log-linear trend) and
divergence is flagged rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError
from .model import MatrixSequence, jsonable, matrix_sequence

# Norm products larger than this are treated as numerically divergent.
NORM_CAP = 1e140

# A partial-sum sequence is called convergent when its second half grows by
# less than this relative amount.
TAIL_GROWTH_TOL = 0.01


class Stability(str, Enum):
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    MARGINALLY_STABLE = "MarginallyStable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


def spectral_norm(M) -> float:
    return float(np.linalg.norm(M, 2))


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def as_closed_loop(F, n=None) -> MatrixSequence:
    """Coerce a constant matrix / stack / callable to a closed-loop sequence."""
    if isinstance(F, MatrixSequence):
        return F
    if callable(F):
        probe = np.asarray(F(0), dtype=float)
        return matrix_sequence(F, probe.shape, "F")
    arr = np.asarray(F, dtype=float)
    if arr.ndim == 2:
        return matrix_sequence(arr, arr.shape, "F")
    if arr.ndim == 3:
        return matrix_sequence(arr, arr.shape[1:], "F")
    raise ShapeError(f"cannot interpret shape {arr.shape} as a matrix sequence")


def transition_matrix(F, t: int, k: int) -> np.ndarray:
    """Ordered product F_{t-1} ... F_k; the identity when k == t."""
    if k > t:
        raise ShapeError(f"transition_matrix needs k <= t, got k={k}, t={t}")
    seq = as_closed_loop(F)
    n = seq.shape[0]
    M = np.eye(n)
    for j in range(k, t):
        M = seq(j) @ M
    return M


def _row_stacks(seq: MatrixSequence, T: int):
    """Yield row t of the transition table, Phi(t, k) for k = 0..t stacked, for t = 1..T.

    Phi(t, t) = I and Phi(t, k) = F_{t-1} Phi(t-1, k): one batched
    left-multiplication of the previous row per step, never the full table.
    The yielded stack is a view that the next step overwrites.
    """
    n = seq.shape[0]
    rows = np.empty((T + 1, n, n))
    rows[0] = np.eye(n)
    for t in range(1, T + 1):
        rows[:t] = seq(t - 1) @ rows[:t]
        rows[t] = np.eye(n)
        yield rows[: t + 1]


def transition_row(F, t: int) -> list[np.ndarray]:
    """All blocks Phi(t, k) for k = 0..t, built by the row recurrence."""
    seq = as_closed_loop(F)
    row = np.eye(seq.shape[0])[None]
    for row in _row_stacks(seq, t):
        pass
    return list(row)


def transition_norms(F, T: int) -> tuple[np.ndarray, bool]:
    """||Phi(t, 0)|| for t = 0..T.

    Returns (norms, capped); once a product norm exceeds NORM_CAP the rest of
    the table is +inf and capped is True.
    """
    seq = as_closed_loop(F)
    n = seq.shape[0]
    norms = np.zeros(T + 1)
    norms[0] = 1.0
    M = np.eye(n)
    for t in range(1, T + 1):
        M = seq(t - 1) @ M
        norm = spectral_norm(M)
        if not np.isfinite(norm) or norm > NORM_CAP:
            norms[t:] = np.inf
            return norms, True
        norms[t] = norm
    return norms, False


@dataclass
class BibsSums:
    """Partial sums S_t = sum_{k=1..t} ||Phi(t, k)|| with their running supremum."""

    sums: np.ndarray  # index t = 0..T, sums[0] = 0
    running_sup: np.ndarray
    sup: float
    capped: bool


def partial_sums_converged(partials: np.ndarray) -> bool:
    """Relative growth of the second half below TAIL_GROWTH_TOL."""
    if not np.all(np.isfinite(partials)):
        return False
    mid = partials[len(partials) // 2]
    last = partials[-1]
    return (last - mid) <= TAIL_GROWTH_TOL * max(abs(mid), 1e-300)


@dataclass
class SummabilityConstants:
    """Finite-horizon values of the transition-norm sums with convergence flags."""

    d_sum: float  # sum_t ||Phi(t,0)||
    d_bar: float  # sum_t ||Phi(t,0)||^2
    h_bar: float  # sup_t sum_k ||Phi(t,k)||^2
    d_sum_converged: bool
    d_bar_converged: bool
    h_bar_converged: bool
    horizon: int


def _row_norm_sums(seq: MatrixSequence, T: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_k ||Phi(t, k)|| and sum_k ||Phi(t, k)||^2 over k = 1..t, for t = 1..T.

    One row pass with a batched 2-norm per row.  Each sum is +inf from the
    first row at which it exceeds NORM_CAP (or is not finite) on; the pass
    stops once the norm sum does, since the squared sum has then done so too.
    """
    sums = np.full(T, np.inf)
    squares = np.full(T, np.inf)
    squares_ok = True
    for t, row in enumerate(_row_stacks(seq, T), start=1):
        blocks = row[1:]
        if not np.all(np.isfinite(blocks)):
            break
        norms = np.linalg.norm(blocks, 2, axis=(1, 2))
        total = norms.sum()
        if not total <= NORM_CAP:
            break
        sums[t - 1] = total
        square = np.sum(norms**2)
        squares_ok = squares_ok and square <= NORM_CAP
        if squares_ok:
            squares[t - 1] = square
    return sums, squares


def norm_sums(F, T: int) -> tuple[BibsSums, SummabilityConstants]:
    """BIBS row sums and summability constants from one pass over the norm table.

    The column ||Phi(t, 0)|| comes from transition_norms.  The row sums
    sum_{k=1..t} ||Phi(t, k)|| (and their squares) come from the row pass, or
    for a constant F from prefix sums of ||F^j|| = ||Phi(j, 0)||, j < t,
    which avoids the O(T^2) product table.
    """
    if T < 1:
        raise ShapeError(f"need T >= 1, got {T}")
    seq = as_closed_loop(F)
    return _sums_from_column(seq, *transition_norms(seq, T))


def _sums_from_column(seq: MatrixSequence, norms: np.ndarray, capped: bool):
    """norm_sums from a column (norms, capped) of transition_norms at T = len(norms) - 1 >= 1."""
    T = len(norms) - 1
    if seq.constant:
        powers = norms[:T]
        row_sums = np.cumsum(powers)
        row_squares = np.cumsum(powers**2) if np.all(np.isfinite(powers)) else np.full(T, np.inf)
    else:
        row_sums, row_squares = _row_norm_sums(seq, T)

    sums = np.concatenate(([0.0], row_sums))
    running = np.maximum.accumulate(sums)
    bibs = BibsSums(
        sums=sums,
        running_sup=running,
        sup=float(running[-1]),
        capped=not np.all(np.isfinite(row_sums)),
    )

    finite = np.where(np.isfinite(norms), norms, 0.0)
    d_partials = np.cumsum(finite)
    d2_partials = np.cumsum(finite**2)
    h_capped = not np.all(np.isfinite(row_squares))
    constants = SummabilityConstants(
        d_sum=float("inf") if capped else float(d_partials[-1]),
        d_bar=float("inf") if capped else float(d2_partials[-1]),
        h_bar=float("inf") if h_capped else float(np.max(row_squares)),
        d_sum_converged=(not capped) and partial_sums_converged(d_partials),
        d_bar_converged=(not capped) and partial_sums_converged(d2_partials),
        h_bar_converged=(not h_capped) and partial_sums_converged(row_squares),
        horizon=T,
    )
    return bibs, constants


def bibs_partial_sums(F, T: int) -> BibsSums:
    """Row sums of the transition-norm table, the BIBS stability diagnostic."""
    return norm_sums(F, T)[0]


def summability_constants(F, T: int) -> SummabilityConstants:
    """Partial values of the norm sums entering the linear-regret certificate."""
    return norm_sums(F, T)[1]


def exponential_fit(phi_norms) -> tuple[float, float]:
    """Fit ||Phi(t,0)|| ~ d * delta^t by least squares on the tail half.

    The intercept is anchored at t = 0, so exact geometric data returns the
    exact (d, delta).
    """
    norms = np.asarray(phi_norms, dtype=float)
    if np.any(norms <= 0.0) or not np.all(np.isfinite(norms)):
        raise ValueError("exponential fit needs finite positive norms")
    ts = np.arange(len(norms))
    tail = slice(len(norms) // 2, None)
    if len(norms[tail]) < 4:
        raise ValueError("exponential fit needs at least 4 tail points")
    slope, intercept = np.polyfit(ts[tail], np.log(norms[tail]), 1)
    return float(np.exp(intercept)), float(max(np.exp(slope), 0.0))


@dataclass
class StabilityReport:
    """Classification plus the diagnostics that produced it.

    Sum fields hold the finite-horizon value when the tail heuristic accepts
    convergence and +inf otherwise.  spectral_radius is None for time-varying
    loops, exp_fit is (d, delta) from the norm-table fit (or the certified
    (g, eps) pair in the constant case when the radius is below one).
    """

    classification: Stability
    spectral_radius: float | None
    phi_norm_tail: float
    bibs_sup: float
    d_sum: float
    d_bar: float
    h_bar: float
    exp_fit: tuple[float, float] | None
    full_rank_ok: bool
    horizon: int
    notes: str = ""

    def to_dict(self) -> dict:
        return jsonable({**self.__dict__, "classification": self.classification.value})


def _converged_sums(bibs: BibsSums, sums: SummabilityConstants) -> dict:
    """The report's four sum fields: the finite-horizon value when it looks convergent, else +inf."""
    inf = float("inf")
    bibs_ok = (not bibs.capped) and partial_sums_converged(bibs.sums)
    return {
        "bibs_sup": bibs.sup if bibs_ok else inf,
        "d_sum": sums.d_sum if sums.d_sum_converged else inf,
        "d_bar": sums.d_bar if sums.d_bar_converged else inf,
        "h_bar": sums.h_bar if sums.h_bar_converged else inf,
    }


def _full_rank(M: np.ndarray) -> bool:
    return bool(np.linalg.matrix_rank(M) == M.shape[0])


def classify_lti(F, horizon: int = 500, marginal_tol: float = 1e-9) -> StabilityReport:
    """Classify a constant closed loop by its spectral radius.

    Tolerance band: rho < 1 - marginal_tol is stable, |rho - 1| <= marginal_tol
    marginal, larger unstable.  When stable, exp_fit is a certified pair
    (g, eps) with eps = (1 + rho)/2 and ||F^k|| <= g eps^k on the checked range.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ShapeError(f"F must be square, got {F.shape}")
    if horizon < 1:
        raise ShapeError(f"need horizon >= 1, got {horizon}")
    try:
        rho = spectral_radius(F)
    except np.linalg.LinAlgError:
        return StabilityReport(
            classification=Stability.INCONCLUSIVE,
            spectral_radius=None,
            phi_norm_tail=float("nan"),
            bibs_sup=float("nan"),
            d_sum=float("nan"),
            d_bar=float("nan"),
            h_bar=float("nan"),
            exp_fit=None,
            full_rank_ok=_full_rank(F),
            horizon=horizon,
            notes="eigenvalue solver failed",
        )

    if rho < 1.0 - marginal_tol:
        classification = Stability.ASYMPTOTICALLY_STABLE
    elif rho <= 1.0 + marginal_tol:
        classification = Stability.MARGINALLY_STABLE
    else:
        classification = Stability.UNSTABLE

    seq = as_closed_loop(F)
    norms, capped = transition_norms(seq, horizon)
    bibs, sums = _sums_from_column(seq, norms, capped)

    exp_pair = None
    if rho < 1.0 - marginal_tol:
        eps = 0.5 * (1.0 + rho)
        ks = np.arange(horizon + 1)
        g = float(np.max(norms / eps**ks))
        exp_pair = (g, eps)

    return StabilityReport(
        classification=classification,
        spectral_radius=rho,
        phi_norm_tail=float(norms[-1]),
        **_converged_sums(bibs, sums),
        exp_fit=exp_pair,
        full_rank_ok=_full_rank(F),
        horizon=horizon,
        notes="",
    )


def classify_ltv(
    F,
    T: int,
    slope_tol: float = 1e-3,
    oscillation_band: float = 2.0,
    bibs_horizon: int | None = None,
) -> StabilityReport:
    """Empirical classification of a time-varying closed loop from its norm trend.

    Runs a log-linear regression of ||Phi(t, 0)|| over the tail half: slope
    below -slope_tol per step reads as asymptotically stable, above +slope_tol
    unstable.  A flat trend with tail log-range within oscillation_band is
    marginal; wilder oscillation is reported Inconclusive, since no finite
    norm table can decide between bounded oscillation and chaotic behaviour.
    Requires T >= 50 so the trend is meaningful.
    """
    if T < 50:
        raise ShapeError(f"trend classification needs T >= 50, got {T}")
    seq = as_closed_loop(F)
    norms, capped = transition_norms(seq, T)
    full_rank_ok = all(_full_rank(seq(t)) for t in range(T))

    bh = min(T, 150) if bibs_horizon is None else bibs_horizon
    bibs, sums = norm_sums(seq, bh)

    notes = ""
    exp_pair = None
    if capped:
        classification = Stability.UNSTABLE
        notes = "norm table exceeded overflow cap"
    elif norms[-1] < 1e-300:
        classification = Stability.ASYMPTOTICALLY_STABLE
        notes = "transition norm underflowed to zero"
    else:
        logs = np.log(np.maximum(norms, 1e-300))
        ts = np.arange(T + 1)
        tail = slice((T + 1) // 2, None)
        slope = float(np.polyfit(ts[tail], logs[tail], 1)[0])
        exp_pair = exponential_fit(np.maximum(norms, 1e-300))
        if slope < -slope_tol:
            classification = Stability.ASYMPTOTICALLY_STABLE
        elif slope > slope_tol:
            classification = Stability.UNSTABLE
        else:
            swing = float(logs[tail].max() - logs[tail].min())
            if swing <= oscillation_band:
                classification = Stability.MARGINALLY_STABLE
            else:
                classification = Stability.INCONCLUSIVE
                notes = (
                    "flat trend with large oscillation; bounded oscillation and "
                    "chaotic behaviour are indistinguishable at this horizon"
                )

    return StabilityReport(
        classification=classification,
        spectral_radius=None,
        phi_norm_tail=float(norms[-1]),
        **_converged_sums(bibs, sums),
        exp_fit=exp_pair,
        full_rank_ok=full_rank_ok,
        horizon=T,
        notes=notes,
    )
