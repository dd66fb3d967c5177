"""State transition matrices of the free closed loop and stability diagnostics.

Phi(t, k) = F_{t-1} ... F_k (with Phi(t, t) = I) propagates the unforced state
from time k to time t.  Spectral-norm tables of these products drive the
bounded-input-bounded-state check, the summability constants used by the
regret certificates, and the empirical stability classification.

Products of F come from two recurrences only: the column `_products`
(Phi(t, k) x for one k, also the adversary's transition-aligned rows) and the
row `_row_stacks` (Phi(t, k) for all k <= t, one t at a time).

Norm sums over a finite horizon cannot certify limits; convergence is reported
through documented heuristics (relative tail growth, log-linear trend) and
divergence is flagged rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ShapeError
from .model import MatrixSequence, _step_product, jsonable, matrix_sequence

# Norm products larger than this are treated as numerically divergent.
NORM_CAP = 1e140

# A partial-sum sequence is called convergent when its second half grows by
# less than this relative amount.
TAIL_GROWTH_TOL = 0.01

# classify_ltv reads a tail log-norm slope within +-TREND_SLOPE_TOL per step as
# flat, and a flat tail whose log-range is within OSCILLATION_BAND as marginal.
TREND_SLOPE_TOL = 1e-3
OSCILLATION_BAND = 2.0

LTI_HORIZON = 500  # classify_lti reads the norm table over steps 0..LTI_HORIZON

ROW_CHUNK = 2**15  # floats of row blocks per _spectral_norms call in _row_norm_sums

# _trig_gram_top hands a 3x3 Gram to eigvalsh when r = det((G - qI)/p)/2 is
# below this: near r = -1 the top pair is (nearly) repeated, and the
# trigonometric formula's cos(arccos(r)/3) has a 1/sqrt(1 + r) sensitivity.
TRIG_GUARD = -0.9


class Stability(str, Enum):
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    MARGINALLY_STABLE = "MarginallyStable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _products(seq: MatrixSequence, T: int, x: np.ndarray, start: int = 0) -> np.ndarray:
    """The column recurrence: x, F_start x, F_{start+1} F_start x, ... as one (T+1, *x.shape) array.

    Entry j is Phi(start + j, start) x, formed by one product per step of
    MatrixSequence.steps (_step_product) into its row of the result; an
    overflowing product runs on as inf and NaN.
    """
    out = np.empty((T + 1, *np.shape(x)))
    out[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        dot = _step_product(seq.shape[0])
        for F, prev, nxt in zip(seq.steps(T, start=start), out, out[1:]):
            dot(F, prev, out=nxt)
    return out


def transition_matrix(F, t: int, k: int) -> np.ndarray:
    """Ordered product F_{t-1} ... F_k; the identity when k == t."""
    if k > t:
        raise ShapeError(f"transition_matrix needs k <= t, got k={k}, t={t}")
    seq = matrix_sequence(F, what="F")
    return _products(seq, t - k, np.eye(seq.shape[0]), start=k)[-1]


def _row_stacks(seq: MatrixSequence, T: int):
    """Yield row t of the transition table, Phi(t, k) for k = 0..t stacked, for t = 1..T.

    Phi(t, t) = I and Phi(t, k) = F_{t-1} Phi(t-1, k): one batched
    left-multiplication of the previous row per step, never the full table.
    The rows alternate between two buffers, each product written straight
    into the one the previous row is not in, so the yielded stack is a view
    that the step after next overwrites.
    """
    n = seq.shape[0]
    eye = np.eye(n)
    prev, row = np.empty((2, T + 1, n, n))
    prev[0] = eye
    for t, F in enumerate(seq.steps(T), start=1):
        np.matmul(F, prev[:t], out=row[:t])
        row[t] = eye
        yield row[: t + 1]
        prev, row = row, prev


def transition_row(F, t: int) -> list[np.ndarray]:
    """All blocks Phi(t, k) for k = 0..t, built by the row recurrence."""
    seq = matrix_sequence(F, what="F")
    row = np.eye(seq.shape[0])[None]
    for row in _row_stacks(seq, t):
        pass
    return list(row)


def transition_norms(F, T: int) -> tuple[np.ndarray, bool]:
    """||Phi(t, 0)|| for t = 0..T.

    Returns (norms, capped); once a product norm exceeds NORM_CAP, or a
    product is not finite, the rest of the table is +inf and capped is True.
    One batched 2-norm covers the products before the first non-finite one.
    """
    seq = matrix_sequence(F, what="F")
    stack = _products(seq, T, np.eye(seq.shape[0]))
    finite = np.isfinite(stack).all(axis=(1, 2))
    k = T + 1 if finite.all() else int(np.argmin(finite))
    norms = np.full(T + 1, np.inf)
    norms[:k] = np.linalg.norm(stack[:k], 2, axis=(1, 2))
    over = ~(norms <= NORM_CAP)
    norms[np.logical_or.accumulate(over)] = np.inf
    return norms, bool(over.any())


def partial_sums_converged(partials: np.ndarray) -> bool:
    """Relative growth of the second half below TAIL_GROWTH_TOL."""
    if not np.all(np.isfinite(partials)):
        return False
    mid = partials[len(partials) // 2]
    last = partials[-1]
    return (last - mid) <= TAIL_GROWTH_TOL * max(abs(mid), 1e-300)


@dataclass
class NormSums:
    """Finite-horizon values of the transition-norm sums with their convergence verdicts.

    A verdict is True when its sum never hit NORM_CAP and its partial sums
    pass partial_sums_converged.
    """

    sums: np.ndarray  # BIBS row sums S_t = sum_{k=1..t} ||Phi(t,k)||, t = 0..T, sums[0] = 0
    sup: float  # max_t S_t, +inf once some S_t hit NORM_CAP
    d_sum: float  # sum_t ||Phi(t,0)||
    d_bar: float  # sum_t ||Phi(t,0)||^2
    h_bar: float  # sup_t sum_k ||Phi(t,k)||^2
    bibs_converged: bool
    d_sum_converged: bool
    d_bar_converged: bool
    h_bar_converged: bool


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """The 2-norm of each finite block of a (k, n, n) stack, from scaled Gram eigenvalues.

    Each block M is divided by big = max |M_ij| (an all-zero block gives 0),
    and its norm is big * sqrt(lambda_max(S'S)) for S = M / big.  The scaling
    keeps the entries of S'S within [-n, n], so no finite block overflows or
    underflows in the Gram product.  lambda_max comes in closed form for
    n = 3 (_trig_gram_top), and from one batched eigvalsh (_eigvalsh_gram_top)
    for every other n; for n = 1 that gives |m| exactly, since m / big is +-1.
    Against np.linalg.norm(M, 2) (one SVD per block) the relative gap is tested
    within 16 eps (about 5 eps seen); a norm beyond the float range is +inf.
    """
    if stack.shape[1] == 3:
        cols = np.ascontiguousarray(stack.transpose(1, 2, 0))  # cols[r, i]: entry (r, i) of each block
        big = np.abs(cols).max(axis=(0, 1))
        lam = _trig_gram_top(cols / np.where(big > 0.0, big, 1.0))
    else:
        big = np.abs(stack).max(axis=(1, 2))
        lam = _eigvalsh_gram_top(stack / np.where(big > 0.0, big, 1.0)[:, None, None])
    with np.errstate(over="ignore"):
        return big * np.sqrt(np.maximum(lam, 0.0))


def _eigvalsh_gram_top(S: np.ndarray) -> np.ndarray:
    """lambda_max(S'S) for each block of a (k, n, n) stack, from one batched eigvalsh."""
    return np.linalg.eigvalsh(np.matmul(S.transpose(0, 2, 1), S))[:, -1]


def _trig_gram_top(S: np.ndarray) -> np.ndarray:
    """lambda_max(S'S) for each block of a (3, 3, k) stack of scaled blocks.

    S[r, i] holds entry (r, i) of every block, so each Gram entry is a sum of
    three elementwise products of two columns.  lambda_max comes from the
    trigonometric formula of Smith (CACM 4(4), 1961),
    q + 2p cos(arccos(r)/3) with q = tr G / 3, p = ||G - qI||_F / sqrt(6) and
    r = det((G - qI)/p)/2; its error is about 2p times that of the cosine, so
    it stays within a few eps of lambda_max except near r = -1 (Kopp, Int. J.
    Mod. Phys. C 19, 2008), where the blocks below TRIG_GUARD go to eigvalsh.
    Each block's value depends on that block alone.
    """
    def gram(i, j):
        return (S[:, i] * S[:, j]).sum(axis=0)

    g00, g11, g22, g01, g02, g12 = gram(0, 0), gram(1, 1), gram(2, 2), gram(0, 1), gram(0, 2), gram(1, 2)
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    inv = 1.0 / np.where(p > 0.0, p, 1.0)  # G = qI when p = 0, and then r = 0
    d0, d1, d2, g01, g02, g12 = d0 * inv, d1 * inv, d2 * inv, g01 * inv, g02 * inv, g12 * inv
    det = d0 * (d1 * d2 - g12 * g12) - g01 * (g01 * d2 - g12 * g02) + g02 * (g01 * g12 - d1 * g02)
    r = np.clip(0.5 * det, -1.0, 1.0)
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    near = np.flatnonzero(r < TRIG_GUARD)
    if near.size:
        lam[near] = _eigvalsh_gram_top(S[:, :, near].transpose(2, 0, 1))
    return lam


def _row_norm_sums(seq: MatrixSequence, T: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_k ||Phi(t, k)|| and sum_k ||Phi(t, k)||^2 over k = 1..t, for t = 1..T.

    One row pass.  Consecutive rows' blocks are copied into a chunk of at
    most ROW_CHUNK floats (one row at least), and each chunk's norms come
    from one _spectral_norms call (a closed-form largest Gram eigenvalue for
    n = 3 and one batched eigvalsh for every other n, where an SVD per
    block costs more than either); each row's sums are then taken alone,
    as a pass with one call per row takes them, to the same bits.  The
    column pass, transition_norms, keeps the SVD norm: its values reach the
    stability and certificate outputs of constant loops, which stay
    byte-identical, while no CLI command writes a row sum of a time-varying
    loop.  Each sum is +inf from the first row at which it exceeds NORM_CAP
    (or is not finite) on; the pass stops once the norm sum does, since the
    squared sum has then done so too.  A row with an entry beyond NORM_CAP
    (or a NaN or inf) caps, since a block's norm is at least its largest
    entry, so it ends its chunk at once and no later row is built; the
    overflow that built it is silenced.
    """
    n = seq.shape[0]
    sums = np.full(T, np.inf)
    squares = np.full(T, np.inf)
    squares_ok = True
    size = ROW_CHUNK // (n * n)  # blocks per chunk, unless a row alone has more
    chunk = np.empty((max(size, T), n, n))
    ends = []  # the chunk holds rows t - len(ends) + 1..t, row i ending at block ends[i]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, row in enumerate(_row_stacks(seq, T), start=1):
            at = ends[-1] if ends else 0
            chunk[at : at + t] = row[1:]
            ends.append(at + t)
            if t < T and ends[-1] + t + 1 <= size and np.abs(row[1:]).max() <= NORM_CAP:
                continue  # else the chunk is full, or this row caps
            finite = np.isfinite(chunk[: ends[-1]]).all(axis=(1, 2))
            stop = ends[-1] if finite.all() else int(np.argmin(finite))  # first non-finite block
            norms = _spectral_norms(chunk[:stop])
            start = 0
            for r, end in enumerate(ends, start=t - len(ends) + 1):
                row_norms = norms[start:end]
                total = row_norms.sum()
                if end > stop or not total <= NORM_CAP:
                    return sums, squares
                sums[r - 1] = total
                square = np.sum(row_norms**2)
                squares_ok = squares_ok and square <= NORM_CAP
                if squares_ok:
                    squares[r - 1] = square
                start = end
            ends = []
    return sums, squares


def norm_sums(F, T: int) -> NormSums:
    """BIBS row sums and summability constants from one pass over the norm table.

    The column ||Phi(t, 0)|| comes from transition_norms.  The row sums
    sum_{k=1..t} ||Phi(t, k)|| (and their squares) come from the row pass, or
    for a constant F from prefix sums of ||F^j|| = ||Phi(j, 0)||, j < t,
    which avoids the O(T^2) product table.
    """
    if T < 1:
        raise ShapeError(f"need T >= 1, got {T}")
    seq = matrix_sequence(F, what="F")
    return _sums_from_column(seq, transition_norms(seq, T)[0])


def _sums_from_column(seq: MatrixSequence, norms: np.ndarray) -> NormSums:
    """norm_sums from a column of transition_norms at T = len(norms) - 1 >= 1.

    The column is capped when its last entry is +inf: transition_norms sets
    every entry from the first cap on to +inf and leaves no NaN.
    """
    T = len(norms) - 1
    capped = np.isinf(norms[-1])
    if seq.constant:
        powers = norms[:T]
        row_sums = np.cumsum(powers)
        row_squares = np.cumsum(powers**2) if np.all(np.isfinite(powers)) else np.full(T, np.inf)
    else:
        row_sums, row_squares = _row_norm_sums(seq, T)

    sums = np.concatenate(([0.0], row_sums))
    bibs_capped = not np.all(np.isfinite(row_sums))
    finite = np.where(np.isfinite(norms), norms, 0.0)
    d_partials = np.cumsum(finite)
    d2_partials = np.cumsum(finite**2)
    h_capped = not np.all(np.isfinite(row_squares))
    return NormSums(
        sums=sums,
        sup=float(np.max(sums)),
        d_sum=float("inf") if capped else float(d_partials[-1]),
        d_bar=float("inf") if capped else float(d2_partials[-1]),
        h_bar=float("inf") if h_capped else float(np.max(row_squares)),
        bibs_converged=(not bibs_capped) and partial_sums_converged(sums),
        d_sum_converged=(not capped) and partial_sums_converged(d_partials),
        d_bar_converged=(not capped) and partial_sums_converged(d2_partials),
        h_bar_converged=(not h_capped) and partial_sums_converged(row_squares),
    )


def bibs_partial_sums(F, T: int) -> NormSums:
    """norm_sums under the name of its BIBS row sums (a traced perfbench entry point)."""
    return norm_sums(F, T)


def summability_constants(F, T: int) -> NormSums:
    """norm_sums under the name of its summability constants (a traced perfbench entry point)."""
    return norm_sums(F, T)


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
    return _exp_pair(*np.polyfit(ts[tail], np.log(norms[tail]), 1))


def _exp_pair(slope, intercept) -> tuple[float, float]:
    """(d, delta) = (e^intercept, e^slope) of a log-linear fit."""
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


def converged_sums(sums: NormSums) -> dict:
    """The convergence gate: bibs_sup, d_sum, d_bar, h_bar, each +inf unless its verdict holds."""
    inf = float("inf")
    return {
        "bibs_sup": sums.sup if sums.bibs_converged else inf,
        "d_sum": sums.d_sum if sums.d_sum_converged else inf,
        "d_bar": sums.d_bar if sums.d_bar_converged else inf,
        "h_bar": sums.h_bar if sums.h_bar_converged else inf,
    }


def _full_rank(M: np.ndarray) -> bool:
    """Whether the square matrix M, or every matrix of a (T, n, n) stack, has rank n."""
    return bool(np.all(np.linalg.matrix_rank(M) == M.shape[-1]))


def classify_lti(F, marginal_tol: float = 1e-9) -> StabilityReport:
    """Classify a constant closed loop by its spectral radius.

    Tolerance band: rho < 1 - marginal_tol is stable, |rho - 1| <= marginal_tol
    marginal, larger unstable.  When stable, exp_fit is a certified pair
    (g, eps) with eps = (1 + rho)/2 and ||F^k|| <= g eps^k on the checked range
    0..LTI_HORIZON.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ShapeError(f"F must be square, got {F.shape}")
    rho = spectral_radius(F)
    seq = matrix_sequence(F, what="F")
    norms = transition_norms(seq, LTI_HORIZON)[0]

    exp_pair = None
    if rho < 1.0 - marginal_tol:
        classification = Stability.ASYMPTOTICALLY_STABLE
        eps = 0.5 * (1.0 + rho)
        exp_pair = (float(np.max(norms / eps ** np.arange(LTI_HORIZON + 1))), eps)
    elif rho <= 1.0 + marginal_tol:
        classification = Stability.MARGINALLY_STABLE
    else:
        classification = Stability.UNSTABLE

    return StabilityReport(
        classification=classification,
        spectral_radius=rho,
        phi_norm_tail=float(norms[-1]),
        **converged_sums(_sums_from_column(seq, norms)),
        exp_fit=exp_pair,
        full_rank_ok=_full_rank(F),
        horizon=LTI_HORIZON,
        notes="",
    )


def classify_ltv(F, T: int) -> StabilityReport:
    """Empirical classification of a time-varying closed loop from its norm trend.

    Runs a log-linear regression of ||Phi(t, 0)|| over the tail half, the
    one exponential_fit runs, and reports its (d, delta) as exp_fit: slope
    below -TREND_SLOPE_TOL per step reads as asymptotically stable, above
    +TREND_SLOPE_TOL unstable.  A flat trend with tail log-range within
    OSCILLATION_BAND is marginal; wilder oscillation is reported Inconclusive,
    since no finite norm table can decide between bounded oscillation and
    chaotic behaviour.
    Requires T >= 50 so the trend is meaningful.  The sum fields are those of
    norm_sums at horizon min(T, 150): d_sum and d_bar from the first
    min(T, 150) steps of the same norm column, bibs_sup and h_bar from the row
    sums over rows t = 1..min(T, 150) of the transition table (the row pass,
    or prefix sums of that column when F is constant).
    """
    if T < 50:
        raise ShapeError(f"trend classification needs T >= 50, got {T}")
    seq = matrix_sequence(F, what="F")
    norms, capped = transition_norms(seq, T)
    full_rank_ok = _full_rank(seq.stack(T))

    bh = min(T, 150)
    sums = _sums_from_column(seq, norms[: bh + 1])

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
        slope, intercept = np.polyfit(ts[tail], logs[tail], 1)
        exp_pair = _exp_pair(slope, intercept)
        if slope < -TREND_SLOPE_TOL:
            classification = Stability.ASYMPTOTICALLY_STABLE
        elif slope > TREND_SLOPE_TOL:
            classification = Stability.UNSTABLE
        else:
            swing = float(logs[tail].max() - logs[tail].min())
            if swing <= OSCILLATION_BAND:
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
        **converged_sums(sums),
        exp_fit=exp_pair,
        full_rank_ok=full_rank_ok,
        horizon=T,
        notes=notes,
    )
