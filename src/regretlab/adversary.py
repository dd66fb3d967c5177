"""Disturbance constructions: aligned worst-case signals and random sampling.

Three recipes, all emitting signals with ||w_t|| <= W:

* constant along the dominant eigenvector of the closed loop (the standard
  way to excite the slowest-decaying / fastest-growing mode);
* aligned with the transition matrices, w_{k-1} = C Phi(k, 0) w0 with C chosen
  as the largest scale that respects the bound over the horizon -- under this
  signal the undisturbed-start state is exactly x_t = t C Phi(t, 0) w0;
* i.i.d. uniform draws from the radius-W ball (seeded, prefix-stable).

Each recipe also realizes a whole horizon grid at once: `realize_grid`
returns base rows for the longest horizon and one scale per horizon, with
realize(T).w == scale_T * base[:T].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationOverflowError
from .model import DisturbanceSignal
from .transition import as_closed_loop


def _sign_normalize(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


def dominant_direction(F, complex_convention: str = "real-part") -> tuple[np.ndarray, complex, str]:
    """Unit vector for the eigenvalue of largest modulus.

    A complex dominant pair has no real eigenvector, so a real surrogate
    direction must be chosen.  "real-part" rotates the eigenvector so its
    largest component is real positive and takes the real part; "modulus"
    takes the per-component modulus (phase-invariant, still unit norm).  The
    first nonzero component of the result is made positive either way.  If
    the eigenpair residual is large (defective dominant eigenvalue) the
    dominant right singular vector is used instead and tagged.
    """
    if complex_convention not in ("real-part", "modulus"):
        raise ValueError(f"unknown complex_convention {complex_convention!r}")
    F = np.asarray(F, dtype=float)
    vals, vecs = np.linalg.eig(F)
    i = int(np.argmax(np.abs(vals)))
    lam = vals[i]
    v = vecs[:, i]
    residual = float(np.linalg.norm(F @ v - lam * v))
    if residual > 1e-8 * max(1.0, float(np.linalg.norm(F, 2))):
        right = np.linalg.svd(F)[2][0]
        u = _sign_normalize(right / np.linalg.norm(right))
        return u, lam, "dominant-singular-vector-fallback"
    tag = "dominant-eigenvector"
    is_complex = abs(np.imag(lam)) > 1e-12 * max(1.0, abs(lam))
    if is_complex and complex_convention == "modulus":
        u = np.abs(v)
        tag += "-modulus"
    else:
        j = int(np.argmax(np.abs(v)))
        v = v * (np.conj(v[j]) / abs(v[j]))
        u = np.real(v)
        if is_complex:
            tag += "-real-part"
    u = u / np.linalg.norm(u)
    u = _sign_normalize(u)
    return u, lam, tag


@dataclass
class ConstantEigvecDisturbance:
    """w_t = W * v for all t, v the dominant direction of the closed loop."""

    direction: np.ndarray
    bound: float
    eigenvalue: complex
    provenance: str
    kind: str = "eigvec"

    def realize(self, T: int) -> DisturbanceSignal:
        w = np.tile(self.bound * self.direction, (T, 1))
        return DisturbanceSignal(w, self.bound)

    def realize_grid(self, horizons) -> tuple[np.ndarray, np.ndarray]:
        """Prefix-stable: realize(T).w is base[:T] for every T of the grid (scales 1)."""
        return self.realize(int(horizons[-1])).w, np.ones(len(horizons))


def constant_eigvec(F, W: float, complex_convention: str = "real-part") -> ConstantEigvecDisturbance:
    v, lam, tag = dominant_direction(F, complex_convention)
    return ConstantEigvecDisturbance(
        direction=v, bound=float(W), eigenvalue=lam, provenance=tag
    )


def _phi_rows(F, W: float, T: int, w0=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows Phi(k, 0) w0 for k = 1..T and the scales C_0..C_T of phi_aligned.

    C_t = min_{k<=t} W / ||Phi(k,0) w0|| is the scale of the horizon-t signal,
    so phi_aligned(F, W, t, w0).w equals C_t * rows[:t] for every t <= T.
    Raises SimulationOverflowError at the first k whose row is not finite.
    """
    seq = as_closed_loop(F)
    n = seq.shape[0]
    if w0 is None:
        w0 = np.zeros(n)
        w0[0] = 1.0
    w0 = np.asarray(w0, dtype=float)
    if np.linalg.norm(w0) == 0.0:
        raise ValueError("w0 must be nonzero")
    vecs = np.zeros((T + 1, n))
    vecs[0] = w0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, T + 1):
            vecs[k] = seq(k - 1) @ vecs[k - 1]
    finite = np.all(np.isfinite(vecs), axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise SimulationOverflowError(k, np.inf, np.finfo(float).max)
    # scaled by each row's largest entry, so the squares cannot overflow
    big = np.max(np.abs(vecs), axis=1, keepdims=True)
    norms = big[:, 0] * np.linalg.norm(vecs / np.where(big > 0.0, big, 1.0), axis=1)
    # steps with Phi(k, 0) w0 = 0 emit zero rows and are left out of the min
    ratios = np.divide(W, norms, out=np.full(T + 1, np.inf), where=norms > 0.0)
    return vecs[1:], np.minimum.accumulate(ratios)


def phi_aligned(F, W: float, T: int, w0=None) -> DisturbanceSignal:
    """w_{k-1} = C Phi(k, 0) w0 for k = 1..T, C = min_{k<=T} W / ||Phi(k,0) w0||.

    The min over all k >= 0 is truncated to the horizon; the emitted prefix
    always satisfies the bound since C is minimized over exactly these k.
    Steps with Phi(k, 0) w0 = 0 are excluded from the min (they emit zero rows).
    """
    rows, scales = _phi_rows(F, W, T, w0)
    return DisturbanceSignal(float(scales[T]) * rows, float(W))


@dataclass
class TransitionAlignedDisturbance:
    """Deterministic per-horizon realization of the transition-aligned signal."""

    F: object
    bound: float
    w0: np.ndarray | None = None
    kind: str = "phi"
    provenance: str = "transition-aligned"

    def realize(self, T: int) -> DisturbanceSignal:
        return phi_aligned(self.F, self.bound, T, self.w0)

    def realize_grid(self, horizons) -> tuple[np.ndarray, np.ndarray]:
        """Base rows Phi(k, 0) w0 and scales C_T with realize(T).w == C_T * base[:T]."""
        horizons = np.asarray(horizons, dtype=int)
        rows, scales = _phi_rows(self.F, self.bound, int(horizons[-1]), self.w0)
        return rows, scales[horizons]


def ball_point(rng, n: int, radius: float) -> np.ndarray:
    """One uniform draw from the radius ball in R^n: n normals, then one uniform."""
    g = rng.standard_normal(n)
    norm = np.linalg.norm(g)
    direction = g / norm if norm > 0 else np.eye(n)[0]
    return radius * rng.uniform() ** (1.0 / n) * direction


def random_ball(n: int, W: float, T: int, seed: int) -> DisturbanceSignal:
    """i.i.d. uniform draws from the radius-W ball in R^n.

    Per step exactly n normals plus one uniform are drawn, so a shorter
    horizon with the same seed is a prefix of a longer one.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros((T, n))
    for t in range(T):
        w[t] = ball_point(rng, n, W)
    return DisturbanceSignal(w, float(W))


@dataclass
class BallDisturbance:
    """Seeded uniform-ball sampler with the prefix property across horizons."""

    n: int
    bound: float
    seed: int
    kind: str = "random"
    provenance: str = "uniform-ball"

    def realize(self, T: int) -> DisturbanceSignal:
        return random_ball(self.n, self.bound, T, self.seed)

    def realize_grid(self, horizons) -> tuple[np.ndarray, np.ndarray]:
        """Prefix-stable: realize(T).w is base[:T] for every T of the grid (scales 1)."""
        return self.realize(int(horizons[-1])).w, np.ones(len(horizons))
