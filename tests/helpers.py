"""Shared construction helpers for randomized test instances."""

import numpy as np

from regretlab import LinearPolicy, QuadraticStageCost, SystemDynamics


def random_loop(rng, n, m, rho_target):
    """Random (system, policy) whose closed loop has spectral radius rho_target.

    Draws F with the requested radius and back-solves A = F + B K, so the
    closed loop is exact by construction.
    """
    while True:
        raw = rng.standard_normal((n, n))
        rho0 = float(np.max(np.abs(np.linalg.eigvals(raw))))
        if rho0 > 1e-9:
            break
    F = raw * (rho_target / rho0)
    B = rng.standard_normal((n, m))
    K = 0.5 * rng.standard_normal((m, n))
    A = F + B @ K
    return SystemDynamics.lti(A, B), LinearPolicy.constant(K), F


def overdriven_loop(rng, n, m, rho_target):
    """Random (system, policy, F): a stable open loop and a gain that makes F = A - B K expand.

    The open loop has spectral radius 0.9, so the benchmark stays well
    conditioned; the gain is scaled so that B K has spectral radius
    rho_target, which dominates the closed loop when rho_target >> 1.
    """
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-9)
    B = rng.standard_normal((n, m))
    K = rng.standard_normal((m, n))
    K *= rho_target / float(np.max(np.abs(np.linalg.eigvals(B @ K))))
    return SystemDynamics.lti(A, B), LinearPolicy.constant(K), A - B @ K


def random_pd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix."""
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T + n * np.eye(n))


def random_instance(rng, n_max=4, m_max=2, T_max=50):
    """Random well-conditioned LQ instance for benchmark cross-checks.

    The open loop is scaled to spectral radius at most ~1.05 so the stacked
    response stays within float range over the horizon.
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    T = int(rng.integers(1, T_max + 1))
    A = rng.standard_normal((n, n))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho > 1e-9:
        A *= rng.uniform(0.2, 1.05) / rho
    B = rng.standard_normal((n, m))
    system = SystemDynamics.lti(A, B)
    costs = QuadraticStageCost.constant(random_pd(rng, n), random_pd(rng, m))
    x0 = rng.standard_normal(n)
    w = rng.standard_normal((T, n)) * 0.5
    return system, costs, x0, w, T
