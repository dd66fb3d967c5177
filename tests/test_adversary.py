import numpy as np
import pytest

from regretlab import (
    BallDisturbance,
    TransitionAlignedDisturbance,
    constant_eigvec,
    dominant_direction,
    phi_aligned,
    random_ball,
)

F2 = np.array([[1.0, 0.0], [0.0, 0.5]])
F3 = np.array([[1.02, 0.5], [0.01, 0.75]])


def test_eigvec_axis_cases():
    rec = constant_eigvec(np.diag([2.0, 0.5]), 1.0)
    np.testing.assert_allclose(rec.direction, [1.0, 0.0], atol=1e-14)
    sig = rec.realize(4)
    np.testing.assert_allclose(sig.w, np.tile([1.0, 0.0], (4, 1)), atol=1e-14)

    rec2 = constant_eigvec(F2, 1.0)
    np.testing.assert_allclose(rec2.direction, [1.0, 0.0], atol=1e-14)


def test_eigvec_matches_hand_solved_eigenvector():
    # lam = (tr + sqrt(tr^2 - 4 det)) / 2, eigenvector along (0.5, lam - 1.02)
    tr, det = 1.77, 1.02 * 0.75 - 0.5 * 0.01
    lam = (tr + np.sqrt(tr * tr - 4 * det)) / 2.0
    v = np.array([0.5, lam - 1.02])
    v /= np.linalg.norm(v)
    rec = constant_eigvec(F3, 1.0)
    np.testing.assert_allclose(rec.direction, v, atol=1e-10)
    np.testing.assert_allclose(rec.direction, [0.99939, 0.03477], atol=5e-5)
    residual = np.linalg.norm(F3 @ rec.direction - lam * rec.direction)
    assert residual < 1e-10


def test_eigvec_complex_pair_uses_real_part():
    F1 = np.array([[0.8, 0.6], [-0.1, 0.8]])
    v, lam, tag = dominant_direction(F1)
    assert abs(np.imag(lam)) > 0  # genuinely complex pair
    assert tag.endswith("real-part")
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    first_nonzero = v[np.argmax(np.abs(v) > 1e-12)]
    assert first_nonzero > 0


def test_eigvec_jordan_block_direction():
    v, lam, tag = dominant_direction(np.array([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)
    assert lam == pytest.approx(1.0)


def test_phi_aligned_identity_loop():
    sig = phi_aligned(np.eye(3), 0.7, 5, w0=[1.0, 0.0, 0.0])
    np.testing.assert_allclose(sig.w, np.tile([0.7, 0.0, 0.0], (5, 1)), atol=1e-14)


def test_phi_aligned_scalar_doubling():
    # products 2^k for k=0..3 give C = 1/8; emitted rows are C * (2, 4, 8)
    sig = phi_aligned([[2.0]], 1.0, 3, w0=[1.0])
    np.testing.assert_allclose(sig.w.ravel(), [0.25, 0.5, 1.0], atol=1e-14)
    assert np.max(np.abs(sig.w)) <= 1.0 + 1e-12


def test_phi_aligned_scalar_halving():
    # products 0.5^k, min of W/0.5^k is at k=0, so C = 1
    sig = phi_aligned([[0.5]], 1.0, 3, w0=[1.0])
    np.testing.assert_allclose(sig.w.ravel(), [0.5, 0.25, 0.125], atol=1e-14)


def test_phi_aligned_rejects_zero_seed_vector():
    with pytest.raises(ValueError):
        phi_aligned(np.eye(2), 1.0, 3, w0=[0.0, 0.0])


def test_phi_aligned_state_identity():
    # with x0 = 0 the state is exactly t * C * Phi(t,0) w0 = t * w_{t-1}
    rng = np.random.default_rng(16)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        T = int(rng.integers(2, 31))
        Fs = np.array([rng.standard_normal((n, n)) * 0.8 for _ in range(T)])
        sig = phi_aligned(Fs, 1.0, T, w0=rng.standard_normal(n))
        x = np.zeros(n)
        for t in range(1, T + 1):
            x = Fs[t - 1] @ x + sig.w[t - 1]
            expected = t * sig.w[t - 1]
            assert np.linalg.norm(x - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))


def test_eigvec_alignment_geometric_sum():
    # real dominant eigenvalue: x_t = W (sum_{k<t} lam^k) v exactly
    for lam in (0.5, 1.0, 1.3):
        F = np.diag([lam, 0.1])
        rec = constant_eigvec(F, 2.0)
        sig = rec.realize(20)
        x = np.zeros(2)
        for t in range(1, 21):
            x = F @ x + sig.w[t - 1]
            expected = 2.0 * sum(lam**k for k in range(t)) * rec.direction
            assert np.linalg.norm(x - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))


def test_bound_compliance_across_recipes():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        W = float(rng.uniform(0.1, 3.0))
        F = rng.standard_normal((n, n))
        T = int(rng.integers(1, 20))
        for sig in (
            constant_eigvec(F, W).realize(T),
            phi_aligned(F, W, T, w0=rng.standard_normal(n)),
            random_ball(n, W, T, seed=int(rng.integers(0, 2**31))),
        ):
            assert np.all(np.linalg.norm(sig.w, axis=1) <= W + 1e-12)


def test_random_ball_zero_radius():
    sig = random_ball(3, 0.0, 10, seed=0)
    assert np.all(sig.w == 0.0)


def test_random_ball_prefix_property():
    long = random_ball(2, 1.0, 50, seed=42)
    short = random_ball(2, 1.0, 20, seed=42)
    np.testing.assert_array_equal(long.w[:20], short.w)


def test_random_ball_determinism():
    a = random_ball(3, 1.0, 30, seed=7)
    b = random_ball(3, 1.0, 30, seed=7)
    np.testing.assert_array_equal(a.w, b.w)


def test_random_ball_mean_norm():
    # E ||w|| = W * n / (n + 1) for the uniform ball; n = 2 gives 2/3
    sig = random_ball(2, 1.0, 100_000, seed=123)
    mean = float(np.mean(np.linalg.norm(sig.w, axis=1)))
    assert abs(mean - 2.0 / 3.0) <= 0.01


def test_grid_realization_equals_per_horizon_realization():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        W = float(rng.uniform(0.1, 3.0))
        F = rng.standard_normal((n, n)) * rng.uniform(0.3, 1.5)
        recipes = (
            constant_eigvec(F, W),
            TransitionAlignedDisturbance(F, W, rng.standard_normal(n)),
            BallDisturbance(n, W, int(rng.integers(0, 2**31))),
        )
        for horizons in ([1, 2, 3, 9, 10, 30], list(range(1, 41)), [7]):
            for rec in recipes:
                base, scales = rec.realize_grid(horizons)
                assert base.shape == (horizons[-1], n) and scales.shape == (len(horizons),)
                for T, c in zip(horizons, scales):
                    np.testing.assert_array_equal(c * base[:T], rec.realize(T).w)


def test_phi_grid_scale_is_the_running_norm_maximum():
    # Phi(k,0) w0 = 2^k: the largest row norm up to T is 2^T, so C_T = W / 2^T
    base, scales = TransitionAlignedDisturbance([[2.0]], 3.0, np.array([1.0])).realize_grid([1, 2, 5])
    np.testing.assert_array_equal(base.ravel(), [2.0, 4.0, 8.0, 16.0, 32.0])
    np.testing.assert_array_equal(scales, [1.5, 0.75, 3.0 / 32.0])
