import numpy as np
import pytest

from regretlab import (
    ShapeError,
    Stability,
    bibs_partial_sums,
    classify_lti,
    classify_ltv,
    exponential_fit,
    norm_sums,
    summability_constants,
    transition_matrix,
    transition_norms,
    transition_row,
)

import regretlab.transition as transition

F1 = np.array([[0.8, 0.6], [-0.1, 0.8]])
F2 = np.array([[1.0, 0.0], [0.0, 0.5]])
F3 = np.array([[1.02, 0.5], [0.01, 0.75]])


def eig2x2(F):
    """Quadratic-formula eigenvalues of a 2x2 matrix, independent of np.linalg."""
    tr = F[0, 0] + F[1, 1]
    det = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        r = np.sqrt(disc)
        return (tr + r) / 2.0, (tr - r) / 2.0
    r = np.sqrt(-disc)
    return complex(tr / 2.0, r / 2.0), complex(tr / 2.0, -r / 2.0)


def test_transition_identity_and_power():
    assert np.array_equal(transition_matrix(F2, 4, 4), np.eye(2))
    np.testing.assert_allclose(
        transition_matrix(F2, 3, 1), [[1.0, 0.0], [0.0, 0.25]], atol=0
    )
    with pytest.raises(ShapeError):
        transition_matrix(F2, 1, 2)


def test_transition_row_matches_per_entry_products():
    rng = np.random.default_rng(55)
    t = 7
    Fs = np.array([rng.standard_normal((2, 2)) for _ in range(t)])
    row = transition_row(Fs, t)
    assert len(row) == t + 1
    np.testing.assert_array_equal(row[t], np.eye(2))
    for k in range(t + 1):
        np.testing.assert_allclose(row[k], transition_matrix(Fs, t, k), rtol=1e-12)


def test_transition_semigroup_on_random_ltv():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(2, 31))
        Fs = np.array([rng.standard_normal((n, n)) for _ in range(t)])
        j = int(rng.integers(0, t + 1))
        k = int(rng.integers(0, j + 1))
        whole = transition_matrix(Fs, t, k)
        split = transition_matrix(Fs, t, j) @ transition_matrix(Fs, j, k)
        scale = max(1.0, np.linalg.norm(whole))
        assert np.linalg.norm(whole - split) / scale < 1e-10


def test_transition_matches_matrix_power_for_constant_loop():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        F = rng.standard_normal((n, n)) * 0.8
        t, k = 13, 4
        via_products = transition_matrix(F, t, k)
        via_power = np.linalg.matrix_power(F, t - k)
        scale = max(1.0, np.linalg.norm(via_power))
        assert np.linalg.norm(via_products - via_power) / scale < 1e-10


def test_bibs_sums_zero_loop():
    got = bibs_partial_sums(np.zeros((2, 2)), 5)
    np.testing.assert_array_equal(got.sums, [0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert got.sup == 1.0


def test_bibs_sums_scalar_geometric():
    T = 60
    got = bibs_partial_sums([[0.5]], T)
    expected = np.array([0.0] + [2.0 * (1.0 - 0.5**t) for t in range(1, T + 1)])
    np.testing.assert_allclose(got.sums, expected, rtol=1e-14)
    assert got.sup == pytest.approx(2.0, rel=1e-14)


def test_bibs_sums_marginal_diverges():
    got = bibs_partial_sums([[1.0]], 10)
    np.testing.assert_array_equal(got.sums, np.arange(11, dtype=float))
    assert got.sup == 10.0


def test_bibs_ltv_matches_brute_force():
    rng = np.random.default_rng(7)
    T = 12
    Fs = np.array([rng.standard_normal((3, 3)) * 0.7 for _ in range(T)])
    got = bibs_partial_sums(Fs, T)
    for t in range(1, T + 1):
        brute = 0.0
        for k in range(1, t + 1):
            M = np.eye(3)
            for j in range(k, t):
                M = Fs[j] @ M
            brute += np.linalg.norm(M, 2)
        assert got.sums[t] == pytest.approx(brute, rel=1e-12)


def test_summability_scalar_geometric():
    T = 200
    s = summability_constants([[0.5]], T)
    d_exact = sum(0.5**t for t in range(T + 1))
    d2_exact = sum(0.25**t for t in range(T + 1))
    assert s.d_sum == pytest.approx(d_exact, rel=1e-14)
    assert s.d_bar == pytest.approx(d2_exact, rel=1e-14)
    assert s.h_bar == pytest.approx(d2_exact, rel=1e-14)
    assert s.d_sum_converged and s.d_bar_converged and s.h_bar_converged
    assert s.d_sum == pytest.approx(2.0, rel=1e-10)
    assert s.d_bar == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_summability_nilpotent_attained_at_dimension():
    N = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    s = summability_constants(N, 40)
    brute = sum(
        np.linalg.norm(np.linalg.matrix_power(N, t), 2) for t in range(3)
    )
    assert s.d_sum == pytest.approx(brute, rel=1e-12)
    assert s.d_sum_converged


def test_summability_marginal_diverges():
    s = summability_constants([[1.0]], 50)
    assert s.d_sum == pytest.approx(51.0)
    assert not s.d_sum_converged
    assert not s.h_bar_converged


def test_classify_lti_three_controllers():
    lam1 = eig2x2(F1)[0]
    rep1 = classify_lti(F1)
    assert rep1.classification is Stability.ASYMPTOTICALLY_STABLE
    assert rep1.spectral_radius == pytest.approx(abs(lam1), rel=1e-12)
    assert rep1.spectral_radius == pytest.approx(np.sqrt(0.7), rel=1e-12)

    rep2 = classify_lti(F2)
    assert rep2.classification is Stability.MARGINALLY_STABLE
    assert rep2.spectral_radius == pytest.approx(1.0, abs=1e-12)

    lam3 = eig2x2(F3)[0]
    rep3 = classify_lti(F3)
    assert rep3.classification is Stability.UNSTABLE
    assert rep3.spectral_radius == pytest.approx(lam3, rel=1e-12)
    assert rep3.spectral_radius == pytest.approx((1.77 + np.sqrt(0.0929)) / 2.0, rel=1e-12)


def test_classify_lti_sums_are_the_norm_sums():
    # at radius 0.97 the term ||F^500|| still shows in the last bits
    rng = np.random.default_rng(7)
    for rho in (0.5, 0.97, 1.0):
        M = rng.standard_normal((3, 3))
        F = M * rho / np.max(np.abs(np.linalg.eigvals(M)))
        rep = classify_lti(F)
        bibs, sums = norm_sums(F, 500)
        bibs_ok = (not bibs.capped) and transition.partial_sums_converged(bibs.sums)
        assert rep.bibs_sup == (bibs.sup if bibs_ok else np.inf)
        assert rep.d_sum == (sums.d_sum if sums.d_sum_converged else np.inf)
        assert rep.d_bar == (sums.d_bar if sums.d_bar_converged else np.inf)
        assert rep.h_bar == (sums.h_bar if sums.h_bar_converged else np.inf)
    with pytest.raises(ShapeError):
        classify_lti(F1, horizon=0)


def test_classify_lti_certified_power_bound():
    rep = classify_lti(F1, horizon=200)
    g, eps = rep.exp_fit
    assert eps == pytest.approx(0.5 * (1.0 + np.sqrt(0.7)), rel=1e-12)
    for k in (0, 1, 5, 20, 100, 200):
        assert np.linalg.norm(np.linalg.matrix_power(F1, k), 2) <= g * eps**k + 1e-12


def test_classify_lti_agrees_with_norm_limit():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        raw = rng.standard_normal((n, n))
        rho0 = max(abs(np.linalg.eigvals(raw)))
        target = rng.choice([rng.uniform(0.2, 0.95), rng.uniform(1.05, 1.6)])
        F = raw * (target / rho0)
        rep = classify_lti(F)
        norms, capped = transition_norms(F, 500)
        tail = norms[-1]
        if rep.classification is Stability.ASYMPTOTICALLY_STABLE:
            assert tail < 1e-6
        elif rep.classification is Stability.UNSTABLE:
            assert capped or tail > 1e3


def test_classify_ltv_periodic_contraction():
    def F(t):
        return np.diag([2.0, 0.3]) if t % 2 == 0 else np.diag([0.25, 0.3])

    rep = classify_ltv(F, 200)
    assert rep.classification is Stability.ASYMPTOTICALLY_STABLE
    assert rep.full_rank_ok
    assert rep.spectral_radius is None


def test_classify_ltv_identity_marginal():
    rep = classify_ltv(np.eye(2), 200)
    assert rep.classification is Stability.MARGINALLY_STABLE
    assert rep.phi_norm_tail == pytest.approx(1.0)


def test_classify_ltv_flags_singular_step():
    def F(t):
        return np.zeros((2, 2)) if t == 3 else np.eye(2)

    rep = classify_ltv(F, 60)
    assert not rep.full_rank_ok


def test_classify_ltv_requires_long_horizon():
    with pytest.raises(ShapeError):
        classify_ltv(np.eye(2), 10)


def test_classify_ltv_agrees_with_norm_limit_at_500():
    # contraction built to a known rate vs. a norm-preserving rotation
    rng = np.random.default_rng(9)
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cases = [
        (lambda t: 0.97 * rot, True),
        (lambda t: rot, False),
        (lambda t: np.diag([0.99, 0.5]) if t % 2 else np.diag([0.95, 0.5]), True),
    ]
    for F, expect_stable in cases:
        rep = classify_ltv(F, 500)
        norms, _ = transition_norms(F, 500)
        stable = rep.classification is Stability.ASYMPTOTICALLY_STABLE
        assert stable == expect_stable
        assert stable == (norms[-1] < 1e-6)


def test_exponential_fit_exact_geometric():
    norms = 3.0 * 0.7 ** np.arange(40)
    d, delta = exponential_fit(norms)
    assert d == pytest.approx(3.0, abs=1e-10)
    assert delta == pytest.approx(0.7, abs=1e-10)


def test_exponential_fit_constant_norms():
    d, delta = exponential_fit(np.ones(30))
    assert d == pytest.approx(1.0, abs=1e-12)
    assert delta == pytest.approx(1.0, abs=1e-12)


def test_exponential_fit_tracks_spectral_radius():
    norms, _ = transition_norms(F1, 200)
    _, delta = exponential_fit(norms)
    rho = np.sqrt(0.7)
    # oscillation from the complex pair leaves the fitted rate within 1e-3 of rho
    assert abs(delta - rho) < 1e-3
    assert delta < 1.0


def test_exponential_fit_needs_enough_points():
    with pytest.raises(ValueError):
        exponential_fit(np.ones(5))
    with pytest.raises(ValueError):
        exponential_fit(np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))


def brute_row_sums(F, T, power, cap=np.inf):
    """sum_{k=1..t} ||Phi(t, k)||^power per row t = 1..T from transition_matrix.

    With a cap, every row from the first one whose sum exceeds it is +inf.
    """
    rows = np.full(T, np.inf)
    for t in range(1, T + 1):
        total = sum(np.linalg.norm(transition_matrix(F, t, k), 2) ** power for k in range(1, t + 1))
        if not total <= cap:
            break
        rows[t - 1] = total
    return rows


def test_norm_sums_match_brute_force():
    rng = np.random.default_rng(12)
    T = 16
    constant = rng.standard_normal((3, 3))
    constant *= 0.9 / max(abs(np.linalg.eigvals(constant)))
    for F in (constant, 0.6 * rng.standard_normal((T, 3, 3))):
        bibs, sums = norm_sums(F, T)
        column = [np.linalg.norm(transition_matrix(F, t, 0), 2) for t in range(T + 1)]
        np.testing.assert_allclose(bibs.sums[1:], brute_row_sums(F, T, 1), rtol=1e-12)
        assert not bibs.capped
        assert sums.d_sum == pytest.approx(sum(column), rel=1e-12)
        assert sums.d_bar == pytest.approx(sum(c**2 for c in column), rel=1e-12)
        assert sums.h_bar == pytest.approx(max(brute_row_sums(F, T, 2)), rel=1e-12)
        assert bibs_partial_sums(F, T).sup == bibs.sup
        assert summability_constants(F, T) == sums


def test_norm_sums_cap_rows_of_a_growing_ltv_loop():
    # the squared row sums pass NORM_CAP near t = 5, the row sums near t = 9
    def F(t):
        return np.diag([1e20, 0.5]) if t % 2 == 0 else np.diag([1e19, 0.4])

    T = 12
    seq = transition.as_closed_loop(F)
    row_sums, row_squares = transition._row_norm_sums(seq, T)
    for got, power in ((row_sums, 1), (row_squares, 2)):
        want = brute_row_sums(F, T, power, cap=transition.NORM_CAP)
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        assert 0 < np.sum(np.isinf(want)) < T
        np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)], rtol=1e-12)
    bibs, sums = norm_sums(F, T)
    assert bibs.capped and np.isinf(bibs.sup)
    assert np.isinf(sums.h_bar) and not sums.h_bar_converged
