import warnings

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
from regretlab.model import matrix_sequence

from helpers import (
    random_loop,
    random_ltv_stack,
    reference_row_norm_sums,
    reference_row_stacks,
    reference_transition_matrix,
    reference_transition_norms,
)

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


@pytest.mark.parametrize("seed", range(40))
def test_transition_matrix_is_bit_identical_to_the_product_loop(seed):
    rng = np.random.default_rng(seed)
    F = random_ltv_stack(rng, overflow=seed % 4 == 0)
    T = len(F)
    for t, k in [(T, 0), (T, T), (T, T // 2), (T // 2, 0), sorted(rng.integers(0, T + 1, 2))[::-1]]:
        got, want = transition_matrix(F, t, k), reference_transition_matrix(F, t, k)
        assert np.array_equal(got, want, equal_nan=True), (t, k)


def test_row_stacks_match_the_frozen_row_recurrence_bit_for_bit():
    rng = np.random.default_rng(26)
    for case in range(60):
        n, T = int(rng.integers(1, 6)), int(rng.integers(0, 61))
        # contracting, about neutral, and overflowing to inf and NaN within the table
        gain = (0.6, 1.0, 1e40)[case % 3] / np.sqrt(n)
        F = gain * (rng.standard_normal((n, n)) if case % 4 == 0 else rng.standard_normal((T, n, n)))
        seq = matrix_sequence(F, what="F")
        with np.errstate(over="ignore", invalid="ignore"):
            got = [row.copy() for row in transition._row_stacks(seq, T)]
            want = [row.copy() for row in reference_row_stacks(seq, T)]
        assert len(got) == len(want) == T
        for t, (g, w) in enumerate(zip(got, want), start=1):
            assert g.shape == w.shape == (t + 1, n, n)
            assert g.tobytes() == w.tobytes(), (case, t)


@pytest.mark.parametrize("call, message", [
    (lambda F: transition_norms(F, 8), "got t=5"),
    (lambda F: transition_matrix(F, 9, 3), "got t=5"),
    (lambda F: transition_matrix(F, 9, 7), "got t=7"),
    (lambda F: transition_row(F, 7), "got t=5"),
], ids=["column", "product-from-3", "product-from-7", "row"])
def test_a_short_stack_names_the_first_step_a_per_step_loop_misses(call, message):
    with pytest.raises(ShapeError, match=f"F defined for t < 5, {message}$"):
        call(0.5 * np.ones((5, 2, 2)))


def test_a_product_of_no_steps_reads_no_step():
    np.testing.assert_array_equal(transition_matrix(0.5 * np.ones((5, 2, 2)), 7, 7), np.eye(2))


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
        sums = norm_sums(F, 500)
        bibs_ok = (not np.isinf(sums.sup)) and transition.partial_sums_converged(sums.sums)
        assert rep.bibs_sup == (sums.sup if bibs_ok else np.inf)
        assert rep.d_sum == (sums.d_sum if sums.d_sum_converged else np.inf)
        assert rep.d_bar == (sums.d_bar if sums.d_bar_converged else np.inf)
        assert rep.h_bar == (sums.h_bar if sums.h_bar_converged else np.inf)


def test_classify_lti_certified_power_bound():
    rep = classify_lti(F1)
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
    F = np.array([np.diag([2.0, 0.3]) if t % 2 == 0 else np.diag([0.25, 0.3]) for t in range(200)])
    rep = classify_ltv(F, 200)
    assert rep.classification is Stability.ASYMPTOTICALLY_STABLE
    assert rep.full_rank_ok
    assert rep.spectral_radius is None


def test_classify_ltv_sums_are_the_norm_sums_of_its_first_150_steps():
    # the report takes its sum fields from the first min(T, 150) steps of the
    # norm column it classifies with; c = 3 and c = 40 cap that column
    rng = np.random.default_rng(17)
    for c in (0.5, 0.97, 1.0, 1.02, 1.3, 3.0, 40.0):
        for n in (1, 2, 3):
            for T in (60, 150, 500):
                F = c * np.linalg.qr(rng.standard_normal((T, n, n)))[0]
                rep = classify_ltv(F, T)
                expected = transition.converged_sums(norm_sums(F, min(T, 150)))
                assert {key: getattr(rep, key) for key in expected} == expected, (c, n, T)


def test_classify_ltv_identity_marginal():
    rep = classify_ltv(np.eye(2), 200)
    assert rep.classification is Stability.MARGINALLY_STABLE
    assert rep.phi_norm_tail == pytest.approx(1.0)


def test_classify_ltv_flags_singular_step():
    F = np.array([np.eye(2)] * 60)
    F[3] = 0.0
    rep = classify_ltv(F, 60)
    assert not rep.full_rank_ok


def test_classify_ltv_rank_check_covers_every_step():
    # one stacked rank call: a rank-one (not zero) step among orthogonal ones
    rng = np.random.default_rng(7)
    F = 0.9 * np.linalg.qr(rng.standard_normal((80, 3, 3)))[0]
    assert classify_ltv(F, 80).full_rank_ok
    F[57] = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    assert not classify_ltv(F, 80).full_rank_ok
    assert classify_ltv(F, 57).full_rank_ok  # the step lies past the horizon


def test_classify_ltv_requires_long_horizon():
    with pytest.raises(ShapeError):
        classify_ltv(np.eye(2), 10)


def test_classify_ltv_agrees_with_norm_limit_at_500():
    # contraction built to a known rate vs. a norm-preserving rotation
    rng = np.random.default_rng(9)
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cases = [
        (np.array([0.97 * rot] * 500), True),
        (np.array([rot] * 500), False),
        (np.array([np.diag([0.99, 0.5]) if t % 2 else np.diag([0.95, 0.5]) for t in range(500)]),
         True),
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
        sums = norm_sums(F, T)
        column = [np.linalg.norm(transition_matrix(F, t, 0), 2) for t in range(T + 1)]
        np.testing.assert_allclose(sums.sums[1:], brute_row_sums(F, T, 1), rtol=1e-12)
        assert not np.isinf(sums.sup)
        assert sums.bibs_converged == (transition.partial_sums_converged(sums.sums)
                                       and not np.isinf(sums.sup))
        assert sums.d_sum == pytest.approx(sum(column), rel=1e-12)
        assert sums.d_bar == pytest.approx(sum(c**2 for c in column), rel=1e-12)
        assert sums.h_bar == pytest.approx(max(brute_row_sums(F, T, 2)), rel=1e-12)
        assert bibs_partial_sums(F, T).sup == sums.sup
        again = summability_constants(F, T)
        np.testing.assert_array_equal(again.sums, sums.sums)
        assert ({k: v for k, v in vars(again).items() if k != "sums"}
                == {k: v for k, v in vars(sums).items() if k != "sums"})


def test_norm_sums_cap_rows_of_a_growing_ltv_loop():
    # the squared row sums pass NORM_CAP near t = 5, the row sums near t = 9
    T = 12
    F = np.array([np.diag([1e20, 0.5]) if t % 2 == 0 else np.diag([1e19, 0.4]) for t in range(T)])
    seq = matrix_sequence(F, what="F")
    row_sums, row_squares = transition._row_norm_sums(seq, T)
    for got, power in ((row_sums, 1), (row_squares, 2)):
        want = brute_row_sums(F, T, power, cap=transition.NORM_CAP)
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        assert 0 < np.sum(np.isinf(want)) < T
        np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)], rtol=1e-12)
    sums = norm_sums(F, T)
    assert np.isinf(sums.sup)
    assert np.isinf(sums.h_bar) and not sums.h_bar_converged


def _spectral_norm_cases(rng, n, scale):
    """(k, n, n) stacks at one scale: random, rank one, near rank one, orthogonal and all-zero blocks.

    For n = 3 also Q1 diag(1, 1 - g, s) Q2 with a top-pair gap g of 0, 1e-12
    and 1e-6, where the trigonometric formula loses accuracy; for n = 2 also
    c times a rotation, whose singular values are equal.
    """
    u, v = rng.standard_normal((2, 20, n, 1))
    rank_one = u @ v.transpose(0, 2, 1)
    cases = [
        rng.standard_normal((20, n, n)),
        rank_one,
        rank_one + 1e-12 * rng.standard_normal((20, n, n)),
        np.linalg.qr(rng.standard_normal((20, n, n)))[0],
        np.zeros((3, n, n)),
    ]
    if n == 3:
        for gap in (0.0, 1e-12, 1e-6):
            Q1, Q2 = np.linalg.qr(rng.standard_normal((2, 20, 3, 3)))[0]
            sigma = np.stack([np.ones(20), np.full(20, 1.0 - gap), rng.uniform(0.0, 1.0, 20)], axis=1)
            cases.append(Q1 * sigma[:, None, :] @ Q2)
    if n == 2:
        theta, c = rng.uniform(0.0, 2 * np.pi, 20), rng.uniform(0.1, 10.0, 20)
        cases.append(c[:, None, None] * np.stack(
            [np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)], axis=1).reshape(20, 2, 2))
    return [scale * blocks for blocks in cases]


@pytest.mark.parametrize("n", range(1, 7))
def test_spectral_norms_match_the_svd_norm_within_16_eps(n):
    rng = np.random.default_rng(40 + n)
    eps = np.finfo(float).eps
    for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
        for blocks in _spectral_norm_cases(rng, n, scale):
            got = transition._spectral_norms(blocks)
            want = np.linalg.norm(blocks, 2, axis=(1, 2))
            assert np.all(np.abs(got - want) <= 16 * eps * want)  # all-zero blocks give exactly 0


def test_spectral_norms_near_the_float_maximum_raise_no_warning():
    big = np.finfo(float).max
    blocks = np.stack([
        np.full((3, 3), 0.9 * big),  # norm 2.7 * 0.9 * big: beyond the float range
        0.9 * big * np.eye(3),
        np.diag([big, 1.0, -big]),
        np.array([[big, 0.0, 0.0], [0.0, 5e-324, 0.0], [0.0, 0.0, 0.0]]),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = transition._spectral_norms(blocks)
    want = np.linalg.norm(blocks, 2, axis=(1, 2))
    assert np.isinf(got[0]) and np.isinf(want[0])
    np.testing.assert_allclose(got[1:], want[1:], rtol=16 * np.finfo(float).eps)


@pytest.mark.parametrize("n", range(1, 7))
def test_spectral_norms_send_only_guarded_blocks_to_eigvalsh(monkeypatch, n):
    # for n = 3 the blocks whose top Gram pair is nearly repeated (r < -0.9
    # is a gap ratio below 0.1606), about 1.2% of Gaussian blocks; for every
    # other n every block, through one eigvalsh of the scaled Gram
    eigvalsh = np.linalg.eigvalsh
    grams = []

    def counted(G):
        grams.append(np.array(G))
        return eigvalsh(G)

    blocks = np.random.default_rng(60 + n).standard_normal((20_000, n, n))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = transition._spectral_norms(blocks)
    monkeypatch.undo()
    routed = np.concatenate(grams) if grams else np.zeros((0, n, n))
    if n == 3:
        lam = eigvalsh(routed)
        assert np.all(lam[:, 2] - lam[:, 1] < 0.17 * (lam[:, 2] - lam[:, 0]))
        sv2 = np.linalg.svd(blocks, compute_uv=False) ** 2
        ratio = (sv2[:, 0] - sv2[:, 1]) / (sv2[:, 0] - sv2[:, 2])
        assert np.sum(ratio < 0.15) <= len(routed) <= np.sum(ratio < 0.17)
        assert 0.005 < len(routed) / len(blocks) < 0.02
    else:
        assert len(grams) == 1 and len(routed) == len(blocks)
        big = np.abs(blocks).max(axis=(1, 2))
        S = blocks / big[:, None, None]
        lam = eigvalsh(np.matmul(S.transpose(0, 2, 1), S))[:, -1]
        np.testing.assert_array_equal(got, big * np.sqrt(np.maximum(lam, 0.0)))


def test_spectral_norms_of_1x1_blocks_are_their_magnitudes_bit_for_bit():
    # m / max|m| is exactly +-1 and eigvalsh([[1.0]]) is 1.0, so the Gram route gives |m|
    rng = np.random.default_rng(61)
    tiny = np.finfo(float).smallest_subnormal
    for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
        blocks = scale * rng.standard_normal((5_000, 1, 1))
        blocks[::50] = 0.0
        blocks[1::50] = -0.0
        got = transition._spectral_norms(blocks)
        assert got.tobytes() == np.abs(blocks[:, 0, 0]).tobytes(), scale
    subnormal = tiny * rng.integers(-2**20, 2**20, (5_000, 1, 1)).astype(float)
    got = transition._spectral_norms(subnormal)
    assert got.tobytes() == np.abs(subnormal[:, 0, 0]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_column_and_row_passes_give_a_constant_the_bits_of_its_stack(n):
    # a constant's steps are its one array, a stack's its rows: the same strides, the same products
    rng = np.random.default_rng(62 + n)
    T = 40
    for gain in (0.6, 1.0, 1e40):  # the last overflows to inf and NaN within the table
        F = gain / np.sqrt(n) * rng.standard_normal((n, n))
        const = matrix_sequence(F, what="F")
        stack = matrix_sequence(np.repeat(F[None], T, axis=0), what="F")
        x = rng.standard_normal((n, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            got = transition._products(const, T, x)
            want = transition._products(stack, T, x)
            assert got.tobytes() == want.tobytes()
            rows = zip(transition._row_stacks(const, T), transition._row_stacks(stack, T))
            for t, (g, w) in enumerate(rows, start=1):
                assert g.tobytes() == w.tobytes(), t


def test_row_norm_sums_match_the_frozen_svd_row_pass():
    rng = np.random.default_rng(17)
    grew = 0
    for case in range(60):
        n, T = int(rng.integers(1, 6)), int(rng.integers(1, 151))
        # contracting, about neutral, growing past NORM_CAP within a few dozen steps
        gain = (0.6, 1.0, 1e4)[case % 3] / np.sqrt(n)
        F = gain * rng.standard_normal((T, n, n))
        seq = matrix_sequence(F, what="F")
        got = transition._row_norm_sums(seq, T)
        want = reference_row_norm_sums(F, T, transition.NORM_CAP)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(np.isinf(g), np.isinf(w))
            np.testing.assert_allclose(g[np.isfinite(w)], w[np.isfinite(w)], rtol=1e-13)
        grew += bool(np.isinf(want[0]).any())
    assert grew >= 15


def _first_chunk_rows(n):
    """The rows 1..t that fill the first chunk of the row pass for n x n blocks."""
    size = transition.ROW_CHUNK // (n * n)
    return int((np.sqrt(8 * size + 1) - 1) // 2)  # largest t with t (t + 1) / 2 <= size


def _assert_row_pass_matches_the_per_row_pass(F, T):
    got = transition._row_norm_sums(matrix_sequence(F, what="F"), T)
    with np.errstate(over="ignore", invalid="ignore"):  # the per-row pass builds a NaN row
        want = reference_row_norm_sums(F, T, transition.NORM_CAP, transition._spectral_norms)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)  # inf in the same places, and the same bits
    return want


def test_chunked_row_pass_matches_the_per_row_pass_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in range(1, 6):
        edge = _first_chunk_rows(n)
        assert edge * (edge + 1) // 2 <= transition.ROW_CHUNK // n**2 < (edge + 1) * (edge + 2) // 2
        for T in (1, 2, edge - 1, edge, edge + 1, edge + 2, int(rng.integers(3, 2 * edge))):
            for gain in (0.6, 1.0, 1.3):
                _assert_row_pass_matches_the_per_row_pass(
                    gain / np.sqrt(n) * rng.standard_normal((T, n, n)), T)


def test_chunked_row_pass_stops_mid_chunk_as_the_per_row_pass_does(monkeypatch):
    # n = 2: the first chunk holds rows 1..127
    T = 200
    rng = np.random.default_rng(24)
    orth = np.linalg.qr(rng.standard_normal((T, 2, 2)))[0]
    # the squares cap near row 20 and the sums near row 40; the rows after
    # that in the chunk would overflow to inf and NaN, but are never built
    growing = 10 ** (140 / 40) * orth
    built = []  # the rows the pass builds
    row_stacks = transition._row_stacks

    def counted(seq, T):
        for row in row_stacks(seq, T):
            built.append(len(row) - 1)
            yield row

    monkeypatch.setattr(transition, "_row_stacks", counted)
    sums, squares = _assert_row_pass_matches_the_per_row_pass(growing, T)
    capped, squared = int(np.argmax(np.isinf(sums))), int(np.argmax(np.isinf(squares)))
    assert 0 < squared < capped < _first_chunk_rows(2) - 1
    assert not np.isfinite(reference_transition_matrix(growing, _first_chunk_rows(2), 0)).all()
    assert capped < len(built) <= capped + 3  # the chunk ends within a few rows of the cap
    # a NaN or inf in F_40 makes row 41 and all later ones non-finite
    for bad in (np.nan, np.inf):
        stack = orth.copy()
        stack[40, 0, 1] = bad
        sums, squares = _assert_row_pass_matches_the_per_row_pass(stack, T)
        assert np.isfinite(sums[:40]).all() and np.isinf(sums[40:]).all()
    # a cap in a later chunk
    sums, _ = _assert_row_pass_matches_the_per_row_pass(10 ** (140 / 150) * orth, T)
    assert _first_chunk_rows(2) < int(np.argmax(np.isinf(sums))) < T - 1


@pytest.mark.parametrize("c", [0.97, 1.0, 1.02])
def test_classify_ltv_reads_the_same_class_as_the_svd_row_pass(monkeypatch, c):
    # ||c^t O_{t-1} ... O_0|| = c^t for orthogonal O_t
    F = c * np.linalg.qr(np.random.default_rng(5).standard_normal((300, 3, 3)))[0]
    got, got_sums = classify_ltv(F, 300), norm_sums(F, 150)
    monkeypatch.setattr(transition, "_row_norm_sums",
                        lambda seq, T: reference_row_norm_sums(seq, T, transition.NORM_CAP))
    want, want_sums = classify_ltv(F, 300), norm_sums(F, 150)
    assert got.classification == want.classification
    for key in ("bibs_sup", "h_bar", "d_sum", "d_bar"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-13)
    np.testing.assert_allclose(got_sums.sums, want_sums.sums, rtol=1e-13)
    assert got_sums.h_bar == pytest.approx(want_sums.h_bar, rel=1e-13)
    assert ((got_sums.bibs_converged, got_sums.h_bar_converged)
            == (want_sums.bibs_converged, want_sums.h_bar_converged))


def _assert_column_matches_the_per_step_loop(F, T):
    norms, capped = transition_norms(F, T)
    ref_norms, ref_capped = reference_transition_norms(F, T, transition.NORM_CAP)
    np.testing.assert_array_equal(norms, ref_norms)
    assert capped == ref_capped


def test_transition_norms_is_bit_identical_to_the_per_step_loop():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        rho = float(rng.uniform(0.2, 3.0))
        _assert_column_matches_the_per_step_loop(random_loop(rng, n, 1, rho)[2], 300)
        stack = rho * np.linalg.qr(rng.standard_normal((301, n, n)))[0]
        stack += 0.1 * rng.standard_normal(stack.shape)
        _assert_column_matches_the_per_step_loop(stack, 300)
    _assert_column_matches_the_per_step_loop(np.eye(6), 3)


@pytest.mark.parametrize("F, capped_at", [
    ([[1e120]], 2),
    (np.diag([1e100, 1.0]), 2),
    ([[np.inf]], 1),
    # crosses NORM_CAP at t = 3, then overflows to inf - inf = NaN: no RuntimeWarning
    ([[1e60, 1e60], [-1e60, 1e60]], 3),
    # caps at t = 1; the finite product at t = 2 has a 2-norm beyond the float range
    (np.full((2, 2), 9e153), 1),
])
def test_transition_norms_edge_columns_match_the_per_step_loop(F, capped_at):
    F = np.asarray(F, dtype=float)
    _assert_column_matches_the_per_step_loop(F, 20)
    norms, capped = transition_norms(F, 20)
    assert capped and np.all(np.isinf(norms[capped_at:])) and np.all(np.isfinite(norms[:capped_at]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_product_caps_the_column_and_the_sums(bad):
    # Phi(t, 0) = 0.5^t I up to t = 10; F_10 has a NaN or inf entry, so Phi(11, 0) is not finite
    F = 0.5 * np.array([np.eye(2)] * 30)
    F[10, 0, 1] = bad
    norms, capped = transition_norms(F, 30)
    assert capped
    np.testing.assert_array_equal(norms[:11], 0.5 ** np.arange(11))
    assert np.all(np.isposinf(norms[11:]))
    sums = norm_sums(F, 30)
    assert np.all(np.isfinite(sums.sums[:11])) and np.all(np.isposinf(sums.sums[11:]))
    assert sums.sup == sums.d_sum == sums.d_bar == sums.h_bar == np.inf
    assert not (sums.bibs_converged or sums.d_sum_converged or sums.d_bar_converged
                or sums.h_bar_converged)


@pytest.mark.parametrize("F, norm_calls", [
    (F1, 1),
    (np.diag([0.9, 0.5]) + np.zeros((301, 2, 2)), 1),
    ([[1e120]], 1),  # capped before its products overflow
    ([[np.inf]], 1),  # the non-finite product caps without a norm of its own
])
def test_transition_norms_takes_one_batched_norm_per_column(monkeypatch, F, norm_calls):
    calls = []
    norm = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(np.ndim(args[0]))
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    transition_norms(np.asarray(F, dtype=float), 300)
    assert len(calls) == norm_calls and calls[0] == 3
