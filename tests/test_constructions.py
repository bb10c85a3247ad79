"""Extremal families, polygonal kernels, sign machinery."""

import tracemalloc

import numpy as np
import pytest

from rhalylab.coeffcore import CoeffSeq, evaluate_on_circle, CircleGrid, hadamard
from rhalylab.constructions import (
    KHINCHINE_EXACT_LIMIT,
    KHINCHINE_MC_BUDGET,
    KHINCHINE_ROTATIONS,
    KHINCHINE_SEED,
    PolygonalProfile,
    _all_sign_vectors,
    _sign_chunks,
    alpha_beta_range,
    bergman_gn,
    bergman_psi,
    construct_upsilon,
    extremal_fn,
    hardy_psi,
    khinchine_ratio,
    khinchine_report,
    phi_psi_n,
    polygonal_psi,
    w_kernel,
)
from rhalylab.errors import AlphaRange, ShapeMismatch, TruncationTooSmall
from rhalylab.norms import bergman_norm, hp_norm
from rhalylab.rhalyop import SequenceSpec, apply_rhaly


def test_extremal_fn_coefficients():
    f = extremal_fn(2.0, 2)
    n = np.arange(5)
    expected = n * 0.5**n / 2.0**1.5
    assert np.allclose(f.coeffs[:5], expected)


def test_extremal_fn_tail_guard():
    # at degree 40N the geometric tail passes the tolerance from N = 5432 on
    assert extremal_fn(2.0, 4096).degree == 40 * 4096
    with pytest.raises(TruncationTooSmall):
        extremal_fn(2.0, 8192)


def test_extremal_fn_norm_band():
    vals = [hp_norm(extremal_fn(p, N), p).value
            for p in (1.5, 2.0, 3.0) for N in (4, 16, 64, 256)]
    assert max(vals) < 1.0
    assert min(vals) > 0.1


def test_extremal_fn_vanishes_on_compacts():
    sups = []
    for N in (8, 32, 128):
        f = extremal_fn(2.0, N)
        vals = evaluate_on_circle(f, CircleGrid(4 * (f.degree + 1), radius=0.5))
        sups.append(np.abs(vals).max())
    assert sups[0] > sups[1] > sups[2]
    assert sups[-1] < 0.01


def test_alpha_beta_values():
    # k = 1: a single term a_N / N^{2-1/p}
    alphas, betas = alpha_beta_range(2.0, 8, 1, 5)
    aN = 1 - 1 / 8
    assert abs(alphas[0] - aN / 8**1.5) < 1e-15
    assert np.allclose(betas, 1 / alphas)


def test_alpha_sandwich():
    p, N = 2.0, 32
    aN = 1 - 1 / N
    alphas, _ = alpha_beta_range(p, N, N, 2 * N)
    for k, a in zip(range(N, 2 * N + 1), alphas):
        upper = (k + 1) / (2 * N ** (2 - 1 / p))
        lower = aN**k * upper
        assert lower - 1e-15 <= a <= upper + 1e-15


def test_beta_increments_scale():
    # N |beta_{k+1} - beta_k| stays O(N^{1-1/p}) on the middle range
    p = 2.0
    worst = 0.0
    for N in (16, 64, 256):
        _, betas = alpha_beta_range(p, N, N, 2 * N)
        diffs = N * np.abs(np.diff(betas))
        worst = max(worst, diffs.max() / N ** (1 - 1 / p))
    assert worst < 10.0


def test_polygonal_profile_basics():
    tent = PolygonalProfile.tent()
    assert tent.lipschitz_constant == 1.0
    assert tent(2.0) == 2.0
    assert tent(5.0) == 0.0
    with pytest.raises(ValueError):
        PolygonalProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_polygonal_psi():
    zero = polygonal_psi(np.zeros(9), 8)
    assert zero.lipschitz_constant == 0.0
    with pytest.raises(ShapeMismatch):
        polygonal_psi(np.zeros(5), 8)
    # single spike: steepest adjacent segment realizes the constant
    values = np.zeros(9)
    values[4] = 3.0
    spike = polygonal_psi(values, 8)
    assert abs(spike.lipschitz_constant - 3.0 * 8) < 1e-12


def test_hardy_psi_lipschitz_scale():
    # L(Psi_N) = O(N^{1-1/p})
    for N in (16, 64, 256):
        psi = hardy_psi(2.0, N)
        assert psi.lipschitz_constant < 10.0 * N**0.5


def test_w_kernel_bound_and_conventions():
    zero = polygonal_psi(np.zeros(9), 8)
    assert w_kernel(zero, 8, 200) == 0.0
    tent = PolygonalProfile.tent()
    assert w_kernel(tent, 32, 32 * 32) <= 14.0
    psi = hardy_psi(2.0, 64)
    assert w_kernel(psi, 64, 32 * 64) <= 14.0
    with pytest.raises(ValueError):
        w_kernel(tent, 32, 100)


def test_w_kernel_scale_invariance():
    psi = hardy_psi(2.0, 32)
    r1 = w_kernel(psi, 32, 1024)
    r2 = w_kernel(PolygonalProfile(psi.knots_x, 7.5 * psi.knots_y), 32, 1024)
    assert abs(r1 - r2) < 1e-12 * max(r1, 1.0)


def test_pipeline_identity():
    # on the middle block, the polygonal kernel times the operator image of
    # f_N reconstructs the radial derivative series of the weights exactly
    N = 64
    eta = SequenceSpec.cesaro(40 * N)
    f = extremal_fn(2.0, N)
    Rf = apply_rhaly(eta, f)
    # H_N(z) = sum_{k<=4N} Psi(k/N) z^k and z F'(z) = sum n eta_n z^n
    k = np.arange(4 * N + 1)
    H = CoeffSeq(hardy_psi(2.0, N)(k / N).astype(complex))
    combined = hadamard(H, Rf)
    lhs = combined.coeffs[N : 2 * N]
    ev = eta.values()
    rhs = (np.arange(len(ev)) * ev)[N : 2 * N]
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-8


def test_bergman_gn_band_and_range():
    with pytest.raises(AlphaRange):
        bergman_gn(2.0, 2.0, 16)
    norms = [bergman_norm(bergman_gn(2.0, 0.0, N), 2.0, 0.0).value
             for N in (16, 64, 256)]
    assert max(norms) / min(norms) < 3.0


def test_bergman_psi_shape():
    psi = bergman_psi(2.0, 0.0, 16)
    assert len(psi.knots_x) == 19


def test_phi_psi_hand_computation():
    phi, psi = phi_psi_n(2)
    # a = 1/2: sum_{k=1}^{2} k a^k = 1; sum_{k=1}^{3} k a^k = 11/8
    assert np.allclose(psi.coeffs, [1.0, 8.0 / 11.0])
    assert np.allclose(phi.coeffs, [0.0, 0.0, 1.0, 8.0 / 11.0])


def test_psi_coefficients_decrease():
    for N in (4, 16, 64):
        _, psi = phi_psi_n(N)
        assert np.all(np.diff(psi.coeffs.real) < 0)


def test_psi_norm_log_scale():
    Ns = np.array([16, 64, 256, 1024])
    norms = np.array([hp_norm(phi_psi_n(int(N))[1], 1.0).value for N in Ns])
    # log-corrected band: ||psi_N|| * N^2 / log N stays bounded above and below
    corrected = norms * Ns**2 / np.log(Ns)
    assert corrected.max() / corrected.min() < 3.0
    slope = np.polyfit(np.log(Ns), np.log(norms), 1)[0]
    # slope of log||psi|| is -2 plus the log correction
    assert abs(slope + 2.0) < 0.15


def test_khinchine_p2_is_one():
    rng = np.random.default_rng(4)
    for _ in range(5):
        c = rng.standard_normal(7)
        rep = khinchine_report(c, 2.0)
        assert abs(rep.lower_const - 1.0) < 1e-12
        assert abs(rep.upper_const - 1.0) < 1e-12
        assert rep.exact


def test_khinchine_pair_p1():
    rep = khinchine_report(np.ones(2), 1.0)
    assert abs(rep.lower_const - 2.0**-0.5) < 1e-12
    assert rep.lower_const <= rep.upper_const


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.5])
def test_exponents_outside_one_to_inf_are_refused(p):
    """The exponent guard of the norms covers the Khinchine moments and the
    averaging profiles; NaN once gave NaN constants marked exact."""
    for call in (
        lambda: khinchine_report(np.ones(4), p),
        lambda: khinchine_ratio(np.ones(4), p),
        lambda: hardy_psi(p, 8),
        lambda: bergman_psi(p, 0.0, 8),
    ):
        with pytest.raises(ValueError, match=r"must lie in \[1, inf\)"):
            call()


def test_khinchine_p4_exact_rational():
    ratio, exact = khinchine_ratio(np.ones(4), 4.0)
    # E(e0+e1+e2+e3)^4 = 40 over 16 sign patterns; normalized by 4^2
    assert exact
    assert abs(ratio - 2.5) < 1e-14


@pytest.mark.parametrize("L", [13, 40])
def test_khinchine_report_matches_per_rotation_loop(L):
    """One batched product equals a loop over the rotations, exact and Monte Carlo."""
    rng = np.random.default_rng(L)
    c = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    rng = np.random.default_rng(KHINCHINE_SEED)
    mc_signs = 2 * rng.integers(0, 2, size=(KHINCHINE_MC_BUDGET, L)) - 1
    for p in (1.5, 4.0):
        rep = khinchine_report(c, p)
        assert rep.exact == (L <= KHINCHINE_EXACT_LIMIT)
        ratios = []
        for j in range(KHINCHINE_ROTATIONS):
            theta = 2.0 * np.pi * j / KHINCHINE_ROTATIONS
            rotated = c * np.exp(1j * np.arange(L) * theta)
            if rep.exact:
                idx = np.arange(2**L)[:, None] >> np.arange(L)
                signs = 2 * (idx & 1) - 1
            else:
                signs = mc_signs
            moment = np.mean(np.abs(signs @ rotated) ** p)
            ratios.append(moment / np.sum(np.abs(rotated) ** 2) ** (p / 2))
        assert abs(rep.lower_const - min(ratios)) <= 1e-13 * min(ratios)
        assert abs(rep.upper_const - max(ratios)) <= 1e-13 * max(ratios)
        ratio, exact = khinchine_ratio(c, p)
        assert exact == rep.exact
        assert abs(ratio - ratios[0]) <= 1e-13 * ratios[0]


def test_khinchine_monte_carlo_mode():
    rep = khinchine_report(np.ones(30), 2.0)
    assert not rep.exact
    assert abs(rep.lower_const - 1.0) < 0.1


@pytest.mark.parametrize("length", [1, 5, 13, 16])
def test_all_sign_vectors_match_bitwise_reference(length):
    want = np.array(
        [[1 if (i >> j) & 1 else -1 for j in range(length)] for i in range(2**length)],
        dtype=np.int8,
    )
    got = _all_sign_vectors(length)
    assert got.dtype == np.int8
    assert np.array_equal(got, want)


def test_exact_khinchine_sign_table_memory():
    # 2^20 x 20 signs are 21 MB as int8; an int64 index table would be 168 MB
    tracemalloc.start()
    try:
        rep = khinchine_report(np.ones(20) + 0.5j, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.exact
    assert peak < 64e6


@pytest.mark.parametrize("length, rows", [(32, 1000), (33, 4097), (256, 4096)])
def test_monte_carlo_signs_equal_one_draw(length, rows):
    got = np.concatenate(list(_sign_chunks(length, rows)))
    rng = np.random.default_rng(KHINCHINE_SEED)
    want = 2 * rng.integers(0, 2, size=(KHINCHINE_MC_BUDGET, length)) - 1
    assert got.dtype == np.int8
    assert np.array_equal(got, want)


def test_monte_carlo_khinchine_memory():
    # the 20000 x 256 signs as one int64 draw would be 41 MB
    rng = np.random.default_rng(8)
    c = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    tracemalloc.start()
    try:
        rep = khinchine_report(c, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.exact
    assert peak < 25e6


def test_upsilon_small_cases():
    one_block = construct_upsilon(1.5, 1)
    assert abs(one_block.achieved[0] - 1.0) < 1e-12
    # p = 2: signs are irrelevant, block derivative norm is exactly 2^{k/2}
    two = construct_upsilon(1.99, 6)
    for k, a in enumerate(two.achieved):
        assert a <= 2 ** (k / 2) * 1.01


def test_upsilon_properties():
    for p in (1.0, 1.5, 1.99):
        ups = construct_upsilon(p, 8)
        coeffs = ups.seq.coeffs
        n = np.arange(1, len(coeffs))
        assert np.allclose(np.abs(coeffs[1:]), 1.0 / n)
        for k, a in enumerate(ups.achieved):
            assert a >= 2.0 ** (-(2.0 - p) / (2.0 * p)) * np.sqrt(2**k)
        spec = ups.sequence_spec()
        assert np.allclose(spec.values()[: len(coeffs)], coeffs)
        data = ups.to_json()
        assert "seed" not in data
        assert len(data["signs"]) == 8


def test_upsilon_signs_are_rudin_shapiro_prefixes():
    """Block k carries the first 2^k Rudin-Shapiro terms (-1)^{#11 in binary j}."""
    ups = construct_upsilon(1.5, 10)
    rs = [(-1) ** bin(j & (j >> 1)).count("1") for j in range(2**9)]
    for k, signs in enumerate(ups.signs):
        assert list(signs) == rs[: 2**k]


def test_upsilon_blocks_below_sup_bound():
    """|P_k|^2 + |Q_k|^2 = 2N caps every block's norm and sup at sqrt(2N)."""
    ups = construct_upsilon(1.5, 10)
    for signs, achieved in zip(ups.signs, ups.achieved):
        N = len(signs)
        sup = np.abs(np.fft.fft(signs, n=64 * N)).max()
        assert achieved <= np.sqrt(2 * N)
        assert sup <= np.sqrt(2 * N) * (1 + 1e-12)


def test_upsilon_deterministic():
    """The construction has no randomness: any seed gives the same result."""
    a = construct_upsilon(1.5, 7)
    for seed in (None, 0, 7, 2**31 - 1):
        b = construct_upsilon(1.5, 7, seed=seed)
        assert a.signs == b.signs
        assert a.achieved == b.achieved
        assert np.array_equal(a.seq.coeffs, b.seq.coeffs)


def test_upsilon_domain_guards():
    with pytest.raises(ValueError):
        construct_upsilon(2.5, 4)
    with pytest.raises(ValueError):
        construct_upsilon(1.5, 15)
