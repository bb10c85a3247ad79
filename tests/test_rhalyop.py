"""Operator application, sequence specs, measures, and norm estimation."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from rhalylab.coeffcore import CoeffSeq, derivative, hadamard, prefix_sums
from rhalylab.errors import NotMonotone, TruncationMismatch
from rhalylab.norms import default_angular_points, hp_norm
from rhalylab.rhalyop import (
    DiscreteMeasure,
    SequenceSpec,
    TruncatedRhaly,
    _family_candidates,
    apply_rhaly,
    carleson_check,
    generating_function,
    opnorm_h2,
    opnorm_lower_hp,
    require_decreasing,
)


def lebesgue_midpoint(n_atoms: int) -> DiscreteMeasure:
    """Midpoint discretization of Lebesgue measure on [0, 1)."""
    t = (np.arange(n_atoms) + 0.5) / n_atoms
    return DiscreteMeasure(t, np.full(n_atoms, 1.0 / n_atoms))


def test_apply_to_one_gives_generating_function():
    eta = SequenceSpec.power_law(1.0, 2.0, 16)
    one = CoeffSeq(np.concatenate([[1.0], np.zeros(16)]).astype(complex))
    out = apply_rhaly(eta, one)
    assert np.allclose(out.coeffs, generating_function(eta).coeffs)


def test_apply_averaging_weights():
    eta = SequenceSpec.cesaro(3)
    f = CoeffSeq(np.array([0.0, 1.0, 0.0, 0.0]))
    out = apply_rhaly(eta, f)
    assert np.allclose(out.coeffs, [0.0, 1 / 2, 1 / 3, 1 / 4])


def test_apply_zero_weights():
    eta = SequenceSpec.literal(np.zeros(8))
    f = CoeffSeq(np.ones(8, dtype=complex))
    assert np.allclose(apply_rhaly(eta, f).coeffs, 0.0)


def test_apply_truncation_guard():
    eta = SequenceSpec.cesaro(4)
    with pytest.raises(TruncationMismatch):
        apply_rhaly(eta, CoeffSeq(np.ones(10)))


def test_linearity():
    rng = np.random.default_rng(1)
    eta = SequenceSpec.power_law(1.0, 0.7, 63)
    f = CoeffSeq(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    g = CoeffSeq(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    a, b = 2.0 - 1.0j, -0.3
    lhs = apply_rhaly(eta, CoeffSeq(a * f.coeffs + b * g.coeffs)).coeffs
    rhs = a * apply_rhaly(eta, f).coeffs + b * apply_rhaly(eta, g).coeffs
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_factorization_identity():
    # (z R f)' equals the coefficientwise product of (z F)' with the
    # prefix-sum series of f, exactly
    def times_z(g):
        return CoeffSeq(np.concatenate([[0j], g.coeffs]))

    rng = np.random.default_rng(2)
    for _ in range(5):
        eta = SequenceSpec.literal(rng.standard_normal(129))
        f = CoeffSeq(rng.standard_normal(129) + 1j * rng.standard_normal(129))
        lhs = derivative(times_z(apply_rhaly(eta, f)))
        F = generating_function(eta)
        rhs = hadamard(derivative(times_z(F)), prefix_sums(f))
        assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13)


def test_generating_function_variants():
    assert np.allclose(
        generating_function(SequenceSpec.cesaro(3)).coeffs, [1, 1 / 2, 1 / 3, 1 / 4]
    )
    lit = SequenceSpec.literal([1.0, 2.0, 3.0])
    assert np.allclose(generating_function(lit).coeffs, [1, 2, 3])
    pl = SequenceSpec.power_law(1.0, 2.0, 2)
    assert np.allclose(generating_function(pl).coeffs, [1, 1 / 4, 1 / 9])


def test_moments_point_masses():
    at_zero = DiscreteMeasure(np.array([0.0]), np.array([1.0]))
    m = SequenceSpec.measure_moments(at_zero, 4).values()
    assert np.allclose(m, [1, 0, 0, 0, 0])
    at_half = DiscreteMeasure(np.array([0.5]), np.array([1.0]))
    m = SequenceSpec.measure_moments(at_half, 6).values()
    assert np.allclose(m, 0.5 ** np.arange(7))


def test_moments_match_mpmath():
    """Within 4u of sum |m_a| t_a^n against 40-digit mpmath, at 512 atoms
    crowding towards 1 plus one at 0, around the splits n = B h + l
    (B = 91 at T = 8191). A single dot product over the atoms errs by about
    8u here; the direct pairwise sum by about 2u."""
    U, TINY = 2.0**-53, np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(12)
    gap = 10.0 ** (-5.0 * (np.arange(511) + rng.uniform(0.1, 0.9, 511)) / 511)
    t = np.concatenate([[0.0], np.sort(1.0 - gap)])
    m = rng.uniform(0.0, 1.0, 512)
    eta = SequenceSpec.measure_moments(DiscreteMeasure(t, m), 8191).values()
    assert np.all(eta.imag == 0)
    ns = [*range(0, 8), *range(88, 95), *range(180, 185), 1000, 4096, 8190, 8191]
    with mpmath.workdps(40):
        tm, mm = [mpmath.mpf(x) for x in t], [mpmath.mpf(x) for x in m]
        for n in ns:
            exact = mpmath.fsum(a * b**n for a, b in zip(mm, tm))
            err = abs(float(mpmath.mpf(eta[n].real) - exact))
            assert err <= 4 * U * float(exact) + 4 * TINY, (n, err / (U * float(exact)))


def test_moments_lebesgue_discretization():
    mu = lebesgue_midpoint(1024)
    m = SequenceSpec.measure_moments(mu, 64).values().real
    target = 1.0 / (np.arange(65) + 1.0)
    assert np.max(np.abs(m - target)) < 1e-3


def test_carleson_check():
    mu = lebesgue_midpoint(1024)
    radii = 1.0 - 2.0 ** (-np.arange(1, 9, dtype=float))
    const, ok = carleson_check(mu, radii)
    assert ok
    assert abs(const - 1.0) < 0.01

    at_half = DiscreteMeasure(np.array([0.5]), np.array([0.7]))
    const, ok = carleson_check(at_half, np.array([0.25, 0.5]))
    assert abs(const - 1.4) < 1e-12

    j = np.arange(1, 13, dtype=float)
    heavy = DiscreteMeasure(1.0 - 2.0**-j, 2.0 ** (-j / 2))
    # probe only scales the discrete tail resolves; the ratios grow like
    # 2^{j/2} there and the flag must trip
    const, ok = carleson_check(heavy, 1.0 - 2.0 ** (-j[:9]))
    assert not ok


def test_truncated_operator():
    eta = SequenceSpec.cesaro(7)
    f = CoeffSeq(np.array([1.0, 1.0, 1.0]))
    # N covers the whole degree: same as the full operator
    full = TruncatedRhaly(eta, 5)(f)
    assert np.allclose(full.coeffs[:3], apply_rhaly(eta, f).coeffs)
    # N = 1 keeps two coefficients: prefix sums 1,2 times eta 1,1/2
    out = TruncatedRhaly(eta, 1)(f)
    assert np.allclose(out.coeffs[:2], [1.0, 1.0])
    # N = 0
    out0 = TruncatedRhaly(eta, 0)(f)
    assert np.allclose(out0.coeffs[0], 1.0)
    # tail operator zeroes the head
    tail = TruncatedRhaly(eta, 1).tail(f)
    assert np.allclose(tail.coeffs, [0.0, 0.0, 1.0])


def test_closed_form_values_match_direct_formulas_bitwise():
    T = 4099
    n = np.arange(T + 1)
    rng = np.random.default_rng(5)
    signs = 2 * rng.integers(0, 2, T + 1) - 1
    cases = [
        (SequenceSpec.cesaro(T), (1.0 / (n + 1.0)).astype(complex)),
        (SequenceSpec.power_law(1.3, 0.7316, T), (1.3 * (n + 1.0) ** -0.7316).astype(complex)),
        # exponents numpy's power has fast paths for
        (SequenceSpec.power_law(0.7, 1.0, T), (0.7 * (n + 1.0) ** -1.0).astype(complex)),
        (SequenceSpec.power_law(2.0, 2, T), (2.0 * (n + 1.0) ** -2).astype(complex)),
        (
            SequenceSpec.signed(SequenceSpec.power_law(1.1, 0.5, T), signs),
            signs.astype(np.int8) * (1.1 * (n + 1.0) ** -0.5).astype(complex),
        ),
    ]
    for spec, direct in cases:
        assert spec.values().tobytes() == direct.tobytes()


def test_application_holds_no_extra_full_length_array():
    d = 1 << 18
    rng = np.random.default_rng(6)
    f = CoeffSeq(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
    eta = SequenceSpec.signed(SequenceSpec.cesaro(d), 2 * rng.integers(0, 2, d + 1) - 1)
    expected = eta.values() * np.cumsum(f.coeffs)
    full = 16 * (d + 1)
    for head, run in (
        (-1, lambda: apply_rhaly(eta, f)),
        (d // 2, lambda: TruncatedRhaly(eta, d // 2).tail(f)),
    ):
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # eta and the result plus chunk-sized temporaries; a product or a
        # copy of the result outside them would be a third full array
        assert peak < 2.5 * full
        assert not np.any(out.coeffs[: head + 1])
        assert np.allclose(out.coeffs[head + 1 :], expected[head + 1 :], rtol=1e-9, atol=1e-12)


def test_signed_spec_keeps_int8_bytes():
    T = 1 << 12
    rng = np.random.default_rng(7)
    signs = 2 * rng.integers(0, 2, T + 1, dtype=np.int8) - 1
    base = SequenceSpec.cesaro(T)
    spec = SequenceSpec.signed(base, signs)
    assert spec.signs == signs.tobytes()
    # a list of ints, as JSON gives, makes an equal spec with the same hash
    same = SequenceSpec.signed(base, signs.tolist())
    assert same == spec and hash(same) == hash(spec)
    assert SequenceSpec.signed(base, -signs) != spec
    assert spec.to_json()["signs"] == signs.tolist()
    assert SequenceSpec.from_json(spec.to_json()) == spec
    assert spec.values().tobytes() == (signs * base.values()).tobytes()


@pytest.mark.parametrize("bad", [[1, 0, -1], [1, 2, -1], [1.5, 1, -1], [1, -1.5, 1], [1, 1]])
def test_signed_spec_rejects_non_signs(bad):
    with pytest.raises(ValueError):
        SequenceSpec.signed(SequenceSpec.cesaro(2), bad)


def test_opnorm_h2_trivial_cases():
    e0 = SequenceSpec.literal([1.0] + [0.0] * 7)
    est = opnorm_h2(e0, 8)
    assert abs(est.lower - 1.0) < 1e-12
    assert est.lower <= 1.0 <= est.upper
    zeros = SequenceSpec.literal(np.zeros(8))
    est = opnorm_h2(zeros, 8)
    assert est.lower == est.upper == 0.0 and est.converged


def test_opnorm_h2_witness_reproduces_lower():
    eta = SequenceSpec.cesaro(255)
    est = opnorm_h2(eta, 256)
    v = est.witness.coeffs
    Av = eta.values()[:256] * np.cumsum(v)
    ratio = np.linalg.norm(Av) / np.linalg.norm(v)
    assert abs(ratio - est.lower) < 1e-8


def test_opnorm_h2_matches_dense_svd():
    eta = SequenceSpec.cesaro(63)
    est = opnorm_h2(eta, 64)
    ev = eta.values().real
    dense = np.tril(np.tile(ev[:, None], (1, 64)))
    oracle = np.linalg.svd(dense, compute_uv=False)[0]
    assert abs(est.lower - oracle) < 1e-8


def test_opnorm_h2_monotone_in_section():
    eta = SequenceSpec.cesaro(511)
    vals = [opnorm_h2(eta, N).lower for N in (32, 64, 128, 256, 512)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_opnorm_lower_hp():
    zeros = SequenceSpec.literal(np.zeros(32))
    assert opnorm_lower_hp(zeros, 2.0).lower == 0.0
    e0 = SequenceSpec.literal([1.0] + [0.0] * 31)
    assert opnorm_lower_hp(e0, 1.5).lower >= 1.0 - 1e-9
    # the coordinate monomials z^2 and z^8 fall back to z^T below degree 8
    assert opnorm_lower_hp(SequenceSpec.cesaro(1), 1.5).lower >= 1.0


@pytest.mark.parametrize("T", [1, 2, 100, 254, 255, 256, 4096])
def test_random_poly_candidates_sample_on_powers_of_two(T):
    """From T = 255 on, a RandomPoly candidate has 2^8 coefficients, so its
    coarse and doubled grids are powers of two; below, it has T + 1."""
    eta = SequenceSpec.cesaro(T)
    candidates = list(_family_candidates(eta, "RandomPoly", 3))
    assert len(candidates) == 64
    assert {len(f.coeffs) for f in candidates} == {min(T, 255) + 1}
    if T >= 255:
        M = default_angular_points(candidates[0].degree)
        assert M == 2048
        for m in (M, 2 * M):
            assert m & (m - 1) == 0


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, 0.5])
def test_opnorm_lower_hp_refuses_exponents_outside_one_to_inf(p):
    for family in ("CoordinateDisks", "RandomPoly"):
        with pytest.raises(ValueError):
            opnorm_lower_hp(SequenceSpec.cesaro(63), p, family=family)


def test_opnorm_lower_hp_consistent_with_section():
    eta = SequenceSpec.cesaro(255)
    section = opnorm_h2(eta, 256).lower
    best = max(
        opnorm_lower_hp(eta, 2.0, family=fam).lower
        for fam in ("CoordinateDisks", "RandomPoly")
    )
    assert best <= section + 1e-9
    assert best >= 0.95 * section


#: real sections of N <= 256, every kind that realizes a real eta
REAL_SECTIONS = [
    SequenceSpec.cesaro(255),
    SequenceSpec.power_law(1.2, 0.7, 127),
    SequenceSpec.signed(SequenceSpec.cesaro(63), np.resize([1, -1, -1], 64)),
]


@pytest.mark.parametrize("eta", REAL_SECTIONS, ids=lambda eta: eta.kind)
def test_opnorm_h2_real_path_matches_complex_rotation_and_svd(eta):
    """R_N^* R_N depends on |eta| only, so eta, eta turned by e^{i phi}, the
    conjugate of that and eta with some signs flipped give the same lower and
    upper bounds, and match the dense SVD. Every witness is real and >= 0,
    with no imaginary part, not even -0.0. The seed is ignored."""
    N = eta.truncation + 1
    est = opnorm_h2(eta, N, seed=4)
    ev = eta.values()
    turned = opnorm_h2(SequenceSpec.literal(ev * np.exp(0.7j)), N, seed=4)
    variants = [
        turned,
        opnorm_h2(SequenceSpec.literal(np.conj(ev * np.exp(0.7j))), N),
        opnorm_h2(SequenceSpec.literal(ev * np.resize([1, -1, -1, 1, -1], N)), N),
    ]
    for other in variants:
        assert abs(other.lower - est.lower) <= 1e-13 * est.lower
        assert abs(other.upper - est.upper) <= 1e-13 * est.upper
    assert abs(est.lower - turned.lower) <= 1e-12 * turned.lower
    sigma = np.linalg.svd(np.tril(np.repeat(ev.real[:, None], N, axis=1)), compute_uv=False)[0]
    assert abs(est.lower - sigma) <= 1e-10 * sigma
    for e in (est, *variants):
        imag = e.witness.coeffs.imag
        assert not np.any(imag) and not np.any(np.signbit(imag))
        assert np.all(e.witness.coeffs.real >= 0)
    assert est.refinement_delta == 0.0
    assert opnorm_h2(eta, N, seed=5) == est


@pytest.mark.parametrize("k", [-600, 600])
def test_opnorm_h2_is_exact_under_power_of_two_scaling(k):
    """eta is first scaled to a largest modulus in [1/2, 1), so 2^k eta
    gives 2^k times the bracket bit for bit, also where |eta_n|^2 itself
    would underflow (to a norm of 0) or overflow."""
    est = opnorm_h2(SequenceSpec.cesaro(255), 256)
    scaled = opnorm_h2(SequenceSpec.literal(SequenceSpec.cesaro(255).values() * 2.0**k), 256)
    assert (scaled.lower, scaled.upper) == (est.lower * 2.0**k, est.upper * 2.0**k)
    assert scaled.witness == est.witness and scaled.converged


def _lower_hp_reference(eta, p, family, seed):
    """opnorm_lower_hp as one hp_norm call per candidate and per image, over
    the whole candidate list: the lower bound, the witness and the worst
    refinement delta."""
    best_ratio, best_witness, worst = 0.0, None, 0.0
    for f in list(_family_candidates(eta, family, seed)):
        denom = hp_norm(f, p)
        num = hp_norm(apply_rhaly(eta, f), p)
        worst = max(worst, denom.refinement_delta, num.refinement_delta)
        if denom.value == 0.0:
            continue
        if num.value / denom.value > best_ratio:
            best_ratio, best_witness = num.value / denom.value, f
    return best_ratio, best_witness, worst


LOWER_HP_SPECS = [
    SequenceSpec.cesaro(300),
    SequenceSpec.power_law(1.3, 0.8, 200),
    SequenceSpec.literal([np.exp(1j * k) / (k + 1) for k in range(100)]),
]


@pytest.mark.parametrize("family", ["CoordinateDisks", "RandomPoly"])
@pytest.mark.parametrize("eta", LOWER_HP_SPECS, ids=lambda eta: eta.kind)
def test_opnorm_lower_hp_equals_the_hp_norm_loop(eta, family):
    for p in (1, 1.5, 2, 3):
        est = opnorm_lower_hp(eta, p, family=family, seed=5)
        lower, witness, worst = _lower_hp_reference(eta, p, family, 5)
        assert est.lower == lower
        assert est.witness == witness
        assert est.refinement_delta == worst
        assert est.to_json()["refinement_delta"] == worst


def test_opnorm_lower_hp_memory_holds_one_chunk_of_candidates():
    """The 64 CoordinateDisks candidates of degree 16383 take 16.8 MB
    together; the estimate holds a chunk of them at a time, here one."""
    eta = SequenceSpec.cesaro(16383)
    tracemalloc.start()
    try:
        opnorm_lower_hp(eta, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_spec_json_roundtrips():
    specs = [
        SequenceSpec.power_law(1.0, 1.0, 4096),
        SequenceSpec.cesaro(64),
        SequenceSpec.literal([1.0, 0.5 + 0.5j, 0.25]),
        SequenceSpec.measure_moments(
            DiscreteMeasure(np.array([0.1, 0.9]), np.array([0.5, 0.5])), 32
        ),
        SequenceSpec.signed(
            SequenceSpec.cesaro(3), [1, -1, 1, -1]
        ),
    ]
    for spec in specs:
        back = SequenceSpec.from_json(spec.to_json())
        assert np.allclose(back.values(), spec.values())


def test_spec_json_field_names():
    spec = SequenceSpec.from_json(
        {"kind": "power_law", "c": 1.0, "s": 1.0, "truncation": 4096}
    )
    assert spec.kind == "power_law"
    assert spec.truncation == 4096
    assert abs(spec.values()[1] - 0.5) < 1e-15


def test_certified_decreasing():
    assert SequenceSpec.cesaro(8).is_certified_decreasing()
    assert SequenceSpec.power_law(1.0, 0.8, 8).is_certified_decreasing()
    assert not SequenceSpec.literal([1.0, 2.0]).is_certified_decreasing()
    signed = SequenceSpec.signed(SequenceSpec.cesaro(1), [1, -1])
    with pytest.raises(NotMonotone):
        require_decreasing(signed)
