"""Property tests for the operator kernel (compensated prefix sums against
math.fsum, the adjoint identity, linearity), for the bracket of the l2
section norm (against a dense SVD) and for the circle quadratures
(block norms against a direct trigonometric sum, invariance of a block norm
under a shift, integral means nondecreasing in the radius)."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rhalylab import coeffcore
from rhalylab.coeffcore import CoeffSeq, prefix_sums
from rhalylab.norms import _BlockEngine, mean_mp
from rhalylab.rhalyop import SequenceSpec, _section_rmatvec, apply_rhaly, opnorm_h2

U = 2.0**-53
#: underflow of one product is absolute, up to half of this (Higham, sec. 2.1)
TINY = np.finfo(float).smallest_subnormal
C = coeffcore._PREFIX_CHUNK


def gamma(k: int) -> float:
    return k * U / (1.0 - k * U)


@st.composite
def cancelling_series(draw):
    """Complex coefficients over many binades whose sums cancel heavily,
    at lengths around the chunk boundaries of the kernel."""
    n = draw(st.sampled_from((1, C - 1, C, C + 1, 3 * C + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 60))

    def part():
        x = rng.standard_normal(n) * 2.0 ** rng.integers(-spread, spread + 1, n)
        # pair each term with its negative, slightly perturbed, in random order
        half = n // 2
        x[half : 2 * half] = -x[:half] * (1.0 + 1e-9 * rng.standard_normal(half))
        return x[rng.permutation(n)]

    return part() + 1j * part()


@settings(max_examples=40, deadline=None)
@given(cancelling_series(), st.data())
def test_prefix_sums_within_sum2_bound_of_fsum(a, data):
    """|res - s| <= u|s| + gamma_{n-1}^2 sum|a| (Ogita-Rump-Oishi, Prop. 4.5);
    fsum returns s rounded once, hence 2u|s| against it."""
    out = prefix_sums(CoeffSeq(a)).coeffs
    n = len(a)
    picks = {n - 1} | {i for i in (C - 2, C - 1, C, 2 * C) if i < n}
    picks |= set(data.draw(st.lists(st.integers(0, n - 1), max_size=8)))
    for i in sorted(picks):
        for got, part in ((out[i].real, a.real), (out[i].imag, a.imag)):
            head = part[: i + 1]
            s = math.fsum(head)
            bound = 2 * U * abs(s) + gamma(i) ** 2 * math.fsum(np.abs(head))
            assert abs(got - s) <= bound, (n, i, got, s, bound)


specs = st.one_of(
    st.builds(SequenceSpec.cesaro, st.just(511)),
    st.builds(
        SequenceSpec.power_law,
        st.floats(-4.0, 4.0), st.floats(0.0, 3.0), st.just(511),
    ),
    st.builds(
        lambda signs: SequenceSpec.signed(SequenceSpec.cesaro(511), signs),
        st.lists(st.sampled_from((-1, 1)), min_size=512, max_size=512),
    ),
)
coeffs = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
pairs = st.integers(1, 512).flatmap(
    lambda N: st.tuples(*[arrays(complex, N, elements=coeffs)] * 2)
)


@settings(max_examples=60, deadline=None)
@given(specs, pairs)
@example(SequenceSpec.cesaro(511), (np.array([1.0 + 0j, 0j]), np.full(2, 5e-324 + 0j)))
def test_adjoint_identity(eta, vw):
    """<R_N v, w> = <v, R_N* w> between apply_rhaly and the section adjoint."""
    v, w = vw
    ev = eta.values()[: len(v)]
    lhs = np.vdot(w, apply_rhaly(eta, CoeffSeq(v)).coeffs)
    rhs = np.vdot(_section_rmatvec(np.conj(ev), w), v)
    # both sides sum eta_n v_k conj(w_n) over k <= n, in different orders;
    # each product that underflows adds an absolute error, which the later
    # factors w_n (left) or v_k summed over n >= k (right) multiply
    scale = float(np.dot(np.abs(w), np.abs(ev) * np.cumsum(np.abs(v))))
    n = len(v)
    underflow = 8 * TINY * (n * (2 + np.sum(np.abs(v))) + np.sum(np.abs(w)))
    assert abs(lhs - rhs) <= 8 * gamma(2 * n + 4) * scale + underflow


@settings(max_examples=60, deadline=None)
@given(specs, coeffs, coeffs, pairs)
@example(SequenceSpec.power_law(5e-324, 0.0, 511), 2.0 + 0j, 0j,
         (np.array([1.5 + 0j]), np.array([0j])))
def test_apply_is_linear(eta, alpha, beta, fg):
    f, g = fg
    lhs = apply_rhaly(eta, CoeffSeq(alpha * f + beta * g)).coeffs
    Rf, Rg = apply_rhaly(eta, CoeffSeq(f)), apply_rhaly(eta, CoeffSeq(g))
    rhs = alpha * Rf.coeffs + beta * Rg.coeffs
    ev = np.abs(eta.values()[: len(f)])
    scale = ev * np.cumsum(abs(alpha) * np.abs(f) + abs(beta) * np.abs(g))
    # each side is within about 8u of the exact image, coefficientwise, plus
    # the absolute underflow of every product that enters it: the n+1 terms
    # alpha f_k + beta g_k of the prefix, eta_n times it, and alpha, beta
    # times the images
    n = np.arange(1, len(f) + 1)
    underflow = 8 * (ev * n + abs(alpha) + abs(beta) + 2) * TINY
    assert np.all(np.abs(lhs - rhs) <= 32 * U * scale + underflow)


#: entries of a literal eta: zero, or of modulus in [1e-3, 1e3], so that no
#: |eta_n|^2 or product of the section norm underflows
eta_parts = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def literal_sections(draw):
    """A literal eta of length 2 <= N <= 256, real or complex, whose last
    entries may be zero."""
    N = draw(st.integers(2, 256))
    eta = draw(arrays(float, N, elements=eta_parts)).astype(complex)
    if draw(st.booleans()):
        eta += 1j * draw(arrays(float, N, elements=eta_parts))
    eta[N - draw(st.integers(0, N - 1)) :] = 0
    return eta


@settings(max_examples=60, deadline=None)
@given(literal_sections())
@example(np.array([1.0, 0.0, 0.0]))
@example(np.array([1e-3, 1e3, 0.0, 0.0]) * np.exp(0.3j))
def test_section_norm_bracket_contains_dense_svd(eta):
    """opnorm_h2's [lower, upper] holds the dense SVD value, up to the
    rounding of the SVD, and closes to REFINEMENT_FLAG."""
    N = len(eta)
    est = opnorm_h2(SequenceSpec.literal(eta), N)
    sigma = float(np.linalg.svd(np.tril(np.repeat(eta[:, None], N, axis=1)),
                                compute_uv=False)[0])
    assert est.lower * (1.0 - 1e-12) <= sigma <= est.upper * (1.0 + 1e-12), (est, sigma)
    assert est.converged, est


# --- circle quadratures ----------------------------------------------------

#: relative slack for rounding in the quadratures and the oracle
ROUND = 1e-12
small_ints = st.integers(-3, 3)
#: p = 1 on this block: the even samples of the first grid (the half-step
#: refinement) change by 1.7e-7 while the error is 1.7e-6, because only the
#: real part of the first aliased Fourier coefficient shows in that change
ALIASED_BLOCK = [-3, 0, 2, 2, 1, -1, 2, 2, 2, 0, 2, 3, 0, 3, -2, -3,
                 -2, -3, -1, -2, 2, 3, 2, 2, -1, 2, 1, -3, -3, 0, 3, 1]


def trig_sum_norm(b: np.ndarray, p: float, points: int = 2**17) -> float:
    """(mean |sum_k b_k e^{ik theta}|^p)^{1/p} on a fine grid, by Horner's rule."""
    z = np.exp(2j * np.pi * np.arange(points) / points)
    v = np.zeros(points, dtype=complex)
    for c in b[::-1]:
        v = v * z + c
    return float(np.mean(np.abs(v) ** p)) ** (1.0 / p)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 4, 8, 16, 32, 64)).flatmap(
        lambda N: st.lists(small_ints, min_size=N, max_size=N)
    ),
    st.sampled_from((1.0, 1.5, 3.0)),
)
@example(ALIASED_BLOCK, 1.0)
def test_block_norm_matches_trig_sum_within_its_delta(block, p):
    b = np.array(block, dtype=complex)
    N = len(b)
    coeffs = np.concatenate([np.ones(N), b])  # block N is b
    (value,), delta = _BlockEngine(coeffs, [N]).norms(p)
    exact = trig_sum_norm(b, p)
    assert abs(value - exact) <= (delta + ROUND) * exact, (value, exact, delta)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_ints, min_size=1, max_size=32).filter(any),
    st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    st.data(),
)
def test_block_norm_invariant_under_shift(poly, p, data):
    """|z^k P| = |P| on the circle: P placed at any offset inside any block
    that holds it gives the same norm, within the two reported deltas."""
    b = np.array(poly, dtype=complex)
    got = []
    for N in (32, 64, 256, 1024):
        k = data.draw(st.integers(0, N - len(b)))
        coeffs = np.zeros(2 * N, dtype=complex)
        coeffs[N + k : N + k + len(b)] = b
        (value,), delta = _BlockEngine(coeffs, [N]).norms(p)
        got.append((value, delta))
    (v0, d0) = got[0]
    for v, d in got[1:]:
        assert abs(v - v0) <= (d0 + d + ROUND) * v0, (p, got)


@settings(max_examples=40, deadline=None)
@given(
    arrays(complex, st.integers(1, 41), elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)).filter(np.any),
    st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5, unique=True),
)
def test_integral_means_nondecreasing_in_radius(c, p, radii):
    f = CoeffSeq(c)
    reports = [mean_mp(f, r, p) for r in sorted(radii)]
    for lo, hi in zip(reports, reports[1:]):
        slack = lo.refinement_delta + hi.refinement_delta + ROUND
        assert lo.value <= hi.value * (1.0 + slack), (lo, hi)
