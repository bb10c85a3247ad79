"""Integral means and norm evaluations against closed-form oracles."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from rhalylab import norms
from rhalylab.coeffcore import CoeffSeq, derivative
from rhalylab.constructions import bergman_gn
from rhalylab.errors import AlphaRange, ParamOrder, RadiusRange
from rhalylab.norms import (
    bergman_norm,
    beta,
    beta_sup,
    dirichlet_norm,
    dyadic_radii,
    hp_norm,
    hp_norms,
    mean_mp,
    xqp_norm,
)
from rhalylab.rhalyop import SequenceSpec, generating_function


def test_mean_mp_constant():
    f = CoeffSeq(np.array([3.0 - 4.0j]))
    rep = mean_mp(f, 0.5, 1.7)
    assert abs(rep.value - 5.0) < 1e-12


def test_mean_mp_monomial():
    f = CoeffSeq(np.array([0.0, 1.0]))
    assert abs(mean_mp(f, 0.3, 2.0).value - 0.3) < 1e-12


def test_mean_mp_parseval_pair():
    f = CoeffSeq(np.array([1.0, 1.0]))
    assert abs(mean_mp(f, 1.0, 2.0).value - np.sqrt(2.0)) < 1e-12


def test_mean_mp_input_validation():
    f = CoeffSeq(np.array([1.0]))
    with pytest.raises(RadiusRange):
        mean_mp(f, 1.5, 2.0)
    with pytest.raises(ValueError):
        mean_mp(f, 0.5, 0.5)


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
def test_non_finite_exponents_are_refused(p):
    """NaN slips past an ordered comparison such as p < 1, and p = inf
    would average |f|^inf; both are refused as exponents outside [1, inf)."""
    f = CoeffSeq(np.array([1.0, 0.5, 0.25]))
    refusals = [
        lambda: mean_mp(f, 0.5, p),
        lambda: hp_norm(f, p),
        lambda: list(hp_norms([f], p)),
        lambda: bergman_norm(f, p, 0.0),
        lambda: dirichlet_norm(f, p, 1.0),
        lambda: xqp_norm(f, 1.5, p),
        lambda: xqp_norm(f, p, 3.0),
        lambda: beta_sup(f, p, 0.5),
        lambda: norms._BlockEngine(np.ones(16, dtype=complex), [2, 4]).norms(p),
    ]
    for call in refusals:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_non_finite_alpha_is_refused(alpha):
    f = CoeffSeq(np.array([1.0, 0.5, 0.25]))
    for p in (1.5, 2.0):
        with pytest.raises(AlphaRange):
            bergman_norm(f, p, alpha)
        with pytest.raises(AlphaRange):
            dirichlet_norm(f, p, alpha)


def test_hp_norm_oracles():
    assert abs(hp_norm(CoeffSeq(np.array([3.0, 4.0])), 2.0).value - 5.0) < 1e-12
    assert abs(hp_norm(CoeffSeq(np.array([1.0])), 3.0).value - 1.0) < 1e-12
    assert abs(hp_norm(CoeffSeq(np.array([0.0, 1.0])), 1.0).value - 1.0) < 1e-12


def test_hp_norm_parseval_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        f = CoeffSeq(c)
        exact = np.sqrt(np.sum(np.abs(c) ** 2))
        assert abs(hp_norm(f, 2.0).value - exact) / exact < 1e-10


def test_mean_monotone_in_radius():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = CoeffSeq(rng.standard_normal(17) + 1j * rng.standard_normal(17))
        vals = [mean_mp(f, r, 1.5).value for r in (0.2, 0.5, 0.8, 0.95, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_hp_norm_monotone_in_p():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = CoeffSeq(rng.standard_normal(25) + 1j * rng.standard_normal(25))
        vals = [hp_norm(f, p).value for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bergman_norm_oracles():
    # the closed form that bergman_norm uses at p = 2, and the quadrature
    # that it uses for every other p
    for norm in (bergman_norm, norms._bergman_quadrature):
        one = CoeffSeq(np.array([1.0]))
        assert abs(norm(one, 2.0, 0.0).value - 1.0) < 1e-12
        assert abs(norm(one, 1.5, 2.5).value - 1.0) < 1e-12
        z = CoeffSeq(np.array([0.0, 1.0]))
        assert abs(norm(z, 2.0, 0.0).value - 1 / np.sqrt(2.0)) < 1e-12
        assert abs(norm(z, 2.0, 1.0).value - 1 / np.sqrt(3.0)) < 1e-12


def test_bergman_alpha_range():
    with pytest.raises(AlphaRange):
        bergman_norm(CoeffSeq(np.array([1.0])), 2.0, -1.0)
    with pytest.raises(AlphaRange):
        bergman_norm(CoeffSeq(np.array([1.0])), 2.0, -1.5)


def test_bergman_bounded_by_hardy():
    # area means average the circle means, so the norm can only shrink
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = CoeffSeq(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        assert bergman_norm(f, 2.0, 0.5).value <= hp_norm(f, 2.0).value + 1e-10


def _dirichlet_oracles():
    assert abs(dirichlet_norm(CoeffSeq(np.array([2.0j])), 2.0, 0.0).value - 2.0) < 1e-12
    z = CoeffSeq(np.array([0.0, 1.0]))
    assert abs(dirichlet_norm(z, 2.0, 0.0).value - 1.0) < 1e-12
    f = CoeffSeq(np.array([1.0, 1.0]))
    assert abs(dirichlet_norm(f, 2.0, 1.0).value - np.sqrt(2.0)) < 1e-12


def test_dirichlet_norm_oracles(monkeypatch):
    # through the closed form, then through the quadrature of f'
    _dirichlet_oracles()
    monkeypatch.setattr(norms, "bergman_norm", norms._bergman_quadrature)
    _dirichlet_oracles()


def test_xqp_norm_oracles():
    assert abs(xqp_norm(CoeffSeq(np.array([-1.5])), 2.0, 2.0).value - 1.5) < 1e-12
    z = CoeffSeq(np.array([0.0, 1.0]))
    # f' = 1: integral of (1-r)^2 dr = 1/3
    assert abs(xqp_norm(z, 2.0, 4.0).value - 3.0 ** (-0.25)) < 1e-10


def test_xqp_matches_dirichlet_up_to_normalization():
    # for constant derivative the quadratures coincide exactly after the
    # (alpha+1) = p factor
    z = CoeffSeq(np.array([0.0, 1.0]))
    p = 2.0
    lhs = p * xqp_norm(z, p, p).value ** p
    rhs = dirichlet_norm(z, p, p - 1.0).value ** p
    assert abs(lhs - rhs) < 1e-10


def test_xqp_param_order():
    with pytest.raises(ParamOrder):
        xqp_norm(CoeffSeq(np.array([1.0])), 3.0, 2.0)


def test_beta_oracles():
    assert beta(CoeffSeq(np.array([4.0])), 2.0, 0.5, 0.5) == 0.0
    z = CoeffSeq(np.array([0.0, 1.0]))
    assert abs(beta(z, 2.0, 0.5, 0.75) - 0.5) < 1e-12
    with pytest.raises(RadiusRange):
        beta(z, 2.0, 0.5, 1.0)
    with pytest.raises(AlphaRange):
        beta(z, 2.0, 1.5, 0.5)


def test_beta_sup_log_series_band():
    # M_2(r, 1/(1-z)) grows like (1-r)^{-1/2}, so the seminorm at
    # alpha = 1/2 stays in a fixed band along the dyadic ladder
    f = CoeffSeq.log_one_over_one_minus_z(8192)
    radii = dyadic_radii()[:9]
    vals = np.array([beta(f, 2.0, 0.5, r) for r in radii])
    assert vals.max() / vals.min() < 1.6


def test_beta_sup_is_the_max_of_mean_mp_bit_for_bit():
    # one batched sampling of f' over the ladder gives mean_mp's value at
    # every radius exactly, both when the radii share one chunk of rows
    # (low degrees) and when they span several (high degrees)
    rng = np.random.default_rng(12)
    radii = dyadic_radii()
    for degree, alpha in zip(rng.integers(4, 5000, size=8), (0.25, 0.5, 1.0) * 3):
        f = CoeffSeq(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        fp = derivative(f)
        for p in (1.0, 1.5, 2.0, 3.0):
            means = [mean_mp(fp, r, p).value for r in radii]
            expected = max((1.0 - r) ** (1.0 - alpha) * m for r, m in zip(radii, means))
            assert beta_sup(f, p, alpha, radii) == expected
            assert beta(f, p, alpha, radii[3]) == (1.0 - radii[3]) ** (1.0 - alpha) * means[3]
    # real coefficients too: beta_sup keeps one complex transform per radius
    for degree, alpha in zip(rng.integers(4, 5000, size=3), (0.25, 0.5, 1.0)):
        f = CoeffSeq(rng.standard_normal(degree + 1))
        fp = derivative(f)
        for p in (1.0, 1.5, 2.0, 3.0):
            means = [mean_mp(fp, r, p).value for r in radii]
            expected = max((1.0 - r) ** (1.0 - alpha) * m for r, m in zip(radii, means))
            assert beta_sup(f, p, alpha, radii) == expected


def test_refinement_delta_clean_at_default_grids():
    rng = np.random.default_rng(10)
    f = CoeffSeq(rng.standard_normal(40) + 1j * rng.standard_normal(40))
    assert not hp_norm(f, 2.0).flagged
    assert not bergman_norm(f, 2.0, 0.0).flagged
    assert not norms._bergman_quadrature(f, 2.0, 0.0).flagged


def test_norm_report_json():
    rep = hp_norm(CoeffSeq(np.array([1.0])), 2.0)
    data = rep.to_json()
    assert set(data) == {"value", "grid_points", "radial_nodes", "refinement_delta"}


def _one_shot_mp_powers(f, p, nodes, M):
    n = np.arange(f.degree + 1)
    damped = nodes[:, None] ** n[None, :] * f.coeffs[None, :]
    vals = np.fft.ifft(damped, n=M, axis=1) * M
    return np.mean(np.abs(vals) ** p, axis=1)


@pytest.mark.parametrize("M, divides", [(4096, True), (5120, False)])
def test_streamed_nodes_match_one_batched_fft(M, divides):
    rows = max(1, norms._NODE_CHUNK_BYTES // (16 * M))
    assert (64 % rows == 0 and 128 % rows == 0) == divides
    rng = np.random.default_rng(11)
    f = CoeffSeq(rng.standard_normal(500) + 1j * rng.standard_normal(500))
    for count in (64, 128):
        nodes, _ = norms._jacobi_rule(0.5, count)
        for p in (1.5, 2.0, 3.0):
            assert np.array_equal(
                norms._mp_powers_on_nodes(f.coeffs, p, nodes, M),
                _one_shot_mp_powers(f, p, nodes, M),
            )


@pytest.mark.parametrize("degree", [0, 3, 256, 1000])
def test_hp_norms_equal_hp_norm_bit_for_bit(degree):
    """Every batched report equals hp_norm's under ==, over more rows than
    one chunk. Degree 256 samples on 2056 = 8 * 257 angles, a length numpy
    transforms by Bluestein's algorithm."""
    M = norms.default_angular_points(degree)
    chunk = max(1, norms._NODE_CHUNK_BYTES // (32 * M))
    rng = np.random.default_rng(degree)
    fs = [CoeffSeq(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
          for _ in range(chunk + 2)]
    fs += [CoeffSeq(np.zeros(degree + 1)), CoeffSeq(np.eye(1, degree + 1, degree)[0])]
    for p in (1, 1.5, 2, 3, 4):
        reports = list(hp_norms(iter(fs), p))
        assert len(reports) == len(fs)
        for f, rep in zip(fs, reports):
            assert rep == hp_norm(f, p)


def test_hp_norms_refuses_mixed_degrees():
    f3, f4 = CoeffSeq(np.ones(4)), CoeffSeq(np.ones(5))
    with pytest.raises(ValueError):
        list(hp_norms([f3, f4], 1.5))
    with pytest.raises(ValueError):
        list(hp_norms([f3], 0.5))
    assert list(hp_norms([], 1.5)) == []


def test_bergman_norm_memory_is_bounded_by_node_chunks():
    f = generating_function(SequenceSpec.cesaro(8191))
    tracemalloc.start()
    try:
        bergman_norm(f, 1.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batched FFT over the 128 nodes of the doubled rule would hold
    # 128 x 65536 complex samples, 134 MB
    assert peak < 40e6


def _is_5_smooth(m: int) -> bool:
    for q in (2, 3, 5):
        while m % q == 0:
            m //= q
    return m == 1


def test_fast_length_is_smallest_5_smooth():
    smooth = [m for m in range(1, 2**15 + 1) if _is_5_smooth(m)]
    i = 0
    for n in range(1, 20001):
        while smooth[i] < n:
            i += 1
        assert norms._fast_length(n) == smooth[i]
    for k in range(25):
        assert norms._fast_length(2**k) == 2**k


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_bergman_gn_on_fast_length_matches_closed_form(alpha):
    # g_N has degree 40N, so the default grid 8(40N + 1) is not 5-smooth
    g = bergman_gn(2.0, alpha, 128)
    n = np.arange(g.degree + 1, dtype=float)
    w = np.exp(gammaln(n + 1.0) + gammaln(alpha + 2.0) - gammaln(n + alpha + 2.0))
    exact = np.sqrt(np.sum(np.abs(g.coeffs) ** 2 * w))
    rep = norms._bergman_quadrature(g, 2.0, alpha)
    assert rep.grid_points == norms._fast_length(8 * (g.degree + 1)) != 8 * (g.degree + 1)
    assert abs(rep.value - exact) / exact < 1e-10 + 2.0 * rep.refinement_delta
    # the closed form bergman_norm returns agrees within the quadrature's delta
    closed = bergman_norm(g, 2.0, alpha).value
    assert abs(closed - rep.value) / rep.value < 1e-10 + rep.refinement_delta


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_bergman_closed_form_within_its_stated_bound(alpha):
    """Against 40-digit mpmath at degree 8191: each weight ||z^n||^2 within
    4n u, and the value within the refinement delta the report states."""
    degree = 8191
    rng = np.random.default_rng(13)
    f = CoeffSeq(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    rep = bergman_norm(f, 2.0, alpha)
    assert (rep.grid_points, rep.radial_nodes) == (0, 0)
    assert 0.0 < rep.refinement_delta == (3 * degree + 5) * U
    weights = norms._bergman_weights(degree, alpha)
    with mpmath.workdps(40):
        exact_w = [mpmath.mpf(1)]
        for n in range(1, degree + 1):
            exact_w.append(exact_w[-1] * n / (n + mpmath.mpf(alpha) + 1))
        for n, (w, e) in enumerate(zip(weights.tolist(), exact_w)):
            assert abs(w - e) <= 4 * n * U * e
        total = mpmath.fsum(
            (mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2) * e
            for c, e in zip(f.coeffs.tolist(), exact_w)
        )
        exact = mpmath.sqrt(total)
        assert abs(rep.value - exact) <= rep.refinement_delta * exact


def test_jacobi_rule_is_cached_and_read_only():
    nodes, weights = norms._jacobi_rule(0.5, 64)
    assert norms._jacobi_rule(0.5, 64)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    assert np.all(np.diff(nodes) > 0)


U = 2.0**-53


def _series(shape: str, degree: int, seed: int) -> CoeffSeq:
    """Random complex coefficients, damped geometrically, grown like a
    derivative's, or flat."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    n = np.arange(degree + 1)
    if shape == "geometric":
        c *= rng.uniform(0.5, 0.999) ** n
    elif shape == "derivative":
        c *= n
    return CoeffSeq(c)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(("geometric", "derivative", "flat")),
    st.integers(1, 1500),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1.0, 1.5, 2.0, 3.0)),
    st.sampled_from((0.0, 0.5, 2.5)),
)
def test_truncated_nodes_match_full_series_within_few_u(shape, degree, seed, p, alpha):
    """Against the whole series on each node's own grid the only difference
    is the dropped tail, so the gap is rounding. At p = 2 the trapezoid rule
    is exact on every grid used, so the full-degree grid agrees too."""
    f = _series(shape, degree, seed)
    nodes, _ = norms._jacobi_rule(alpha, 64)
    got = norms._mp_powers_truncated(f, p, nodes)
    K = norms._effective_degrees(f.coeffs, nodes)
    grids = [norms._fast_length(norms.default_angular_points(int(k))) for k in K]
    own = np.array([_one_shot_mp_powers(f, p, nodes[i : i + 1], M)[0] for i, M in enumerate(grids)])
    assert np.all(np.abs(got - own) <= 8 * U * own)
    if p == 2.0:
        M = norms._fast_length(norms.default_angular_points(f.degree))
        full = _one_shot_mp_powers(f, p, nodes, M)
        assert np.all(np.abs(got - full) <= 16 * U * full)


@pytest.mark.parametrize(
    "f",
    [
        generating_function(SequenceSpec.cesaro(8191)),
        generating_function(SequenceSpec.power_law(1.3, 0.7, 4095)),
        bergman_gn(1.5, 0.5, 64),
        _series("geometric", 3000, 1),
        _series("derivative", 3000, 2),
        _series("flat", 3000, 3),
        CoeffSeq(np.concatenate([np.zeros(700), [1.0], np.zeros(99), [1e-3]])),
    ],
)
def test_dropped_tail_meets_the_stated_bound(f):
    """sum_{n>K} |a_n| r^n <= u M_2(r, f) at every node, for the nodes of
    every radial rule the norms use."""
    a = np.abs(f.coeffs)
    n = np.arange(f.degree + 1)
    for alpha in (0.0, 0.5, 2.5):
        for count in (64, 128):
            nodes, _ = norms._jacobi_rule(alpha, count)
            K = norms._effective_degrees(f.coeffs, nodes)
            assert np.all((0 <= K) & (K <= f.degree))
            for r, k in zip(nodes, K):
                terms = a * r**n
                top = terms.max()
                if top == 0.0:  # every term underflows, the tail too
                    continue
                # scaled, so that squares of tiny terms do not underflow
                m2 = top * np.sqrt(np.sum((terms / top) ** 2))
                assert np.sum(terms[k + 1 :]) <= U * m2 * (1 + 1e-12)
    assert np.any(K < f.degree)


def test_bergman_genfn_samples_under_a_fifth_of_the_full_grid(monkeypatch):
    """The degree-8191 Cesaro generating function: the full-degree grid is
    65536 angles at each of the 64 + 128 nodes, and a node at radius r
    needs only about 42 / (1 - r) of the terms. Its coefficients are real,
    so its nodes go through rfft, and a transform of n points counts n
    samples per row."""
    f = generating_function(SequenceSpec.cesaro(8191))
    points = []

    def counting(transform):
        def run(a, n=None, axis=-1, **kwargs):
            out = transform(a, n=n, axis=axis, **kwargs)
            points.append(out.size // out.shape[axis] * (n or a.shape[axis]))
            return out

        return run

    monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
    monkeypatch.setattr(np.fft, "rfft", counting(np.fft.rfft))
    rep = bergman_norm(f, 1.5, 0.5)
    assert rep.grid_points == 65536
    assert 0 < sum(points) < 0.2 * 192 * 65536


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("geometric", "derivative", "flat", "monomial")),
    st.integers(0, 1500),
    st.integers(0, 2**32 - 1),
    st.sampled_from((1.0, 1.5, 3.0)),
    st.sampled_from((63, 64, 128)),
    st.booleans(),
)
def test_real_nodes_match_one_shot_within_few_u(shape, degree, seed, p, count, odd):
    """One real-input transform per node against one complex transform per
    node, on odd and even node counts and odd and even 5-smooth grids.

    Both transforms round relative to the node's own samples, so M_p(r)
    moves by at most 16 u M_p(r). Within a factor 1/u of the underflow
    threshold the transforms' intermediates go subnormal and round
    absolutely, so the bound is checked where M_p^p >= tiny / u.
    """
    if shape == "monomial":
        f = CoeffSeq(np.eye(1, degree + 1, degree)[0])
    else:
        f = CoeffSeq(_series(shape, degree, seed).coeffs.real)
    nodes, _ = norms._jacobi_rule(0.5, count)
    points = norms.default_angular_points(degree)
    M = int(next(m for m in norms._smooth_lengths(16) if m >= points and m % 2 == odd))
    ref = _one_shot_mp_powers(f, p, nodes, M)
    normal = ref >= np.finfo(float).tiny / U
    got = norms._mp_powers_on_real_nodes(f.coeffs, p, nodes, M) ** (1.0 / p)
    ref = ref ** (1.0 / p)
    assert np.all((np.abs(got - ref) <= 16 * U * ref)[normal])


@pytest.mark.parametrize("M, divides", [(4096, True), (5120, False)])
def test_real_nodes_do_not_depend_on_the_chunk_size(M, divides, monkeypatch):
    """The default chunk, one chunk of every node and chunks of one node
    give the same bits, where the default row count divides the node
    counts and where it does not."""
    rows = max(1, norms._NODE_CHUNK_BYTES // (8 * M))
    assert (64 % rows == 0 and 128 % rows == 0) == divides
    a = np.random.default_rng(12).standard_normal(500)
    for count in (64, 128):
        nodes, _ = norms._jacobi_rule(0.5, count)
        for p in (1.5, 2.0, 3.0):
            got = []
            for budget in (norms._NODE_CHUNK_BYTES, 8 * M * count, 1):
                monkeypatch.setattr(norms, "_NODE_CHUNK_BYTES", budget)
                got.append(norms._mp_powers_on_real_nodes(a, p, nodes, M))
            monkeypatch.undo()
            assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


def test_only_real_series_take_the_real_kernel(monkeypatch):
    used = []
    for name in ("_mp_powers_on_nodes", "_mp_powers_on_real_nodes"):
        kernel = getattr(norms, name)
        monkeypatch.setattr(norms, name, lambda *a, k=kernel, n=name: used.append(n) or k(*a))
    nodes, _ = norms._jacobi_rule(0.5, 64)
    c = np.random.default_rng(14).standard_normal(300)
    norms._mp_powers_truncated(CoeffSeq(c), 1.5, nodes)
    assert set(used) == {"_mp_powers_on_real_nodes"}
    used.clear()
    norms._mp_powers_truncated(CoeffSeq(c + 1j * c[::-1]), 1.5, nodes)
    assert set(used) == {"_mp_powers_on_nodes"}


def _block_series(kind: str, seed: int, degree: int = 2047) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = np.arange(degree + 1)
    if kind == "signed":
        return (rng.choice([-1.0, 1.0], degree + 1) / (n + 1) ** 0.6).astype(complex)
    return (rng.standard_normal(degree + 1) * 0.998**n).astype(complex)


@pytest.mark.parametrize("kind", ["signed", "geometric"])
def test_block_norms_at_p2_are_parseval_within_the_stated_bound(kind):
    c = _block_series(kind, 3)
    Ns = 2 ** np.arange(1, 11)
    for coeffs in (c, c * np.exp(0.3j)):
        values, delta = norms._BlockEngine(coeffs, Ns).norms(2.0)
        assert delta == (max(Ns) + 2) * U
        for N, value in zip(Ns, values):
            b = coeffs[N : 2 * N]
            exact = math.sqrt(math.fsum((b.real**2 + b.imag**2).tolist()))
            assert abs(value - exact) <= delta * exact


@pytest.mark.parametrize("kind, seed", [("signed", 1), ("signed", 2), ("geometric", 3)])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_real_blocks_match_their_complex_rotation(kind, seed, p):
    """A real series takes the half-circle grid and the mirrored doublings;
    turned by e^{i pi/4} it takes the complex path. Both give the same
    values and deltas within a few u, after the same doublings."""
    c = _block_series(kind, seed)
    Ns = 2 ** np.arange(1, 11)
    real, turned = norms._BlockEngine(c, Ns), norms._BlockEngine(c * np.exp(0.25j * np.pi), Ns)
    (a, da), (b, db) = real.norms(p), turned.norms(p)
    assert real._doublings == turned._doublings
    assert np.all(np.abs(a - b) <= 8 * U * b)
    assert abs(da - db) <= 64 * U


@pytest.mark.parametrize("doublings", range(norms._BLOCK_DOUBLINGS + 1))
def test_real_blocks_match_their_complex_rotation_after_each_doubling(monkeypatch, doublings):
    """With no block ever resolved, every block takes exactly the doubling
    budget, so every odd-angle fill, mirrored rows included, is read."""
    monkeypatch.setattr(norms, "REFINEMENT_FLAG", -1.0)
    monkeypatch.setattr(norms, "_BLOCK_DOUBLINGS", doublings)
    c = _block_series("signed", 4, 511)
    Ns = 2 ** np.arange(1, 9)
    real, turned = norms._BlockEngine(c, Ns), norms._BlockEngine(c * np.exp(0.25j * np.pi), Ns)
    for p in (1.0, 1.5, 3.0):
        (a, da), (b, db) = real.norms(p), turned.norms(p)
        assert real._doublings == turned._doublings == [doublings] * len(Ns)
        assert np.all(np.abs(a - b) <= 8 * U * b)
        assert abs(da - db) <= 64 * U


def test_block_grids_and_class_sums_are_the_direct_ones(monkeypatch):
    """After d = 0 .. _BLOCK_DOUBLINGS doublings, the grid of every block of
    a real series and of its e^{i pi/4} rotation is |Delta_N f| sampled
    directly on its P 2^d angles, in angle order, entries 0 .. L/2 of the L
    angles for the real one. The class sums of an exponent asked before the
    doublings and of one asked after them are the direct sums over every
    fourth angle. A real grid whose mirrored rows are not reversed, or any
    grid whose rows are not read in transposed order, differs from the
    direct samples from two doublings on."""
    monkeypatch.setattr(norms, "REFINEMENT_FLAG", -1.0)
    c = _block_series("signed", 6, 511)
    Ns = 2 ** np.arange(1, 9)
    for d in range(norms._BLOCK_DOUBLINGS + 1):
        for coeffs in (c, c * np.exp(0.25j * np.pi)):
            engine = norms._BlockEngine(coeffs, Ns)
            monkeypatch.setattr(norms, "_BLOCK_DOUBLINGS", 0)
            engine.norms(1.5)
            monkeypatch.setattr(norms, "_BLOCK_DOUBLINGS", d)
            engine.norms(3.0)
            assert engine._doublings == [d] * len(Ns)
            for i, N in enumerate(Ns):
                L = engine._points[i] << d
                direct = L * np.abs(np.fft.ifft(coeffs[N : 2 * N], n=L))
                grid = engine._grids[i]
                assert len(grid) == (L // 2 + 1 if np.isrealobj(engine._blocks[i]) else L)
                assert np.max(np.abs(grid - direct[: len(grid)])) <= 64 * U * np.max(direct)
                for p in (1.5, 3.0):
                    sums = [math.fsum(direct[j::4] ** p) for j in range(4)]
                    assert np.allclose(engine._sums[i][p], sums, rtol=64 * U, atol=0)


def test_block_engine_samples_only_for_p_other_than_two(monkeypatch):
    """p = 2 samples nothing; 2, then 1.5, then 2 on one engine gives the
    same p = 2 results twice, and the p = 1.5 results of a fresh engine."""
    sampled = []
    abs_samples = norms._abs_samples
    monkeypatch.setattr(
        norms, "_abs_samples", lambda *a: sampled.append(a[1:]) or abs_samples(*a)
    )
    c = _block_series("signed", 5)
    Ns = 2 ** np.arange(1, 11)
    engine = norms._BlockEngine(c, Ns)
    first = engine.norms(2.0)
    assert sampled == []
    middle = engine.norms(1.5)
    assert len(sampled) >= len(Ns)
    last = engine.norms(2.0)
    assert np.array_equal(first[0], last[0]) and first[1] == last[1]
    fresh = norms._BlockEngine(c, Ns).norms(1.5)
    assert np.array_equal(middle[0], fresh[0]) and middle[1] == fresh[1]
