"""Coefficient container and algebra tests."""

import numpy as np
import pytest

from rhalylab import coeffcore
from rhalylab.coeffcore import (
    CircleGrid,
    CoeffSeq,
    derivative,
    evaluate_on_circle,
    hadamard,
    partial_sum,
    prefix_sums,
    zero_head,
)
from rhalylab.errors import IndexOrder, OversamplingViolation


def test_coeffs_are_frozen():
    f = CoeffSeq(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


def test_public_constructor_copies_and_fresh_outputs_are_not_copied():
    mine = np.array([1.0, 2.0, 3.0], dtype=complex)
    f = CoeffSeq(mine)
    mine[0] = 7.0
    assert f.coeffs[0] == 1.0 and mine.flags.writeable
    assert not np.shares_memory(f.coeffs, mine)
    with pytest.raises(ValueError):
        CoeffSeq._owning(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        CoeffSeq._owning(np.ones((2, 2), dtype=complex))
    # prefix_sums keeps one result array: its tracemalloc peak stays near
    # the 16.8 MB result at 2^20 (33.9 MB when the result was copied)
    import tracemalloc

    a = CoeffSeq(np.random.default_rng(0).standard_normal(2**20).astype(complex))
    tracemalloc.start()
    try:
        out = prefix_sums(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.coeffs.flags.writeable
    assert peak < 1.25 * out.coeffs.nbytes, peak


def test_coeff_out_of_range_reads_zero():
    f = CoeffSeq(np.array([1.0, 2.0]))
    assert f.coeff(1) == 2.0
    assert f.coeff(5) == 0.0
    assert f.coeff(-1) == 0.0
    assert f.degree == 1


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        CoeffSeq(np.array([]))
    with pytest.raises(ValueError):
        CoeffSeq(np.array([np.nan]))
    with pytest.raises(ValueError):
        CoeffSeq(np.ones((2, 2)))


def test_json_roundtrip():
    f = CoeffSeq(np.array([1.0 + 2.0j, -0.5]))
    g = CoeffSeq.from_json(f.to_json())
    assert f == g
    data = f.to_json()
    assert data["coeffs"][0] == [1.0, 2.0]


def test_log_series_coefficients():
    f = CoeffSeq.log_one_over_one_minus_z(4)
    assert np.allclose(f.coeffs, [0, 1, 1 / 2, 1 / 3, 1 / 4])


def test_hadamard_takes_min_degree():
    f = CoeffSeq(np.array([1.0, 2.0, 3.0]))
    g = CoeffSeq(np.array([2.0, 5.0]))
    h = hadamard(f, g)
    assert h.degree == 1
    assert np.allclose(h.coeffs, [2.0, 10.0])


def test_derivative():
    f = CoeffSeq(np.array([5.0, 3.0, 2.0]))
    assert np.allclose(derivative(f).coeffs, [3.0, 4.0])
    const = CoeffSeq(np.array([7.0]))
    assert np.allclose(derivative(const).coeffs, [0.0])


def test_shift_then_derivative_identity():
    # coefficient n of (z f)' is (n+1) a_n
    rng = np.random.default_rng(3)
    f = CoeffSeq(rng.standard_normal(9))
    g = derivative(CoeffSeq(np.concatenate([[0.0], f.coeffs])))
    n = np.arange(9)
    assert np.allclose(g.coeffs, (n + 1) * f.coeffs)


def test_prefix_sums_matches_cumsum():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    f = CoeffSeq(c)
    assert np.allclose(prefix_sums(f).coeffs, np.cumsum(c), atol=1e-13)


def test_prefix_sums_compensation_on_alternating_input():
    # large alternating terms cancel; the running sum must stay exact
    n = 10001
    c = np.empty(n)
    c[0::2] = 1e8
    c[1::2] = -1e8
    out = prefix_sums(CoeffSeq(c)).coeffs
    assert out[-1] == 1e8
    assert np.all(np.abs(out[1::2]) == 0.0)


def _concatenating_prefix_sums(a: np.ndarray) -> np.ndarray:
    """The Sum2 kernel as it stood before it reused its buffers: S_{n-1}
    from np.concatenate and a fresh temporary for every step of a chunk."""
    chunk = coeffcore._PREFIX_CHUNK
    out = np.empty_like(a)
    run = comp = 0j
    for lo in range(0, len(a), chunk):
        x = a[lo : lo + chunk]
        s = out[lo : lo + len(x)]
        s[:] = x
        s[0] += run
        np.cumsum(s, out=s)
        p = np.concatenate(([run], s[:-1]))
        z = s - p
        e = (p - (s - z)) + (x - z)
        e[0] += comp
        np.cumsum(e, out=e)
        run, comp = s[-1], e[-1]
        s += e
    return out


def _prefix_inputs(n: int) -> dict:
    rng = np.random.default_rng(n)
    cancelling = np.where(np.arange(n) % 2 == 0, 1e8, -1e8) + rng.standard_normal(n)
    return {
        "real": rng.standard_normal(n),
        "complex": rng.standard_normal(n) + 1j * rng.standard_normal(n),
        "cancelling": cancelling + 1j * cancelling[::-1],
        "wide": rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
        + 1j * rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n),
    }


@pytest.mark.parametrize("offset", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5"])
def test_prefix_sums_equals_the_concatenating_kernel(offset):
    """Every output bit, signed zeros included, is the old kernel's."""
    chunks, extra = offset
    n = chunks * coeffcore._PREFIX_CHUNK + extra
    for name, c in _prefix_inputs(n).items():
        got = prefix_sums(CoeffSeq(c)).coeffs
        want = _concatenating_prefix_sums(CoeffSeq(c).coeffs)
        assert np.array_equal(got, want), name
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), name


def test_evaluate_on_circle_matches_direct_evaluation():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = CoeffSeq(c)
    grid = CircleGrid(points=64, radius=0.8)
    vals = evaluate_on_circle(f, grid)
    theta = 2 * np.pi * np.arange(64) / 64
    z = 0.8 * np.exp(1j * theta)
    direct = np.polyval(c[::-1], z)
    assert np.allclose(vals, direct, atol=1e-10)


def test_oversampling_guard():
    f = CoeffSeq(np.ones(10))
    with pytest.raises(OversamplingViolation):
        evaluate_on_circle(f, CircleGrid(points=16))
    # 4*(degree+1) = 40 is the minimum
    evaluate_on_circle(f, CircleGrid(points=40))


def test_slice_keeps_indices_in_place():
    # S_N f keeps coefficients 0..N at their indices and the degree of f
    f = CoeffSeq(np.arange(1.0, 7.0))
    s = partial_sum(f, 4)
    assert np.allclose(s.coeffs, [1, 2, 3, 4, 5, 0])
    assert s.degree == f.degree
    assert not s.coeffs.flags.writeable


def test_slice_past_degree_reads_zero():
    f = CoeffSeq(np.arange(1.0, 4.0))
    s = partial_sum(f, 10)
    assert s == f


def test_slice_order_errors():
    f = CoeffSeq(np.ones(5))
    with pytest.raises(IndexOrder):
        partial_sum(f, -1)


def test_block_and_partial_sum():
    f = CoeffSeq(np.arange(1.0, 9.0))
    # the dyadic block N=2 is S_3 f - S_1 f
    b = partial_sum(f, 3).coeffs - partial_sum(f, 1).coeffs
    assert np.allclose(b, [0, 0, 3, 4, 0, 0, 0, 0])
    s = partial_sum(f, 3)
    assert np.allclose(s.coeffs, [1, 2, 3, 4, 0, 0, 0, 0])


def test_zero_head():
    f = CoeffSeq(np.arange(1.0, 6.0) - 1j)
    g = zero_head(f, 2)
    assert np.array_equal(g.coeffs, [0, 0, 0, 4 - 1j, 5 - 1j])
    # f - S_N f, with the degree kept
    assert np.array_equal(g.coeffs, f.coeffs - partial_sum(f, 2).coeffs)
    for N in (4, 9):
        assert zero_head(f, N) == CoeffSeq(np.zeros(5))
    assert not g.coeffs.flags.writeable
    assert np.array_equal(f.coeffs, np.arange(1.0, 6.0) - 1j)
