"""Block profiles, membership classification, and partial-sum convergence."""

import numpy as np
import pytest

from rhalylab.coeffcore import CoeffSeq, derivative
from rhalylab.errors import DegreeTooSmall
from rhalylab.lipschitz import (
    BIG_LAMBDA,
    LITTLE_LAMBDA,
    NEITHER,
    block_profile,
    classify_membership,
    fit_K,
    partial_sum_convergence,
)
from rhalylab.norms import beta_sup, hp_norm


def power_series(s: float, degree: int) -> CoeffSeq:
    """a_n = n^{-s} for n >= 1."""
    c = np.zeros(degree + 1, dtype=complex)
    c[1:] = np.arange(1, degree + 1, dtype=float) ** (-s)
    return CoeffSeq(c)


def test_constant_has_empty_blocks():
    f = CoeffSeq(np.array([1.0] + [0.0] * 200, dtype=complex))
    prof = block_profile(f, 2.0, 0.5, 6)
    assert np.all(prof.scaled_norms == 0.0)
    assert classify_membership(prof) == LITTLE_LAMBDA


def test_log_series_profile_is_flat():
    f = CoeffSeq.log_one_over_one_minus_z(8191)
    prof = block_profile(f, 2.0, 0.5, 12)
    # exact block sums: scaled^2 = N * sum_{n=N}^{2N-1} n^{-2}
    for N, s in prof.entries:
        exact = np.sqrt(N * np.sum(np.arange(N, 2 * N, dtype=float) ** -2))
        assert abs(s - exact) < 1e-10
        if N >= 64:
            # preasymptotic entries start higher (0.85 at N=2)
            assert 0.70 <= s <= 0.72
    assert classify_membership(prof) == BIG_LAMBDA


def test_sqrt_decay_profile_grows():
    f = power_series(0.5, 8191)
    prof = block_profile(f, 2.0, 0.5, 12)
    # scaled^2 = N * sum 1/n over the block ~ N log 2
    assert abs(prof.slope - 0.5) < 0.02
    assert classify_membership(prof) == NEITHER


def test_fast_decay_is_little_oh():
    f = power_series(1.5, 8191)
    prof = block_profile(f, 2.0, 0.5, 12)
    assert classify_membership(prof) == LITTLE_LAMBDA


def test_strict_degree_guard():
    f = CoeffSeq(np.ones(100, dtype=complex))
    with pytest.raises(DegreeTooSmall):
        block_profile(f, 2.0, 0.5, 7)
    # 2^(6+1)-1 = 127 still exceeds degree 99
    with pytest.raises(DegreeTooSmall):
        block_profile(f, 2.0, 0.5, 6)


def test_fit_K_takes_the_largest_block_count_that_fits():
    for degree in range(127, 20000):
        K = fit_K(degree, 99)
        assert 2 ** (K + 1) - 1 <= degree < 2 ** (K + 2) - 1
        assert fit_K(degree, 6) == 6
    # degree 2^13 - 2 fits K = 11, not 12
    block_profile(CoeffSeq.log_one_over_one_minus_z(8190), 2.0, 0.5, fit_K(8190, 12))


def test_theorem_forms_agree_within_factor():
    # sup N^a ||block f|| vs sup N^{a-1} ||block f'|| vs beta_sup: all three
    # must land within a modest common factor for a flat example
    f = CoeffSeq.log_one_over_one_minus_z(8191)
    a = block_profile(f, 2.0, 0.5, 11).scaled_norms.max()
    b = block_profile(derivative(f), 2.0, -0.5, 11).scaled_norms.max()
    c = beta_sup(f, 2.0, 0.5)
    vals = np.array([a, b, c])
    assert vals.max() / vals.min() < 5.0


def test_riesz_projection_surrogate_bounded():
    from rhalylab.coeffcore import partial_sum

    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        f = CoeffSeq(rng.standard_normal(129) + 1j * rng.standard_normal(129))
        for p in (1.5, 2.0, 3.0):
            denom = hp_norm(f, p).value
            for N in (4, 16, 64):
                worst = max(worst, hp_norm(partial_sum(f, N), p).value / denom)
    assert worst < 10.0


def test_partial_sum_convergence_for_fast_decay():
    f = power_series(1.5, 4096)
    vals = partial_sum_convergence(f, 2.0, 0.5, (8, 32, 128, 512))
    assert np.all(np.diff(vals) < 0)


def test_partial_sum_negative_control():
    f = CoeffSeq.log_one_over_one_minus_z(4096)
    vals = partial_sum_convergence(f, 2.0, 0.5, (8, 32, 128, 512))
    assert vals[-1] > 0.5 * vals[0]


def test_partial_sum_convergence_constant():
    f = CoeffSeq(np.array([3.0 + 0j]))
    vals = partial_sum_convergence(f, 2.0, 0.5, (2, 4))
    assert np.all(vals == 0.0)


def test_dilation_approximation_improves():
    # f - f_r, with f_r(z) = f(rz)
    f = power_series(1.5, 2048)
    n = np.arange(f.degree + 1)
    vals = [
        beta_sup(CoeffSeq(f.coeffs - f.coeffs * r**n), 2.0, 0.5) for r in (0.9, 0.99, 0.999)
    ]
    assert vals[2] < vals[1] < vals[0]


def test_profile_csv_and_sidecar():
    f = CoeffSeq.log_one_over_one_minus_z(255)
    prof = block_profile(f, 2.0, 0.5, 6)
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "N,scaled_norm"
    assert len(csv.splitlines()) == 7

    side = prof.sidecar_json("BigLambda")
    assert side["verdict"] == "BigLambda"
    assert "slope" in side and "tail_ratio" in side


def test_nesting_across_exponents():
    # flat at (q, 1/q) stays flat at (p, 1/p) for p > q
    f = CoeffSeq.log_one_over_one_minus_z(8191)
    for q, p in ((1.5, 2.0), (2.0, 3.0)):
        vq = classify_membership(block_profile(f, q, 1.0 / q, 11))
        vp = classify_membership(block_profile(f, p, 1.0 / p, 11))
        assert vq == BIG_LAMBDA
        assert vp == BIG_LAMBDA
