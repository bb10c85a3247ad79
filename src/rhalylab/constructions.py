"""Extremal test functions and sign constructions.

Contains the concentrated rational test family f_N and its Bergman rescaling,
the polygonal Lipschitz profiles built from its partial-sum averages, the
kernel bound |(1 - e^{i theta})^2 W_n| <= 14 L(Psi), Rademacher sign machinery
with empirical Khinchine constants, and the best-of-search sign series whose
dyadic derivative blocks grow like 2^{k/2}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coeffcore import CoeffSeq
from .errors import (
    AlphaRange,
    BlockBudgetExhausted,
    ShapeMismatch,
    TruncationTooSmall,
)
from .rhalyop import SequenceSpec

GEOMETRIC_TAIL_TOL = 1e-10


# --- the f_N family and its block averages -------------------------------


def default_truncation(N: int) -> int:
    """Truncation at which the geometric tail of f_N is negligible."""
    return 40 * N


def extremal_fn(p: float, N: int, truncation: int | None = None) -> CoeffSeq:
    """f_N: coefficient n is n (1-1/N)^n / N^{2-1/p}; concentrated near n=N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if truncation is None:
        truncation = default_truncation(N)
    if truncation < 8 * N:
        raise TruncationTooSmall(f"truncation {truncation} < 8N = {8 * N}")
    aN = 1.0 - 1.0 / N
    n = np.arange(truncation + 1, dtype=float)
    coeffs = n * aN**n / N ** (2.0 - 1.0 / p)
    peak = coeffs.max()
    if aN**truncation * truncation**2 > GEOMETRIC_TAIL_TOL * peak * N ** (
        2.0 - 1.0 / p
    ):
        raise TruncationTooSmall(
            f"geometric tail at truncation {truncation} not negligible for N={N}"
        )
    return CoeffSeq(coeffs.astype(complex))


def alpha_beta_range(p: float, N: int, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_{k,N} and beta_{k,N} for k = k_lo .. k_hi (vectorized)."""
    if k_lo < 1 or k_hi < k_lo:
        raise ValueError("need 1 <= k_lo <= k_hi")
    aN = 1.0 - 1.0 / N
    n = np.arange(1, k_hi + 1, dtype=float)
    partial = np.cumsum(n * aN**n)
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    alphas = partial[k_lo - 1 :] / (ks * N ** (2.0 - 1.0 / p))
    return alphas, 1.0 / alphas


# --- polygonal Lipschitz profiles ----------------------------------------


@dataclass(frozen=True)
class PolygonalProfile:
    """Piecewise-linear profile supported on [0, 4], zero at both ends."""

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.knots_x, dtype=float)
        y = np.asarray(self.knots_y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
            raise ValueError("knots must be matching 1-d arrays, length >= 2")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knot abscissae must be strictly increasing")
        if y[0] != 0.0 or y[-1] != 0.0:
            raise ValueError("profile must vanish at its endpoints")
        object.__setattr__(self, "knots_x", x)
        object.__setattr__(self, "knots_y", y)

    @property
    def lipschitz_constant(self) -> float:
        slopes = np.diff(self.knots_y) / np.diff(self.knots_x)
        return float(np.max(np.abs(slopes)))

    def __call__(self, x) -> np.ndarray:
        # endpoints are zero, so clamping extends by zero
        return np.interp(x, self.knots_x, self.knots_y)

    def scaled(self, factor: float) -> "PolygonalProfile":
        return PolygonalProfile(self.knots_x, factor * self.knots_y)

    @classmethod
    def tent(cls) -> "PolygonalProfile":
        return cls(np.array([0.0, 2.0, 4.0]), np.array([0.0, 2.0, 0.0]))


def polygonal_psi(values, N: int) -> PolygonalProfile:
    """Profile with vertices (0,0), (k/N, value_k) for k=N..2N, (4,0)."""
    values = np.asarray(values, dtype=float)
    if len(values) != N + 1:
        raise ShapeMismatch(f"need N+1={N + 1} values, got {len(values)}")
    x = np.concatenate([[0.0], np.arange(N, 2 * N + 1) / N, [4.0]])
    y = np.concatenate([[0.0], values, [0.0]])
    return PolygonalProfile(x, y)


def hardy_psi(p: float, N: int) -> PolygonalProfile:
    """Polygonal profile through the beta_{k,N} averages, k=N..2N."""
    _, betas = alpha_beta_range(p, N, N, 2 * N)
    return polygonal_psi(betas, N)


def bergman_psi(p: float, alpha: float, N: int) -> PolygonalProfile:
    """Polygonal profile through the delta_{k,N} averages, k=N..2N."""
    alphas, _ = alpha_beta_range(p, N, N, 2 * N)
    gammas = N ** ((1.0 + alpha) / p) * alphas
    return polygonal_psi(1.0 / gammas, N)


def w_kernel(psi: PolygonalProfile, n: int, theta_grid: int) -> float:
    """sup over the theta grid (theta=0 excluded) of
    |(1 - e^{i theta})^2 W_n(e^{i theta})| / L(Psi).

    Returns 0 for an identically zero profile.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if theta_grid < 16 * n:
        raise ValueError(f"theta grid {theta_grid} below 16n = {16 * n}")
    L = psi.lipschitz_constant
    if L == 0.0:
        return 0.0
    k = np.arange(4 * n + 1)
    coeffs = psi(k / n).astype(complex)
    W = np.fft.ifft(coeffs, n=theta_grid) * theta_grid
    theta = 2.0 * np.pi * np.arange(theta_grid) / theta_grid
    vals = np.abs((1.0 - np.exp(1j * theta)) ** 2 * W)
    return float(np.max(vals[1:]) / L)


def h_poly(psi: PolygonalProfile, N: int) -> CoeffSeq:
    """H_N(z) = sum_{k=0}^{4N} Psi(k/N) z^k."""
    if N < 2:
        raise ValueError("N must be >= 2")
    k = np.arange(4 * N + 1)
    return CoeffSeq(psi(k / N).astype(complex))


# --- Bergman rescaling -----------------------------------------------------


def bergman_gn(
    p: float, alpha: float, N: int, truncation: int | None = None
) -> CoeffSeq:
    """g_N = N^{(alpha+1)/p} f_N, normalized for the A^p_alpha scale."""
    if not -1.0 < alpha < 2.0 * p - 2.0:
        raise AlphaRange(f"alpha={alpha} outside (-1, 2p-2) for p={p}")
    f = extremal_fn(p, N, truncation)
    return CoeffSeq(N ** ((alpha + 1.0) / p) * f.coeffs)


# --- H^1 dual test pair ----------------------------------------------------


def phi_psi_n(N: int, a_N: float | None = None) -> tuple[CoeffSeq, CoeffSeq]:
    """The pair (phi_N, psi_N) with phi_N = z^N psi_N and
    psi_N coefficient n equal to 1 / sum_{k=1}^{n+N} k a_N^k."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if a_N is None:
        a_N = 1.0 - 1.0 / N
    k = np.arange(1, 2 * N, dtype=float)
    sums = np.cumsum(k * a_N**k)  # sums[m-1] = sum_{k=1}^{m} k a_N^k
    psi_coeffs = 1.0 / sums[N - 1 : 2 * N - 1]
    psi = CoeffSeq(psi_coeffs.astype(complex))
    phi = CoeffSeq(np.concatenate([np.zeros(N, dtype=complex), psi.coeffs]))
    return phi, psi


# --- Rademacher signs and Khinchine constants ------------------------------


@dataclass(frozen=True)
class RademacherReport:
    m: int
    p: float
    lower_const: float
    upper_const: float
    exact: bool


def _all_sign_vectors(length: int) -> np.ndarray:
    """All 2^length sign patterns as a (2^length, length) array of +-1."""
    idx = np.arange(2**length, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(length)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def khinchine_ratio(
    c: np.ndarray,
    p: float,
    exact_limit: int = 20,
    mc_budget: int = 20000,
    seed: int = 0,
) -> tuple[float, bool]:
    """E_t |sum c_j r_j(t)|^p normalized by (sum |c_j|^2)^{p/2}.

    The t-integral is the average over independent uniform signs, computed
    by exhaustive enumeration when 2^{m+1} is affordable and by seeded
    Monte Carlo otherwise.
    """
    c = np.asarray(c, dtype=complex)
    length = len(c)
    if length <= exact_limit:
        signs = _all_sign_vectors(length)
        exact = True
    else:
        rng = np.random.default_rng(seed)
        signs = (2 * rng.integers(0, 2, size=(mc_budget, length)) - 1).astype(np.int8)
        exact = False
    moment = float(np.mean(np.abs(signs @ c) ** p))
    denom = float(np.sum(np.abs(c) ** 2)) ** (p / 2.0)
    return moment / denom, exact


def khinchine_report(
    c,
    p: float,
    exact_limit: int = 20,
    mc_budget: int = 20000,
    seed: int = 0,
    n_theta: int = 16,
) -> RademacherReport:
    """Empirical two-sided Khinchine constants for the given amplitudes.

    The normalized p-th moment is scanned over the phase rotations
    c_j -> c_j e^{i j theta}; its min and max bracket the constants that
    Khinchine's inequality guarantees exist.
    """
    c = np.asarray(c, dtype=complex)
    ratios = []
    exact = True
    for j in range(n_theta):
        theta = 2.0 * np.pi * j / n_theta
        rotated = c * np.exp(1j * np.arange(len(c)) * theta)
        ratio, was_exact = khinchine_ratio(rotated, p, exact_limit, mc_budget, seed)
        exact = exact and was_exact
        ratios.append(ratio)
    return RademacherReport(
        m=len(c) - 1,
        p=p,
        lower_const=float(min(ratios)),
        upper_const=float(max(ratios)),
        exact=exact,
    )


# --- the sign-series counterexample ---------------------------------------


@dataclass(frozen=True)
class UpsilonResult:
    seq: CoeffSeq
    achieved: tuple  # per-block best H^p norm of the signed derivative block
    signs: tuple  # per-block sign tuples
    p: float
    seed: int

    def sequence_spec(self) -> SequenceSpec:
        """The weight sequence with |eta_n| = 1/n realized by this series."""
        base = SequenceSpec.literal(np.abs(self.seq.coeffs))
        flat = [1]
        for s in self.signs:
            flat.extend(s)
        flat = flat[: base.truncation + 1]
        while len(flat) < base.truncation + 1:
            flat.append(1)
        return SequenceSpec.signed(base, flat)

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "seed": self.seed,
                "achieved": list(self.achieved),
                "signs": [list(s) for s in self.signs],
            }
        )


def _best_sign_block(
    length: int, p: float, budget: int, exhaustive_limit: int, rng
) -> tuple[np.ndarray, float, float]:
    """Best-of-search signs maximizing ||sum_j eps_j z^j||_{H^p}.

    Returns (signs, best norm estimate on the search grid, mean norm^p over
    the candidates). Global sign flips leave the norm unchanged, so the
    first sign is pinned to +1 in exhaustive mode.
    """
    M = max(64, 8 * length)
    if length <= exhaustive_limit:
        if length == 1:
            cands = np.ones((1, 1), dtype=np.int8)
        else:
            tail = _all_sign_vectors(length - 1)
            cands = np.concatenate(
                [np.ones((len(tail), 1), dtype=np.int8), tail], axis=1
            )
    else:
        cands = (2 * rng.integers(0, 2, size=(budget, length)) - 1).astype(np.int8)
    best_val = -1.0
    best_signs = None
    mean_pow_total = 0.0
    chunk = max(1, (1 << 21) // M)
    for lo in range(0, len(cands), chunk):
        batch = cands[lo : lo + chunk].astype(float)
        vals = np.fft.ifft(batch, n=M, axis=1) * M
        norms = np.mean(np.abs(vals) ** p, axis=1) ** (1.0 / p)
        mean_pow_total += float(np.sum(norms**p))
        i = int(np.argmax(norms))
        if norms[i] > best_val:
            best_val = float(norms[i])
            best_signs = cands[lo + i].copy()
    mean_pow = mean_pow_total / len(cands)
    return best_signs, best_val, mean_pow


def construct_upsilon(
    p: float,
    K: int,
    budget_per_block: int = 4096,
    seed: int = 7,
    exhaustive_limit: int = 16,
) -> UpsilonResult:
    """Signed version of log 1/(1-z) whose dyadic derivative blocks are large.

    Block k (coefficients 2^k .. 2^{k+1}-1, magnitudes 1/n) gets the sign
    pattern maximizing the H^p norm of the signed derivative block; by the
    Khinchine averaging bound the best pattern reaches a constant multiple
    of 2^{k/2}.
    """
    if not 1.0 <= p < 2.0:
        raise ValueError("the construction targets 1 <= p < 2")
    if not 1 <= K <= 14:
        raise ValueError("K must lie in 1..14")
    rng = np.random.default_rng(seed)
    degree = 2**K - 1
    coeffs = np.zeros(degree + 1, dtype=complex)
    achieved = []
    all_signs = []
    for k in range(K):
        N = 2**k
        length = N
        signs, best, mean_pow = _best_sign_block(
            length, p, budget_per_block, exhaustive_limit, rng
        )
        if best < mean_pow ** (1.0 / p) - 1e-12:
            raise BlockBudgetExhausted(
                f"block {k}: best norm {best} below the sign-average "
                f"{mean_pow ** (1.0 / p)}"
            )
        n = np.arange(N, 2 * N)
        coeffs[n] = signs / n
        achieved.append(best)
        all_signs.append(tuple(int(s) for s in signs))
    return UpsilonResult(
        seq=CoeffSeq(coeffs),
        achieved=tuple(achieved),
        signs=tuple(all_signs),
        p=p,
        seed=seed,
    )
