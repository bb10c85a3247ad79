"""Extremal test functions and sign constructions.

Contains the concentrated rational test family f_N and its Bergman rescaling,
the polygonal Lipschitz profiles built from its partial-sum averages, the
kernel bound |(1 - e^{i theta})^2 W_n| <= 14 L(Psi), Rademacher sign machinery
with empirical Khinchine constants, and the sign series whose dyadic
derivative blocks carry Rudin-Shapiro signs, so that each block's H^p norm,
1 <= p < 2, is provably at least 2^{-(2-p)/(2p)} 2^{k/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffcore import CoeffSeq
from .errors import AlphaRange, ShapeMismatch, TruncationTooSmall
from .norms import _require_exponent
from .rhalyop import SequenceSpec

GEOMETRIC_TAIL_TOL = 1e-10


# --- the f_N family and its block averages -------------------------------


def extremal_fn(p: float, N: int) -> CoeffSeq:
    """f_N: coefficient n is n (1-1/N)^n / N^{2-1/p}; concentrated near n=N.

    Truncated at degree 40N, where the geometric tail is negligible for
    N <= 5431; past that the tail guard raises TruncationTooSmall.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    truncation = 40 * N
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
    """alpha_{k,N} and beta_{k,N} for k = k_lo .. k_hi (vectorized), p in
    [1, inf); :func:`hardy_psi` and :func:`bergman_psi` are built on them."""
    _require_exponent("p", p)
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


# --- Bergman rescaling -----------------------------------------------------


def bergman_gn(p: float, alpha: float, N: int) -> CoeffSeq:
    """g_N = N^{(alpha+1)/p} f_N, normalized for the A^p_alpha scale."""
    if not -1.0 < alpha < 2.0 * p - 2.0:
        raise AlphaRange(f"alpha={alpha} outside (-1, 2p-2) for p={p}")
    f = extremal_fn(p, N)
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

#: sign moments enumerate all 2^L patterns up to this length L, and above it
#: average KHINCHINE_MC_BUDGET draws seeded with KHINCHINE_SEED
KHINCHINE_EXACT_LIMIT = 20
KHINCHINE_MC_BUDGET = 20000
KHINCHINE_SEED = 0

#: phase rotations c_j -> c_j e^{i j theta} a Khinchine report scans
KHINCHINE_ROTATIONS = 16


@dataclass(frozen=True)
class RademacherReport:
    lower_const: float
    upper_const: float
    exact: bool


def _all_sign_vectors(length: int) -> np.ndarray:
    """All 2^length sign patterns as a (2^length, length) array of +-1."""
    idx = np.arange(2**length, dtype=np.uint32)
    # one int8 column at a time: a (2^length, length) index array would be
    # eight times the table
    signs = np.empty((len(idx), length), dtype=np.int8)
    for j in range(length):
        signs[:, j] = (idx >> j) & 1
    signs *= 2
    signs -= 1
    return signs


def _sign_chunks(length: int, rows: int):
    """The sign set of :func:`_sign_moments` as int8 chunks of at most `rows`
    rows: every pattern when length <= KHINCHINE_EXACT_LIMIT, else
    KHINCHINE_MC_BUDGET seeded draws. Each chunk is drawn and cast to int8 on
    its own; the chunks continue one stream, so together they equal one
    (KHINCHINE_MC_BUDGET, length) draw.
    """
    if length <= KHINCHINE_EXACT_LIMIT:
        table = _all_sign_vectors(length)
        for lo in range(0, len(table), rows):
            yield table[lo : lo + rows]
        return
    rng = np.random.default_rng(KHINCHINE_SEED)
    budget = KHINCHINE_MC_BUDGET
    for lo in range(0, budget, rows):
        signs = rng.integers(0, 2, size=(min(rows, budget - lo), length)).astype(np.int8)
        signs *= 2
        signs -= 1
        yield signs


def _sign_moments(C: np.ndarray, p: float) -> tuple[np.ndarray, bool]:
    """Normalized p-th sign moments of each column of the L x R amplitudes C.

    One sign set (:func:`_sign_chunks`) serves all R columns through the
    product signs @ C. p must lie in [1, inf), as for every norm.
    """
    _require_exponent("p", p)
    length = C.shape[0]
    # chunks of sign rows keep the complex product near 16 MB for any length
    rows = max(1, (1 << 20) // length)
    total = np.zeros(C.shape[1])
    count = 0
    for signs in _sign_chunks(length, rows):
        # rows of the R x rows product are contiguous, so np.sum is pairwise
        total += np.sum(np.abs(C.T @ signs.T) ** p, axis=1)
        count += len(signs)
    denoms = np.sum(np.abs(C) ** 2, axis=0) ** (p / 2.0)
    return total / count / denoms, length <= KHINCHINE_EXACT_LIMIT


def khinchine_ratio(c: np.ndarray, p: float) -> tuple[float, bool]:
    """E_t |sum c_j r_j(t)|^p normalized by (sum |c_j|^2)^{p/2}.

    The t-integral is the average over independent uniform signs, computed
    by exhaustive enumeration when 2^{m+1} is affordable and by seeded
    Monte Carlo otherwise.
    """
    C = np.asarray(c, dtype=complex)[:, None]
    ratios, exact = _sign_moments(C, p)
    return float(ratios[0]), exact


def khinchine_report(c, p: float) -> RademacherReport:
    """Empirical two-sided Khinchine constants for the given amplitudes.

    The normalized p-th moment is scanned over the phase rotations
    c_j -> c_j e^{i j theta}; its min and max bracket the constants that
    Khinchine's inequality guarantees exist. Every rotation uses the same
    signs, so the moments of all KHINCHINE_ROTATIONS rotations come from one
    product.
    """
    c = np.asarray(c, dtype=complex)
    thetas = 2.0 * np.pi * np.arange(KHINCHINE_ROTATIONS) / KHINCHINE_ROTATIONS
    C = c[:, None] * np.exp(1j * np.arange(len(c))[:, None] * thetas[None, :])
    ratios, exact = _sign_moments(C, p)
    return RademacherReport(
        lower_const=float(ratios.min()),
        upper_const=float(ratios.max()),
        exact=exact,
    )


# --- the sign-series counterexample ---------------------------------------


@dataclass(frozen=True)
class UpsilonResult:
    seq: CoeffSeq
    achieved: tuple  # per-block H^p norm of the signed derivative block
    signs: tuple  # per-block sign tuples
    p: float

    def sequence_spec(self) -> SequenceSpec:
        """The weight sequence with |eta_n| = 1/n realized by this series."""
        base = SequenceSpec.literal(np.abs(self.seq.coeffs))
        # 1 + sum_{k<K} 2^k = 2^K signs, one per coefficient
        return SequenceSpec.signed(base, [1, *(s for block in self.signs for s in block)])

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "achieved": list(self.achieved),
            "signs": [list(s) for s in self.signs],
        }


def construct_upsilon(
    p: float,
    K: int,
    *,
    seed: int | None = None,
    budget_per_block: int = 0,
    exhaustive_limit: int = 0,
) -> UpsilonResult:
    """Signed version of log 1/(1-z) whose dyadic derivative blocks are large.

    Block k (coefficients 2^k .. 2^{k+1}-1, magnitudes 1/n) takes its signs
    from the Rudin-Shapiro polynomial P_k: P_0 = Q_0 = 1,
    P_{k+1} = P_k + z^{2^k} Q_k and Q_{k+1} = P_k - z^{2^k} Q_k. On the
    circle |P_k|^2 + |Q_k|^2 = 2N with N = 2^k, so |P_k| <= sqrt(2N).
    With Parseval, ||P_k||_2^2 = N, Hoelder's ||P||_2^2 <= ||P||_inf^{2-p}
    ||P||_p^p gives ||P_k||_{H^p} >= 2^{-(2-p)/(2p)} sqrt(N) for
    1 <= p < 2, with no search and no seed. Block k's signs are a prefix of
    block k+1's. `achieved` is the trapezoid H^p norm of each sign block on
    M = max(64, 8N) angles; the bound holds there exactly, because discrete
    Parseval holds for M >= N and the sup bound at every point.

    The keyword-only seed, budget_per_block and exhaustive_limit are ignored;
    they exist only for the perfbench workload and tracer, which still pass
    or read them.
    """
    if not 1.0 <= p < 2.0:
        raise ValueError("the construction targets 1 <= p < 2")
    if not 1 <= K <= 14:
        raise ValueError("K must lie in 1..14")
    P = Q = np.ones(1, dtype=np.int8)
    coeffs = np.zeros(2**K, dtype=complex)
    achieved = []
    all_signs = []
    for k in range(K):
        N = 2**k
        M = max(64, 8 * N)
        vals = np.fft.ifft(P.astype(float), n=M) * M
        achieved.append(float(np.mean(np.abs(vals) ** p) ** (1.0 / p)))
        coeffs[N : 2 * N] = P / np.arange(N, 2 * N)
        all_signs.append(tuple(int(s) for s in P))
        P, Q = np.concatenate([P, Q]), np.concatenate([P, -Q])
    return UpsilonResult(
        seq=CoeffSeq(coeffs),
        achieved=tuple(achieved),
        signs=tuple(all_signs),
        p=p,
    )
