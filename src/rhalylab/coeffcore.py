"""Truncated power series and the coefficient-level algebra built on them.

A :class:`CoeffSeq` holds the Taylor coefficients a_0 .. a_d of an analytic
function truncated at degree d. All operations are pure; coefficient arrays
are frozen after construction. Coefficient reads beyond the stored degree
are treated as 0, matching the truncated-series semantics used everywhere
else in the package. The algebra is what the package uses: the derivative,
the coefficientwise product, the partial sums S_N f, and the remainder
f - S_N f (:func:`zero_head`).

:func:`prefix_sums` is the kernel behind every application of a Rhaly
operator, f -> (eta_n sum_{k<=n} a_k)_n. It is vectorized and compensated:
plain running sums from ``np.cumsum`` plus the exact TwoSum error of each
step, summed and added back (Sum2 of Ogita, Rump and Oishi), in fixed-size
chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOrder, MalformedSpec, OversamplingViolation

#: coefficients per chunk of the compensated prefix-sum kernel
_PREFIX_CHUNK = 1 << 13


@dataclass(frozen=True)
class CoeffSeq:
    """Immutable complex coefficient vector; index n holds a_n."""

    coeffs: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array is never aliased
        object.__setattr__(self, "coeffs", _frozen(np.array(self.coeffs, dtype=complex)))

    @classmethod
    def _owning(cls, arr: np.ndarray) -> "CoeffSeq":
        """Wrap a fresh complex array without copying it. The caller hands the
        array over and keeps no reference it writes through."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", _frozen(np.asarray(arr, dtype=complex)))
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        """a_n, with out-of-range reads returning 0."""
        if n < 0 or n > self.degree:
            return 0j
        return complex(self.coeffs[n])

    def __eq__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return self.degree == other.degree and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def to_json(self) -> dict:
        return {"coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "CoeffSeq":
        pairs = data.get("coeffs") if isinstance(data, dict) else None
        if not isinstance(pairs, list) or not all(
            isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_number, v)) for v in pairs
        ):
            raise MalformedSpec('a series is {"coeffs": [[re, im], ...]}')
        return cls(np.array([complex(re, im) for re, im in pairs]))

    @classmethod
    def log_one_over_one_minus_z(cls, degree: int) -> "CoeffSeq":
        """Truncation of log 1/(1-z) = sum_{n>=1} z^n / n."""
        c = np.zeros(degree + 1, dtype=complex)
        if degree >= 1:
            c[1:] = 1.0 / np.arange(1, degree + 1)
        return cls(c)


def is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Check a coefficient array and make it read-only, in place."""
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CircleGrid:
    """M equispaced angles theta_j = 2 pi j / M on the circle of radius r."""

    points: int
    radius: float = 1.0

    def __post_init__(self):
        if self.points < 4:
            raise ValueError("need at least 4 grid points")
        if not 0.0 < self.radius <= 1.0:
            raise ValueError("radius must lie in (0, 1]")

    def check_oversampling(self, degree: int):
        if self.points < 4 * (degree + 1):
            raise OversamplingViolation(
                f"M={self.points} < 4*(degree+1)={4 * (degree + 1)}"
            )


def hadamard(f: CoeffSeq, g: CoeffSeq) -> CoeffSeq:
    """Coefficientwise product; degree is the min of the two degrees."""
    d = min(f.degree, g.degree)
    return CoeffSeq(f.coeffs[: d + 1] * g.coeffs[: d + 1])


def derivative(f: CoeffSeq) -> CoeffSeq:
    """Termwise derivative; a degree-0 input yields the zero series."""
    if f.degree == 0:
        return CoeffSeq(np.zeros(1, dtype=complex))
    n = np.arange(1, f.degree + 1)
    return CoeffSeq._owning(n * f.coeffs[1:])


def prefix_sums(f: CoeffSeq) -> CoeffSeq:
    """Running sums sum_{k<=n} a_k, compensated by error-free transformations.

    This is Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot product",
    SISC 2005) applied to every prefix at once. The plain running sums
    S_n = fl(S_{n-1} + a_n) come from ``np.cumsum``, which accumulates
    strictly in order; the rounding error of each step is then recovered
    exactly by TwoSum from (S_{n-1}, a_n, S_n), and the running sum of those
    errors is added back. Each prefix s satisfies
    |result - s| <= u|s| + gamma_{n-1}^2 sum|a_k| on the real and imaginary
    parts alike: as accurate as summing in twice the working precision and
    rounding once, so cancelling terms cost no accuracy beyond gamma^2.
    The work runs in fixed-size chunks, carrying (S, sum of errors) across
    chunk boundaries, so temporaries stay bounded at any length. The two
    chunk buffers are allocated once per call, and every step writes into
    them: S_{n-1} is read as the slice of S shifted by one, with the carried
    sum in front.
    """
    a = f.coeffs
    out = np.empty_like(a)
    width = min(len(a), _PREFIX_CHUNK)
    zbuf, ebuf = np.empty(width, dtype=a.dtype), np.empty(width, dtype=a.dtype)
    run = comp = 0j
    for lo in range(0, len(a), _PREFIX_CHUNK):
        x = a[lo : lo + _PREFIX_CHUNK]
        s, z, e = out[lo : lo + len(x)], zbuf[: len(x)], ebuf[: len(x)]
        # continue the sequential sum across the chunk boundary
        s[:] = x
        s[0] += run
        np.cumsum(s, out=s)
        # TwoSum: S_{n-1} + a_n = S_n + e_n exactly, with z = S_n - S_{n-1}
        # and e = (S_{n-1} - (S_n - z)) + (a_n - z)
        z[0] = s[0] - run
        np.subtract(s[1:], s[:-1], out=z[1:])
        np.subtract(s, z, out=e)
        e[0] = run - e[0]
        np.subtract(s[:-1], e[1:], out=e[1:])
        np.subtract(x, z, out=z)
        e += z
        e[0] += comp
        np.cumsum(e, out=e)
        run, comp = s[-1], e[-1]
        s += e
    return CoeffSeq._owning(out)


def evaluate_on_circle(f: CoeffSeq, grid: CircleGrid) -> np.ndarray:
    """Samples f(r e^{i theta_j}) via an FFT of the radially damped coefficients."""
    grid.check_oversampling(f.degree)
    damped = f.coeffs * grid.radius ** np.arange(f.degree + 1)
    padded = np.zeros(grid.points, dtype=complex)
    padded[: f.degree + 1] = damped
    # ifft uses the e^{+i n theta} convention needed here
    return np.fft.ifft(padded) * grid.points


def partial_sum(f: CoeffSeq, N: int) -> CoeffSeq:
    """S_N f: coefficients 0 .. N kept in place, the rest zeroed, the degree
    kept. N at or past the degree gives f."""
    if N < 0:
        raise IndexOrder(f"partial sum index {N} must be >= 0")
    out = f.coeffs.copy()
    out[N + 1 :] = 0
    return CoeffSeq._owning(out)


def zero_head(f: CoeffSeq, N: int) -> CoeffSeq:
    """f - S_N f: coefficients 0..N zeroed, the degree kept. N at or past
    the degree gives the zero series."""
    out = f.coeffs.copy()
    out[: N + 1] = 0
    return CoeffSeq._owning(out)
