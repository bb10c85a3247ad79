"""The Rhaly operator: application, generating function, moment sequences,
finite-rank truncations, and operator-norm estimation.

The operator never materializes its matrix: application is a weighted
prefix sum, the l2 adjoint is a weighted suffix sum, so an N x N section
costs O(N) per matrix-vector product and power iteration scales to large
sections.
"""

from __future__ import annotations

import collections
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .coeffcore import CoeffSeq, is_number, partial_sum, prefix_sums
from .errors import MalformedSpec, NotMonotone, TruncationMismatch
from .lipschitz import fit_tail_slope
# hp_norm is bound here only for the benchmark tracer's binding test; the
# estimates below take their H^p norms from hp_norms
from .norms import _UNIT_ROUNDOFF, REFINEMENT_FLAG, hp_norm, hp_norms


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite positive (or signed) atomic measure on [0, 1)."""

    atoms_t: np.ndarray
    atoms_mass: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.atoms_t, dtype=float)
        m = np.asarray(self.atoms_mass, dtype=float)
        if t.shape != m.shape or t.ndim != 1:
            raise ValueError("atom arrays must be 1-d and of equal length")
        if np.any(t < 0) or np.any(t >= 1):
            raise ValueError("atoms must lie in [0, 1)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("atom positions must be strictly increasing")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        object.__setattr__(self, "atoms_t", t)
        object.__setattr__(self, "atoms_mass", m)

    def tail_mass(self, r: float) -> float:
        """mu([r, 1))."""
        return float(np.sum(self.atoms_mass[self.atoms_t >= r]))

    @classmethod
    def from_json(cls, data: dict) -> "DiscreteMeasure":
        atoms = data.get("atoms") if isinstance(data, dict) else None
        if not isinstance(atoms, list) or not all(
            isinstance(a, dict) and is_number(a.get("t")) and is_number(a.get("mass"))
            for a in atoms
        ):
            raise MalformedSpec('a measure is {"atoms": [{"t": ..., "mass": ...}, ...]}')
        return cls(
            np.array([a["t"] for a in atoms]), np.array([a["mass"] for a in atoms])
        )

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"t": float(t), "mass": float(m)}
                for t, m in zip(self.atoms_t, self.atoms_mass)
            ]
        }


@dataclass(frozen=True)
class SequenceSpec:
    """Closed-form or explicit law for the weight sequence eta_n.

    kind is one of "literal", "power_law", "cesaro", "measure_moments",
    "signed". Power law means eta_n = c * (n+1)^{-s}.
    """

    kind: str
    truncation: int
    c: float = 1.0
    s: float = 0.0
    values_list: tuple = field(default=())
    measure: DiscreteMeasure | None = None
    base: "SequenceSpec | None" = None
    #: the +-1 signs of a "signed" spec, one int8 byte each
    signs: bytes = b""

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.kind not in (
            "literal",
            "power_law",
            "cesaro",
            "measure_moments",
            "signed",
        ):
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    # --- constructors -------------------------------------------------

    @classmethod
    def literal(cls, values, truncation: int | None = None) -> "SequenceSpec":
        vals = tuple(complex(v) for v in values)
        if truncation is None:
            truncation = len(vals) - 1
        return cls(kind="literal", truncation=truncation, values_list=vals)

    @classmethod
    def power_law(cls, c: float, s: float, truncation: int) -> "SequenceSpec":
        return cls(kind="power_law", truncation=truncation, c=c, s=s)

    @classmethod
    def cesaro(cls, truncation: int) -> "SequenceSpec":
        return cls(kind="cesaro", truncation=truncation)

    @classmethod
    def measure_moments(cls, mu: DiscreteMeasure, truncation: int) -> "SequenceSpec":
        return cls(kind="measure_moments", truncation=truncation, measure=mu)

    @classmethod
    def signed(cls, base: "SequenceSpec", signs) -> "SequenceSpec":
        signs = np.asarray(signs)
        if signs.shape != (base.truncation + 1,):
            raise ValueError("need one sign per realized entry")
        # the values themselves, not int(s): int(1.5) is 1
        if signs.dtype.kind not in "iuf" or not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +-1")
        return cls(
            kind="signed",
            truncation=base.truncation,
            base=base,
            signs=signs.astype(np.int8).tobytes(),
        )

    # --- realization --------------------------------------------------

    def values(self) -> np.ndarray:
        """eta_0 .. eta_truncation as a complex vector.

        The closed forms are written into the real part of the output, and
        the signs are applied to it in place, so realizing eta holds one
        float temporary besides the result.
        """
        if self.kind == "literal":
            if len(self.values_list) < self.truncation + 1:
                out = np.zeros(self.truncation + 1, dtype=complex)
                out[: len(self.values_list)] = self.values_list
                return out
            return np.array(self.values_list[: self.truncation + 1], dtype=complex)
        if self.kind == "power_law":
            x = np.arange(1.0, self.truncation + 2.0)
            # `**=` takes the fast paths `**` takes for some exponents, which
            # np.power does not, so this matches (n + 1) ** -s bit for bit
            x **= -self.s
            out = np.zeros(self.truncation + 1, dtype=complex)
            np.multiply(self.c, x, out=out.real)
            return out
        if self.kind == "cesaro":
            out = np.zeros(self.truncation + 1, dtype=complex)
            np.divide(1.0, np.arange(1.0, self.truncation + 2.0), out=out.real)
            return out
        if self.kind == "measure_moments":
            return _moments(self.measure, self.truncation).astype(complex)
        if self.kind == "signed":
            out = self.base.values()
            np.multiply(np.frombuffer(self.signs, dtype=np.int8), out, out=out)
            return out
        raise AssertionError("unreachable")

    def is_certified_decreasing(self) -> bool:
        """True when eta is certifiably nonnegative and nonincreasing."""
        if self.kind == "cesaro":
            return True
        if self.kind == "power_law":
            return self.c >= 0 and self.s >= 0
        if self.kind in ("literal", "measure_moments"):
            v = self.values()
            if np.any(np.abs(v.imag) > 0):
                return False
            re = v.real
            return bool(np.all(re >= 0) and np.all(np.diff(re) <= 1e-15))
        return False

    # --- serialization ------------------------------------------------

    def to_json(self) -> dict:
        data: dict = {"kind": self.kind, "truncation": self.truncation}
        if self.kind == "power_law":
            data.update(c=self.c, s=self.s)
        elif self.kind == "literal":
            data["values"] = [[v.real, v.imag] for v in self.values_list]
        elif self.kind == "measure_moments":
            data["measure"] = self.measure.to_json()
        elif self.kind == "signed":
            data["base"] = self.base.to_json()
            data["signs"] = np.frombuffer(self.signs, dtype=np.int8).tolist()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SequenceSpec":
        if not isinstance(data, dict) or "kind" not in data or "truncation" not in data:
            raise MalformedSpec('a sequence spec is {"kind": ..., "truncation": ..., ...}')
        kind, trunc = data["kind"], data["truncation"]
        if not isinstance(trunc, int) or isinstance(trunc, bool):
            raise MalformedSpec(f"truncation {trunc!r} is not an integer")
        if kind == "power_law":
            c, s = data["c"], data["s"]
            if not (is_number(c) and is_number(s)):
                raise MalformedSpec("power_law c and s must be numbers")
            return cls.power_law(float(c), float(s), trunc)
        if kind == "cesaro":
            return cls.cesaro(trunc)
        if kind == "literal":
            vals = data["values"]
            if not isinstance(vals, list) or not all(
                is_number(v)
                or isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_number, v))
                for v in vals
            ):
                raise MalformedSpec("literal values are numbers or [re, im] pairs")
            return cls.literal(
                [complex(*v) if isinstance(v, (list, tuple)) else complex(v) for v in vals],
                trunc,
            )
        if kind == "measure_moments":
            mu = DiscreteMeasure.from_json(data["measure"])
            return cls.measure_moments(mu, trunc)
        if kind == "signed":
            base = cls.from_json(data["base"])
            if base.truncation != trunc:
                raise MalformedSpec(
                    f"signed truncation {trunc} differs from its base's {base.truncation}"
                )
            return cls.signed(base, data["signs"])
        raise ValueError(f"unknown sequence kind {kind!r}")


#: atoms per matrix product in :func:`_moments`
_MOMENT_CHUNK = 32


def _moments(mu: DiscreteMeasure, T: int) -> np.ndarray:
    """sum_a m_a t_a^n for n = 0..T by direct powers, with no recurrence.

    Split n = B h + l with B = ceil(sqrt(T+1)) and 0 <= l < B, so that
    t^n = t^{Bh} t^l: the moments fill an H x B array, the product of the
    H x atoms table t^{Bh} m with the atoms x B table t^l. Both tables have
    about sqrt(T) rows, so no (T+1) x atoms array is built. The product runs
    over chunks of atoms, and the chunk results are added pairwise, which
    keeps the error near that of the direct pairwise sum, a few u times
    sum |m_a| t_a^n; one long dot product over 512 atoms reaches 8u to 13u.
    """
    t, m = mu.atoms_t, mu.atoms_mass
    B = math.isqrt(T) + 1
    H = -(-(T + 1) // B)
    k = max(1, -(-len(t) // _MOMENT_CHUNK))
    # padding atoms at 0 with mass 0 add exact zeros
    pad = k * _MOMENT_CHUNK - len(t)
    t, m = np.pad(t, (0, pad)), np.pad(m, (0, pad))
    hi = t[None, :] ** (B * np.arange(H))[:, None] * m[None, :]
    lo = t[:, None] ** np.arange(B)[None, :]
    # numpy's own loops, not BLAS: the first BLAS matrix product adds about
    # 2 MB of buffers to the resident set of a process that needs no other
    parts = np.einsum(
        "hkc,kcb->khb",
        hi.reshape(H, k, _MOMENT_CHUNK),
        lo.reshape(k, _MOMENT_CHUNK, B),
    )
    while len(parts) > 1:
        half = len(parts) // 2
        parts = np.concatenate([parts[:half] + parts[half : 2 * half], parts[2 * half :]])
    return parts[0].ravel()[: T + 1]


@dataclass(frozen=True)
class OpNormEstimate:
    lower: float
    method: str  # "PowerIteration" or "FamilySearch"
    witness: CoeffSeq
    iterations: int
    residual: float
    converged: bool = True
    #: worst refinement delta of the H^p norms behind ``lower``; 0.0 for the
    #: section norm, which takes none
    refinement_delta: float = 0.0
    upper: float | None = None  # rigorous, where one exists; None for FamilySearch

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "refinement_delta": self.refinement_delta,
            "witness": self.witness.to_json(),
        }


# --- operator application ---------------------------------------------


def apply_rhaly(eta: SequenceSpec, f: CoeffSeq) -> CoeffSeq:
    """Coefficient n of the image is eta_n * sum_{k<=n} a_k."""
    return _apply_realized(eta.values(), f)


def _apply_realized(ev: np.ndarray, f: CoeffSeq) -> CoeffSeq:
    """:func:`apply_rhaly` with eta already realized as ``ev = eta.values()``,
    so callers applying one operator many times realize it once."""
    return CoeffSeq._owning(_apply_array(ev, f))


def _apply_array(ev: np.ndarray, f: CoeffSeq) -> np.ndarray:
    """Coefficients of R f as a fresh, writable array.

    The prefix sums are multiplied by eta in place: their CoeffSeq is
    dropped here, so its array can be reused, and an application at degree
    d holds no complex array of length d + 1 besides its input, eta and
    its result.
    """
    if f.degree >= len(ev):
        raise TruncationMismatch(
            f"degree {f.degree} exceeds sequence truncation {len(ev) - 1}"
        )
    s = prefix_sums(f).coeffs
    s.flags.writeable = True
    np.multiply(ev[: f.degree + 1], s, out=s)
    return s


def generating_function(eta: SequenceSpec) -> CoeffSeq:
    """F(z) = sum eta_n z^n, i.e. the image of the constant 1."""
    return CoeffSeq._owning(eta.values())


def carleson_check(mu: DiscreteMeasure, radii) -> tuple[float, bool]:
    """Max of mu([r,1))/(1-r) over the radii plus a boundedness flag.

    The flag is false when the ratio sequence trends upward over the tail
    of the supplied (increasing) radii, i.e. the measure is not Carleson
    at the resolved scales.
    """
    radii = np.asarray(radii, dtype=float)
    ratios = np.array([mu.tail_mass(r) / (1.0 - r) for r in radii])
    constant = float(ratios.max()) if len(ratios) else 0.0
    # fewer than four radii resolve no trend
    trend = fit_tail_slope(1.0 / (1.0 - radii), ratios) if len(radii) >= 4 else 0.0
    return constant, trend < 0.25


class TruncatedRhaly:
    """Finite-rank truncation R_N: apply the operator, keep coefficients 0..N.

    eta is realized once, at construction, and shared by every application.
    """

    def __init__(self, eta: SequenceSpec, N: int):
        if N > eta.truncation:
            raise TruncationMismatch(f"N={N} exceeds truncation {eta.truncation}")
        self.eta = eta
        self.N = N
        self._ev = eta.values()

    def __call__(self, f: CoeffSeq) -> CoeffSeq:
        return partial_sum(_apply_realized(self._ev, f), self.N)

    def tail(self, f: CoeffSeq) -> CoeffSeq:
        """(R - R_N) f, the operator realized by zeroing eta_0..eta_N."""
        out = _apply_array(self._ev, f)
        out[: self.N + 1] = 0
        return CoeffSeq._owning(out)


# --- l2 operator norm via matrix-free power iteration -------------------


# R_N = diag(eta) L, L the all-ones lower triangle, so ||R_N||^2 is the top
# eigenvalue of A = R_N^* R_N = L^T diag(|eta|^2) L, whose entries
# A_jk = sum_{n >= max(j, k)} |eta_n|^2 are >= 0 whatever the signs and
# phases of eta. If eta_m is its last nonzero entry, A is positive on
# 0..m and zero elsewhere, so by Perron-Frobenius (Horn and Johnson,
# *Matrix Analysis*, 2nd ed., ch. 8) its top eigenvector is positive on
# 0..m: power iteration from the all-ones vector cannot miss the top, and
# needs no restart. Its iterates v are >= 0, positive exactly on 0..m, and
# max_i (A v)_i / v_i over those i (Collatz-Wielandt) bounds the top
# eigenvalue from above, as v.Av / v.v does from below.
# The passes use plain np.cumsum, not the compensated prefix_sums kernel:
# the iteration does not accumulate matvec rounding, and every sum has
# nonnegative terms. On Cesaro sections, the compensated kernel left the
# iteration counts unchanged and moved the norm by at most 7e-16, while
# running about 3x slower (6.9 -> 20.5 ms at N=4096, 147 -> 423 ms at
# N=65536, one core of a 2-core Xeon).
def _section_rmatvec(conj_eta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The adjoint section applied to v, from conj(eta)."""
    return np.cumsum((conj_eta * v)[::-1])[::-1]


#: power-iteration budget, and the relative Rayleigh-quotient change at which
#: :func:`opnorm_h2` stops
_POWER_MAX_ITER = 10000
_POWER_TOL = 1e-13


def opnorm_h2(eta: SequenceSpec, N: int, seed: int = 0) -> OpNormEstimate:
    """||R_N||, the norm of the N x N lower-triangular section, bracketed.

    One float64 power iteration on A = R_N^* R_N from the all-ones vector
    (see the comment above); A v, the suffix sums of |eta_n|^2 times the
    prefix sums of v, costs O(N). It stops when the Rayleigh quotient moves
    by less than ``_POWER_TOL`` relative, or after ``_POWER_MAX_ITER``
    steps. Every eta takes this path, and the witness v, the last iterate,
    is real and >= 0. ``seed`` is accepted and ignored: nothing is drawn.

    ``lower`` is (v.Av / v.v)^{1/2}, and ``upper`` the square root of the
    largest (A v)_i / v_i over v_i > 0 times 1 + (2N + 3)u, u = 2^-53
    (infinite if some (A v)_i > 0 has v_i = 0). eta is first scaled by a
    power of two, which rounds nothing, to a largest modulus in [1/2, 1).
    To first order in u, |eta_n|^2 is within 2u, and each (A v)_i, a sum of
    nonnegative terms through N - 1 additions, one product and N - 1 more
    additions, within (2N + 1)u. The quotient adds u, the square root
    halves the (2N + 2)u and adds u, and the allowance's product adds u:
    (N + 3)u. The stated (2N + 3)u, at least (2N + 2)u once 1 + (2N + 3)u
    is rounded, covers that and the second-order terms, barring underflow.
    ``converged`` needs a stall within the budget and
    upper - lower <= REFINEMENT_FLAG * lower.
    """
    if N > eta.truncation + 1:
        raise TruncationMismatch(f"N={N} exceeds truncation+1 {eta.truncation + 1}")
    ev = eta.values()[:N]
    v = np.full(N, 1.0 / math.sqrt(N))
    top = float(np.max(np.abs(ev)))
    if top == 0.0:
        return OpNormEstimate(0.0, "PowerIteration", CoeffSeq(v), 0, 0.0, upper=0.0)
    e = math.frexp(top)[1]
    w = np.ldexp(ev.real, -e) ** 2 + np.ldexp(ev.imag, -e) ** 2
    rho_prev, stalled = -1.0, False
    for iters in range(1, _POWER_MAX_ITER + 1):
        u = _section_rmatvec(w, np.cumsum(v))
        rho = float(np.dot(v, u))
        v = u / math.sqrt(np.dot(u, u))
        if abs(rho - rho_prev) < _POWER_TOL * rho:
            stalled = True
            break
        rho_prev = rho
    u = _section_rmatvec(w, np.cumsum(v))
    lower = math.ldexp(math.sqrt(np.dot(v, u) / np.dot(v, v)), e)
    pos = v > 0
    cw = math.inf if np.any(u[~pos]) else float(np.max(u[pos] / v[pos]))
    upper = math.ldexp(math.sqrt(cw) * (1.0 + (2 * N + 3) * _UNIT_ROUNDOFF), e)
    return OpNormEstimate(
        lower=lower,
        method="PowerIteration",
        witness=CoeffSeq(v),
        iterations=iters,
        residual=float(np.linalg.norm(u - rho * v) / rho),
        converged=stalled and upper - lower <= REFINEMENT_FLAG * lower,
        upper=upper,
    )


# --- lower bounds on H^p via candidate families --------------------------


#: candidates :func:`opnorm_lower_hp` tries
_FAMILY_BUDGET = 64


def _family_candidates(eta: SequenceSpec, family: str, seed: int) -> Iterator[CoeffSeq]:
    """The candidates of one family, made one at a time, all of one degree."""
    T = eta.truncation
    if family == "CoordinateDisks":
        # geometric kernels (1 - a z)^{-1} on a ladder accumulating at 1,
        # plus a few coordinate monomials
        n = np.arange(T + 1)
        js = np.linspace(0.5, 14.0, _FAMILY_BUDGET - 4)
        for j in js:
            a = 1.0 - 2.0 ** (-j)
            yield CoeffSeq((a**n).astype(complex))
        for k in (0, 1, 2, 8):
            e = np.zeros(T + 1, dtype=complex)
            e[min(k, T)] = 1.0
            yield CoeffSeq(e)
    elif family == "RandomPoly":
        rng = np.random.default_rng(seed)
        # 2^8 coefficients: the grids of 8 and 16 points per coefficient are
        # then powers of two, which numpy transforms without Bluestein's
        # algorithm
        deg = min(255, T)
        for _ in range(_FAMILY_BUDGET):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            yield CoeffSeq(c)
    else:
        raise ValueError(f"unknown candidate family {family!r}")


def opnorm_lower_hp(
    eta: SequenceSpec,
    p: float,
    family: str = "CoordinateDisks",
    seed: int = 0,
) -> OpNormEstimate:
    """Lower-bound estimate: max over candidates of ||R f||_{H^p} / ||f||_{H^p}.

    The value is the largest ratio of two trapezoid values, each with the
    grid-doubling refinement delta of its report, which estimates its error
    but need not bound it. So the value is not certified: the true ratio of
    the witness may lie below it. ``refinement_delta`` reports the worst
    delta of the reports behind it. Each candidate and its image go through
    one :func:`hp_norms` stream, so at most one chunk of them is held at a
    time.
    """
    best_ratio = 0.0
    best_witness = None
    worst = 0.0
    ev = eta.values()
    # the candidates hp_norms has read and the loop below has not
    # (itertools.tee would keep up to 57 of them alive)
    pending: collections.deque[CoeffSeq] = collections.deque()

    def series() -> Iterator[CoeffSeq]:
        for f in _family_candidates(eta, family, seed):
            pending.append(f)
            yield f
            yield _apply_realized(ev, f)

    reports = hp_norms(series(), p)
    # consecutive reports are a candidate's and its image's
    for denom, num in zip(reports, reports):
        f = pending.popleft()
        worst = max(worst, denom.refinement_delta, num.refinement_delta)
        if denom.value == 0.0:
            continue
        ratio = num.value / denom.value
        if ratio > best_ratio:
            best_ratio = ratio
            best_witness = f
    if best_witness is None:
        best_witness = CoeffSeq(np.ones(1, dtype=complex))
    return OpNormEstimate(
        lower=best_ratio,
        method="FamilySearch",
        witness=best_witness,
        iterations=_FAMILY_BUDGET,
        residual=0.0,
        refinement_delta=float(worst),
    )


def require_decreasing(eta: SequenceSpec):
    if not eta.is_certified_decreasing():
        raise NotMonotone("sequence is not certified nonnegative decreasing")
