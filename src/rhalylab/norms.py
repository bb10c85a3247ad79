"""Integral means and the norms built from them.

Everything here reduces to two quadratures: a trapezoid rule over
equispaced angles for M_p(r, f), which is spectrally accurate for
trigonometric-polynomial integrands, and a Gauss-Jacobi rule in the
radius (:func:`_jacobi_rule`, 64 nodes) for the weighted area integrals.
Every norm is returned as a :class:`NormReport` carrying its own
grid-doubling refinement estimate, taken by :func:`_refined` from the
angular grid for integral means and from the radial rule for area
integrals, so accuracy is observable rather than assumed.

The area integrals need M_p^p(r, f) at every radial node. They are computed
by :func:`_mp_powers_on_nodes`, which streams the nodes through the angular
FFT a few rows at a time, so memory stays near a fixed budget however many
nodes or angles there are. The angular grid of an area integral is the
smallest 2^a 3^b 5^c length at or above the default grid
(:func:`_fast_length`). A default grid with a large prime factor, such as
8(40N + 1) for g_N, would otherwise be transformed by Bluestein's
algorithm at about three times the cost. Power-of-two grids are kept as
they are. Integral means on a single circle keep the default grid.

Dyadic block norms ||Delta_N f||_{H^p} go through one evaluator,
:class:`_BlockEngine`. On |z| = 1 the block is, up to the unimodular factor
z^N, the length-N polynomial with coefficients a_N .. a_{2N-1}, so each
block is sampled on its own support rather than zero-padded to the degree
of f. The samples serve every exponent. For p other than 2 the trapezoid
rule converges only algebraically when a block has zeros near the circle
(Trefethen and Weideman, SIAM Review 56, 2014), so a block whose
refinement delta exceeds :data:`REFINEMENT_FLAG` is resampled on a doubled
grid until it resolves or a fixed doubling budget runs out; the worst
delta is reported with the values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .coeffcore import CircleGrid, CoeffSeq, derivative, evaluate_on_circle
from .errors import AlphaRange, ParamOrder, RadiusRange

#: relative refinement change above which a report is considered unresolved
REFINEMENT_FLAG = 1e-6

DEFAULT_RADIAL_NODES = 64
DEFAULT_DYADIC_J = 14


@dataclass(frozen=True)
class NormReport:
    value: float
    grid_points: int
    radial_nodes: int
    refinement_delta: float

    @property
    def flagged(self) -> bool:
        return self.refinement_delta > REFINEMENT_FLAG

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "grid_points": self.grid_points,
                "radial_nodes": self.radial_nodes,
                "refinement_delta": self.refinement_delta,
            }
        )


def _jacobi_rule(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights w with sum w_i g(r_i) ~ int_0^1 (1-r)^alpha g(r) dr."""
    x, w = roots_jacobi(n, alpha, 0.0)
    order = np.argsort(x)
    return (x[order] + 1.0) / 2.0, w[order] / 2.0 ** (alpha + 1.0)


def _refined(value, n: int, grid_points: int, radial_nodes: int) -> NormReport:
    """Report value(n), with its relative change when n is doubled as the
    refinement estimate."""
    coarse = value(n)
    fine = value(2 * n)
    delta = abs(fine - coarse) / max(fine, np.finfo(float).tiny)
    return NormReport(
        value=coarse,
        grid_points=grid_points,
        radial_nodes=radial_nodes,
        refinement_delta=delta,
    )


#: grid doublings past its starting grid a block may take; a block still
#: above REFINEMENT_FLAG after them is reported unresolved
_BLOCK_DOUBLINGS = 4


class _BlockEngine:
    """H^p norms of the blocks coeffs[N:2N] of one series, for any p >= 1.

    Block N starts on 2M angles, M = max(1024, 8N), from one FFT. The value
    is the trapezoid rule on all of them. Its refinement delta is the
    largest relative change against the four rules on every fourth angle:
    the grid of a quarter the size, at four quarter-step shifts. For a real
    integrand g, the unshifted and the half-shifted coarse rules differ from
    the fine one only through Re g^(m) of the first aliased Fourier
    coefficient (m the coarse size), which can vanish by its phase; the
    quarter shifts also see Im g^(m). A doubling keeps the samples it has
    and adds the midpoints from FFTs of the starting length on shifted
    grids, so no transform grows past 2M. The |Delta_N f| samples are kept,
    so each further exponent costs one power and four sums per block, and a
    block refined for one exponent stays refined for the next.
    """

    def __init__(self, coeffs: np.ndarray, Ns):
        self.Ns = [int(N) for N in Ns]
        self._blocks = [coeffs[N : 2 * N] for N in self.Ns]
        self._points = [2 * default_angular_points(N - 1) for N in self.Ns]
        # block i on F * points angles, kept as F arrays: row r holds the
        # starting grid shifted by r steps of the fine grid, so a doubling
        # adds rows and copies none
        self._rows = [[_abs_samples(b, n)] for b, n in zip(self._blocks, self._points)]
        self._doublings = [0] * len(self.Ns)

    def norms(self, p: float) -> tuple[np.ndarray, float]:
        """||Delta_N f||_{H^p} for every N on its finest grid, and the worst
        refinement delta over the blocks."""
        values = np.empty(len(self.Ns))
        worst = 0.0
        for i in range(len(self.Ns)):
            while True:
                sums = self._class_sums(i, p)
                count = len(self._rows[i]) * self._points[i]
                fine = (sum(sums) / count) ** (1.0 / p)
                coarse = [(x / (count // 4)) ** (1.0 / p) for x in sums]
                delta = max(abs(c - fine) for c in coarse) / max(fine, np.finfo(float).tiny)
                if delta <= REFINEMENT_FLAG or self._doublings[i] == _BLOCK_DOUBLINGS:
                    break
                self._doublings[i] += 1
                self._double(i)
            values[i] = fine
            worst = max(worst, delta)
        return values, worst

    def _class_sums(self, i: int, p: float) -> list[float]:
        """Sums of |Delta_N f|^p over the fine-grid angles k = j mod 4, j = 0..3.

        Angle k = q F + r of the fine grid is entry q of row r. With
        g = min(F, 4), row r meets the classes j = r mod g, each in every
        (4 / g)-th entry.
        """
        rows = self._rows[i]
        g = min(len(rows), 4)
        stride = 4 // g
        sums = [0.0] * 4
        for r, row in enumerate(rows):
            for j in range(r % g, 4, g):
                sums[j] += float(np.sum(row[(j - r) // g % stride :: stride] ** p))
        return sums

    def _double(self, i: int) -> None:
        """Twice the grid: each row r becomes rows 2r and 2r + 1, the new one
        shifted by half a step of the old fine grid."""
        rows = self._rows[i]
        step = np.pi / (len(rows) * self._points[i])
        self._rows[i] = [
            row
            for r, old in enumerate(rows)
            for row in (old, _abs_samples(self._blocks[i], self._points[i], (2 * r + 1) * step))
        ]


def _abs_samples(block: np.ndarray, points: int, shift: float = 0.0) -> np.ndarray:
    """|sum_k b_k e^{i k (theta_j + shift)}| on `points` equispaced angles theta_j."""
    if shift:
        block = block * np.exp(1j * shift * np.arange(len(block)))
    out = np.abs(np.fft.ifft(block, n=points))
    out *= points
    return out


def dyadic_radii(J: int = DEFAULT_DYADIC_J) -> np.ndarray:
    return 1.0 - 2.0 ** (-np.arange(1, J + 1, dtype=float))


def default_angular_points(degree: int) -> int:
    return max(1024, 8 * (degree + 1))


def _mp_power_mean(f: CoeffSeq, r: float, p: float, M: int) -> float:
    """Trapezoid value of (1/2pi) int |f(r e^{it})|^p dt on M angles."""
    vals = evaluate_on_circle(f, CircleGrid(points=M, radius=r))
    return float(np.mean(np.abs(vals) ** p))


def mean_mp(f: CoeffSeq, r: float, p: float, M: int | None = None) -> NormReport:
    """Integral mean M_p(r, f) with a doubled-grid refinement estimate."""
    if not 0.0 < r <= 1.0:
        raise RadiusRange(f"r={r} must lie in (0, 1]")
    if p < 1:
        raise ValueError("p must be >= 1")
    if M is None:
        M = default_angular_points(f.degree)
    return _refined(lambda m: _mp_power_mean(f, r, p, m) ** (1.0 / p), M, M, 1)


def hp_norm(f: CoeffSeq, p: float, M: int | None = None) -> NormReport:
    """H^p norm of a polynomial.

    Integral means are nondecreasing in r, so the sup over r is attained
    at r = 1 and no radial extrapolation is needed.
    """
    return mean_mp(f, 1.0, p, M)


#: bytes of complex samples one chunk of radial nodes may hold at a time;
#: 1 to 16 MB took the same time at degree 8191 and 2 MB was fastest
#: (Xeon, 2 MB L2 per core)
_NODE_CHUNK_BYTES = 2 << 20


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms without
    Bluestein's algorithm."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _mp_powers_on_nodes(f: CoeffSeq, p: float, nodes: np.ndarray, M: int) -> np.ndarray:
    """M_p^p(r, f) on M angles for every radius r in nodes.

    Damping, inverse FFT, |.|^p and the mean run over chunks of rows whose M
    complex samples fit in _NODE_CHUNK_BYTES, and each M_p^p goes into one
    preallocated vector. Memory is then about the budget, not nodes x M.
    Each row does the same arithmetic as one batched FFT over all nodes, so
    the values are bit-identical to it and do not depend on the chunk size.
    """
    n = np.arange(f.degree + 1)
    rows = max(1, _NODE_CHUNK_BYTES // (16 * M))
    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), rows):
        damped = nodes[lo : lo + rows, None] ** n[None, :] * f.coeffs[None, :]
        vals = np.fft.ifft(damped, n=M, axis=1) * M
        out[lo : lo + rows] = np.mean(np.abs(vals) ** p, axis=1)
    return out


def bergman_norm(f: CoeffSeq, p: float, alpha: float) -> NormReport:
    """A^p_alpha norm via ((a+1) int_0^1 2r (1-r^2)^a M_p^p(r,f) dr)^{1/p}.

    The radial integral is the Gauss-Jacobi rule on 64 nodes, refined against
    128. M_p^p is the trapezoid rule on M angles at every node, streamed by
    :func:`_mp_powers_on_nodes`, with M the smallest 5-smooth length at or
    above :func:`default_angular_points` of the degree.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if alpha <= -1:
        raise AlphaRange(f"alpha={alpha} must exceed -1")
    M = _fast_length(default_angular_points(f.degree))

    def value(n: int) -> float:
        r, w = _jacobi_rule(alpha, n)
        means = _mp_powers_on_nodes(f, p, r, M)
        integrand = 2.0 * r * (1.0 + r) ** alpha * means
        return float((alpha + 1.0) * np.dot(w, integrand)) ** (1.0 / p)

    return _refined(value, DEFAULT_RADIAL_NODES, M, DEFAULT_RADIAL_NODES)


def dirichlet_norm(f: CoeffSeq, p: float, alpha: float) -> NormReport:
    """D^p_alpha norm: (|f(0)|^p + ||f'||_{A^p_alpha}^p)^{1/p}."""
    rep = bergman_norm(derivative(f), p, alpha)
    value = (abs(f.coeff(0)) ** p + rep.value**p) ** (1.0 / p)
    return NormReport(
        value=value,
        grid_points=rep.grid_points,
        radial_nodes=rep.radial_nodes,
        refinement_delta=rep.refinement_delta,
    )


def xqp_norm(f: CoeffSeq, q: float, p: float) -> NormReport:
    """Mixed-norm value (|f(0)|^p + int_0^1 (1-r)^{p(1-1/q)} M_q^p(r,f') dr)^{1/p}."""
    if q > p:
        raise ParamOrder(f"need q <= p, got q={q}, p={p}")
    if q < 1:
        raise ValueError("q must be >= 1")
    a = p * (1.0 - 1.0 / q)
    fp = derivative(f)
    M = _fast_length(default_angular_points(fp.degree))

    def value(n: int) -> float:
        r, w = _jacobi_rule(a, n)
        means = _mp_powers_on_nodes(fp, q, r, M) ** (p / q)
        return float(abs(f.coeff(0)) ** p + np.dot(w, means)) ** (1.0 / p)

    return _refined(value, DEFAULT_RADIAL_NODES, M, DEFAULT_RADIAL_NODES)


def beta(f: CoeffSeq, p: float, alpha: float, r: float) -> float:
    """Growth seminorm (1-r)^{1-alpha} M_p(r, f')."""
    if not 0.0 < r < 1.0:
        raise RadiusRange(f"r={r} must lie in (0, 1)")
    if not 0.0 < alpha <= 1.0:
        raise AlphaRange(f"alpha={alpha} must lie in (0, 1]")
    return (1.0 - r) ** (1.0 - alpha) * mean_mp(derivative(f), r, p).value


def beta_sup(
    f: CoeffSeq, p: float, alpha: float, radii: np.ndarray | None = None
) -> float:
    """Max of the growth seminorm over a radius ladder (dyadic by default)."""
    if radii is None:
        radii = dyadic_radii()
    return max(beta(f, p, alpha, r) for r in radii)
