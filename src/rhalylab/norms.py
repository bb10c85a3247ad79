"""Integral means and the norms built from them.

Everything here reduces to two quadratures: a trapezoid rule over
equispaced angles for M_p(r, f), which is spectrally accurate for
trigonometric-polynomial integrands, and a Gauss-Jacobi rule in the
radius (:func:`_jacobi_rule`, 64 nodes) for the weighted area integrals.
Every norm is returned as a :class:`NormReport` carrying its own
grid-doubling refinement estimate, taken by :func:`_refined` from the
angular grid for integral means and from the radial rule for area
integrals, so accuracy is observable rather than assumed.
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


def _mp_powers_on_nodes(f: CoeffSeq, p: float, nodes: np.ndarray, M: int) -> np.ndarray:
    """M_p^p(r, f) for every radius at once via a batched FFT."""
    n = np.arange(f.degree + 1)
    damped = nodes[:, None] ** n[None, :] * f.coeffs[None, :]
    vals = np.fft.ifft(damped, n=M, axis=1) * M
    return np.mean(np.abs(vals) ** p, axis=1)


def bergman_norm(f: CoeffSeq, p: float, alpha: float) -> NormReport:
    """A^p_alpha norm via ((a+1) int_0^1 2r (1-r^2)^a M_p^p(r,f) dr)^{1/p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if alpha <= -1:
        raise AlphaRange(f"alpha={alpha} must exceed -1")
    M = default_angular_points(f.degree)

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
    M = default_angular_points(fp.degree)

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
