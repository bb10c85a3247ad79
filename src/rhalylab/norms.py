"""Integral means and the norms built from them.

Everything here reduces to two quadratures: a trapezoid rule over
equispaced angles for M_p(r, f), which is spectrally accurate for
trigonometric-polynomial integrands, and a Gauss-Jacobi rule in the
radius (:func:`_jacobi_rule`, 64 nodes) for the weighted area integrals.
Every norm is returned as a :class:`NormReport` carrying its own
grid-doubling refinement estimate, taken by :func:`_refined` from the
angular grid for integral means and from the radial rule for area
integrals, so accuracy is observable rather than assumed. The one
exception is the A^2_alpha norm, and with it the D^2_alpha norm: there the
area integral is sum |a_n|^2 n! Gamma(alpha+2) / Gamma(n+alpha+2) exactly
(:func:`_bergman_closed_form`), and the report states an a-priori rounding
bound and no angles or nodes.

The area integrals need M_p^p(r, f) at every radial node, and
:func:`_mp_powers_truncated` computes them. At radius r the terms a_n r^n
fall below rounding level after about 42 / (1 - r) of them, so each node
keeps only a_0 .. a_K, with K the smallest degree whose dropped tail
sum_{n>K} |a_n| r^n is at most u M_2(r, f), u = 2^-53
(:func:`_effective_degrees`). Every sample then moves by at most
u M_2(r, f), and M_p(r, f) too. The node samples the kept terms on the
default grid of degree K, taken at the smallest 2^a 3^b 5^c length at or
above it (:func:`_fast_length`), never more than the grid of the whole
series. A default grid with a large prime factor, such as 8(40N + 1) for
g_N, would otherwise be transformed by Bluestein's algorithm at about
three times the cost. Nodes that share a grid go through one kernel
together, which streams them through the angular FFT a few rows at a
time, so memory stays near a fixed budget however many nodes or angles
there are: :func:`_mp_powers_on_nodes` for complex coefficients, and
:func:`_mp_powers_on_real_nodes` for real ones, which takes one
real-input transform per node and |.|^p on the floor(M/2) + 1 samples
that conjugate symmetry leaves distinct. Integral means on a single circle
keep the default grid of the whole series, and so does the growth seminorm
(1 - r)^{1 - alpha} M_p(r, f') of :func:`beta_sup`, which samples f' at
every radius of its ladder in one :func:`_mp_powers_on_nodes` call, and so
does :func:`hp_norms`, which stacks many series of one degree as the rows
of that call, at radius 1, and returns the bits of :func:`hp_norm`.

Dyadic block norms ||Delta_N f||_{H^p} go through one evaluator,
:class:`_BlockEngine`. At p = 2 a block norm is
(sum_{n=N}^{2N-1} |a_n|^2)^{1/2} by Parseval, with an a-priori rounding
bound as its delta, as for the A^2_alpha closed form, and nothing is
sampled. For other p, on |z| = 1 the block is, up to the unimodular factor
z^N, the length-N polynomial with coefficients a_N .. a_{2N-1}, so each
block is sampled on its own support rather than zero-padded to the degree
of f. Each block keeps one array, |Delta_N f| on its finest grid in angle
order, and per exponent its sums of |Delta_N f|^p over the four classes of
angle indices mod 4, so the samples serve every exponent. A block with real
coefficients keeps half the circle, from one real-input transform, since
its modulus is even in the angle. A doubling adds the odd angles from one
batched transform of the starting length, and updates the class sums by one
rule: old classes 0 and 2 become class 0, old classes 1 and 3 class 2, and
the new samples fill classes 1 and 3. Past the first doubling a real block
transforms half of the new rows and takes the rest by a mirror slice, each
a reversed row of the ones it transformed. The trapezoid rule converges
only algebraically when a block has zeros near the circle (Trefethen and
Weideman, SIAM Review 56, 2014), so a block whose refinement delta exceeds
:data:`REFINEMENT_FLAG` is resampled on a doubled grid until it resolves or
a fixed doubling budget runs out; the worst delta is reported with the
values.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .coeffcore import CircleGrid, CoeffSeq, derivative, evaluate_on_circle
from .errors import AlphaRange, ParamOrder, RadiusRange

#: relative refinement change above which a report is considered unresolved
REFINEMENT_FLAG = 1e-6

DEFAULT_RADIAL_NODES = 64

#: radii 1 - 2^-j, j = 1..DYADIC_J, of the growth-seminorm ladder
DYADIC_J = 14


@dataclass(frozen=True)
class NormReport:
    value: float
    grid_points: int
    radial_nodes: int
    refinement_delta: float

    @property
    def flagged(self) -> bool:
        return self.refinement_delta > REFINEMENT_FLAG

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "grid_points": self.grid_points,
            "radial_nodes": self.radial_nodes,
            "refinement_delta": self.refinement_delta,
        }


@functools.lru_cache(maxsize=128)
def _jacobi_rule(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r and weights w with sum w_i g(r_i) ~ int_0^1 (1-r)^alpha g(r) dr.

    The nodes ascend. Both arrays are cached and read-only. scipy.special
    is imported here, not with the module, since it is most of the cost of
    ``import rhalylab`` and only the radial norms need it.
    """
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(n, alpha, 0.0)
    order = np.argsort(x)
    nodes, weights = (x[order] + 1.0) / 2.0, w[order] / 2.0 ** (alpha + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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

    At p = 2 the trapezoid rule on the 2M >= 2N angles of block N below is
    exact for |Delta_N f|^2, so the value is (sum_{n=N}^{2N-1} |a_n|^2)^{1/2}
    by Parseval, and the delta is an a-priori rounding bound. To first order
    in u, the unit roundoff, each |a_n|^2 is within 2u, the sum of N
    nonnegative terms adds (N - 1) u, and the square root halves that and
    adds u: (N + 3)/2 u. The report states (N + 2) u for the largest N,
    which leaves room for the second-order terms. No block is sampled until
    some other p is asked for.

    For p != 2, block N starts on P = 2M angles, M = max(1024, 8N), from
    one FFT. The value is the trapezoid rule on all of them. Its refinement
    delta is the largest relative change against the four rules on every
    fourth angle: the grid of a quarter the size, at four quarter-step
    shifts. For a real integrand g, the unshifted and the half-shifted
    coarse rules differ from the fine one only through Re g^(m) of the first
    aliased Fourier coefficient (m the coarse size), which can vanish by its
    phase; the quarter shifts also see Im g^(m).

    Each block keeps one array, |Delta_N f| on its finest grid of L angles
    in angle order, and for every exponent asked the sums of |Delta_N f|^p
    over its four classes, the angles k = j mod 4. A block with real
    coefficients has |Delta_N f(e^{-it})| = |Delta_N f(e^{it})|, so it keeps
    entries 0 .. L/2 only, starting from one real-input FFT; its classes 1
    and 3 are equal. A doubling to 2L angles keeps the samples it has as the
    even entries and adds the odd ones, angle (2j + 1) pi / L, from one
    batched FFT of the starting length, so no transform grows past P: with
    F = L/P and j = q F + r, these are entry q of the rows r = 0 .. F - 1 at
    shifts (2r + 1) pi / L, read in transposed order. Old classes 0 and 2
    become class 0, old classes 1 and 3 class 2, and the new samples fill
    classes 1 and 3, so a doubling raises only its new samples to each
    exponent. For a real block, entry q of row F - 1 - r is entry P - 1 - q
    of row r, so it transforms the rows r < max(F/2, 1) and takes the rest
    by that mirror slice, and it keeps the odd entries below L. A block
    refined for one exponent stays refined for the next.
    """

    def __init__(self, coeffs: np.ndarray, Ns):
        self.Ns = [int(N) for N in Ns]
        self._blocks = [
            b if np.any(b.imag) else np.ascontiguousarray(b.real)
            for b in (coeffs[N : 2 * N] for N in self.Ns)
        ]
        self._points = [2 * default_angular_points(N - 1) for N in self.Ns]
        # block i: |Delta_N f| on its points * 2^doublings angles, sampled at
        # the first p != 2, and its class sums per exponent
        self._grids: list[np.ndarray] | None = None
        self._sums: list[dict[float, list[float]]] = [{} for _ in self.Ns]
        self._doublings = [0] * len(self.Ns)

    def norms(self, p: float) -> tuple[np.ndarray, float]:
        """||Delta_N f||_{H^p} for every N on its finest grid, and the worst
        refinement delta over the blocks."""
        _require_exponent("p", p)
        if p == 2:
            values = np.array([np.sqrt(np.vdot(b, b).real) for b in self._blocks])
            return values, (max(self.Ns) + 2) * _UNIT_ROUNDOFF
        if self._grids is None:
            self._grids = [_abs_samples(b, n) for b, n in zip(self._blocks, self._points)]
        values = np.empty(len(self.Ns))
        worst = 0.0
        for i, block in enumerate(self._blocks):
            if p not in self._sums[i]:
                self._sums[i][p] = _strided_sums(self._grids[i] ** p, np.isrealobj(block))
            while True:
                sums = self._sums[i][p]
                count = self._points[i] << self._doublings[i]
                fine = (sum(sums) / count) ** (1.0 / p)
                coarse = [(x / (count // 4)) ** (1.0 / p) for x in sums]
                delta = max(abs(c - fine) for c in coarse) / max(fine, np.finfo(float).tiny)
                if delta <= REFINEMENT_FLAG or self._doublings[i] == _BLOCK_DOUBLINGS:
                    break
                self._double(i)
            values[i] = fine
            worst = max(worst, delta)
        return values, worst

    def _double(self, i: int) -> None:
        """Twice the grid of block i, and the class sums of every exponent."""
        block, P, grid = self._blocks[i], self._points[i], self._grids[i]
        real = np.isrealobj(block)
        F = 1 << self._doublings[i]
        L = F * P
        sampled = max(F // 2, 1) if real else F
        rows = _abs_samples(block, P, np.arange(1, 2 * sampled, 2) * (np.pi / L))
        if sampled < F:
            rows = np.concatenate([rows, rows[::-1, ::-1]])
        # the new samples in angle order; a real block keeps those below L
        fill = rows[:, : P // 2 if real else P].T.ravel()
        out = np.empty(len(grid) + len(fill))
        out[0::2] = grid
        out[1::2] = fill
        self._grids[i] = out
        self._doublings[i] += 1
        for p, (s0, s1, s2, s3) in self._sums[i].items():
            w = fill**p
            odd = [float(np.sum(w))] * 2 if real else [float(np.sum(w[j::2])) for j in (0, 1)]
            self._sums[i][p] = [s0 + s2, odd[0], s1 + s3, odd[1]]


def _strided_sums(w: np.ndarray, real: bool) -> list[float]:
    """Sums of w over the angles k = j mod 4, j = 0..3, of a block's grid.

    A real block's w holds entries 0 .. L/2 of L; entry L - k equals entry
    k, 0 and L/2 = 0 mod 4 stand once, and L - k = -k mod 4.
    """
    if not real:
        return [float(np.sum(w[j::4])) for j in range(4)]
    h = len(w) - 1
    odd = float(np.sum(w[1:h:2]))
    zero = 2.0 * float(np.sum(w[0:h:4])) - float(w[0]) + float(w[h])
    return [zero, odd, 2.0 * float(np.sum(w[2:h:4])), odd]


def _abs_samples(block: np.ndarray, points: int, shifts: np.ndarray | None = None) -> np.ndarray:
    """|sum_k b_k e^{i k (theta_j + s)}| on `points` equispaced angles theta_j,
    one row for each shift s, from one batched FFT.

    With no shifts it samples the unshifted angles as one row. A real block
    then samples |B(-theta)| = |B(theta)|, so only j = 0 .. points // 2 are
    returned, from one real-input FFT (np.fft.rfft samples the angles
    -theta_j, which give the same values).
    """
    if shifts is not None:
        block = block * np.exp(1j * np.outer(shifts, np.arange(len(block))))
    elif np.isrealobj(block):
        return np.abs(np.fft.rfft(block, n=points))
    out = np.abs(np.fft.ifft(block, n=points))
    out *= points
    return out


def dyadic_radii() -> np.ndarray:
    return 1.0 - 2.0 ** (-np.arange(1, DYADIC_J + 1, dtype=float))


def _require_exponent(name: str, p: float) -> None:
    """Refuse an integrability exponent outside [1, inf); NaN is outside too."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"{name}={p} must lie in [1, inf)")


def default_angular_points(degree: int) -> int:
    return max(1024, 8 * (degree + 1))


def _mp_power_mean(f: CoeffSeq, r: float, p: float, M: int) -> float:
    """Trapezoid value of (1/2pi) int |f(r e^{it})|^p dt on M angles."""
    vals = evaluate_on_circle(f, CircleGrid(points=M, radius=r))
    return float(np.mean(np.abs(vals) ** p))


def mean_mp(f: CoeffSeq, r: float, p: float) -> NormReport:
    """Integral mean M_p(r, f) on the default grid of f, with a doubled-grid
    refinement estimate."""
    if not 0.0 < r <= 1.0:
        raise RadiusRange(f"r={r} must lie in (0, 1]")
    _require_exponent("p", p)
    M = default_angular_points(f.degree)
    return _refined(lambda m: _mp_power_mean(f, r, p, m) ** (1.0 / p), M, M, 1)


def hp_norm(f: CoeffSeq, p: float) -> NormReport:
    """H^p norm of a polynomial.

    Integral means are nondecreasing in r, so the sup over r is attained
    at r = 1 and no radial extrapolation is needed.
    """
    return mean_mp(f, 1.0, p)


def hp_norms(fs: Iterable[CoeffSeq], p: float) -> Iterator[NormReport]:
    """hp_norm(f, p) for every f in ``fs``, series of one degree, bit for bit.

    The series are stacked a chunk at a time and sampled at radius 1 by
    :func:`_mp_powers_on_nodes`, on the default grid and on the doubled one,
    so each transform is one row of a batch rather than a call of its own. A
    chunk holds as many rows as the doubled grid fits in _NODE_CHUNK_BYTES,
    and it is the most of ``fs`` held at a time. Each value and delta is
    finished in Python floats by :func:`_refined`, as :func:`mean_mp`
    finishes them. A series of another degree than the first raises
    ValueError.
    """
    _require_exponent("p", p)
    fs = iter(fs)
    first = next(fs, None)
    if first is None:
        return
    degree = first.degree
    M = default_angular_points(degree)
    rows = max(1, _NODE_CHUNK_BYTES // (32 * M))
    unit = np.ones(1)
    stream = itertools.chain([first], fs)
    while chunk := list(itertools.islice(stream, rows)):
        if any(f.degree != degree for f in chunk):
            raise ValueError(f"hp_norms takes series of one degree, {degree} first")
        stack = np.stack([f.coeffs for f in chunk])
        coarse = _mp_powers_on_nodes(stack, p, unit, M).tolist()
        fine = _mp_powers_on_nodes(stack, p, unit, 2 * M).tolist()
        for lo, hi in zip(coarse, fine):
            yield _refined({M: lo ** (1.0 / p), 2 * M: hi ** (1.0 / p)}.__getitem__, M, M, 1)


#: bytes of complex samples one chunk of radial nodes may hold at a time;
#: 1 to 16 MB took the same time at degree 8191 and 2 MB was fastest
#: (Xeon, 2 MB L2 per core)
_NODE_CHUNK_BYTES = 2 << 20


@functools.lru_cache(maxsize=None)
def _smooth_lengths(bits: int) -> np.ndarray:
    """Every 2^a 3^b 5^c <= 2^bits, ascending and read-only."""
    top = 1 << bits
    lengths = [1]
    for q in (2, 3, 5):
        lengths = [m * q**e for m in lengths for e in range(bits + 1) if m * q**e <= top]
    out = np.array(sorted(lengths))
    out.flags.writeable = False
    return out


def _fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms without
    Bluestein's algorithm."""
    smooth = _smooth_lengths((n - 1).bit_length())
    return int(smooth[np.searchsorted(smooth, n)])


def _mp_powers_on_nodes(coeffs: np.ndarray, p: float, nodes: np.ndarray, M: int) -> np.ndarray:
    """M_p^p(r, g) on M angles for every row of the damped stack r^n a_n.

    ``coeffs`` is one series a_0 .. a_d, or a stack of such rows of one
    degree, and broadcasts row by row against the radii in ``nodes``: one
    series on many radii (the radial norms), or many series on one radius
    (:func:`hp_norms`). Damping, inverse FFT, |.|^p and the mean run over
    chunks of rows whose M complex samples fit in _NODE_CHUNK_BYTES, and
    each M_p^p goes into one preallocated vector. Memory is then about the
    budget, not rows x M. Each row does the same arithmetic as one batched
    FFT over all rows, so the values are bit-identical to it and do not
    depend on the chunk size. The scaling by M and the power run in place;
    ``*=`` and ``**=`` take the fast paths of ``*`` and ``**``, so the bits
    are those of :func:`mean_mp`'s samples. The radial norms call it through
    :func:`_mp_powers_truncated` for a series with complex coefficients,
    once for each group of nodes that share a truncated series and a grid;
    a series with real coefficients goes to :func:`_mp_powers_on_real_nodes`.
    """
    count, width = np.broadcast_shapes((len(nodes), 1), coeffs.shape)
    radii = np.broadcast_to(nodes[:, None], (count, 1))
    rows_of = np.broadcast_to(coeffs, (count, width))
    n = np.arange(width)
    rows = max(1, _NODE_CHUNK_BYTES // (16 * M))
    out = np.empty(count)
    for lo in range(0, count, rows):
        damped = radii[lo : lo + rows] ** n * rows_of[lo : lo + rows]
        vals = np.fft.ifft(damped, n=M, axis=1)
        vals *= M
        vals = np.abs(vals)
        vals **= p
        out[lo : lo + rows] = np.mean(vals, axis=1)
    return out


def _mp_powers_on_real_nodes(coeffs: np.ndarray, p: float, nodes: np.ndarray, M: int) -> np.ndarray:
    """:func:`_mp_powers_on_nodes` for a series with real coefficients, by
    one real-input FFT per node.

    The damped row r^n a_n is real, so its M samples X satisfy
    |X[M - k]| = |X[k]|, and np.fft.rfft gives k = 0 .. floor(M/2). The
    full sum of |X|^p weighs k = 0 once, 0 < k < M/2 twice and k = M/2
    (M even) once. It is taken as twice the pairwise np.sum less the single
    terms, which keeps the rounding of np.mean; a weighted dot product sums
    sequentially and drifts by about sqrt(M) u. rfft is the forward
    transform, which samples the angles -theta: the same circle. Chunks hold
    as many rows as their M // 2 + 1 complex samples fit in
    _NODE_CHUNK_BYTES, and each row does the arithmetic of one batched
    transform, so the values do not depend on the chunk size.
    """
    a = coeffs.real
    n = np.arange(len(a))
    rows = max(1, _NODE_CHUNK_BYTES // (8 * M))
    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), rows):
        damped = nodes[lo : lo + rows, None] ** n * a
        powers = np.abs(np.fft.rfft(damped, n=M, axis=1))
        powers **= p
        sums = 2.0 * np.sum(powers, axis=1) - powers[:, 0]
        if M % 2 == 0:
            sums -= powers[:, -1]
        out[lo : lo + rows] = sums / M
    return out


#: unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53

#: geometric index blocks over which :func:`_effective_degrees` bounds the
#: largest term from below
_TERM_BLOCKS = 512


def _effective_degrees(coeffs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """For every node r, the smallest K with

        (max_{n>K} |a_n|) r^{K+1} / (1 - r) <= u m(r),

    u the unit roundoff. The left side bounds sum_{n>K} |a_n| r^n, the tail
    that K drops. m(r) is the largest of (max_{n in I} |a_n|) r^{max I} over
    about _TERM_BLOCKS index blocks I, geometric in n (single indices at
    the start), so m(r) <= max_n |a_n| r^n <= M_2(r, f). Dropping the tail
    therefore moves f(r e^{it}) by at most u M_2(r, f) at every angle. The
    left side does not grow with K, so one bisection serves all nodes.
    """
    D = len(coeffs) - 1
    absc = np.abs(coeffs)
    with np.errstate(divide="ignore"):
        # tail[K] = log max_{n>K} |a_n|, -inf at K = D
        tail = np.full(D + 1, -np.inf)
        tail[:-1] = np.log(np.maximum.accumulate(absc[:0:-1])[::-1])
        starts = np.unique(np.geomspace(1.0, D + 1.0, _TERM_BLOCKS).astype(np.int64)) - 1
        log_block = np.log(np.maximum.reduceat(absc, starts))
    ends = np.append(starts[1:] - 1, D)
    log_r = np.log(nodes)
    log_m = np.max(log_block + log_r[:, None] * ends, axis=1)
    bound = np.log(_UNIT_ROUNDOFF) + log_m + np.log1p(-nodes)
    lo = np.zeros(len(nodes), dtype=np.int64)
    hi = np.full(len(nodes), D, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        ok = tail[mid] + (mid + 1) * log_r <= bound
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return hi


def _mp_powers_truncated(f: CoeffSeq, p: float, nodes: np.ndarray) -> np.ndarray:
    """M_p^p(r, f) for every radius r in nodes, each sampled only to its
    effective degree.

    Node r keeps a_0 .. a_K, K from :func:`_effective_degrees`, which moves
    every sample by at most u M_2(r, f) (u the unit roundoff), so M_p(r, f)
    by at most u M_2(r, f) as well. It samples the kept terms on
    _fast_length(default_angular_points(K)) angles, which is at most the
    grid of the whole series since K <= f.degree. Each run of consecutive
    nodes on one grid (K grows with r, so the runs are few) goes through one
    kernel as one polynomial, of the largest K in the run:
    :func:`_mp_powers_on_real_nodes` when the coefficients are real, one
    real-input transform per node, and :func:`_mp_powers_on_nodes`
    otherwise. A run that reaches K = f.degree samples f itself, with the
    bits of that kernel's transform of the whole series: the real transform
    for a real series, the complex one for a complex series.
    """
    kernel = _mp_powers_on_nodes if np.any(f.coeffs.imag) else _mp_powers_on_real_nodes
    K = _effective_degrees(f.coeffs, nodes)
    # default_angular_points(K) of every node at once
    points = np.maximum(default_angular_points(0), 8 * (K + 1))
    smooth = _smooth_lengths((int(points.max()) - 1).bit_length())
    grids = smooth[np.searchsorted(smooth, points)]
    out = np.empty(len(nodes))
    starts = np.flatnonzero(np.diff(grids, prepend=0))
    for lo, hi in zip(starts, [*starts[1:], len(nodes)]):
        top = int(K[lo:hi].max())
        out[lo:hi] = kernel(f.coeffs[: top + 1], p, nodes[lo:hi], int(grids[lo]))
    return out


def bergman_norm(f: CoeffSeq, p: float, alpha: float) -> NormReport:
    """A^p_alpha norm ((a+1) int_0^1 2r (1-r^2)^a M_p^p(r,f) dr)^{1/p}.

    At p = 2 the integral is sum |a_n|^2 ||z^n||^2 exactly, and
    :func:`_bergman_closed_form` returns it with an a-priori rounding bound
    as its refinement delta. Every other p goes through
    :func:`_bergman_quadrature`.
    """
    _require_exponent("p", p)
    if not -1.0 < alpha < np.inf:
        raise AlphaRange(f"alpha={alpha} must lie in (-1, inf)")
    if p == 2:
        return _bergman_closed_form(f, alpha)
    return _bergman_quadrature(f, p, alpha)


def _bergman_weights(degree: int, alpha: float) -> np.ndarray:
    """||z^n||^2_{A^2_alpha} = n! Gamma(alpha+2) / Gamma(n+alpha+2) for
    n = 0 .. degree, from w_0 = 1 and w_n = w_{n-1} n / (n + alpha + 1).

    Each factor takes at most three roundings (alpha + 1, the sum, the
    quotient) and the running product one more, so w_n is within 4n u of
    its value, u the unit roundoff.
    """
    n = np.arange(1.0, degree + 1.0)
    w = np.ones(degree + 1)
    np.cumprod(n / (n + (alpha + 1.0)), out=w[1:])
    return w


def _bergman_closed_form(f: CoeffSeq, alpha: float) -> NormReport:
    """||f||_{A^2_alpha} = (sum_n |a_n|^2 w_n)^{1/2}, w from :func:`_bergman_weights`.

    To first order in u, each w_n is within 4D u (D the degree), each
    |a_n|^2 w_n adds four roundings, the sum of D + 1 nonnegative terms D
    more, and the square root halves that and adds one: (5D/2 + 3) u. The
    report states (3D + 5) u, which also covers the two roundings with which
    :func:`dirichlet_norm` adds |f(0)|^2. No angle or radial node is used,
    so grid_points and radial_nodes are 0.
    """
    c = f.coeffs
    value = float(np.sqrt(np.dot(c.real**2 + c.imag**2, _bergman_weights(f.degree, alpha))))
    return NormReport(
        value=value,
        grid_points=0,
        radial_nodes=0,
        refinement_delta=(3 * f.degree + 5) * _UNIT_ROUNDOFF,
    )


def _bergman_quadrature(f: CoeffSeq, p: float, alpha: float) -> NormReport:
    """The A^p_alpha norm of :func:`bergman_norm` by quadrature, for any p >= 1.

    The radial integral is the Gauss-Jacobi rule on 64 nodes, refined against
    128. M_p^p at a node r is the trapezoid rule on a_0 .. a_K only, where
    the dropped tail sum_{n>K} |a_n| r^n is at most u M_2(r, f), u = 2^-53,
    so it moves every sample, and M_p(r, f), by at most u M_2(r, f). The
    angles are the smallest 5-smooth length at or above
    :func:`default_angular_points` of K (:func:`_mp_powers_truncated`).
    grid_points reports the grid of the whole series, the largest any node
    uses.
    """
    M = _fast_length(default_angular_points(f.degree))

    def value(n: int) -> float:
        r, w = _jacobi_rule(alpha, n)
        means = _mp_powers_truncated(f, p, r)
        integrand = 2.0 * r * (1.0 + r) ** alpha * means
        return float((alpha + 1.0) * np.dot(w, integrand)) ** (1.0 / p)

    return _refined(value, DEFAULT_RADIAL_NODES, M, DEFAULT_RADIAL_NODES)


def dirichlet_norm(f: CoeffSeq, p: float, alpha: float) -> NormReport:
    """D^p_alpha norm: (|f(0)|^p + ||f'||_{A^p_alpha}^p)^{1/p}.

    At p = 2 the A^2_alpha norm of f' is the closed form of
    :func:`bergman_norm`, whose stated bound covers this sum too.
    """
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
    _require_exponent("q", q)
    _require_exponent("p", p)
    if q > p:
        raise ParamOrder(f"need q <= p, got q={q}, p={p}")
    a = p * (1.0 - 1.0 / q)
    fp = derivative(f)
    M = _fast_length(default_angular_points(fp.degree))

    def value(n: int) -> float:
        r, w = _jacobi_rule(a, n)
        means = _mp_powers_truncated(fp, q, r) ** (p / q)
        return float(abs(f.coeff(0)) ** p + np.dot(w, means)) ** (1.0 / p)

    return _refined(value, DEFAULT_RADIAL_NODES, M, DEFAULT_RADIAL_NODES)


def beta(f: CoeffSeq, p: float, alpha: float, r: float) -> float:
    """Growth seminorm (1-r)^{1-alpha} M_p(r, f'): :func:`beta_sup` at the
    single radius r."""
    return beta_sup(f, p, alpha, np.array([r]))


def beta_sup(
    f: CoeffSeq, p: float, alpha: float, radii: np.ndarray | None = None
) -> float:
    """Max of the growth seminorm (1-r)^{1-alpha} M_p(r, f') over a radius
    ladder (dyadic by default).

    M_p^p(r, f') comes for every radius from one :func:`_mp_powers_on_nodes`
    call on the default grid of f', which does the arithmetic of
    :func:`mean_mp` row by row, so each M_p(r, f') equals
    mean_mp(derivative(f), r, p).value bit for bit, without the doubled grid
    of its refinement estimate.
    """
    if radii is None:
        radii = dyadic_radii()
    radii = np.asarray(radii, dtype=float)
    bad = radii[~((radii > 0.0) & (radii < 1.0))]
    if bad.size:
        raise RadiusRange(f"r={bad[0]} must lie in (0, 1)")
    if not 0.0 < alpha <= 1.0:
        raise AlphaRange(f"alpha={alpha} must lie in (0, 1]")
    _require_exponent("p", p)
    fp = derivative(f)
    powers = _mp_powers_on_nodes(fp.coeffs, p, radii, default_angular_points(fp.degree))
    # Python floats, so each value rounds as mean_mp's scalar arithmetic does
    return max(
        (1.0 - r) ** (1.0 - alpha) * m ** (1.0 / p)
        for r, m in zip(radii.tolist(), powers.tolist())
    )
