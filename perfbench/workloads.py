"""Seeded request schedules for the benchmark workloads.

A workload is an endless sequence of rounds. Every round holds the same
request kinds at sizes and exponents taken from fixed tiers that rotate
from round to round, and the seed draws everything else: spec parameters,
signs, atoms, amplitudes and input coefficients. Two seeds therefore do
the same amount of work on different inputs, which keeps the run-to-run
spread small.

Each request carries an oracle that does not share the code path it checks
(closed forms, ``math.fsum``, dense SVD, direct trigonometric sums), a
predicate for results the program itself marks as unresolved, and the
deterministic part of its output for the digest.

Calls into rhalylab go through module attributes (``norms.hp_norm``), never
through names bound at import, so the tracing wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
from scipy.special import gammaln

import rhalylab.cli as cli
from rhalylab import classifier, coeffcore, constructions, norms, rhalyop

#: relative tolerance of oracles whose reference is exact up to rounding
EXACT_RTOL = 1e-9


@dataclass
class Request:
    rid: str
    kind: str
    call: Callable[[], Any]
    #: oracle: returns None, or (oracle name, detail) when the output is wrong
    check: Callable[[Any], tuple[str, str] | None] = lambda out: None
    #: True when the program itself marks the result as unresolved
    unresolved: Callable[[Any], bool] = lambda out: False
    #: deterministic part of the output, fed to the digest
    output: Callable[[Any], Any] = repr
    #: per-layer counts the bench measures from the output (trace runs only)
    counts: Callable[[Any], dict] = lambda out: {}
    #: the generated inputs, for the determinism test
    inputs: Any = field(default=None, repr=False)


def fingerprint(obj) -> str:
    """Short content hash of nested dicts, lists, arrays and scalars."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def _feed(h, obj) -> None:
    if isinstance(obj, coeffcore.CoeffSeq):
        obj = obj.coeffs
    if isinstance(obj, np.ndarray):
        h.update(str(obj.dtype).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def _tier(tiers, r: int | None, offset: int = 0):
    """Size tier for round r; the warm-up round (r is None) takes the smallest."""
    if r is None:
        return tiers[0]
    return tiers[(r + offset) % len(tiers)]


def _each(tiers, r: int | None):
    """Every tier in a round; only the smallest in the warm-up round."""
    return tiers if r is not None else tiers[:1]


def _rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / max(abs(exact), np.finfo(float).tiny)


# --- references computed without rhalylab ---------------------------------


def eta_reference(spec: dict, idx=None) -> np.ndarray:
    """eta_n of a spec dict at the indices idx (default 0..T), evaluated
    independently of SequenceSpec."""
    idx = np.arange(spec["truncation"] + 1) if idx is None else np.asarray(idx)
    n = idx.astype(float)
    kind = spec["kind"]
    if kind == "cesaro":
        return 1.0 / (n + 1.0)
    if kind == "power_law":
        return spec["c"] * np.exp(-spec["s"] * np.log1p(n))
    if kind == "measure_moments":
        atoms = spec["measure"]["atoms"]
        t = np.array([a["t"] for a in atoms])
        m = np.array([a["mass"] for a in atoms])
        return np.exp(np.outer(n, np.log(t))) @ m
    if kind == "signed":
        return np.asarray(spec["signs"], dtype=float)[idx] * eta_reference(spec["base"], idx)
    raise ValueError(f"no reference for spec kind {kind!r}")


def bergman_closed_form(coeffs: np.ndarray, alpha: float) -> float:
    """A^2_alpha norm: sqrt(sum |a_n|^2 n! Gamma(alpha+2) / Gamma(n+alpha+2))."""
    n = np.arange(len(coeffs), dtype=float)
    w = np.exp(gammaln(n + 1.0) + gammaln(alpha + 2.0) - gammaln(n + alpha + 2.0))
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2 * w)))


def extremal_reference(p: float, N: int, alpha: float | None = None) -> np.ndarray:
    """Coefficients of f_N at its default truncation 40N, or of the Bergman
    rescaling g_N = N^{(alpha+1)/p} f_N when alpha is given."""
    n = np.arange(40 * N + 1, dtype=float)
    f = n * (1.0 - 1.0 / N) ** n / N ** (2.0 - 1.0 / p)
    return f if alpha is None else N ** ((alpha + 1.0) / p) * f


def _chunks(x: np.ndarray, stop: int):
    return (x[i : min(i + 65536, stop)] for i in range(0, stop, 65536))


def _prefix_oracle(spec: dict, a: np.ndarray, out: np.ndarray, idx) -> str | None:
    """out[k] == eta_k * sum_{j<=k} a_j at the sampled k, against math.fsum.

    The sums stream over chunks, so the oracle adds little to peak memory.
    """
    for k, eta_k in zip(idx, eta_reference(spec, idx)):
        re, im = (
            math.fsum(itertools.chain.from_iterable(c.tolist() for c in _chunks(part, k + 1)))
            for part in (a.real, a.imag)
        )
        exact = eta_k * complex(re, im)
        scale = abs(eta_k) * sum(float(np.abs(c).sum()) for c in _chunks(a, k + 1))
        if abs(out[k] - exact) > 1e-13 * scale + 1e-300:
            return f"k={k}: {out[k]!r} vs fsum {exact!r}"
    return None


# --- verdicts: the CLI path ------------------------------------------------

VERDICT_TRUNCATIONS = (2047, 4095, 6143, 8191)
VERDICT_SPEC_KINDS = ("cesaro", "power_law", "measure_moments", "signed")
ATOM_TIERS = (64, 128, 256, 512)
PROFILE_P = (1.5, 2.0, 3.0)
#: long specs go through a file; see the README for the inline-length defect
FILE_SPEC_KINDS = ("measure_moments", "signed")


def _verdict_spec(kind: str, T: int, rng, r: int | None) -> dict:
    if kind == "cesaro":
        return {"kind": "cesaro", "truncation": T}
    if kind == "power_law":
        # alternate sides of the s = 1 boundary, away from it
        low = r is None or r % 2 == 0
        s = rng.uniform(0.3, 0.8) if low else rng.uniform(1.2, 2.0)
        return {"kind": "power_law", "c": rng.uniform(0.5, 2.0), "s": s, "truncation": T}
    if kind == "measure_moments":
        # atoms log-spaced towards 1 with mu([r, 1)) ~ (1-r)^beta, beta > 1:
        # moments decay like n^-beta, so every verdict is settled by one profile
        a = _tier(ATOM_TIERS, r)
        gap = 10.0 ** (-5.0 * (np.arange(a) + rng.uniform(0.1, 0.9, a)) / a)
        t = 1.0 - gap
        mass = gap ** rng.uniform(1.3, 2.0)
        mass /= mass.sum()
        atoms = [{"t": float(x), "mass": float(m)} for x, m in zip(t, mass)]
        return {"kind": "measure_moments", "truncation": T, "measure": {"atoms": atoms}}
    if kind == "signed":
        signs = (2 * rng.integers(0, 2, T + 1) - 1).tolist()
        return {
            "kind": "signed",
            "truncation": T,
            "base": {"kind": "cesaro", "truncation": T},
            "signs": signs,
        }
    raise ValueError(kind)


def _cli_call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _profile_l2_oracle(entries, eta: np.ndarray) -> str | None:
    """At p = 2 each entry is N^{1/2} times the l2 norm of eta[N:2N]."""
    for N, scaled in entries:
        exact = math.sqrt(N) * float(np.linalg.norm(eta[N : 2 * N]))
        if _rel_err(scaled, exact) > EXACT_RTOL:
            return f"N={N}: {scaled!r} vs l2 {exact!r}"
    return None


def _verdict_requests(spec: dict, spec_arg: str, rnd: int | None, index: int,
                      tag: str) -> Iterator[Request]:
    eta = functools.cache(lambda: eta_reference(spec))

    def check(p):
        def run(res):
            code, text, err = res
            if code != 0:
                return "cli_exit", f"exit {code}: {err.strip()[:200]}"
            payload = json.loads(text)
            if "verdict" in payload:
                verdict = payload["verdict"]
                if spec["kind"] == "power_law" and verdict["conclusion"] != "Inconclusive":
                    bounded = "Bounded" in verdict["conclusions"]
                    if bounded != (spec["s"] >= 1.0):
                        return "power_law_analytic", (
                            f"s={spec['s']:.4f} {verdict['space']}: {verdict['conclusion']}"
                        )
                entries = [
                    e["entries"] for e in verdict["evidence"] if e["name"] == "block_profile"
                ]
            else:
                entries = [payload["entries"]]
            if p == 2.0:
                for ent in entries:
                    bad = _profile_l2_oracle(ent, eta())
                    if bad:
                        return "hp_norm_l2", bad
            return None

        return run

    def unresolved(res):
        code, text, _ = res
        if code != 0:
            return False
        payload = json.loads(text)
        if "verdict" in payload:
            return payload["verdict"]["conclusion"] == "Inconclusive"
        return payload["profile"]["verdict"] == "Inconclusive"

    base = ["--spec", spec_arg]
    asks = [
        ("classify_hardy", ["classify", "--space", "hardy", "--p", "1.5"], 1.5),
        ("classify_hardy", ["classify", "--space", "hardy", "--p", "2"], 2.0),
        ("classify_hardy", ["classify", "--space", "hardy", "--p", "3"], 3.0),
        ("classify_bergman", ["classify", "--space", "bergman", "--p", "2", "--alpha", "0"], 2.0),
        ("classify_bergman", ["classify", "--space", "bergman", "--p", "2", "--alpha", "1"], 2.0),
    ]
    p_profile = _tier(PROFILE_P, rnd, index)
    asks.append(("profile", ["profile", "--p", repr(p_profile)], p_profile))
    for i, (kind, cmd, p) in enumerate(asks):
        argv = cmd + base
        yield Request(
            rid=f"{tag}.{i}:{kind}",
            kind=kind,
            call=lambda argv=argv: _cli_call(argv),
            check=check(p),
            unresolved=unresolved,
            output=lambda res: res[1],
            counts=lambda res: {"cli.output_bytes": len(res[1].encode())},
            inputs=(argv, spec),
        )


def verdicts(seed: int, workdir: Path, warmup: bool = False) -> Iterator[Request]:
    """CLI classify/profile requests; six questions about each seeded spec."""
    rng = np.random.default_rng(seed)
    rounds = [None] if warmup else itertools.count()
    for rnd in rounds:
        for j, kind in enumerate(VERDICT_SPEC_KINDS):
            spec = _verdict_spec(kind, _tier(VERDICT_TRUNCATIONS, rnd, j), rng, rnd)
            tag = f"{'w' if rnd is None else rnd}.{j}"
            if kind in FILE_SPEC_KINDS:
                path = workdir / f"spec-{tag}.json"
                path.write_text(json.dumps(spec))
                spec_arg = str(path)
            else:
                spec_arg = json.dumps(spec)
            yield from _verdict_requests(spec, spec_arg, rnd, j, tag)


# --- operator: direct library calls, nothing shared -------------------------

#: a fine geometric ladder keeps the latency distribution smooth, so its
#: quantiles do not sit in a gap between two sizes
APPLY_DEGREES = tuple(2**k for k in range(12, 21))
TAIL_DEGREES = tuple(round(2 ** (k + 0.5)) for k in range(12, 20))
OPNORM_SIZES = (512, 4096, 16384, 65536)
LOWER_HP_P = (1.5, 3.0)
LOWER_HP_TRUNCATIONS = (4096, 16384, 65536)
OPERATOR_SPEC_KINDS = ("cesaro", "power_law", "signed")
#: sections up to this size are also checked against a dense SVD
DENSE_SVD_MAX = 512


def _operator_spec(kind: str, T: int, rng) -> dict:
    if kind == "cesaro":
        return {"kind": "cesaro", "truncation": T}
    if kind == "power_law":
        return {"kind": "power_law", "c": rng.uniform(0.5, 2.0),
                "s": rng.uniform(0.5, 1.5), "truncation": T}
    return {
        "kind": "signed",
        "truncation": T,
        "base": {"kind": "cesaro", "truncation": T},
        "signs": (2 * rng.integers(0, 2, T + 1, dtype=np.int8) - 1),
    }


def _random_poly(rng, degree: int) -> coeffcore.CoeffSeq:
    """Coefficients with real and imaginary parts uniform in [-1, 1)."""
    return coeffcore.CoeffSeq(rng.uniform(-1.0, 1.0, 2 * (degree + 1)).view(complex))


def _sample_indices(rng, lo: int, hi: int) -> list[int]:
    """One seeded index in [lo, hi] plus hi itself."""
    return sorted({int(rng.integers(lo, hi + 1)), hi})


def _opnorm_check(spec: dict, N: int):
    def run(est):
        eta = eta_reference(spec)[:N]
        frob = math.sqrt(float(np.sum(np.abs(eta) ** 2 * np.arange(1, N + 1))))
        if est.lower > frob * (1.0 + 1e-12):
            return "opnorm_frobenius", f"N={N}: {est.lower!r} > {frob!r}"
        if N <= DENSE_SVD_MAX:
            dense = np.tril(np.repeat(eta[:, None], N, axis=1))
            sigma = float(np.linalg.svd(dense, compute_uv=False)[0])
            if _rel_err(est.lower, sigma) > 1e-6:
                return "opnorm_dense_svd", f"N={N}: {est.lower!r} vs {sigma!r}"
        return None

    return run


def _apply_check(spec: dict, f: coeffcore.CoeffSeq, idx, zero_upto: int = -1):
    def run(out):
        coeffs = out.coeffs
        if zero_upto >= 0 and np.any(coeffs[: zero_upto + 1]):
            return "tail_zero_head", f"nonzero coefficient at or below N={zero_upto}"
        bad = _prefix_oracle(spec, f.coeffs, coeffs, idx)
        return ("prefix_fsum", bad) if bad else None

    return run


def _estimate_output(est):
    return [est.lower, est.iterations, est.residual, est.converged]


def operator(seed: int, workdir: Path, warmup: bool = False) -> Iterator[Request]:
    """apply/tail/opnorm requests, each on a fresh spec and a fresh input."""
    rng = np.random.default_rng(seed)
    rounds = [None] if warmup else itertools.count()
    for rnd in rounds:
        tag = "w" if rnd is None else str(rnd)
        for i, d in enumerate(_each(APPLY_DEGREES, rnd)):
            kind = _tier(OPERATOR_SPEC_KINDS, rnd, i)
            spec = _operator_spec(kind, d, rng)
            eta, f = rhalyop.SequenceSpec.from_json(spec), _random_poly(rng, d)
            yield Request(
                rid=f"{tag}.a{i}:apply_rhaly",
                kind="apply_rhaly",
                call=lambda eta=eta, f=f: rhalyop.apply_rhaly(eta, f),
                check=_apply_check(spec, f, _sample_indices(rng, 0, d)),
                output=lambda out: out.coeffs,
                inputs=(spec, f),
            )
        for i, d in enumerate(_each(TAIL_DEGREES, rnd)):
            kind = _tier(OPERATOR_SPEC_KINDS, rnd, i + 1)
            spec = _operator_spec(kind, d, rng)
            eta, f = rhalyop.SequenceSpec.from_json(spec), _random_poly(rng, d)
            N = int(rng.integers(d // 4, 3 * d // 4))
            yield Request(
                rid=f"{tag}.t{i}:tail",
                kind="tail",
                call=lambda eta=eta, f=f, N=N: rhalyop.TruncatedRhaly(eta, N).tail(f),
                check=_apply_check(spec, f, _sample_indices(rng, N + 1, d), zero_upto=N),
                output=lambda out: out.coeffs,
                inputs=(spec, f, N),
            )
        for i, N in enumerate(_each(OPNORM_SIZES, rnd)):
            kind = _tier(OPERATOR_SPEC_KINDS, rnd, i + 2)
            spec = _operator_spec(kind, N - 1, rng)
            eta, seed_i = rhalyop.SequenceSpec.from_json(spec), int(rng.integers(2**31))
            yield Request(
                rid=f"{tag}.o{i}:opnorm_h2",
                kind="opnorm_h2",
                call=lambda eta=eta, N=N, s=seed_i: rhalyop.opnorm_h2(eta, N, seed=s),
                check=_opnorm_check(spec, N),
                unresolved=lambda est: not est.converged,
                output=_estimate_output,
                inputs=(spec, N, seed_i),
            )
        for i, p in enumerate(_each(LOWER_HP_P, rnd)):
            T = _tier(LOWER_HP_TRUNCATIONS, rnd, i)
            spec = _operator_spec(_tier(OPERATOR_SPEC_KINDS, rnd, i), T, rng)
            eta, seed_i = rhalyop.SequenceSpec.from_json(spec), int(rng.integers(2**31))
            yield Request(
                rid=f"{tag}.l{i}:opnorm_lower_hp",
                kind="opnorm_lower_hp",
                call=lambda eta=eta, p=p, s=seed_i: rhalyop.opnorm_lower_hp(
                    eta, p, family="RandomPoly", seed=s
                ),
                unresolved=lambda est: not est.converged,
                output=_estimate_output,
                inputs=(spec, p, seed_i),
            )


# --- extremal: radial norms and constructions -------------------------------

EXTREMAL_N = (16, 32, 64, 128)
GENFN_DEGREES = (4095, 8191)
KHINCHINE_EXACT_LENGTHS = (13, 14, 15, 16)
KHINCHINE_MC_LENGTHS = (32, 64, 128, 256)
KHINCHINE_P = (1.5, 2.0, 4.0)
UPSILON_K = (6, 7, 8, 9)
#: exponents rotate like sizes: numpy's power has fast paths for some of them
NORM_P = (1.5, 2.0, 3.0)
DPP_CORPUS_DEGREE = 128
W_KERNEL_BOUND = 14.0 * (1.0 + 1e-3)


def _norm_check(coeffs_of, alpha: float, p: float, derivative: bool = False):
    """At p = 2 compare with the closed form, within twice the refinement delta
    the report claims for itself."""

    def run(rep):
        if p != 2.0:
            return None
        a = coeffs_of()
        if derivative:
            exact = math.hypot(abs(a[0]), bergman_closed_form(np.arange(1, len(a)) * a[1:], alpha))
        else:
            exact = bergman_closed_form(a, alpha)
        err = _rel_err(rep.value, exact)
        if err > 1e-10 + 2.0 * rep.refinement_delta:
            name = "dirichlet_closed_form" if derivative else "bergman_closed_form"
            return name, f"{rep.value!r} vs {exact!r} (delta {rep.refinement_delta:.2e})"
        return None

    return run


def _khinchine_check(c: np.ndarray, p: float, equal: bool):
    def run(rep):
        if not rep.exact:
            return None
        if p == 2.0:
            if max(abs(rep.lower_const - 1.0), abs(rep.upper_const - 1.0)) > 1e-12:
                return "khinchine_p2", f"{rep.lower_const!r}, {rep.upper_const!r}"
        if p == 4.0 and equal:
            # E|sum e_j c_j|^4 = 2 (sum|c|^2)^2 + |sum c^2|^2 - 2 sum|c|^4
            m = len(c)
            thetas = 2.0 * np.pi * np.arange(16) / 16
            sum_c2 = np.exp(2j * np.outer(thetas, np.arange(m))).sum(axis=1)
            ratios = (2.0 * m * m + np.abs(sum_c2) ** 2 - 2.0 * m) / (m * m)
            for got, want in ((rep.lower_const, ratios.min()), (rep.upper_const, ratios.max())):
                if _rel_err(got, want) > EXACT_RTOL:
                    return "khinchine_multinomial", f"{got!r} vs {want!r}"
        return None

    return run


def _upsilon_check(p: float):
    """Magnitudes are 1/n, and each achieved block norm equals the H^p norm of
    its sign block, summed directly instead of by FFT."""

    def run(res):
        a = res.seq.coeffs
        n = np.arange(1, len(a))
        if a[0] != 0 or np.any(np.abs(np.abs(a[1:]) - 1.0 / n) > 1e-15):
            return "upsilon_magnitudes", "coefficient magnitudes differ from 1/n"
        for k, (signs, achieved) in enumerate(zip(res.signs, res.achieved)):
            M = max(64, 8 * len(signs))
            theta = 2.0 * np.pi * np.arange(M) / M
            vals = np.exp(1j * np.outer(theta, np.arange(len(signs)))) @ np.asarray(signs, float)
            exact = float(np.mean(np.abs(vals) ** p)) ** (1.0 / p)
            if _rel_err(achieved, exact) > EXACT_RTOL:
                return "upsilon_block_norm", f"block {k}: {achieved!r} vs {exact!r}"
        return None

    return run


def _report_output(rep):
    return [rep.value, rep.refinement_delta]


# the calls look rhalylab functions up when they run, so the tracer sees them


def _gn_bergman(p: float, alpha: float, N: int):
    return norms.bergman_norm(constructions.bergman_gn(p, alpha, N), p, alpha)


def _fn_dirichlet(p: float, N: int):
    return norms.dirichlet_norm(constructions.extremal_fn(p, N), p, p - 1.0)


def _fn_xqp(q: float, p: float, N: int):
    return norms.xqp_norm(constructions.extremal_fn(p, N), q, p)


def _genfn_bergman(eta, p: float, alpha: float):
    return norms.bergman_norm(rhalyop.generating_function(eta), p, alpha)


def _w_kernel(space: str, p: float, alpha: float, N: int):
    if space == "hardy":
        psi = constructions.hardy_psi(p, N)
    else:
        psi = constructions.bergman_psi(p, alpha, N)
    return constructions.w_kernel(psi, N, 32 * N)


def _w_kernel_check(ratio):
    return None if ratio <= W_KERNEL_BOUND else ("w_kernel_bound", f"{ratio!r} > 14(1+1e-3)")


def _flagged(rep) -> bool:
    return rep.flagged


def extremal(seed: int, workdir: Path, warmup: bool = False) -> Iterator[Request]:
    """Radial-norm, Khinchine, construction and kernel requests."""
    rng = np.random.default_rng(seed)
    rounds = [None] if warmup else itertools.count()
    for rnd in rounds:
        tag = "w" if rnd is None else str(rnd)

        N, p, alpha = _tier(EXTREMAL_N, rnd, 0), _tier(NORM_P, rnd, 0), float(rng.choice((0.0, 0.5)))
        yield Request(
            rid=f"{tag}.0:bergman_gn", kind="bergman_norm",
            call=functools.partial(_gn_bergman, p, alpha, N),
            check=_norm_check(functools.partial(extremal_reference, p, N, alpha), alpha, p),
            unresolved=_flagged, output=_report_output, inputs=(N, p, alpha),
        )

        N, p = _tier(EXTREMAL_N, rnd, 1), _tier(NORM_P, rnd, 1)
        yield Request(
            rid=f"{tag}.1:dirichlet_fn", kind="dirichlet_norm",
            call=functools.partial(_fn_dirichlet, p, N),
            check=_norm_check(functools.partial(extremal_reference, p, N), p - 1.0, p,
                              derivative=True),
            unresolved=_flagged, output=_report_output, inputs=(N, p),
        )

        N, p = _tier(EXTREMAL_N, rnd, 2), _tier(NORM_P, rnd, 2)
        q = float(rng.uniform(1.0, p))
        yield Request(
            rid=f"{tag}.2:xqp_fn", kind="xqp_norm", call=functools.partial(_fn_xqp, q, p, N),
            unresolved=_flagged, output=_report_output, inputs=(N, p, q),
        )

        d = _tier(GENFN_DEGREES, rnd)
        spec = _operator_spec(_tier(("cesaro", "power_law"), rnd), d, rng)
        p, alpha = _tier(NORM_P, rnd, 1), float(rng.choice((0.0, 1.0)))
        yield Request(
            rid=f"{tag}.3:bergman_genfn", kind="bergman_genfn",
            call=functools.partial(_genfn_bergman, rhalyop.SequenceSpec.from_json(spec), p, alpha),
            check=_norm_check(functools.partial(eta_reference, spec), alpha, p),
            unresolved=_flagged, output=_report_output, inputs=(spec, p, alpha),
        )

        corpus = [coeffcore.CoeffSeq(extremal_reference(2.0, 8).astype(complex))] + [
            _random_poly(rng, DPP_CORPUS_DEGREE) for _ in range(2)
        ]
        spec = _operator_spec("power_law", 4095, rng)
        eta, p = rhalyop.SequenceSpec.from_json(spec), _tier(NORM_P, rnd, 2)
        yield Request(
            rid=f"{tag}.4:dpp_embedding", kind="dpp_embedding_check",
            call=lambda eta=eta, p=p, c=corpus: classifier.dpp_embedding_check(
                eta, p, corpus=c, tail_Ns=(64, 256)),
            output=lambda res: json.dumps(res, sort_keys=True), inputs=(spec, p, corpus),
        )

        for j, lengths in enumerate((KHINCHINE_EXACT_LENGTHS, KHINCHINE_MC_LENGTHS)):
            L, p = _tier(lengths, rnd, j), _tier(KHINCHINE_P, rnd, j)
            equal = p == 4.0
            if equal:
                c = np.full(L, rng.uniform(0.5, 2.0), dtype=complex)
            else:
                c = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            yield Request(
                rid=f"{tag}.{5 + j}:khinchine", kind="khinchine_report",
                call=lambda c=c, p=p: constructions.khinchine_report(c, p),
                check=_khinchine_check(c, p, equal),
                output=lambda rep: [rep.lower_const, rep.upper_const, rep.exact],
                inputs=(c, p),
            )

        K, p, s = _tier(UPSILON_K, rnd, 3), float(rng.uniform(1.0, 2.0)), int(rng.integers(2**31))
        yield Request(
            rid=f"{tag}.7:upsilon", kind="construct_upsilon",
            call=lambda p=p, K=K, s=s: constructions.construct_upsilon(p, K, seed=s),
            check=_upsilon_check(p), output=lambda res: res.to_json(), inputs=(p, K, s),
        )

        for j, space in enumerate(("hardy", "bergman")):
            N, p = int(rng.integers(8, 65)), float(rng.choice(NORM_P))
            alpha = float(rng.choice((0.0, 0.5)))
            yield Request(
                rid=f"{tag}.{8 + j}:w_kernel_{space}", kind="w_kernel",
                call=functools.partial(_w_kernel, space, p, alpha, N),
                check=_w_kernel_check, inputs=(space, N, p, alpha),
            )


WORKLOADS = {"verdicts": verdicts, "operator": operator, "extremal": extremal}


def warmup_requests(name: str, workdir: Path) -> list[Request]:
    """One request of each kind in the workload, at its smallest size tier."""
    first: dict[str, Request] = {}
    for req in WORKLOADS[name](0, workdir, warmup=True):
        first.setdefault(req.kind, req)
    return list(first.values())
