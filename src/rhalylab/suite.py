"""Self-contained verification battery.

Twelve numbered criteria exercise the package end to end: boundedness and
compactness verdicts on reference weight sequences, exact small-case
oracles, the sign-series counterexample, kernel and norm inequalities,
and byte-level determinism of report emission. Each criterion returns its
named sub-checks so a failure pinpoints the responsible quantity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

from .classifier import (
    classify_bergman,
    classify_hardy,
    decreasing_rule,
    dpp_embedding_check,
    h1_necessary,
    hardy_inequality_check,
)
from .coeffcore import CoeffSeq, hadamard
from .constructions import (
    PolygonalProfile,
    bergman_gn,
    bergman_psi,
    construct_upsilon,
    hardy_psi,
    khinchine_ratio,
    khinchine_report,
    w_kernel,
)
from .lipschitz import block_profile, classify_membership, partial_sum_convergence
from .norms import beta, bergman_norm, dyadic_radii, hp_norm, mean_mp
from .rhalyop import SequenceSpec, generating_function, opnorm_h2


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name=name, passed=bool(passed), detail=detail)


def _rel_gap(computed, oracle) -> float:
    """Largest relative deviation of computed values from their oracle."""
    oracle = np.asarray(oracle, dtype=float)
    return float(np.max(np.abs(np.asarray(computed) - oracle) / np.abs(oracle)))


TRUNC_PROFILE = 8191  # fits 12 full dyadic blocks (top block ends at 8191)


def criterion_1() -> CriterionResult:
    """Averaging weights 1/(n+1): flat profile, Bounded, exact l2 oracle."""
    eta = SequenceSpec.cesaro(TRUNC_PROFILE)
    F = generating_function(eta)
    checks = []
    for p in (1.5, 2.0, 3.0):
        prof = block_profile(F, p, 1.0 / p, 12)
        scaled = prof.scaled_norms
        ratio = scaled.max() / np.median(scaled)
        checks.append(
            _check(
                f"profile_flat_p={p}",
                abs(prof.slope) < 0.1 and ratio < 2.0,
                f"slope={prof.slope:.6g} max/median={ratio:.6g}",
            )
        )
        v = classify_hardy(eta, p)
        checks.append(
            _check(f"verdict_p={p}", v.conclusion == "Bounded", v.conclusion)
        )
    prof2 = block_profile(F, 2.0, 0.5, 12)
    Ns = np.array([N for N, _ in prof2.entries])
    oracle = np.array(
        [np.sqrt(N * np.sum((np.arange(N, 2 * N) + 1.0) ** -2)) for N in Ns]
    )
    err = float(np.max(np.abs(prof2.scaled_norms - oracle)))
    checks.append(_check("exact_l2_oracle", err < 1e-8, f"max_err={err:.3g}"))
    return CriterionResult(1, "averaging weights bounded", tuple(checks))


def criterion_2() -> CriterionResult:
    """Supercritical decay (n+1)^{-1.2}: compact, with decaying tail operator.

    At p=2 and alpha=1/2 each scaled block is the l2 norm of its coefficients,

        N^{1/2} ||Delta_N F||_{H^2} = (N sum_{n=N}^{2N-1} (n+1)^{-2s})^{1/2}
                                    ~ c N^{1-s},

    so for s=1.2 the profile decays like N^{-0.2} and its tail slope tends to
    1-s = -0.2. For s <= 1 the slope is >= 0 (the s=1 profile is flat), so
    the slope check separates the compact case from the merely bounded one.

    The profile is compared with the closed form (summed with math.fsum)
    entry by entry and through its tail ratio. An earlier form of this
    criterion required tail_ratio < 0.2 instead. That is out of reach at the
    declared truncation 8191 (K=12): the closed form gives tail_ratio
    0.272128900630449 there, 0.2063 at K=14, and first drops below 0.2 at
    K=15 (0.1796), which needs truncation 65535.
    """
    s = 1.2
    eta = SequenceSpec.power_law(1.0, s, TRUNC_PROFILE)
    prof = block_profile(generating_function(eta), 2.0, 0.5, 12)
    verdict = classify_membership(prof)
    oracle = np.array(
        [
            math.sqrt(N * math.fsum((n + 1.0) ** (-2.0 * s) for n in range(N, 2 * N)))
            for N, _ in prof.entries
        ]
    )
    oracle_ratio = float(oracle[-1] / oracle.max())
    gap = max(
        _rel_gap(prof.scaled_norms, oracle), _rel_gap(prof.tail_ratio, oracle_ratio)
    )
    rate = 1.0 - s
    checks = [
        _check("little_oh_class", verdict.space == "LittleLambda", verdict.space),
        _check(
            "closed_form_oracle",
            gap < 1e-10,
            f"tail_ratio={prof.tail_ratio:.15g} oracle={oracle_ratio:.15g} "
            f"max_rel_gap={gap:.3g}",
        ),
        _check(
            "tail_slope_rate",
            prof.slope < 0 and abs(prof.slope - rate) < 0.02,
            f"slope={prof.slope:.6g} rate={rate:.6g} gap={abs(prof.slope - rate):.3g}",
        ),
    ]
    emb = dpp_embedding_check(eta, 2.0, tail_Ns=(64, 256, 1024))
    ratios = emb["tail_ratios"]
    checks.append(
        _check(
            "tail_operator_decreasing",
            all(b < a for a, b in zip(ratios, ratios[1:])),
            f"ratios={['%.4g' % r for r in ratios]}",
        )
    )
    return CriterionResult(2, "compact power-law weights", tuple(checks))


def criterion_3() -> CriterionResult:
    """Sign-series counterexample: big blocks, NotBounded below p=2.

    Every block of the Rudin-Shapiro series has |P|^2 <= 2N on the circle,
    so Hoelder and Parseval give ||P||_{H^p} >= 2^{-(2-p)/(2p)} sqrt(N) for
    1 <= p < 2 (about 0.891 sqrt(N) at p=1.5); see construct_upsilon.
    """
    p = 1.5
    ups = construct_upsilon(p, 10)
    checks = []
    for k, achieved in enumerate(ups.achieved):
        bound = 2.0 ** (-(2.0 - p) / (2.0 * p)) * math.sqrt(2**k)
        checks.append(
            _check(
                f"block_{k}_above_rudin_shapiro_bound",
                achieved >= bound,
                f"achieved={achieved:.4g} bound={bound:.4g}",
            )
        )
    spec = ups.sequence_spec()
    v = classify_hardy(spec, 1.5)
    checks.append(_check(f"verdict_p={p}", v.conclusion == "NotBounded", v.conclusion))
    h1 = h1_necessary(spec, (8, 32, 128, 512))
    checks.append(
        _check(
            "h1_block_growth_flagged",
            h1.conclusion == "NotBounded" and h1.theorem in ("Thm6ii", "Thm6iii"),
            f"{h1.conclusion}/{h1.theorem}",
        )
    )
    return CriterionResult(3, "sign-series counterexample", tuple(checks))


def criterion_4() -> CriterionResult:
    """The same sign series is harmless for p >= 2."""
    ups = construct_upsilon(1.5, 10)
    spec = ups.sequence_spec()
    checks = []
    for p in (2.0, 3.0):
        v = classify_hardy(spec, p)
        checks.append(
            _check(f"verdict_p={p}", "Bounded" in v.conclusions, v.conclusion)
        )
    F = generating_function(spec)
    radii = 1.0 - 2.0 ** (-np.arange(1, 8, dtype=float))
    betas = np.array([beta(F, 2.0, 0.5, r) for r in radii])
    band = float(betas.max() / betas.min())
    checks.append(
        _check("growth_seminorm_band", band < 3.0, f"max/min={band:.4g}")
    )
    return CriterionResult(4, "sign series bounded for p >= 2", tuple(checks))


def criterion_5() -> CriterionResult:
    """Kernel bound: |(1-e^{i theta})^2 W_n| <= 14 L(Psi) on six profiles."""
    cases = [("tent", PolygonalProfile.tent(), 32)]
    for N in (16, 64, 256):
        cases.append((f"averaging_beta_N={N}", hardy_psi(2.0, N), N))
    for N in (64, 256):
        cases.append((f"area_delta_N={N}", bergman_psi(2.0, 0.0, N), N))
    checks = []
    for name, psi, n in cases:
        ratio = w_kernel(psi, n, 32 * n)
        checks.append(
            _check(name, ratio <= 14.0 * (1.0 + 1e-3), f"sup_ratio={ratio:.4g}")
        )
    return CriterionResult(5, "polygonal kernel bound", tuple(checks))


def criterion_6() -> CriterionResult:
    """l2 section norms: SVD and Lanczos oracles, monotone growth, limit below 2.

    The N x N sections of the Cesaro matrix have norms that increase to
    ||C||_{H^2} = 2, but only slowly. The power-iteration values are checked
    against dense SVD at N=64 and 256 and, at N=1024 and 4096, against
    ARPACK Lanczos bidiagonalization (scipy svds) on a LinearOperator whose
    matvec is written here from the definition v -> eta_n sum_{k<=n} v_k.

    An earlier form of this criterion required the N=4096 value to be at
    least 1.8. The norm of that section is below 1.8: dense LAPACK SVD gives
    1.7947759186163763 and svds 1.7947759186163754. The sections first
    exceed 1.8 at N=8192 (1.8132), beyond the declared truncation 4095.
    """
    eta = SequenceSpec.cesaro(4095)
    checks = []
    values = {}
    for N in (64, 256, 1024, 4096):
        values[N] = opnorm_h2(eta, N).lower
    for N in (64, 256):
        ev = eta.values()[:N].real
        dense = np.tril(np.tile(ev[:, None], (1, N)))
        oracle = float(np.linalg.svd(dense, compute_uv=False)[0])
        checks.append(
            _check(
                f"svd_oracle_N={N}",
                abs(values[N] - oracle) < 1e-8,
                f"power={values[N]:.12g} svd={oracle:.12g}",
            )
        )
    for N in (1024, 4096):
        w = 1.0 / np.arange(1.0, N + 1.0)
        section = LinearOperator(
            (N, N),
            matvec=lambda v: w * np.cumsum(v),
            rmatvec=lambda u: np.cumsum((w * np.ravel(u))[::-1])[::-1],
            dtype=float,
        )
        # fixed start vector: ARPACK otherwise starts from a random one
        oracle = float(
            svds(section, k=1, v0=np.ones(N), return_singular_vectors=False)[0]
        )
        gap = abs(values[N] - oracle)
        checks.append(
            _check(
                f"lanczos_oracle_N={N}",
                gap < 1e-8,
                f"power={values[N]:.15g} svds={oracle:.15g} gap={gap:.3g}",
            )
        )
    seq = [values[N] for N in (64, 256, 1024, 4096)]
    checks.append(
        _check(
            "strictly_increasing",
            all(b > a for a, b in zip(seq, seq[1:])),
            f"values={['%.6g' % v for v in seq]}",
        )
    )
    checks.append(_check("all_below_2", max(seq) < 2.0, f"max={max(seq):.6g}"))
    return CriterionResult(6, "l2 operator norm sections", tuple(checks))


def criterion_7() -> CriterionResult:
    """Convolution and coefficient inequalities on 200 random trials."""
    rng = np.random.default_rng(1234)
    violations = {"conv_h1": 0, "conv_sqrt": 0, "hardy": 0}
    worst = {"conv_h1": -np.inf, "conv_sqrt": -np.inf, "hardy": -np.inf}
    ps = (1.5, 2.0, 3.0)
    rs = (0.5, 0.9, 0.99)
    for trial in range(200):
        d1, d2 = rng.integers(4, 65, size=2)
        f = CoeffSeq(rng.standard_normal(d1 + 1) + 1j * rng.standard_normal(d1 + 1))
        g = CoeffSeq(rng.standard_normal(d2 + 1) + 1j * rng.standard_normal(d2 + 1))
        p = ps[trial % 3]
        r = rs[(trial // 3) % 3]
        fg = hadamard(f, g)
        lhs1 = mean_mp(fg, r, p).value
        rhs1 = hp_norm(f, 1.0).value * mean_mp(g, r, p).value
        gap1 = lhs1 - rhs1
        worst["conv_h1"] = max(worst["conv_h1"], gap1)
        if gap1 > 1e-9:
            violations["conv_h1"] += 1
        lhs2 = mean_mp(fg, r * r, p).value
        rhs2 = mean_mp(f, r, 1.0).value * mean_mp(g, r, p).value
        gap2 = lhs2 - rhs2
        worst["conv_sqrt"] = max(worst["conv_sqrt"], gap2)
        if gap2 > 1e-9:
            violations["conv_sqrt"] += 1
        s, bound = hardy_inequality_check(f)
        gap3 = s - bound
        worst["hardy"] = max(worst["hardy"], gap3)
        if gap3 > 1e-9:
            violations["hardy"] += 1
    checks = [
        _check(
            f"{key}_no_violations",
            violations[key] == 0,
            f"violations={violations[key]} worst_gap={worst[key]:.3g}",
        )
        for key in ("conv_h1", "conv_sqrt", "hardy")
    ]
    return CriterionResult(7, "inequality suites", tuple(checks))


def criterion_8() -> CriterionResult:
    """Monotone-weight rule at three decay rates."""
    expected = {0.8: "NotBounded", 1.0: "Bounded", 1.2: "Bounded"}
    checks = []
    for s, want in expected.items():
        eta = SequenceSpec.power_law(1.0, s, 4096)
        for p in (1.5, 2.0, 3.0):
            v = decreasing_rule(eta, p)
            checks.append(
                _check(f"s={s}_p={p}", v.conclusion == want, v.conclusion)
            )
    return CriterionResult(8, "monotone weight rule", tuple(checks))


def criterion_9() -> CriterionResult:
    """Area-space mirror of the power-law verdicts plus normalized family."""
    expected = {0.8: "NotBounded", 1.0: "Bounded", 1.2: "Bounded"}
    checks = []
    for s, want in expected.items():
        eta = SequenceSpec.power_law(1.0, s, TRUNC_PROFILE)
        v = classify_bergman(eta, 2.0, 0.0)
        checks.append(
            _check(f"s={s}", want in v.conclusions, v.conclusion)
        )
    norms = []
    for N in (16, 32, 64, 128, 256):
        g = bergman_gn(2.0, 0.0, N)
        norms.append(bergman_norm(g, 2.0, 0.0).value)
    band = max(norms) / min(norms)
    checks.append(
        _check("normalized_family_band", band < 3.0, f"max/min={band:.4g}")
    )
    return CriterionResult(9, "area-space mirror", tuple(checks))


def criterion_10() -> CriterionResult:
    """Exact sign-moment oracles."""
    checks = []
    worst = 0.0
    for m in range(1, 13):
        rep = khinchine_report(np.ones(m + 1), 2.0)
        worst = max(worst, abs(rep.lower_const - 1.0), abs(rep.upper_const - 1.0))
    checks.append(
        _check("p=2_constants_are_1", worst < 1e-12, f"worst_dev={worst:.3g}")
    )
    worst4 = 0.0
    for m in range(1, 7):
        n = m + 1
        ratio, exact = khinchine_ratio(np.ones(n), 4.0)
        oracle = (3.0 * n * n - 2.0 * n) / (n * n)
        worst4 = max(worst4, abs(ratio - oracle))
        if not exact:
            worst4 = np.inf
    checks.append(
        _check("p=4_multinomial_oracle", worst4 < 1e-12, f"worst_dev={worst4:.3g}")
    )
    return CriterionResult(10, "sign-moment exactness", tuple(checks))


def criterion_11() -> CriterionResult:
    """Partial sums converge in the little-oh seminorm; control does not.

    For a_n = (n+1)^{-s} with s=1.5 and the remainder g_N = F - S_N F, the
    p=2 integral mean of g_N' has the closed form

        M_2(r, g_N')^2 = sum_{n=N+1}^{T} n^2 (n+1)^{-2s} r^{2n-2},

    with T=4096 the truncation, and beta(r) = (1-r)^{1/2} M_2(r, g_N'). The
    values are checked against its maximum over the same 14 dyadic radii.
    Theory gives beta_sup(g_N) ~ N^{-(s-1)} = N^{-1/2}, so the log-log slope
    of the values against N is checked against -(s-1), and must also show a
    measured decay (slope < -0.05): near s=1 the predicted rate is itself
    about 0, and a flat profile (slope -0.048 at s=1.0) would otherwise pass.

    An earlier form of this criterion required the N=512 value to fall below
    5% of the N=8 value. At rate N^{-1/2} the expected ratio over 8..512 is
    about 0.125; the closed form gives 0.138838, and even N=2048 would give
    only 0.0544.
    """
    s = 1.5
    T = 4096
    eta = SequenceSpec.power_law(1.0, s, T)
    F = generating_function(eta)
    Ns = (8, 32, 128, 512)
    vals = partial_sum_convergence(F, 2.0, 0.5, Ns)
    oracle = []
    for N in Ns:
        n = np.arange(N + 1.0, T + 1.0)
        c2 = n**2 * (n + 1.0) ** (-2.0 * s)
        oracle.append(
            max(
                math.sqrt((1.0 - r) * math.fsum(c2 * r ** (2.0 * n - 2.0)))
                for r in dyadic_radii()
            )
        )
    gap = _rel_gap(vals, oracle)
    slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    rate = 1.0 - s
    checks = [
        _check(
            "monotone_decrease",
            bool(np.all(np.diff(vals) < 0)),
            f"values={['%.4g' % v for v in vals]}",
        ),
        _check(
            "closed_form_oracle",
            gap < 1e-10,
            f"values={['%.12g' % v for v in vals]} "
            f"oracle={['%.12g' % v for v in oracle]} max_rel_gap={gap:.3g}",
        ),
        _check(
            "decay_rate",
            slope < -0.05 and abs(slope - rate) < 0.05,
            f"slope={slope:.6g} (decay needs < -0.05) rate={rate:.6g} "
            f"gap={abs(slope - rate):.3g}",
        ),
    ]
    ctrl = partial_sum_convergence(
        CoeffSeq.log_one_over_one_minus_z(4096), 2.0, 0.5, Ns
    )
    checks.append(
        _check(
            "negative_control_persists",
            ctrl[-1] >= 0.5 * ctrl[0],
            f"final/initial={ctrl[-1] / ctrl[0]:.4g}",
        )
    )
    return CriterionResult(11, "partial-sum convergence", tuple(checks))


def _mini_report() -> bytes:
    """Small deterministic battery used for the byte-identity check."""
    eta = SequenceSpec.cesaro(2047)
    v = classify_hardy(eta, 2.0)
    est = opnorm_h2(eta, 64)
    prof = block_profile(generating_function(eta), 2.0, 0.5, 9)
    payload = {
        "verdict": json.loads(v.to_json()),
        "opnorm": json.loads(est.to_json()),
        "profile_csv": prof.to_csv(),
        "profile_meta": json.loads(prof.sidecar_json()),
    }
    return json.dumps(payload, sort_keys=True).encode()


def criterion_12() -> CriterionResult:
    """Two runs of the same battery give byte-identical reports."""
    first = _mini_report()
    second = _mini_report()
    same = first == second
    return CriterionResult(
        12,
        "deterministic reports",
        (_check("byte_identical", same, f"lengths={len(first)},{len(second)}"),),
    )


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_suite() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def render_report(results: list[CriterionResult]) -> str:
    """Deterministic JSON report (no timestamps, no machine identifiers)."""
    return json.dumps(
        {"criteria": [r.to_dict() for r in results],
         "passed": all(r.passed for r in results)},
        sort_keys=True,
        indent=2,
    )
