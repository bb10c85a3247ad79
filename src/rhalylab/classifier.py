"""Verdict engine: boundedness and compactness decisions for the averaging
operator on Hardy and Bergman spaces.

The Hardy and Bergman verdicts route through the mean-Lipschitz membership
of the generating function F(z) = sum eta_n z^n, whatever the spec. The
exact rule for certified nonnegative decreasing weights is a verdict of its
own (:func:`decreasing_rule`), which only the suite's criterion 8 asks for;
:func:`classify_hardy` does not consult it. Verdicts carry their numeric
evidence and the tag of the result they instantiate; the open region for
p > 2 and the one-sided p = 1 conditions surface as Inconclusive rather
than being forced to a side, and so does a block profile that stays
unresolved on its finest grid. Each verdict realizes F once and samples its
blocks once, for every exponent it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffcore import CoeffSeq, derivative, partial_sum, zero_head
from .errors import AlphaRange, PRange, TruncationMismatch
from .lipschitz import (
    BIG_LAMBDA,
    INCONCLUSIVE,
    LITTLE_LAMBDA,
    NEITHER,
    block_profile,
    classify_membership,
    fit_K,
    fit_tail_slope,
)
from .norms import REFINEMENT_FLAG, _BlockEngine, dirichlet_norm, hp_norm
from .rhalyop import (
    SequenceSpec,
    _apply_realized,
    generating_function,
    require_decreasing,
)

BOUNDED = "Bounded"
COMPACT = "Compact"
NOT_BOUNDED = "NotBounded"
INCONCLUSIVE_VERDICT = "Inconclusive"

#: classifier-level slope threshold; tighter than the membership default so
#: that profiles growing like a small positive power still register as growth
CLASSIFIER_EPS_SLOPE = 0.05

#: dyadic blocks N = 2..2^K a verdict profiles, fewer when the truncation
#: cannot hold them (:func:`lipschitz.fit_K`)
VERDICT_K = 12

#: log-log trend above which a ratio sequence counts as unbounded growth
TREND_THRESHOLD = 0.1


@dataclass(frozen=True)
class Verdict:
    conclusion: str
    theorem: str
    space: str
    evidence: tuple  # of (name, dict) pairs

    def __post_init__(self):
        if len(self.evidence) == 0:
            raise ValueError("a verdict must carry at least one evidence item")

    @property
    def conclusions(self) -> tuple:
        """All conclusions implied; compactness implies boundedness."""
        if self.conclusion == COMPACT:
            return (COMPACT, BOUNDED)
        return (self.conclusion,)

    @property
    def unresolved(self) -> bool:
        """Inconclusive because evidence stayed above REFINEMENT_FLAG."""
        return self.conclusion == INCONCLUSIVE_VERDICT and any(
            d.get("refinement_delta", 0.0) > REFINEMENT_FLAG for _, d in self.evidence
        )

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "conclusions": list(self.conclusions),
            "theorem": self.theorem,
            "space": self.space,
            "evidence": [{"name": n, **d} for n, d in self.evidence],
        }


def _profile_evidence(name: str, profile) -> tuple:
    return (
        name,
        {
            "alpha": profile.exponent_alpha,
            "p": profile.p,
            "slope": profile.slope,
            "tail_ratio": profile.tail_ratio,
            "refinement_delta": profile.refinement_delta,
            "entries": [[int(N), s] for N, s in profile.entries],
        },
    )


def _memberships(eta: SequenceSpec):
    """(membership class, profile) of F at (p, 1/p) as a function of p. F is
    realized once, its blocks are sampled at most once, at the first
    exponent other than 2, and every such exponent reads those samples."""
    F = generating_function(eta)
    K = fit_K(eta.truncation, VERDICT_K)
    engine = _BlockEngine(F.coeffs, 2 ** np.arange(1, K + 1))

    def at(p: float):
        profile = block_profile(F, p, 1.0 / p, K, engine=engine)
        return classify_membership(profile, CLASSIFIER_EPS_SLOPE), profile

    return at


_MEMBERSHIP_TO_CONCLUSION = {
    LITTLE_LAMBDA: COMPACT,
    BIG_LAMBDA: BOUNDED,
    NEITHER: NOT_BOUNDED,
    INCONCLUSIVE: INCONCLUSIVE_VERDICT,
}


def classify_hardy(eta: SequenceSpec, p: float) -> Verdict:
    """Boundedness/compactness on H^p from the generating function.

    For 1 < p <= 2 the membership test at (p, 1/p) is an iff. For p > 2
    sufficiency is tested on a q-grid in (2, p) and necessity at p itself;
    the region between is reported Inconclusive. The q-grid stops at the
    first exponent that decides, and all of its profiles read one sample
    set. A profile left unresolved decides nothing.
    """
    if not 1.0 < p < np.inf:
        raise PRange(f"p={p} must lie in (1, inf)")
    space = f"Hardy(p={p})"
    membership = _memberships(eta)
    if p <= 2.0:
        member, profile = membership(p)
        conclusion = _MEMBERSHIP_TO_CONCLUSION[member]
        theorem = "Thm2a" if conclusion == COMPACT else "Thm1a"
        return Verdict(
            conclusion=conclusion,
            theorem=theorem,
            space=space,
            evidence=(_profile_evidence("block_profile", profile),),
        )
    # p > 2: sufficiency on a q-grid strictly inside (2, p)
    evidence = []
    for k in range(1, 8):
        q = 2.0 + (p - 2.0) * k / 8.0
        member, profile = membership(q)
        evidence.append(_profile_evidence(f"block_profile_q={q}", profile))
        if member == LITTLE_LAMBDA:
            return Verdict(COMPACT, "Thm2c", space, tuple(evidence))
        if member == BIG_LAMBDA:
            return Verdict(BOUNDED, "Thm1c", space, tuple(evidence))
    member, profile = membership(p)
    evidence.append(_profile_evidence("block_profile_at_p", profile))
    if member == NEITHER:
        return Verdict(NOT_BOUNDED, "Thm1b", space, tuple(evidence))
    return Verdict(INCONCLUSIVE_VERDICT, "Thm1b", space, tuple(evidence))


def classify_bergman(eta: SequenceSpec, p: float, alpha: float) -> Verdict:
    """Boundedness/compactness on A^p_alpha from the generating function.

    The sufficiency direction holds on the full range alpha > -1; the
    necessity direction is only available for alpha < 2p - 2, so a growing
    profile outside that range yields Inconclusive.
    """
    if not 1.0 < p < np.inf:
        raise PRange(f"p={p} must lie in (1, inf)")
    if not -1.0 < alpha < np.inf:
        raise AlphaRange(f"alpha={alpha} must lie in (-1, inf)")
    space = f"Bergman(p={p},alpha={alpha})"
    theorem = "Thm3" if alpha == 0.0 else "Thm7"
    member, profile = _memberships(eta)(p)
    conclusion = _MEMBERSHIP_TO_CONCLUSION[member]
    if conclusion == NOT_BOUNDED and alpha >= 2.0 * p - 2.0:
        conclusion = INCONCLUSIVE_VERDICT
    return Verdict(
        conclusion=conclusion,
        theorem=theorem,
        space=space,
        evidence=(_profile_evidence("block_profile", profile),),
    )


def h1_necessary(eta: SequenceSpec, Ns) -> Verdict:
    """Necessary and sufficient H^1 diagnostics.

    (a) (sum_{n<=N} n |eta_n|)/N must stay bounded, (b) the dyadic blocks
    of F' must have H^1 norms O(log N), and (c) if ||F'||_{H^1} converges
    under truncation growth the operator is compact on H^1. Only one-sided
    conclusions are available at p = 1, so the fallback is Inconclusive;
    blocks of F' left unresolved also end there, unless (a) decides.
    Trends need four Ns, as in :func:`carleson_check`: the ratio of (a)
    still rises at small N, and Cesaro, bounded on H^1, reads 0.114 on
    [8, 16, 32] but 0.076 on [8, 16, 32, 64].
    """
    Ns = np.asarray(Ns, dtype=int)
    if Ns.ndim != 1 or len(Ns) < 4 or np.any(np.diff(Ns) <= 0):
        raise ValueError("Ns must list at least four block sizes, increasing")
    if np.any(Ns < 2) or np.any(2 ** np.round(np.log2(Ns)).astype(int) != Ns):
        raise ValueError("Ns must be dyadic and >= 2")
    if Ns.max() > eta.truncation:
        raise ValueError("largest N exceeds the sequence truncation")
    v = np.abs(eta.values())
    n = np.arange(len(v))
    weighted = np.cumsum(n * v)
    ratio_a = np.array([weighted[N] / N for N in Ns])
    F = generating_function(eta)
    Fp = derivative(F)
    block_norms, delta_b = _BlockEngine(Fp.coeffs, Ns).norms(1.0)
    ratio_b = block_norms / np.log(Ns)
    norms_c = np.array(
        [hp_norm(partial_sum(Fp, int(N)), 1.0).value for N in Ns]
    )
    trend_a = fit_tail_slope(Ns.astype(float), ratio_a)
    trend_b = fit_tail_slope(Ns.astype(float), ratio_b)
    rel_c = float(abs(norms_c[-1] - norms_c[-2]) / max(norms_c[-1], np.finfo(float).tiny))
    evidence = (
        ("weighted_sum_ratio", {"Ns": Ns.tolist(), "values": ratio_a.tolist(),
                                "trend": trend_a}),
        ("block_log_ratio", {"Ns": Ns.tolist(), "values": ratio_b.tolist(),
                             "trend": trend_b, "refinement_delta": delta_b}),
        ("derivative_h1_trend", {"Ns": Ns.tolist(), "values": norms_c.tolist(),
                                 "relative_change": rel_c}),
    )
    if trend_a > TREND_THRESHOLD:
        return Verdict(NOT_BOUNDED, "Thm6ii", "Hardy(p=1)", evidence)
    if delta_b > REFINEMENT_FLAG:
        return Verdict(INCONCLUSIVE_VERDICT, "Thm6iii", "Hardy(p=1)", evidence)
    if trend_b > TREND_THRESHOLD:
        return Verdict(NOT_BOUNDED, "Thm6iii", "Hardy(p=1)", evidence)
    if rel_c < 1e-2:
        return Verdict(COMPACT, "Thm6i", "Hardy(p=1)", evidence)
    return Verdict(INCONCLUSIVE_VERDICT, "Thm6i", "Hardy(p=1)", evidence)


def decreasing_rule(eta: SequenceSpec, p: float) -> Verdict:
    """Exact rule for certified nonnegative decreasing weights: bounded on
    H^p (1 < p < inf) exactly when n * eta_n stays bounded."""
    if not 1.0 < p < np.inf:
        raise PRange(f"p={p} must lie in (1, inf)")
    require_decreasing(eta)
    v = eta.values().real
    ns = 2 ** np.arange(1, int(np.floor(np.log2(eta.truncation))) + 1)
    products = ns * v[ns]
    trend = fit_tail_slope(ns.astype(float), products)
    evidence = (
        ("n_eta_n", {"ns": ns.tolist(), "values": products.tolist(),
                     "trend": trend, "threshold": TREND_THRESHOLD}),
    )
    conclusion = NOT_BOUNDED if trend > TREND_THRESHOLD else BOUNDED
    return Verdict(conclusion, "Thm4iii", f"Hardy(p={p})", evidence)


# --- embedding diagnostics -------------------------------------------------


def default_corpus() -> list[CoeffSeq]:
    """Fixed test corpus: the concentrated family plus 20 seeded random
    polynomials of degree 256."""
    from .constructions import extremal_fn

    corpus = [extremal_fn(2.0, N) for N in (4, 8, 16, 32, 64)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        corpus.append(CoeffSeq(c))
    return corpus


def dpp_embedding_check(
    eta: SequenceSpec,
    p: float,
    corpus: list[CoeffSeq] | None = None,
    tail_Ns=(64, 256, 1024),
) -> dict:
    """Fitted embedding constants into the derivative-weighted target space.

    Reports the largest ratio over the corpus of the Dirichlet-type norm of
    the image against the H^p norm of the input, plus the same ratios for
    the tail operators, which must decay when the operator is compact, and
    the worst refinement delta of the norms behind them.
    """
    if corpus is None:
        corpus = default_corpus()
    for N in tail_Ns:
        if N > eta.truncation:
            raise TruncationMismatch(f"N={N} exceeds truncation {eta.truncation}")
    deltas = []

    def norm(rep) -> float:
        deltas.append(rep.refinement_delta)
        return rep.value

    dirichlet_ratios = []
    images = []
    ev = eta.values()
    for f in corpus:
        denom = norm(hp_norm(f, p))
        if denom == 0.0:
            continue
        Rf = _apply_realized(ev, f)
        images.append((Rf, denom))
        dirichlet_ratios.append(norm(dirichlet_norm(Rf, p, p - 1.0)) / denom)
    # each tail (R - R_N) f is the image with coefficients 0..N zeroed
    tail_ratios = [
        max(
            (norm(dirichlet_norm(zero_head(Rf, int(N)), p, p - 1.0)) / denom
             for Rf, denom in images),
            default=0.0,
        )
        for N in tail_Ns
    ]
    return {
        "dirichlet_constant": max(dirichlet_ratios, default=0.0),
        "tail_Ns": list(tail_Ns),
        "tail_ratios": tail_ratios,
        "refinement_delta": max(deltas, default=0.0),
    }


def hardy_inequality_check(f: CoeffSeq) -> tuple[float, float]:
    """(sum |a_n|/(n+1), pi * ||f||_{H^1}); the first never exceeds the
    second beyond quadrature slack."""
    s = float(np.sum(np.abs(f.coeffs) / (np.arange(f.degree + 1) + 1.0)))
    return s, float(np.pi * hp_norm(f, 1.0).value)
