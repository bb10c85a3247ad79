"""Dyadic block profiles and mean-Lipschitz membership classification.

Membership in the growth class at exponent alpha is read off the sequence
N^alpha ||Delta_N f||_{H^p} over dyadic N: bounded profiles indicate the
big-oh class, profiles that decay to zero the little-oh class, and profiles
with a clear upward log-log slope indicate neither. Since any finite
truncation underdetermines an asymptotic statement, the thresholds are
explicit constants and "Inconclusive" is a first-class outcome. The slope
threshold has two values in use, :data:`DEFAULT_EPS_SLOPE` for
`rhalylab profile` and criterion 2 and the tighter
:data:`classifier.CLASSIFIER_EPS_SLOPE` for verdicts, so it stays a
parameter of :func:`classify_membership`; the tail threshold
:data:`EPS_TAIL` has one.

The block norms come from :class:`norms._BlockEngine`, each block on its own
support. A profile carries the worst refinement delta of its blocks, and a
profile above :data:`norms.REFINEMENT_FLAG` is Inconclusive whatever its
shape. The little-oh class is also read off the growth seminorm: the
remainders f - S_N f of a member have :func:`norms.beta_sup` tending to 0
(:func:`partial_sum_convergence`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .coeffcore import CoeffSeq, zero_head
from .errors import AlphaRange, DegreeTooSmall
from .norms import REFINEMENT_FLAG, _BlockEngine, beta_sup

DEFAULT_EPS_SLOPE = 0.1
EPS_TAIL = 0.5

BIG_LAMBDA = "BigLambda"
LITTLE_LAMBDA = "LittleLambda"
NEITHER = "Neither"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class BlockProfile:
    exponent_alpha: float
    p: float
    entries: tuple  # of (N, scaled_norm)
    slope: float
    tail_ratio: float
    refinement_delta: float

    @property
    def flagged(self) -> bool:
        """True when some block stayed unresolved on its finest grid."""
        return self.refinement_delta > REFINEMENT_FLAG

    @property
    def scaled_norms(self) -> np.ndarray:
        return np.array([s for _, s in self.entries])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("N,scaled_norm\n")
        for N, s in self.entries:
            buf.write(f"{N},{s!r}\n")
        return buf.getvalue()

    def sidecar_json(self, verdict: str | None = None) -> dict:
        data = {
            "slope": self.slope,
            "tail_ratio": self.tail_ratio,
            "refinement_delta": self.refinement_delta,
        }
        if verdict is not None:
            data["verdict"] = verdict
        return data


def fit_tail_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares log-log slope over the tail half of the points (1-based
    k in [K/2, K]); 0 when the tail touches zero or has fewer than two points."""
    half = max(len(xs) // 2 - 1, 0)
    x, y = xs[half:], ys[half:]
    if np.any(y <= 0) or len(x) < 2:
        return 0.0
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def fit_K(degree: int, K: int) -> int:
    """K, capped at the largest block count whose top block N = 2^K ends
    at 2^(K+1) - 1 <= degree."""
    return min(K, (degree + 1).bit_length() - 2)


def block_profile(
    f: CoeffSeq,
    p: float,
    alpha: float,
    K: int,
    *,
    engine: _BlockEngine | None = None,
) -> BlockProfile:
    """Scaled dyadic block norms N^alpha ||Delta_N f||_{H^p} for N = 2..2^K.

    Block ranges past the stored degree are refused, since truncation zeros
    would masquerade as decay. A caller profiling one f at several exponents
    passes the engine built on f's blocks N = 2..2^K, so every profile reads
    the same samples.
    """
    if K < 6:
        raise ValueError("need K >= 6 dyadic blocks")
    if not np.isfinite(alpha):
        raise AlphaRange(f"alpha={alpha} must be finite")
    if 2 ** (K + 1) - 1 > f.degree:
        raise DegreeTooSmall(
            f"top block ends at {2 ** (K + 1) - 1}, past degree {f.degree}; "
            "the profile would read truncation zeros"
        )
    Ns = 2 ** np.arange(1, K + 1)
    if engine is None:
        engine = _BlockEngine(f.coeffs, Ns)
    elif engine.Ns != Ns.tolist():
        raise ValueError("engine blocks do not match N = 2..2^K")
    norms, delta = engine.norms(p)
    scaled = Ns**alpha * norms
    slope = fit_tail_slope(Ns, scaled)
    top = scaled.max()
    tail_ratio = float(scaled[-1] / top) if top > 0 else 0.0
    return BlockProfile(
        exponent_alpha=alpha,
        p=p,
        entries=tuple((int(N), float(s)) for N, s in zip(Ns, scaled)),
        slope=slope,
        tail_ratio=tail_ratio,
        refinement_delta=delta,
    )


def classify_membership(profile: BlockProfile, eps_slope: float = DEFAULT_EPS_SLOPE) -> str:
    """Map a block profile to its membership class.

    Bounded-and-flat profiles are BigLambda, additionally-vanishing tails
    are LittleLambda, clearly growing slopes are Neither, everything else
    is Inconclusive. An unresolved profile is Inconclusive whatever its
    shape.
    """
    scaled = profile.scaled_norms
    top = scaled.max()
    if profile.flagged:
        return INCONCLUSIVE
    if top == 0.0:
        # identically vanishing blocks: trivially in the little-oh class
        return LITTLE_LAMBDA
    # boundedness means no late surge; a decaying tail is still bounded,
    # so only the tail half is compared against the overall median
    tail_top = scaled[len(scaled) // 2 :].max()
    bounded = tail_top / max(np.median(scaled), np.finfo(float).tiny) <= 1.0 / EPS_TAIL
    if profile.slope <= eps_slope and bounded:
        return LITTLE_LAMBDA if profile.tail_ratio <= EPS_TAIL else BIG_LAMBDA
    if profile.slope >= 2.0 * eps_slope:
        return NEITHER
    return INCONCLUSIVE


def partial_sum_convergence(f: CoeffSeq, p: float, alpha: float, Ns) -> np.ndarray:
    """beta_sup of the partial-sum remainders f - S_N f over the given Ns."""
    return np.array([beta_sup(zero_head(f, int(N)), p, alpha) for N in Ns])
