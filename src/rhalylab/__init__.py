"""rhalylab: a numerical laboratory for averaging (Rhaly) operators on
Hardy and Bergman spaces.

The operator with weight sequence eta maps a Taylor series to the series
whose n-th coefficient is eta_n times the n-th prefix sum of the input
coefficients. The package evaluates the norms involved, profiles dyadic
coefficient blocks, classifies boundedness and compactness, builds the
extremal test functions and sign-series counterexamples, and exposes it
all through a command-line interface.
"""

__version__ = "0.1.0"

from .coeffcore import CircleGrid, CoeffSeq
from .errors import RhalyError
from .lipschitz import BlockProfile, block_profile, classify_membership
from .norms import NormReport, bergman_norm, hp_norm, mean_mp
from .rhalyop import (
    DiscreteMeasure,
    OpNormEstimate,
    SequenceSpec,
    apply_rhaly,
    generating_function,
    opnorm_h2,
    opnorm_lower_hp,
)
from .classifier import Verdict, classify_bergman, classify_hardy, decreasing_rule

__all__ = [
    "__version__",
    "CircleGrid",
    "CoeffSeq",
    "RhalyError",
    "BlockProfile",
    "block_profile",
    "classify_membership",
    "NormReport",
    "bergman_norm",
    "hp_norm",
    "mean_mp",
    "DiscreteMeasure",
    "OpNormEstimate",
    "SequenceSpec",
    "apply_rhaly",
    "generating_function",
    "opnorm_h2",
    "opnorm_lower_hp",
    "Verdict",
    "classify_bergman",
    "classify_hardy",
    "decreasing_rule",
]
