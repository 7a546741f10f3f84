"""Sharp L^p triangle-inequality envelopes between L^2 and L^p."""

from .envelopes import (BoundReport, ConeTriple, Exponent, carlen_bound,
                        classify, eval_F, eval_G, lower_envelope, sum_bound,
                        upper_envelope)
from .extremal import extremal_F, extremal_G
from .oracle import BoundaryCurve, EnvelopeOracle
from .stepfun import (StepFunction, overlap_norm, pth_power_norm, refine,
                      sum_and_report, sum_norm, triple_of_pair)

__all__ = [
    "BoundReport", "BoundaryCurve", "ConeTriple", "EnvelopeOracle",
    "Exponent", "StepFunction", "carlen_bound", "classify", "eval_F",
    "eval_G", "extremal_F", "extremal_G", "lower_envelope", "overlap_norm",
    "pth_power_norm", "refine", "sum_and_report", "sum_bound", "sum_norm",
    "triple_of_pair", "upper_envelope",
]

__version__ = "0.1.0"
