"""Companding scalar quantizer design for a Gaussian source.

The optimal compressor curve is approximated per segment by least-squares
quadratics; the resulting quantizer's distortion and SQNR are evaluated
analytically, and the free segment threshold is optimized numerically.
"""

__version__ = "0.1.0"

from . import gauss_analytics, quantizer_design, reference_oracles, spline_fit, threshold_optimizer
from .gauss_analytics import *
from .spline_fit import *
from .quantizer_design import *
from .threshold_optimizer import *
from .reference_oracles import *

__all__ = [
    "__version__",
    *gauss_analytics.__all__,
    *spline_fit.__all__,
    *quantizer_design.__all__,
    *threshold_optimizer.__all__,
    *reference_oracles.__all__,
]
