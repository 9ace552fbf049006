"""Companding scalar quantizer design for a Gaussian source.

The optimal compressor curve is approximated per segment by least-squares
quadratics; the resulting quantizer's distortion and SQNR are evaluated
analytically, and the free segment threshold is optimized numerically.
"""

__version__ = "0.1.0"

from .gauss_analytics import (
    QuadratureError,
    SourceModel,
    compressor,
    compressor_derivative,
    integrate,
    pdf,
    support_threshold,
    tail_centroid,
    upper_tail,
)
from .spline_fit import (
    InversionError,
    KnotVector,
    QuadraticSpline,
    fit,
    invert_segment,
)
from .quantizer_design import (
    CompandingQuantizer,
    DesignConfig,
    DesignError,
    DistortionReport,
    build,
    decode,
    encode,
    granular_distortion,
    overload_distortion_closed,
    overload_distortion_exact,
    sqnr,
    standard_config,
    step_size,
)
from .threshold_optimizer import (
    RefineResult,
    SweepCandidate,
    SweepError,
    SweepResult,
    evaluate_candidate,
    refine,
    sweep,
)
from .reference_oracles import (
    ConvergenceError,
    LloydMaxResult,
    McEstimate,
    exact_compressor_sqnr,
    lloyd_max,
    mc_distortion,
    true_distortion,
)

__all__ = [
    "__version__",
    "QuadratureError",
    "SourceModel",
    "compressor",
    "compressor_derivative",
    "integrate",
    "pdf",
    "support_threshold",
    "tail_centroid",
    "upper_tail",
    "InversionError",
    "KnotVector",
    "QuadraticSpline",
    "fit",
    "invert_segment",
    "CompandingQuantizer",
    "DesignConfig",
    "DesignError",
    "DistortionReport",
    "build",
    "decode",
    "encode",
    "granular_distortion",
    "overload_distortion_closed",
    "overload_distortion_exact",
    "sqnr",
    "standard_config",
    "step_size",
    "RefineResult",
    "SweepCandidate",
    "SweepError",
    "SweepResult",
    "evaluate_candidate",
    "refine",
    "sweep",
    "ConvergenceError",
    "LloydMaxResult",
    "McEstimate",
    "exact_compressor_sqnr",
    "lloyd_max",
    "mc_distortion",
    "true_distortion",
]
