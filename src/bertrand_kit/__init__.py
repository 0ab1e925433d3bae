"""Bertrand curve pairs in three-dimensional Euclidean space.

Exact Frenet apparatus of analytic curves via Taylor-jet arithmetic,
construction and detection of Bertrand mates, closed-form apparatus of
the six spherical indicatrices of a pair, and numerical verification of
the identities that tie them together.
"""

from .bertrand import (
    BertrandPairModel,
    ConstancyStat,
    construct_mate,
    detect_bertrand,
    generate_bertrand_curve,
    generated_pair,
    linear_relation_fit,
    pair_constraint_residual,
    sphere_preset,
    DEFAULT_OMEGA,
    SPHERE_PRESETS,
)
from .classify import (
    CurveClass,
    PairClass,
    TheoremEntry,
    TheoremReport,
    classify_curve,
    pair_classify,
    theorem_suite,
)
from .curves import (
    AnalyticCurve,
    Curve,
    FrenetData,
    JetBackedCurve,
    SampledCurve,
    frenet_apparatus,
    frenet_grid,
)
from .errors import (
    BertrandKitError,
    DegenerateRatioError,
    DegenerateSphereCurveError,
    DomainError,
    ExprSyntaxError,
    GridMismatchError,
    IllConditionedError,
    NonConstantExponentError,
    NotAPairError,
    NotSphericalError,
    OrderOverflowError,
    OutOfDomainError,
    SingularPointError,
    TooFewSamplesError,
    UnknownFunctionError,
)
from .indicatrix import (
    AffineFit,
    ArcLengthRelations,
    frame_relations_check,
    indicatrix_arclength_relations,
    indicatrix_curve,
)
from .io import (
    CurveFileError,
    RunReport,
    curve_from_dict,
    curve_to_dict,
    load_curve,
    save_curve,
)
from .jets import Jet, compose, evaluate_jet, invert_series
from .paper import (
    IndicatrixSample,
    MateApparatus,
    bertrand_lambda,
    mate_apparatus_from_base,
)

__version__ = "1.0.0"
