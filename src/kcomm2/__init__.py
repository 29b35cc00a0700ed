"""Exact desk-scale calculus for iterated 2x2 matrix brackets, structure
classifiers, and verification/decomposition of bracket-preserving maps."""

from .brackets import (
    kcomm,
    kcomm_closed,
    kcomm_eigenpair,
    kcomm_recursive,
)
from .classify import (
    Coefficients,
    NotAnIdentity,
    SandwichSystem,
    Verdict,
    rank_one_identity_solve,
    sandwich_operator,
    scalar_plus_nilpotent_kcomm,
    scalar_plus_nilpotent_spectral,
    scalar_witness_test,
)
from .fields import (
    FLOAT_C,
    FLOAT_R,
    GAUSSIAN_QI,
    RATIONAL_Q,
    FieldTag,
    GaussianRational,
    roots_of_unity,
)
from .matrices import (
    Mat2,
    RankOneFactor,
    SpectralSplit,
    is_idempotent,
    is_nilpotent,
    matrix_units,
    outer,
    rank_one_factor,
    spectral_split,
)
from .preserver import (
    Decomposition,
    MapTable,
    central_shift_check,
    decompose,
    generate_map,
    probe_campaign,
    probe_set,
    verify_preserving,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
