"""Exact desk-scale calculus for iterated 2x2 matrix brackets, structure
classifiers, and verification/decomposition of bracket-preserving maps.

The package loads lazily (PEP 562): ``from kcomm2 import Mat2`` imports only
the submodules ``Mat2`` needs, so a CLI subcommand pays for no classifier or
preserver code it does not run.
"""

from importlib import import_module as _import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "brackets": ("kcomm", "kcomm_closed", "kcomm_eigenpair", "kcomm_recursive"),
    "classify": ("Coefficients", "NotAnIdentity", "SandwichSystem", "SpectralSplit", "Verdict",
                 "rank_one_identity_solve", "sandwich_operator", "scalar_plus_nilpotent_kcomm",
                 "scalar_plus_nilpotent_spectral", "scalar_witness_test"),
    "fields": ("FLOAT_C", "FLOAT_R", "GAUSSIAN_QI", "RATIONAL_Q", "FieldTag",
               "GaussianRational", "roots_of_unity"),
    "matrices": ("Mat2", "RankOneFactor", "matrix_units", "outer", "rank_one_factor"),
    "preserver": ("Decomposition", "MapTable", "decompose", "generate_map", "probe_campaign",
                  "probe_set", "verify_preserving"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS, "errors", "randgen"])
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its submodule on every access, so it is never stale.

    A submodule binds its own name here once imported.
    """
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in __all__:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
