"""Exact interval-valued fuzzy beta-covering approximation spaces.

A finite universe, a family of interval-valued fuzzy sets indexed by
parameters, and a threshold interval beta whose covering condition the
family must satisfy.  From there: fuzzy and crisp neighborhood systems,
four kinds of lower/upper approximation operators, and an audit engine
that checks every algebraic law on randomly generated spaces with exact
rational arithmetic.
"""

__version__ = "1.0.0"

from .approximations import (
    ApproximationPair,
    Kind,
    approximate,
    crisp_lower,
    crisp_upper,
    fuzzy_lower,
    fuzzy_upper,
)
from .audit import (
    AuditReport,
    CheckInputs,
    CheckResult,
    REGISTRY,
    all_theorem_ids,
    check,
    replay,
    run_audit,
    sample_inputs,
    shrink_counterexample,
)
from .errors import (
    BetacoverError,
    DocumentError,
    EmptyFamilyError,
    IncompleteTableError,
    NotACoveringError,
    SpaceSyntaxError,
    UniverseMismatchError,
    UnknownObjectError,
    UnknownParameterError,
    UnknownTheoremError,
)
from .fuzzysets import CrispSubset, IVFuzzySet, Universe
from .generate import GenConfig, exhaustive_spaces, gen_space, grid_intervals
from .intervals import (
    BOTTOM,
    TOP,
    IntervalValue,
    complement,
    family_join,
    family_meet,
    join,
    leq_bool,
    meet,
)
from .neighborhoods import NeighborhoodSystem, crisp_of
from .serialize import (
    parse_set,
    parse_space,
    serialize_set,
    serialize_space,
    serialize_space_csv,
)
from .space import (
    CoveringReport,
    SoftMapping,
    SoftSpace,
    build_space,
    validate_beta_covering,
)

__all__ = [
    "__version__",
    "ApproximationPair",
    "AuditReport",
    "BOTTOM",
    "BetacoverError",
    "CheckInputs",
    "CheckResult",
    "CoveringReport",
    "CrispSubset",
    "DocumentError",
    "EmptyFamilyError",
    "GenConfig",
    "IVFuzzySet",
    "IncompleteTableError",
    "IntervalValue",
    "Kind",
    "NeighborhoodSystem",
    "NotACoveringError",
    "REGISTRY",
    "SoftMapping",
    "SoftSpace",
    "SpaceSyntaxError",
    "TOP",
    "Universe",
    "UniverseMismatchError",
    "UnknownObjectError",
    "UnknownParameterError",
    "UnknownTheoremError",
    "all_theorem_ids",
    "approximate",
    "build_space",
    "check",
    "complement",
    "crisp_lower",
    "crisp_of",
    "crisp_upper",
    "exhaustive_spaces",
    "family_join",
    "family_meet",
    "fuzzy_lower",
    "fuzzy_upper",
    "gen_space",
    "grid_intervals",
    "join",
    "leq_bool",
    "meet",
    "parse_set",
    "parse_space",
    "replay",
    "run_audit",
    "sample_inputs",
    "serialize_set",
    "serialize_space",
    "serialize_space_csv",
    "shrink_counterexample",
    "validate_beta_covering",
]
