"""Truncated current (Takiff) algebras, invariant families, and theorem checks.

Exact rational arithmetic throughout; every randomized routine takes an
explicit seed and is reproducible bit-for-bit.
"""

from .liealg import (
    AlgebraError,
    AlgebraFormatError,
    HomogeneityError,
    IndexEstimateError,
    InvariantSet,
    LieAlgebra,
    index,
    is_symmetric_invariant,
    kirillov_matrix,
    magic_number,
    omega_test,
    poisson_bracket,
    validate,
)
from .polyring import ParseError, Polynomial, parse_poly
from .raistauvel import InvariantFamily, build_family, expand_invariant
from .report import FAIL, PASS, SAMPLED_PASS, SKIPPED, Report
from .takiff import TakiffGrading, multi_current, nilpotent_ideal, takiff
from .verify import (
    verify_main_theorem,
    verify_multi_current,
    wonderful_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "AlgebraFormatError",
    "HomogeneityError",
    "IndexEstimateError",
    "InvariantSet",
    "LieAlgebra",
    "index",
    "is_symmetric_invariant",
    "kirillov_matrix",
    "magic_number",
    "omega_test",
    "poisson_bracket",
    "validate",
    "ParseError",
    "Polynomial",
    "parse_poly",
    "InvariantFamily",
    "build_family",
    "expand_invariant",
    "FAIL",
    "PASS",
    "SAMPLED_PASS",
    "SKIPPED",
    "Report",
    "TakiffGrading",
    "multi_current",
    "nilpotent_ideal",
    "takiff",
    "verify_main_theorem",
    "verify_multi_current",
    "wonderful_diagnostic",
    "__version__",
]
