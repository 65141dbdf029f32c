"""Exact arithmetic for binomial squares in pure cubic fields.

Squares of the form a - b*cbrt(m) in Q(cbrt(m)) correspond to rational
points on the Mordell curve y^2 = x^3 - m*b^3. This package implements
both sides of that correspondence exactly: the curve group law with
point halving, the field arithmetic, the induced product on binomial
square roots, a decision procedure for binomial squareness, and the
construction of quadratic extensions (with unramifiedness flags) from
curve points.
"""

from .arith import (
    DEFAULT_EFFORT,
    Factorization,
    IntPoly,
    Rat,
    cubefree_and_noncube,
    factorize,
    perfect_square_root,
    rational_reconstruct,
    rational_roots,
)
from .binsq import (
    BinomialSquareWitness,
    StarParts,
    elem_from_point,
    is_square_binomial,
    nonsquare_certificate,
    point_from_elem,
    star,
    star_parts,
)
from .classfield import (
    KappaReport,
    Table1Result,
    Table1Row,
    kappa_element,
    kappa_pairwise_distinct,
    sqrt_ext_minpoly,
    table1_verify,
    unramified_conditions,
)
from .errors import (
    AlphaIsSquare,
    DomainError,
    EffortExceeded,
    FieldMismatch,
    InvalidPoint,
    NotBinomial,
    ZeroElement,
)
from .field import (
    CubicElement,
    CubicField,
    binomial_minpoly,
    sqrt_in_field,
)
from .mordell import INFINITY, CurvePoint, MordellCurve, affine

__version__ = "0.1.0"

__all__ = [
    "AlphaIsSquare",
    "BinomialSquareWitness",
    "CubicElement",
    "CubicField",
    "CurvePoint",
    "DEFAULT_EFFORT",
    "DomainError",
    "EffortExceeded",
    "Factorization",
    "FieldMismatch",
    "INFINITY",
    "IntPoly",
    "InvalidPoint",
    "KappaReport",
    "MordellCurve",
    "NotBinomial",
    "Rat",
    "StarParts",
    "Table1Result",
    "Table1Row",
    "ZeroElement",
    "affine",
    "binomial_minpoly",
    "cubefree_and_noncube",
    "elem_from_point",
    "factorize",
    "is_square_binomial",
    "kappa_element",
    "kappa_pairwise_distinct",
    "nonsquare_certificate",
    "perfect_square_root",
    "point_from_elem",
    "rational_reconstruct",
    "rational_roots",
    "sqrt_ext_minpoly",
    "sqrt_in_field",
    "star",
    "star_parts",
    "table1_verify",
    "unramified_conditions",
]
