"""Exact arithmetic for binomial squares in pure cubic fields.

Squares of the form a - b*cbrt(m) in Q(cbrt(m)) correspond to rational
points on the Mordell curve y^2 = x^3 - m*b^3. This package implements
both sides of that correspondence exactly: the curve group law with
point halving, the field arithmetic, the induced product on binomial
square roots, a decision procedure for binomial squareness, and the
construction of quadratic extensions (with unramifiedness flags) from
curve points.

``import purecubic`` loads no submodule. Each public name lives in the
submodule that _EXPORTS gives for it; the first use of the name (or of
the submodule, as ``purecubic.field``) imports that submodule and the
ones it needs, and caches the name here (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "arith": ("DEFAULT_EFFORT", "Factorization", "IntPoly", "cubefree_and_noncube", "factorize",
              "perfect_square_root", "rational_roots"),
    "binsq": ("BinomialSquareWitness", "StarParts", "elem_from_point", "is_square_binomial",
              "point_from_elem", "star", "star_parts"),
    "classfield": ("KappaReport", "Table1Result", "Table1Row", "kappa_element", "sqrt_ext_minpoly",
                   "table1_verify", "unramified_conditions"),
    "errors": ("AlphaIsSquare", "DomainError", "EffortExceeded", "FieldMismatch", "InvalidPoint",
               "NotBinomial", "ZeroElement"),
    "field": ("CubicElement", "CubicField", "sqrt_in_field"),
    "mordell": ("INFINITY", "CurvePoint", "MordellCurve", "affine"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
