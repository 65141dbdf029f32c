"""Binomial squares a - b*w and their rational points.

An element alpha = r + s*w + t*w^2 of Q(w), w^3 = m, squares to a
binomial a - b*w exactly when 2rt + s^2 = 0. Nontrivial solutions
(t != 0) correspond to rational points on the twist y^2 = x^3 - m*b^3:

    alpha        ->  (x, y) = (b*s/t, b^2/t),  b = -(2rs + m t^2)
    (x, y)       ->  alpha = -x^2/2y + (b*x/y)*w + (b^2/y)*w^2,
                     alpha^2 = (x^4 + 8Mx)/(4y^2) - b*w,  M = m*b^3

Negating alpha negates the point's y, so a square a - b*w pins alpha
down only up to sign. Decision procedures here normalize their output
to the root with positive real embedding; the raw maps above do not.

The induced product on these elements ("star") follows closed chord
formulas whose sign convention matches the third collinear point, i.e.
star(alpha1, alpha2) is the element of -(P1 + P2) under the standard
group law. Identity cases keep their operand unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import perfect_square_root
from .errors import FieldMismatch, InvalidPoint, NotBinomial, ZeroElement
from .field import CubicElement, CubicField
from .mordell import INFINITY, CurvePoint, MordellCurve


@dataclass(frozen=True)
class BinomialSquareWitness:
    """An element alpha with alpha^2 = a - b*w, tied to its curve point.

    For the trivial case (alpha rational, b = 0) the point is infinity
    and there is no twist curve.
    """

    field: CubicField
    b: Fraction
    alpha: CubicElement
    a: Fraction
    point: CurvePoint
    curve: MordellCurve | None

    def __post_init__(self):
        binom = self.field.element(self.a, -self.b, 0)
        if self.alpha * self.alpha != binom:
            raise NotBinomial(f"{self.alpha} does not square to {self.a} - {self.b}*w")
        if self.curve is not None and not self.curve.contains(self.point):
            raise InvalidPoint(f"{self.point} is not on {self.curve}")


def elem_from_point(field: CubicField, b, P: CurvePoint) -> BinomialSquareWitness:
    """The element attached to an affine point of y^2 = x^3 - m*b^3."""
    b = Fraction(b)
    if b == 0:
        raise ValueError("twist scale b must be nonzero")
    curve = MordellCurve.twist(field.m, b)
    if P.is_infinity:
        raise InvalidPoint("the point at infinity maps to the trivial element")
    if not curve.contains(P):
        raise InvalidPoint(f"{P} is not on {curve}")
    x, y = P.x, P.y
    if y == 0:
        # cannot happen: m*b^3 is never a rational cube for cubefree non-cube m
        raise InvalidPoint("2-torsion points carry no binomial square")
    alpha = field.element(-x * x / (2 * y), b * x / y, b * b / y)
    M = field.m * b**3
    a = (x**4 + 8 * M * x) / (4 * y * y)
    return BinomialSquareWitness(field, b, alpha, a, P, curve)


def point_from_elem(field: CubicField, alpha: CubicElement) -> BinomialSquareWitness:
    """The point attached to an element whose square is binomial.

    Raises FieldMismatch if alpha lies in another field, and NotBinomial
    unless 2rt + s^2 = 0. Rational alpha is the trivial case and maps to
    the point at infinity with b = 0.
    """
    if alpha.field != field:
        raise FieldMismatch(f"{alpha.field} != {field}")
    if alpha.is_zero():
        raise ZeroElement("0 is not in the multiplicative group")
    r, s, t = alpha.components()
    if 2 * r * t + s * s != 0:
        raise NotBinomial(f"2rt + s^2 = {2 * r * t + s * s} != 0")
    m = field.m
    b = -(2 * r * s + m * t * t)
    if t == 0:
        # then s = 0 as well, so alpha is rational and alpha^2 = r^2
        return BinomialSquareWitness(field, Fraction(0), alpha, r * r, INFINITY, None)
    assert b != 0, "a non-rational element cannot have a rational square here"
    x = b * s / t
    y = b * b / t
    a = r * r + 2 * m * s * t
    curve = MordellCurve.twist(m, b)
    point = curve.point(x, y)
    return BinomialSquareWitness(field, b, alpha, a, point, curve)


@dataclass(frozen=True)
class StarParts:
    """Intermediates of the closed chord formulas for the star product."""

    s_minus: Fraction
    s_plus: Fraction
    t_minus: Fraction
    t_plus: Fraction
    sigma: Fraction
    r: Fraction
    s: Fraction
    t: Fraction


def star_parts(alpha1: CubicElement, alpha2: CubicElement) -> StarParts:
    """Closed-formula star product for the generic chord case (b = 1).

    Requires s1/t1 != s2/t2 (distinct x-coordinates); the denominator
    is then automatically nonzero.
    """
    s1, t1 = alpha1.s, alpha1.t
    s2, t2 = alpha2.s, alpha2.t
    s_minus = s1 * t2 - s2 * t1
    s_plus = s1 * t2 + s2 * t1
    t_minus = t1 - t2
    t_plus = t1 * t2
    sigma = (s2 - s1) * t_plus - s_plus * t_minus
    den = t_minus**3 * t_plus + s_minus**2 * sigma
    assert s_minus != 0 and den != 0, "chord formulas need distinct x-coordinates"
    s3 = (s_minus**3 * s_plus - s_minus * t_minus**2 * t_plus) / den
    t3 = -(s_minus**3 * t_plus) / den
    r3 = -s3 * s3 / (2 * t3)
    return StarParts(s_minus, s_plus, t_minus, t_plus, sigma, r3, s3, t3)


def star(alpha1: CubicElement, alpha2: CubicElement) -> CubicElement:
    """Product induced on binomial-square elements by point addition.

    Both operands must satisfy 2rt + s^2 = 0 and carry the same twist
    scale b. The generic chord case with b = 1 uses the closed
    formulas; everything else (identity, inverse pairs, tangent, and
    b != 1) is routed through point addition with the matching sign
    convention.
    """
    field = alpha1.field
    w1 = point_from_elem(field, alpha1)
    w2 = point_from_elem(field, alpha2)
    if w1.point.is_infinity:
        return alpha2
    if w2.point.is_infinity:
        return alpha1
    if w1.b != w2.b:
        raise NotBinomial(f"twist scales differ: {w1.b} vs {w2.b}")
    P1, P2 = w1.point, w2.point
    if P1 == -P2:
        return field.one
    if P1.x != P2.x and w1.b == 1:
        parts = star_parts(alpha1, alpha2)
        return field.element(parts.r, parts.s, parts.t)
    curve = w1.curve
    total = curve.add(P1, P2)
    return elem_from_point(field, w1.b, -total).alpha


def is_square_binomial(field: CubicField, a, b) -> CubicElement | None:
    """Decide whether a - b*w is a square in the field.

    Necessary first: the norm a^3 - m b^3 must be a rational square y^2.
    If it is, a - b*w is a square exactly when (a, y) is divisible by 2
    on the twist y^2 = x^3 - m*b^3; a halving preimage then yields the
    root directly. One halving settles both signs of y: the points are
    P and -P, and halve(-P) is the negation of halve(P), so either both
    are empty or neither is. Returns the root with positive real
    embedding, or None.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        raise ZeroElement("0 has no useful square root here")
    if b == 0:
        root = perfect_square_root(a)
        return field.element(root) if root is not None else None
    norm = a**3 - field.m * b**3
    y = perfect_square_root(norm)
    if y is None:
        return None
    curve = MordellCurve.twist(field.m, b)
    for Q in curve.halve(CurvePoint(a, y)):
        return elem_from_point(field, b, Q).alpha.positive_embedding()
    return None


def nonsquare_certificate(field: CubicField, P: CurvePoint) -> bool:
    """True when x(P) - w is certified not a square in the field.

    P must be affine on y^2 = x^3 - m. By the correspondence, x(P) - w
    is a square exactly when P is divisible by 2, so the certificate is
    an exact halving of P that comes back empty.
    """
    if P.is_infinity:
        raise InvalidPoint("need an affine point")
    curve = MordellCurve.from_m(field.m)
    if not curve.contains(P):
        raise InvalidPoint(f"{P} is not on {curve}")
    return not curve.halve(P)
