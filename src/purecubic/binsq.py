"""Binomial squares a - b*w and their rational points.

An element alpha = r + s*w + t*w^2 of Q(w), w^3 = m, squares to a
binomial a - b*w exactly when 2rt + s^2 = 0. Nontrivial solutions
(t != 0) correspond to rational points on the twist y^2 = x^3 - m*b^3:

    alpha        ->  (x, y) = (b*s/t, b^2/t),  b = -(2rs + m t^2)
    (x, y)       ->  alpha = -x^2/2y + (b*x/y)*w + (b^2/y)*w^2,
                     alpha^2 = a - b*w,  a = r^2 + 2m*s*t = x(2P)

So alpha alone is the witness: BinomialSquareWitness stores the field
and alpha and reads b, a, the point and its twist from alpha's integers
(R + S*w + T*w^2)/D. Both maps work on integers: a point's coordinates
are one Fraction(num, den) each, and an element is built in lowest
terms from xi = x/b and eta = y/b^2, as star builds its product.

Negating alpha negates the point's y, so a - b*w pins alpha down only
up to sign. is_square_binomial, the one decision entry, tests the norm
a^3 - m*b^3 for a square on integers, then returns the root with
positive real embedding, alpha(-Q) = -alpha(Q) for the halving preimage
Q, since N(alpha(Q)) = -y(2Q). Its None is a proof: for an affine point
P on y^2 = x^3 - m, is_square_binomial(field, x(P), 1) is None exactly
when P is not divisible by 2, which certifies x(P) - w a non-square.

2rt + s^2 = 0 alone proves that alpha's point is on its twist, so star
checks each operand once and runs one chord: star(alpha1, alpha2) is the
element of -(P1 + P2), the sign of star_parts' closed formulas (b = 1),
and 1 when the chord gives infinity (alpha2 = -alpha1). A rational
operand is the identity and leaves the other one unchanged.

The chord is mordell's _third_point, run on integers in the elements'
own coordinates xi = s/t and eta = 1/t, reduced first, with no curve,
point or intermediate Fraction: P = (b*xi, b^2*eta), the twist reads
b*eta^2 = xi^3 - m (the kernel's a = b), and its third point (xi3, eta3)
is -(P1 + P2) scaled alike, whose element (-xi3^2/(2*eta3), xi3/eta3,
1/eta3) _element builds in lowest terms: b has dropped out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .arith import Value, _set
from .errors import FieldMismatch, InvalidPoint, NotBinomial, ZeroElement
from .field import CubicElement, CubicField, sqrt_in_field
from .mordell import INFINITY, CurvePoint, MordellCurve, _lowest, _mul, _third_point


class BinomialSquareWitness(Value):
    """An element alpha with alpha^2 = a - b*w, and the curve point it fixes.

    b, a, the point (b*s/t, b^2/t) and its twist y^2 = x^3 - m*b^3 are
    read from alpha, whose one check, 2rt + s^2 = 0, puts the point on the
    twist. Rational alpha (b = 0) gives infinity and no twist curve.
    """

    __slots__ = ("field", "alpha")

    def __init__(self, field: CubicField, alpha: CubicElement):
        _binomial(field, alpha)
        _set(self, "field", field)
        _set(self, "alpha", alpha)

    b = property(lambda self: Fraction(_binomial(self.field, self.alpha)[3], self.alpha.D ** 2))
    a = property(lambda self: Fraction(self.alpha.R ** 2 + 2 * self.field.m * self.alpha.S * self.alpha.T,
                                       self.alpha.D ** 2))
    point = property(lambda self: _point(self.b, self.alpha) if self.alpha.T else INFINITY)
    curve = property(lambda self: MordellCurve.twist(self.field.m, self.b) if self.alpha.T else None)


def _point(b: Fraction, alpha: CubicElement) -> CurvePoint:
    """The point (b*s/t, b^2/t) of alpha, t != 0, one Fraction a coordinate; unvalidated, see _binomial."""
    bn, bd = b.numerator, b.denominator
    return CurvePoint(Fraction(bn * alpha.S, bd * alpha.T), Fraction(bn * bn * alpha.D, bd * bd * alpha.T))


def _alpha(field: CubicField, b: Fraction, P: CurvePoint) -> CubicElement:
    """The element of an affine point P with y != 0 on y^2 = x^3 - m*b^3: that of xi = x/b, eta = y/b^2."""
    bn, bd = b.numerator, b.denominator
    xi = _mul(P.x.numerator, P.x.denominator, bd, bn)
    return _element(field, *xi, *_mul(P.y.numerator, P.y.denominator, bd * bd, bn * bn))


def _binomial(field: CubicField, alpha: CubicElement) -> tuple[int, int, int, int]:
    """(s, t, d, B) of alpha = (r + s*w + t*w^2)/d, alpha^2 = a - b*w with b = B/d^2, checked once.

    Raises FieldMismatch, ZeroElement, or NotBinomial unless 2rt + s^2 = 0.
    That check alone puts (x, y) = _point(b, alpha) on y^2 = x^3 - m*b^3:
    y^2 - x^3 + m*b^3 = -(b/t)^3 * s*(2rt + s^2). B = 0 exactly when alpha is rational.
    """
    if alpha.field != field:
        raise FieldMismatch(f"{alpha.field} != {field}")
    r, s, t, d = alpha.R, alpha.S, alpha.T, alpha.D  # on the common denominator d
    if not (r or s or t):
        raise ZeroElement("0 is not in the multiplicative group")
    if 2 * r * t + s * s != 0:
        raise NotBinomial(f"2rt + s^2 = {Fraction(2 * r * t + s * s, d * d)} != 0")
    return s, t, d, -(2 * r * s + field.m * t * t)


def elem_from_point(field: CubicField, b, P: CurvePoint) -> BinomialSquareWitness:
    """The element attached to an affine point of y^2 = x^3 - m*b^3."""
    b = Fraction(b)
    curve = MordellCurve.twist(field.m, b)  # ZeroElement for b = 0
    if P.is_infinity:
        raise InvalidPoint("the point at infinity maps to the trivial element")
    curve._require(P)  # the one check: P on the curve makes alpha^2 = a - b*w an identity
    # y != 0: a point (x, 0) would make m*b^3 = x^3 a rational cube, and CubicField rejects cube m
    return BinomialSquareWitness(field, _alpha(field, b, P))


def point_from_elem(field: CubicField, alpha: CubicElement) -> BinomialSquareWitness:
    """The point attached to an element whose square is binomial.

    Raises FieldMismatch if alpha lies in another field, and NotBinomial
    unless 2rt + s^2 = 0. Rational alpha is the trivial case and maps to
    the point at infinity with b = 0.
    """
    return BinomialSquareWitness(field, alpha)


class StarParts(NamedTuple):
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
    is then automatically nonzero. Raises InvalidPoint otherwise.
    """
    s1, t1 = alpha1.s, alpha1.t
    s2, t2 = alpha2.s, alpha2.t
    s_minus = s1 * t2 - s2 * t1
    s_plus = s1 * t2 + s2 * t1
    t_minus = t1 - t2
    t_plus = t1 * t2
    sigma = (s2 - s1) * t_plus - s_plus * t_minus
    den = t_minus**3 * t_plus + s_minus**2 * sigma
    if s_minus == 0 or den == 0:
        raise InvalidPoint("chord formulas need distinct x-coordinates")
    s3 = (s_minus**3 * s_plus - s_minus * t_minus**2 * t_plus) / den
    t3 = -(s_minus**3 * t_plus) / den
    r3 = -s3 * s3 / (2 * t3)
    return StarParts(s_minus, s_plus, t_minus, t_plus, sigma, r3, s3, t3)


def _element(field: CubicField, p: int, q: int, u: int, v: int) -> CubicElement:
    """(-xi^2/(2*eta), xi/eta, 1/eta) for xi = p/q, eta = u/v != 0 in lowest terms, q, v > 0, with one
    gcd and no Fraction. The four integers of (-p^2*v, 2pq*v, 2q^2*v)/(2q^2*u) share exactly
    G = gcd(c*v, 2q^2), c = gcd(p^2, 2): p shares nothing with q, nor u with v, so the first three share
    c*v, and u adds nothing. So the factors c*v and 2q^2, not the four products, are divided by G, G
    taking u's sign, which keeps each division small."""
    c, q2 = 2 - (p & 1), 2 * q * q
    G = gcd(c * v, q2) if u > 0 else -gcd(c * v, q2)
    k, Q = c * v // G, q2 // G
    return CubicElement._of(field, -(p * p // c) * k, (2 * p * q // c) * k, Q * v, Q * u, True)


def star(alpha1: CubicElement, alpha2: CubicElement) -> CubicElement:
    """Product induced on binomial-square elements by point addition.

    Both operands must satisfy 2rt + s^2 = 0 and carry the same twist
    scale b. Each is checked once, by _binomial, which puts its point on
    y^2 = x^3 - m*b^3; one chord (the tangent for equal operands) then
    gives -(P1 + P2) and its element, as the module docstring says. A
    rational operand is the identity and returns the other unchanged;
    alpha and -alpha give 1.
    """
    field = alpha1.field
    s1, t1, d1, B1 = _binomial(field, alpha1)
    s2, t2, d2, B2 = _binomial(field, alpha2)
    if not t1:
        return alpha2
    if not t2:
        return alpha1
    D1, D2 = d1 * d1, d2 * d2
    if B1 * D2 != B2 * D1:
        raise NotBinomial(f"twist scales differ: {Fraction(B1, D1)} vs {Fraction(B2, D2)}")
    xi1 = _lowest(s1, t1)
    eta1 = _lowest(d1, t1)
    if s1 == s2 and t1 == t2 and d1 == d2:  # alpha2 = alpha1: the tangent
        xi2, eta2 = xi1, eta1
    else:
        xi2 = _lowest(s2, t2)
        if xi2 == xi1:  # one x, another element: P2 = -P1, and the chord meets infinity
            return field.one
        eta2 = _lowest(d2, t2)
    b = _lowest(B1, D1)
    return _element(field, *_third_point(b, xi1, eta1, xi2, eta2))


def is_square_binomial(field: CubicField, a, b) -> CubicElement | None:
    """Decide whether a - b*w is a square in the field.

    Necessary first: the norm a^3 - m b^3 must be a rational square y^2.
    If it is, a - b*w is a square exactly when (a, y) is divisible by 2
    on the twist y^2 = x^3 - m*b^3; a halving preimage then yields the
    root directly. One halving settles both signs of y: the points are
    P and -P, and halve(-P) is the negation of halve(P), so either both
    are empty or neither is. Returns the root with positive real
    embedding, or None: -alpha(Q) for the preimage Q = (x, y), because
    N(alpha(Q)) = -(x^6 + 20kx^3 - 8k^2)/(8y^3) = -y(2Q) < 0, k = -m*b^3, by
    the duplication formula, and the real embedding has the norm's sign.
    """
    a = a if a.__class__ is Fraction else Fraction(a)
    b = b if b.__class__ is Fraction else Fraction(b)
    if a == 0 and b == 0:
        raise ZeroElement("0 has no useful square root here")
    if b == 0:
        return sqrt_in_field(field.element(a))
    e = a.denominator * b.denominator
    # the norm a^3 - m*b^3 is n/e^3, the square of a rational exactly when n*e is an integer square
    ne = ((a.numerator * b.denominator) ** 3 - field.m * (b.numerator * a.denominator) ** 3) * e
    y = isqrt(ne) if ne > 0 else -1
    if y * y != ne:
        return None
    curve = MordellCurve.twist(field.m, b)
    for Q in curve.halve(CurvePoint(a, Fraction(y, e * e))):
        return _alpha(field, b, -Q)
    return None

