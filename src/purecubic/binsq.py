"""Binomial squares a - b*w and their rational points.

An element alpha = r + s*w + t*w^2 of Q(w), w^3 = m, squares to a
binomial a - b*w exactly when 2rt + s^2 = 0. Nontrivial solutions
(t != 0) correspond to rational points on the twist y^2 = x^3 - m*b^3:

    alpha        ->  (x, y) = (b*s/t, b^2/t),  b = -(2rs + m t^2)
    (x, y)       ->  alpha = -x^2/2y + (b*x/y)*w + (b^2/y)*w^2,
                     alpha^2 = (x^4 + 8Mx)/(4y^2) - b*w,  M = m*b^3

Both maps work on the integers of b, x, y and of the stored element
(R + S*w + T*w^2)/D, with no Fraction arithmetic on the way: a point's
coordinates are one Fraction(num, den) each, and an element is built in
lowest terms from xi = x/b and eta = y/b^2, as star builds its product.

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

The chord runs on integers in the elements' own coordinates, with no
curve, point or intermediate Fraction. Put xi = s/t and eta = 1/t; then
P = (b*xi, b^2*eta), the twist reads b*eta^2 = xi^3 - m, and the chord's
slope is b*mu:

    mu   = (eta2 - eta1)/(xi2 - xi1),  or 3*xi1^2/(2*b*eta1) for the tangent,
    xi3  = b*mu^2 - xi1 - xi2,
    eta3 = mu*(xi3 - xi1) + eta1,

where (b*xi3, b^2*eta3) = -(P1 + P2), whose element is (-xi3^2/(2*eta3),
xi3/eta3, 1/eta3): b has dropped out. Every intermediate is a numerator
and denominator in lowest terms. xi = S/T and eta = D/T are reduced
first, a sum takes the gcd of its denominators first, and a product
takes the cross gcds, as Fraction's own arithmetic does (Henrici; Knuth,
TAOCP vol. 2, 4.5.1). The reason is size: for b = 1 the denominators of
xi and eta are z^2 and z^3 for one integer z, and the chord's
differences cancel most of what the operands share. A fraction left
unreduced carries those factors into each later product, so the numbers,
and the cost of the gcds that finally remove them, grow with every step.
The output is built in lowest terms with one gcd and no Fraction. With
xi3 = p/q and eta3 = u/v reduced, the element is (-p^2*v, 2pq*v,
2q^2*v)/(2q^2*u), and its four integers share exactly G = gcd(c*v,
2q^2), c = gcd(p^2, 2): p shares nothing with q, nor u with v, so the
first three share c*v, and u adds nothing. Dividing the factors c*v and
2q^2 by G, not the four products, keeps each division small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .arith import Value, _set, perfect_square_root
from .errors import FieldMismatch, InvalidPoint, NotBinomial, ZeroElement
from .field import CubicElement, CubicField
from .mordell import INFINITY, CurvePoint, MordellCurve


class BinomialSquareWitness(Value):
    """An element alpha with alpha^2 = a - b*w, tied to its curve point.

    For the trivial case (alpha rational, b = 0) the point is infinity
    and there is no twist curve. Both facts are checked on construction;
    elem_from_point and point_from_elem, which have already proved them,
    build theirs through _proved.
    """

    __slots__ = ("field", "b", "alpha", "a", "point", "curve")

    def __init__(self, field: CubicField, b: Fraction, alpha: CubicElement, a: Fraction,
                 point: CurvePoint, curve: MordellCurve | None):
        if alpha * alpha != field.element(a, -b, 0):
            raise NotBinomial(f"{alpha} does not square to {a} - {b}*w")
        if curve is not None and not curve.contains(point):
            raise InvalidPoint(f"{point} is not on {curve}")
        for name, value in zip(self.__slots__, (field, b, alpha, a, point, curve)):
            _set(self, name, value)

    @classmethod
    def _proved(cls, *values) -> "BinomialSquareWitness":
        """The witness of ``__init__``'s arguments, whose two facts the caller has proved."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            _set(self, name, value)
        return self


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
    r, s, t, d = alpha._integral()  # on the common denominator d
    if not (r or s or t):
        raise ZeroElement("0 is not in the multiplicative group")
    if 2 * r * t + s * s != 0:
        raise NotBinomial(f"2rt + s^2 = {Fraction(2 * r * t + s * s, d * d)} != 0")
    return s, t, d, -(2 * r * s + field.m * t * t)


def elem_from_point(field: CubicField, b, P: CurvePoint) -> BinomialSquareWitness:
    """The element attached to an affine point of y^2 = x^3 - m*b^3."""
    b = Fraction(b)
    curve = MordellCurve.twist(field.m, b)  # ValueError for b = 0
    if P.is_infinity:
        raise InvalidPoint("the point at infinity maps to the trivial element")
    curve._require(P)  # the one check: P on the curve makes alpha^2 = a - b*w an identity
    # y != 0: a point (x, 0) would make m*b^3 = x^3 a rational cube, and CubicField rejects cube m
    x, y = P.x, P.y
    M = field.m * b**3
    a = (x**4 + 8 * M * x) / (4 * y * y)
    return BinomialSquareWitness._proved(field, b, _alpha(field, b, P), a, P, curve)


def point_from_elem(field: CubicField, alpha: CubicElement) -> BinomialSquareWitness:
    """The point attached to an element whose square is binomial.

    Raises FieldMismatch if alpha lies in another field, and NotBinomial
    unless 2rt + s^2 = 0. Rational alpha is the trivial case and maps to
    the point at infinity with b = 0.
    """
    _, _, d, B = _binomial(field, alpha)  # the one check, which proves both facts of the witness
    b = Fraction(B, d * d)
    r, s, t = alpha.components()
    if t == 0:  # then s = 0 as well, and alpha^2 = r^2
        return BinomialSquareWitness._proved(field, b, alpha, r * r, INFINITY, None)
    curve = MordellCurve.twist(field.m, b)
    return BinomialSquareWitness._proved(field, b, alpha, r * r + 2 * field.m * s * t, _point(b, alpha), curve)


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


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d, d != 0, in lowest terms with d > 0."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _add(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """an/ad + bn/bd in lowest terms from two in lowest terms (ad, bd > 0): the gcd of the
    denominators first, as Fraction adds (Henrici; Knuth, TAOCP vol. 2, 4.5.1)."""
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + bn * ad, ad * bd
    ad //= g
    n = an * (bd // g) + bn * ad
    h = gcd(n, g)
    return n // h, ad * (bd // h)


def _mul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad)*(bn/bd) in lowest terms, with a positive denominator, from two in lowest terms
    by the cross gcds; bd may be negative, so a quotient is a product by (den, num)."""
    g, h = gcd(an, bd), gcd(bn, ad)
    n, d = (an // g) * (bn // h), (ad // h) * (bd // g)
    return (-n, -d) if d < 0 else (n, d)


def _element(field: CubicField, p: int, q: int, u: int, v: int) -> CubicElement:
    """(-xi^2/(2*eta), xi/eta, 1/eta) for xi = p/q, eta = u/v != 0 in lowest terms, q, v > 0: the four
    integers of (-p^2*v, 2pq*v, 2q^2*v)/(2q^2*u) share exactly G = gcd(c*v, 2q^2), c = gcd(p^2, 2)
    (module docstring), so the factors c*v and 2q^2 are divided by G, G taking u's sign."""
    c, q2 = 2 - (p & 1), 2 * q * q
    G = gcd(c * v, q2) if u > 0 else -gcd(c * v, q2)
    k, Q = c * v // G, q2 // G
    return CubicElement._of(field, -(p * p // c) * k, (2 * p * q // c) * k, Q * v, Q * u, True)


def star(alpha1: CubicElement, alpha2: CubicElement) -> CubicElement:
    """Product induced on binomial-square elements by point addition.

    Both operands must satisfy 2rt + s^2 = 0 and carry the same twist
    scale b. Each is checked once, by _binomial, which puts its point on
    y^2 = x^3 - m*b^3; one chord (the tangent for equal operands) then
    gives -(P1 + P2) and its element. A rational operand is the identity
    and returns the other unchanged; alpha and -alpha give 1.

    The chord runs on integer pairs in lowest terms, in the operands' own
    coordinates xi = s/t and eta = 1/t (the module docstring says why each
    step reduces): mu = (eta2 - eta1)/(xi2 - xi1), or 3*xi1^2/(2*b*eta1)
    for the tangent; xi3 = b*mu^2 - xi1 - xi2 and eta3 = mu*(xi3 - xi1) +
    eta1; the product is (-xi3^2/(2*eta3), xi3/eta3, 1/eta3).
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
    bn, bd = _lowest(B1, D1)
    a1, c1 = _lowest(s1, t1)  # xi1 = s1/t1
    e1, f1 = _lowest(d1, t1)  # eta1 = d1/t1
    if s1 == s2 and t1 == t2 and d1 == d2:  # alpha2 = alpha1: the tangent
        mn, md = _mul(*_mul(3, 2, *_mul(a1 * a1, c1 * c1, f1, e1)), bd, bn)  # 3*xi1^2/(2*b*eta1)
        a2, c2 = a1, c1
    else:
        a2, c2 = _lowest(s2, t2)
        if a1 == a2 and c1 == c2:  # one x, another element: P2 = -P1, and the chord meets infinity
            return field.one
        xn, xd = _add(a2, c2, -a1, c1)
        mn, md = _mul(*_add(*_lowest(d2, t2), -e1, f1), xd, xn)  # (eta2 - eta1)/(xi2 - xi1)
    p, q = _add(*_mul(bn, bd, mn * mn, md * md), *_add(-a1, c1, -a2, c2))  # xi3 = b*mu^2 - xi1 - xi2
    u, v = _add(*_mul(mn, md, *_add(p, q, -a1, c1)), e1, f1)  # eta3 = mu*(xi3 - xi1) + eta1
    return _element(field, p, q, u, v)


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
        root = perfect_square_root(a)
        return field.element(root) if root is not None else None
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

