"""Exact group law on Mordell curves y^2 = x^3 + k over the rationals.

The chord-tangent law is implemented in the standard orientation: the
sum of two points is the reflection of the third collinear point, which
one kernel, _third_point, finds on integer pairs for add, double,
scalar_mul and binsq.star. For P = (x, y) with y != 0

    2P = ( (x^4 - 8kx) / (4y^2),  (x^6 + 20kx^3 - 8k^2) / (8y^3) ).

Point halving inverts duplication: Q solves 2Q = P exactly when x(Q)
is a rational root of the quartic

    x^4 - 4X x^3 - 8k x - 4kX        (X = x(P))

and x(Q)^3 + k is a rational square y0^2 with y0 != 0. Such a root
already gives x(2Q) = X: the quartic reads x0^4 - 8k x0 = 4X y0^2.
Each candidate is confirmed exactly by the y-part of the duplication
formula above, cross-multiplied over integer numerators and
denominators, never by sign conventions: it gives y(P) when (x0, y0)
is a preimage and -y(P) when (x0, -y0) is, since 2(x0, -y0) =
-2(x0, y0). That check decides alone, for any point Q on the curve:
y(2Q) = +-Y gives x(2Q)^3 = Y^2 - k = X^3, whose one rational root is
X. contains tests y^2 = x^3 + k the same way, with no Fraction built.

k is normally an integer but may be any nonzero rational, which is
what quadratic twists with fractional scale produce.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .arith import IntPoly, Value, _set, perfect_cube_root, rational_roots
from .errors import InvalidPoint, ZeroElement


# Moduli of the residue sieve in MordellCurve.search, and the squares modulo each.
_SIEVE_MODULI = (8, 9, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SQUARES_MOD = {q: frozenset(r * r % q for r in range(q)) for q in _SIEVE_MODULI}


class CurvePoint(Value):
    """A rational point: affine (x, y), or the point at infinity (None, None).

    Coordinates are stored as Fractions, so the group law on points built
    from ints stays exact. Exactly one None coordinate raises InvalidPoint.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if (x is None or y is None) and x is not y:
            raise InvalidPoint(f"a point needs both coordinates or neither, got ({x}, {y})")
        _set(self, "x", x if x.__class__ is Fraction or x is None else Fraction(x))
        _set(self, "y", y if y.__class__ is Fraction or y is None else Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "CurvePoint":
        if self.is_infinity:
            return self
        return CurvePoint(self.x, -self.y)

    def __str__(self):
        if self.is_infinity:
            return "inf"
        return f"({self.x}, {self.y})"


INFINITY = CurvePoint(None, None)


def affine(x, y) -> CurvePoint:
    """Unvalidated affine point (use MordellCurve.point for the checked form)."""
    return CurvePoint(Fraction(x), Fraction(y))


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


def _third_point(a, x1, y1, x2, y2) -> tuple[int, int, int, int]:
    """The third point (p/q, u/v) where a*y^2 = x^3 + c meets the chord through (x1, y1) and
    (x2, y2), or the tangent at (x1, y1) when x1 = x2, which then needs y1 = y2 != 0.

    Each argument and result is a pair (num, den) in lowest terms, den > 0; a may be negative,
    and c does not enter. The line y = y1 + mu*(x - x1) meets the curve where x^3 - a*mu^2*x^2
    + ... = 0, so the three x sum to a*mu^2:

        mu = (y2 - y1)/(x2 - x1),  or 3*x1^2/(2*a*y1) for the tangent,
        x3 = a*mu^2 - x1 - x2,
        y3 = mu*(x3 - x1) + y1.

    MordellCurve adds with a = 1, P1 + P2 = (x3, -y3) (Silverman, AEC III.2), and binsq.star
    with a = b on b*eta^2 = xi^3 - m. Every step reduces, by _add and _mul, as Fraction does:
    on y^2 = x^3 + k, k an integer, the denominators of x and y are z^2 and z^3 for one integer
    z, and the chord's differences cancel most of what the operands share. A fraction left
    unreduced carries those factors into each later product, so the numbers, and the cost of
    the gcds that finally remove them, grow with every step.
    """
    an, ad = a
    n1, d1 = x1
    e1, f1 = y1
    n2, d2 = x2
    if x1 == x2:
        mn, md = _mul(*_mul(3, 2, *_mul(n1 * n1, d1 * d1, f1, e1)), ad, an)  # 3*x1^2/(2*a*y1)
    else:
        xn, xd = _add(n2, d2, -n1, d1)
        mn, md = _mul(*_add(*y2, -e1, f1), xd, xn)  # (y2 - y1)/(x2 - x1)
    p, q = _add(*_mul(an, ad, mn * mn, md * md), *_add(-n1, d1, -n2, d2))  # x3 = a*mu^2 - x1 - x2
    u, v = _add(*_mul(mn, md, *_add(p, q, -n1, d1)), e1, f1)  # y3 = mu*(x3 - x1) + y1
    return p, q, u, v


class MordellCurve(Value):
    """The curve y^2 = x^3 + k, k != 0."""

    __slots__ = ("k",)

    def __init__(self, k):
        k = k if k.__class__ is Fraction else Fraction(k)
        if k == 0:
            raise ValueError("k = 0 is singular")
        _set(self, "k", k)

    @classmethod
    def from_m(cls, m: int) -> "MordellCurve":
        """The curve y^2 = x^3 - m attached to the field of cbrt(m)."""
        return cls(Fraction(-m))

    @classmethod
    def twist(cls, m: int, b) -> "MordellCurve":
        """The twist y^2 = x^3 - m*b^3 carrying squares a - b*w; k = -m*bn^3/bd^3 is one Fraction.
        Raises ZeroElement for b = 0, whose curve y^2 = x^3 is singular."""
        b = b if b.__class__ is Fraction else Fraction(b)
        if b == 0:
            raise ZeroElement("twist scale b must be nonzero")
        return cls(Fraction(-m * b.numerator**3, b.denominator**3))

    def __str__(self):
        k = self.k
        return f"y^2 = x^3 + {k}" if k > 0 else f"y^2 = x^3 - {-k}"

    # -- membership ---------------------------------------------------------

    def contains(self, P: CurvePoint) -> bool:
        """Whether P is on the curve: infinity is, and an affine point when, with
        x = xn/xd, y = yn/yd and k = kn/kd, yn^2 xd^3 kd = (xn^3 kd + kn xd^3) yd^2."""
        if P.is_infinity:
            return True
        x, y = P.x, P.y
        kn, kd, xd = self.k.numerator, self.k.denominator, x.denominator
        xd3 = xd * xd * xd
        yn, yd = y.numerator, y.denominator
        return yn * yn * xd3 * kd == (x.numerator ** 3 * kd + kn * xd3) * yd * yd

    def point(self, x, y) -> CurvePoint:
        """Validated affine point; raises InvalidPoint off the curve."""
        P = affine(x, y)
        if not self.contains(P):
            raise InvalidPoint(f"({x}, {y}) is not on {self}")
        return P

    def _require(self, *points: CurvePoint):
        for P in points:
            if not self.contains(P):
                raise InvalidPoint(f"{P} is not on {self}")

    # -- group law ----------------------------------------------------------

    def _chord(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """P + Q by the chord (the tangent when P = Q); assumes both are on the curve."""
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if P.x == Q.x and (P.y != Q.y or not P.y):  # Q = +-P on the curve, and Q = -P unless y1 = y2 != 0
            return INFINITY
        p, q, u, v = _third_point((1, 1), P.x.as_integer_ratio(), P.y.as_integer_ratio(),
                                  Q.x.as_integer_ratio(), Q.y.as_integer_ratio())
        return CurvePoint(Fraction(p, q), Fraction(-u, v))

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        self._require(P, Q)
        return self._chord(P, Q)

    def double(self, P: CurvePoint) -> CurvePoint:
        """2P, by the tangent at P (infinity when y = 0)."""
        self._require(P)
        return self._chord(P, P)

    def scalar_mul(self, n: int, P: CurvePoint) -> CurvePoint:
        """nP by double-and-add; P is checked once, the steps are not re-checked."""
        self._require(P)
        if n < 0:
            n, P = -n, -P
        R = INFINITY
        Q = P
        while n:
            if n & 1:
                R = self._chord(R, Q)
            n >>= 1
            if n:
                Q = self._chord(Q, Q)
        return R

    # -- halving -------------------------------------------------------------

    def two_torsion(self) -> set[CurvePoint]:
        """Rational points of order 2 (y = 0): (-cbrt(k), 0) when k is a rational cube.

        With k = kn/kd in lowest terms (kd > 0), -k is a rational cube
        exactly when -kn and kd are integer cubes; no factoring is needed.
        """
        xn = perfect_cube_root(-self.k.numerator)
        xd = perfect_cube_root(self.k.denominator)
        if xn is None or xd is None:
            return set()
        return {CurvePoint(Fraction(xn, xd), Fraction(0))}

    def halving_quartic(self, X) -> IntPoly:
        """Integer form of the preimage quartic for x(2Q) = X: its coefficients times their
        least common denominator, as IntPoly.from_rationals gives them, worked out on integers."""
        X = Fraction(X)
        kn, kd, xn, xd = self.k.numerator, self.k.denominator, X.numerator, X.denominator
        # kd*xd clears every denominator; the gcd, which divides the leading kd*xd, takes out the excess
        coeffs = (-4 * kn * xn, -8 * kn * xd, 0, -4 * xn * kd, kd * xd)
        g = gcd(*coeffs)
        return IntPoly(c // g for c in coeffs)

    def halve(self, P: CurvePoint) -> set[CurvePoint]:
        """All rational Q with 2Q = P (possibly empty; at most two).

        For the point at infinity this is the rational 2-torsion plus
        infinity itself. Otherwise the preimages are the rational roots of
        halving_quartic(x(P)), so EffortExceeded propagates from factorize
        when its constant coefficient cannot be split. P is checked once. For
        each root x0 = p/q, y0^2 = x0^3 + k = N/(q^3 kd) = N q kd/(q^2 kd)^2,
        with N = p^3 kd + kn q^3 and k = kn/kd, so y0 is rational exactly
        when N q kd is an integer square s^2, and then y0 = s/(q^2 kd),
        not always in lowest terms. A root with N q kd not a positive
        square (no rational y0, or y0 = 0, where 2Q = infinity) is skipped.
        The root gives x(2Q) = X, so the module's one check, y(2Q) = +-Y,
        decides. It runs on integers and holds for any representation of
        y0: with Y = yn/yd and y0 = sn/sd, 8y0^3 (+-Y) = x0^6 + 20k x0^3 -
        8k^2 reads

            8 sn N yn q^3 kd = +-sd yd (p^6 kd^2 + 20 kn kd p^3 q^3 - 8 kn^2 q^6).

        The + sign accepts (x0, y0), the - sign (x0, -y0); when Y = 0 both
        can hold. Only an accepted preimage becomes a CurvePoint.
        """
        self._require(P)
        if P.is_infinity:
            return {INFINITY} | self.two_torsion()
        kn, kd = self.k.numerator, self.k.denominator
        yn, yd = P.y.numerator, P.y.denominator
        found: set[CurvePoint] = set()
        for x0 in rational_roots(self.halving_quartic(P.x)):
            p, q = x0.numerator, x0.denominator
            p3, q3 = p**3, q**3
            N = p3 * kd + kn * q3
            sq = N * q * kd  # y0^2 = sq/(q^2 kd)^2
            if sq <= 0:  # no real y0, or y0 = 0: a point of order 2 doubles to infinity
                continue
            s = isqrt(sq)
            if s * s != sq:
                continue
            sd = q * q * kd
            lhs = 8 * s * N * yn * q3 * kd
            rhs = sd * yd * (p3 * p3 * kd * kd + 20 * kn * kd * p3 * q3 - 8 * kn * kn * q3 * q3)
            if lhs == rhs:
                found.add(CurvePoint(x0, Fraction(s, sd)))
            if lhs == -rhs:
                found.add(CurvePoint(x0, Fraction(-s, sd)))
        return found

    # -- search --------------------------------------------------------------

    def search(self, e_bound: int, a_bound: int) -> list[CurvePoint]:
        """All affine points with x = a/e^2, gcd(a, e) = 1, within the bounds.

        Both y signs are returned; the list is ordered by (e, a, y).

        With k = kn/kd, x = a/e^2 is on the curve exactly when the integer
        N = kd*(kd*a^3 + kn*e^6) is a square, and then y = +-isqrt(N)/(kd*e^3).
        For each e, tables of which residues of a modulo each of
        _SIEVE_MODULI make N a square there reject most a before the exact
        isqrt test (the residue sieve of Stoll's ratpoints).
        """
        if e_bound < 1 or a_bound < 1:
            raise ValueError("bounds must be >= 1")
        kn, kd = self.k.numerator, self.k.denominator
        out: list[CurvePoint] = []
        for e in range(1, e_bound + 1):
            e2 = e * e
            c = kn * e2**3
            sieve = [
                (q, bytes(kd * (kd * a**3 + c) % q in _SQUARES_MOD[q] for a in range(q)))
                for q in _SIEVE_MODULI
            ]
            for a in range(-a_bound, a_bound + 1):
                # a plain loop with break: a generator in any() would cost more than the sieve saves
                for q, is_square in sieve:
                    if not is_square[a % q]:
                        break
                else:
                    if gcd(a, e) != 1:
                        continue
                    N = kd * (kd * a**3 + c)
                    if N < 0:
                        continue
                    r = isqrt(N)
                    if r * r != N:
                        continue
                    x = Fraction(a, e2)
                    if r == 0:
                        out.append(CurvePoint(x, Fraction(0)))
                    else:
                        y = Fraction(r, kd * e2 * e)
                        out.append(CurvePoint(x, -y))
                        out.append(CurvePoint(x, y))
        return out


def x_as_a_over_e2(x: Fraction) -> tuple[int, int]:
    """Write x = a/e^2 with gcd(a, e) = 1; raises InvalidPoint otherwise."""
    e = isqrt(x.denominator)
    if e * e != x.denominator:
        raise InvalidPoint(f"denominator of {x} is not a perfect square")
    return x.numerator, e
