"""Exact arithmetic in the pure cubic field Q(w), w^3 = m.

Elements are stored on the basis (1, w, w^2) with rational coordinates.
Besides ring arithmetic, norm and trace, this module provides a verified
general square root: an element whose norm is not a rational square is
rejected exactly; for the others, one numeric attempt, at a precision in
bits worked out from the height of the input and from m, produces
candidate roots from the three embeddings of the field and reconstructs
them coordinate-wise as rationals. Every candidate is confirmed by exact
squaring before it is returned, so a wrong numeric guess can only cause
a miss, never a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import IntPoly, Value, _set, cubefree_and_noncube, perfect_square_root, rational_reconstruct
from .errors import FieldMismatch


class CubicField(Value):
    """Q(cbrt(m)) for a cubefree non-cube integer m."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        m = int(m)
        _set(self, "m", m)
        cubefree, cube = cubefree_and_noncube(m)
        if cube:
            raise ValueError(f"m = {m} is a perfect cube; the field degenerates")
        if not cubefree:
            raise ValueError(f"m = {m} is not cubefree")

    def element(self, r, s=0, t=0) -> "CubicElement":
        return CubicElement(self, r, s, t)

    @property
    def one(self) -> "CubicElement":
        return self.element(1)

    @property
    def omega(self) -> "CubicElement":
        return self.element(0, 1)

    def __str__(self):
        return f"Q(cbrt({self.m}))"


class CubicElement(Value):
    """r + s*w + t*w^2 in a fixed CubicField.

    Coordinates are stored as Fractions, so arithmetic on elements built
    from ints or floats stays exact.
    """

    __slots__ = ("field", "r", "s", "t")

    def __init__(self, field: CubicField, r, s, t):
        _set(self, "field", field)
        _set(self, "r", r if r.__class__ is Fraction else Fraction(r))
        _set(self, "s", s if s.__class__ is Fraction else Fraction(s))
        _set(self, "t", t if t.__class__ is Fraction else Fraction(t))

    def components(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.r, self.s, self.t)

    def is_rational(self) -> bool:
        return self.s == 0 and self.t == 0

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0 and self.t == 0

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
        return CubicElement(self.field, self.r + o.r, self.s + o.s, self.t + o.t)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CubicElement(self.field, self.r - o.r, self.s - o.s, self.t - o.t)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return CubicElement(self.field, -self.r, -self.s, -self.t)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        m = self.field.m
        r1, s1, t1 = self.components()
        r2, s2, t2 = o.components()
        return CubicElement(
            self.field,
            r1 * r2 + m * (s1 * t2 + t1 * s2),
            r1 * s2 + s1 * r2 + m * t1 * t2,
            r1 * t2 + s1 * s2 + t1 * r2,
        )

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
        m = self.field.m
        r, s, t = self.components()
        return r**3 + m * s**3 + m * m * t**3 - 3 * m * r * s * t

    def trace(self) -> Fraction:
        return 3 * self.r

    def sign_of_embedding(self) -> int:
        """Sign of the real embedding of a nonzero element.

        The two complex embeddings are conjugate, so the norm is the real
        embedding times a positive |complex embedding|^2 and has its sign.
        """
        if self.is_zero():
            raise ValueError("zero element has no sign")
        return 1 if self.norm() > 0 else -1

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


def sqrt_in_field(beta: CubicElement, digits: int = 256) -> CubicElement | None:
    """An exact square root of beta in its field, or None.

    A beta whose norm is not the square of a rational answers None at
    once, and that None is a proof: N(gamma^2) = N(gamma)^2. Otherwise
    one numeric attempt takes square roots of the three embeddings of
    beta (two essentially different sign choices), solves back to
    (r, s, t) coordinates, reconstructs each as a rational of height at
    most H = h^2 * 2^24 (h the height of beta) and verifies gamma^2 =
    beta exactly. Returns the root with positive real embedding.
    ``digits`` is accepted and ignored.

    The precision, prec = 2*bits(H) + bits(h) + 2*bits(m)//3 + 80 bits,
    puts each coordinate within about |g| * 2^-prec of its value, where
    |g| <= sqrt(3h) * |m|^(1/3) bounds the embeddings of the root (the
    middle terms bound |g|^2, leaving a factor |g| to spare). That error
    is below 1/(2H^2), so a coordinate p/q with |p|, q <= H is a
    convergent whose successor lies past H, and below the 2^-(prec//2)
    that ``rational_reconstruct`` accepts, so the walk returns it. A None
    on a square norm therefore means that no root has coordinates of
    height at most H: w in Q(cbrt(33554467^2)) is a square, w =
    (w^2/33554467)^2, but its root lies above that bound.
    """
    if beta.is_zero():
        return beta
    if beta.is_rational():
        root = perfect_square_root(beta.r)
        return beta.field.element(root) if root is not None else None
    if perfect_square_root(beta.norm()) is None:
        return None
    h = max(max(abs(c.numerator), c.denominator) for c in beta.components())
    height_bound = h * h << 24
    prec = 2 * height_bound.bit_length() + h.bit_length() + 2 * abs(beta.field.m).bit_length() // 3 + 80
    return _sqrt_attempt(beta, prec, height_bound)


def _sqrt_attempt(beta: CubicElement, prec: int, height_bound: int) -> CubicElement | None:
    import mpmath as mp

    m = beta.field.m
    with mp.workprec(prec):
        w = mp.cbrt(mp.mpf(m)) if m > 0 else -mp.cbrt(mp.mpf(-m))  # the real embedding of w
        zeta = mp.expjpi(mp.mpf(2) / 3)  # primitive cube root of unity
        r, s, t = (mp.mpf(c.numerator) / c.denominator for c in beta.components())
        # the real embedding is positive: it has the sign of the norm, a nonzero square
        g_real = mp.sqrt(r + s * w + t * w * w)
        e_cplx = r + s * w * zeta + t * w * w * zeta**2
        for sign in (1, -1):
            g_cplx = sign * mp.sqrt(e_cplx)
            # invert the embedding matrix: conjugate coordinates come in
            # a real + complex-pair pattern
            rr = (g_real + 2 * mp.re(g_cplx)) / 3
            ss = (g_real + 2 * mp.re(zeta**2 * g_cplx)) / (3 * w)
            tt = (g_real + 2 * mp.re(zeta * g_cplx)) / (3 * w * w)
            comps = []
            for v in (rr, ss, tt):
                c = rational_reconstruct(v, height_bound)
                if c is None:
                    break
                comps.append(c)
            else:
                gamma = CubicElement(beta.field, *comps)
                if gamma * gamma == beta:
                    return gamma.positive_embedding()
    return None


def binomial_minpoly(a, b, field: CubicField) -> IntPoly:
    """Integer minimal cubic of a - b*w: y^3 - 3a y^2 + 3a^2 y - (a^3 - m b^3)."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        raise ValueError("b = 0 gives a rational, not a cubic generator")
    m = field.m
    return IntPoly.from_rationals([-(a**3 - m * b**3), 3 * a * a, -3 * a, 1])
