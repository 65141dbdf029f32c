"""Reference computations the benchmark checks the program against.

Nothing here imports purecubic. Each routine is written from the
definitions, in plain integers and Fractions, so that a bug shared with
the program would have to be made twice:

- the chord-tangent group law on y^2 = x^3 + k (points are (x, y)
  tuples, None is the point at infinity);
- schoolbook multiplication and the determinant norm in Q(w), w^3 = m
  (elements are (r, s, t) tuples for r + s*w + t*w^2);
- residue-character certificates that a - b*w is not a square;
- an isqrt enumeration of a search box.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# -- the curve y^2 = x^3 + k ---------------------------------------------------


def neg(P):
    return None if P is None else (P[0], -P[1])


def add(k, P, Q):
    """P + Q by the chord-tangent rule (the sum is the reflected third point)."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        slope = Fraction(3 * x1 * x1, 2 * y1)
    else:
        slope = Fraction(y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return (x3, slope * (x1 - x3) - y1)


def double(k, P):
    """2P as the tangent case of add, cross-checked against the closed duplication formula."""
    R = add(k, P, P)
    if R is not None:
        x, y = P
        x2 = (x**4 - 8 * k * x) / (4 * y * y)
        if R[0] != x2:
            raise AssertionError(f"tangent and duplication formula disagree at {P}")
    return R


def mul(k, n: int, P):
    """nP by n - 1 chord additions (no doubling shortcut), n >= 0."""
    R = None
    for _ in range(n):
        R = add(k, R, P)
    return R


def x_height(P) -> int:
    x = P[0]
    return max(abs(x.numerator), x.denominator)


def search_box(k: int, e_bound: int, a_bound: int) -> list[tuple[Fraction, Fraction]]:
    """Every affine point with x = a/e^2, gcd(a, e) = 1, e <= e_bound, |a| <= a_bound.

    y = r/e^3 where r^2 = a^3 + k*e^6 is an integer square. Ordered by
    (e, a, y), with both signs of y.
    """
    out = []
    for e in range(1, e_bound + 1):
        e6 = e**6
        for a in range(-a_bound, a_bound + 1):
            if gcd(a, e) != 1:
                continue
            v = a**3 + k * e6
            if v < 0:
                continue
            r = isqrt(v)
            if r * r != v:
                continue
            x = Fraction(a, e * e)
            y = Fraction(r, e**3)
            out.extend([(x, y)] if r == 0 else [(x, -y), (x, y)])
    return out


# -- the field Q(w), w^3 = m -----------------------------------------------------


def fmul(m: int, u, v):
    """Schoolbook product of (r, s, t) tuples, reduced with w^3 = m."""
    c = [Fraction(0)] * 5
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            c[i + j] += ui * vj
    return (c[0] + m * c[3], c[1] + m * c[4], c[2])


def fnorm(m: int, u) -> Fraction:
    """Norm as the determinant of multiplication by u on the basis (1, w, w^2)."""
    cols = [fmul(m, u, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    (a, d, g), (b, e, h), (c, f, i) = cols
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def rational_sqrt(q: Fraction) -> Fraction | None:
    q = Fraction(q)
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def element_of_point(x, y):
    """The element alpha with alpha^2 = a - w attached to (x, y) on y^2 = x^3 - m."""
    return (-x * x / (2 * y), x / y, 1 / y)


def is_cubefree(m: int) -> bool:
    """Trial division by p^3 for p up to the cube root of m."""
    n, p = abs(m), 2
    while p * p * p <= n:
        if n % (p**3) == 0:
            return False
        p += 1
    return True


# -- residue-character certificates -------------------------------------------------


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


_PRIMES = primes_up_to(20_000)


def _cube_roots_mod(m: int, p: int) -> list[int]:
    m %= p
    if p % 3 == 2:
        # cubing is a bijection of F_p when 3 does not divide p - 1
        return [pow(m, (2 * p - 1) // 3, p)]
    if p > 2000 or pow(m, (p - 1) // 3, p) != 1:
        return []
    return [c for c in range(1, p) if c * c * c % p == m]


def nonresidue_certificate(m: int, a, b) -> tuple[int, int] | None:
    """A prime p and c with c^3 = m (mod p) such that a - b*c is a non-residue mod p.

    For p not dividing 6m, w -> c defines a degree-1 prime of Q(w) above
    p where Z[w] is maximal; if a - b*w = alpha^2 then alpha is a unit
    there and a - b*c = alpha(c)^2 would be a residue. So a certificate
    proves that a - b*w is not a square. Returns None if none is found
    among the primes below 20000.
    """
    a, b = Fraction(a), Fraction(b)
    for p in _PRIMES:
        if p < 5 or m % p == 0 or (a.denominator * b.denominator) % p == 0:
            continue
        an = a.numerator * pow(a.denominator, -1, p)
        bn = b.numerator * pow(b.denominator, -1, p)
        for c in _cube_roots_mod(m, p):
            v = (an - bn * c) % p
            if v and pow(v, (p - 1) // 2, p) == p - 1:
                return p, c
    return None


def check_certificate(m: int, a, b, p: int, c: int) -> bool:
    a, b = Fraction(a), Fraction(b)
    if (6 * m) % p == 0 or (c**3 - m) % p != 0:
        return False
    v = (a.numerator * pow(a.denominator, -1, p) - b.numerator * pow(b.denominator, -1, p) * c) % p
    return v != 0 and pow(v, (p - 1) // 2, p) == p - 1
