"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: trial division
instead of Pollard rho, exhaustive height enumeration instead of the
rational root theorem, and so on.
"""

from fractions import Fraction
from itertools import count
from math import gcd
from math import isqrt


def trial_factorize(n: int) -> dict[int, int]:
    """Full factorization of |n| by unbounded trial division."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_rational_roots(coeffs, height: int) -> set[Fraction]:
    """All rational roots p/q of the ascending-coefficient polynomial
    with |p| <= height and 1 <= q <= height, by exhaustive search: p/q
    is a root when the sum of c_i * p^i * q^(d-i) is 0."""
    d = len(coeffs) - 1
    roots = set()
    for q in range(1, height + 1):
        scaled = [c * q ** (d - i) for i, c in enumerate(coeffs)]
        for p in range(-height, height + 1):
            if gcd(p, q) != 1:
                continue
            acc = 0
            for c in reversed(scaled):
                acc = acc * p + c
            if acc == 0:
                roots.add(Fraction(p, q))
    return roots


def reference_halve(k, X, Y, height: int) -> set[tuple[Fraction, Fraction]]:
    """Every (x0, y0) with 2(x0, y0) = (X, Y) on y^2 = x^3 + k whose x0 has
    numerator and denominator at most height: the roots of the textbook
    quartic x^4 - 4X x^3 - 8k x - 4kX by brute_rational_roots, each
    y0 = +-sqrt(x0^3 + k) by isqrt, doubled by the tangent in Fractions."""
    from purecubic.arith import IntPoly

    k, X, Y = Fraction(k), Fraction(X), Fraction(Y)
    quartic = IntPoly.from_rationals([-4 * k * X, -8 * k, 0, -4 * X, 1])
    out = set()
    for x0 in brute_rational_roots(quartic.coeffs, height):
        c = x0**3 + k
        if c <= 0:  # no rational y0, or y0 = 0, whose double is infinity
            continue
        num, den = isqrt(c.numerator), isqrt(c.denominator)
        if num * num != c.numerator or den * den != c.denominator:
            continue
        for y0 in (Fraction(num, den), Fraction(-num, den)):
            lam = 3 * x0 * x0 / (2 * y0)
            x2 = lam * lam - 2 * x0
            if (x2, lam * (x0 - x2) - y0) == (X, Y):
                out.add((x0, y0))
    return out


def naive_elem_square(m: int, comps):
    """(r + s*w + t*w^2)^2 expanded by schoolbook distribution over the
    nine basis products, reducing w^3 -> m and w^4 -> m*w by hand."""
    r, s, t = comps
    # basis-product table: (1,w,w^2) x (1,w,w^2)
    c0 = r * r + m * (s * t) + m * (t * s)
    c1 = r * s + s * r + m * (t * t)
    c2 = r * t + s * s + t * r
    return (c0, c1, c2)


def naive_elem_mul(m: int, a, b):
    """(r1 + s1*w + t1*w^2)(r2 + s2*w + t2*w^2) by schoolbook distribution over
    the nine basis products w^(i+j), reducing w^3 -> m and w^4 -> m*w."""
    out = [0, 0, 0]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            out[k % 3] += x * y * (m if k >= 3 else 1)
    return tuple(out)


def naive_norm(m: int, comps):
    """N(r + s*w + t*w^2) as the determinant of multiplication by it on the
    basis (1, w, w^2), expanded along the first row."""
    return _det3(_mul_rows(m, comps))


def _mul_rows(m: int, comps):
    """The rows of the matrix of multiplication by r + s*w + t*w^2 on the
    basis (1, w, w^2): its columns are the products with 1, w and w^2."""
    r, s, t = comps
    return ((r, m * t, m * s), (s, r, m * t), (t, s, r))


def _det3(rows):
    """A 3x3 determinant, expanded along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def brute_search(k, e_bound: int, a_bound: int) -> list[tuple[Fraction, Fraction]]:
    """Every (x, y) on y^2 = x^3 + k with x = a/e^2, gcd(a, e) = 1, e <= e_bound,
    |a| <= a_bound, by building each x as a Fraction and testing x^3 + k for a
    rational square; ordered by (e, a, y) with both signs of y."""
    k = Fraction(k)
    out = []
    for e in range(1, e_bound + 1):
        for a in range(-a_bound, a_bound + 1):
            if gcd(a, e) != 1:
                continue
            x = Fraction(a, e * e)
            c = x**3 + k
            if c < 0:
                continue
            num, den = isqrt(c.numerator), isqrt(c.denominator)
            if num * num != c.numerator or den * den != c.denominator:
                continue
            y = Fraction(num, den)
            out.extend([(x, y)] if y == 0 else [(x, -y), (x, y)])
    return out


def per_step_rho(n: int, budget: int) -> tuple[int | None, int]:
    """Pollard rho by Brent's 1980 cycle (R. P. Brent, BIT 20, 176-184),
    with a gcd at every product step: the reference that the block-gcd
    arith._rho_split must match, (factor, used) for (factor, used).

    Brent's loop with y_0 = 2 and f(y) = y^2 + c mod n: x := y; r steps
    of y := f(y); then r steps of y := f(y), each followed here by
    G := gcd(x - y, n) instead of Brent's product; r := 2r until G > 1.
    G = n fails, and the next c is tried. Every step of f counts against
    the budget."""
    used = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for i in range(2 * r):
                if used == budget:
                    return None, used
                y = (y * y + c) % n
                used += 1
                if i >= r:
                    g = gcd(x - y, n)
                    if g != 1:
                        break
            r *= 2
        if g != n:
            return g, used


def fraction_reconstruct(x, height_bound: int) -> Fraction | None:
    """Continued-fraction reconstruction on Fraction values: the reference
    that the integer walk of arith.rational_reconstruct must match, None
    included. It tests every convergent of the exact rational x, not only
    the last one within the height bound, and keeps the last one of height
    at most H that lies strictly within 1/(2H^2) of x."""
    target = Fraction(x)
    tol = Fraction(1, 2 * height_bound**2)
    best = None
    p0, q0 = 1, 0
    rem = target
    a = rem.numerator // rem.denominator
    p1, q1 = a, 1
    while True:
        if abs(p1) <= height_bound and q1 <= height_bound and abs(target - Fraction(p1, q1)) < tol:
            best = Fraction(p1, q1)
        rem -= a
        if rem == 0:
            break
        rem = 1 / rem
        a = rem.numerator // rem.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return best


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """The non-negative square root of the rational x, or None, by isqrt."""
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(num, den) if (num * num, den * den) == (x.numerator, x.denominator) else None


def reference_sqrt_in_field(beta):
    """The square root of beta with positive real embedding, or None, from
    the resolvent quartic on Fractions and sympy's rational roots: the
    reference that field.sqrt_in_field must match. No purecubic numerics.

    If gamma^2 = beta, gamma is a root of x^3 - a*x^2 + b*x - c with
    a = Tr(gamma) and c = N(gamma) = +-sqrt(N(beta)). A complex pair of
    embeddings adds a positive factor to the norm, so c has the sign of
    gamma's real embedding, and c > 0 picks the root sought. The conjugates
    of beta are those of gamma squared, so E1 = Tr(beta) = a^2 - 2b and
    E2 = (E1^2 - Tr(beta^2))/2 = b^2 - 2ac: a is a rational root of
    (A^2 - E1)^2 - 8cA - 4E2, and b = (a^2 - E1)/2. The cubic reads
    gamma*(beta + b) = a*beta + c, a linear system for gamma's coordinates
    (beta + b != 0, as beta is not rational). Each candidate is confirmed
    by squaring."""
    import sympy

    field, m = beta.field, beta.field.m
    comps = beta.components()
    if not any(comps[1:]):
        root = _rational_sqrt(comps[0])
        return None if root is None else field.element(root)
    c = _rational_sqrt(naive_norm(m, comps))
    if c is None:
        return None
    e1 = 3 * comps[0]
    e2 = (e1 * e1 - 3 * naive_elem_square(m, comps)[0]) / 2
    coeffs = [1, 0, -2 * e1, -8 * c, e1 * e1 - 4 * e2]  # (A^2 - E1)^2 - 8cA - 4E2, highest degree first
    quartic = sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in coeffs], sympy.Symbol("A"),
                         domain="QQ")
    r, s, t = comps
    for root in quartic.ground_roots():
        a = Fraction(int(root.p), int(root.q))
        b = (a * a - e1) / 2
        rows = _mul_rows(m, (r + b, s, t))
        rhs = (a * r + c, a * s, a * t)
        det = _det3(rows)
        gamma = tuple(_det3([row[:i] + (v,) + row[i + 1:] for row, v in zip(rows, rhs)]) / det
                      for i in range(3))
        if naive_elem_square(m, gamma) == comps:
            return field.element(*gamma)
    return None


def reference_alpha(b, x, y):
    """The coordinates (-x^2/2y, b*x/y, b^2/y) of the element of a point (x, y)
    of y^2 = x^3 - m*b^3, by Fraction arithmetic on the formula."""
    b, x, y = Fraction(b), Fraction(x), Fraction(y)
    return (-x * x / (2 * y), b * x / y, b * b / y)


def reference_point(m: int, comps):
    """(b, x, y) of r + s*w + t*w^2 with 2rt + s^2 = 0 and t != 0 in Q(cbrt(m)):
    b = -(2rs + m*t^2) and (x, y) = (b*s/t, b^2/t), by Fraction arithmetic."""
    r, s, t = map(Fraction, comps)
    assert 2 * r * t + s * s == 0 and t != 0
    b = -(2 * r * s + m * t * t)
    return (b, b * s / t, b * b / t)


def reference_add(k, P, Q):
    """P + Q on y^2 = x^3 + k by the textbook chord-tangent law in Fractions:
    the slope (y2 - y1)/(x2 - x1), or 3x1^2/(2y1) for the tangent, then
    x3 = lam^2 - x1 - x2 and y3 = lam*(x1 - x3) - y1. Both points and the sum
    are checked on the curve by the same Fraction equation. The reference that
    the integer chord of mordell must match."""
    from purecubic.mordell import INFINITY, CurvePoint

    k = Fraction(k)
    for R in (P, Q):
        assert R.is_infinity or R.y * R.y == R.x**3 + k, R
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if x1 == x2:
        if y1 == -y2:
            return INFINITY
        lam = 3 * x1 * x1 / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    assert y3 * y3 == x3**3 + k
    return CurvePoint(x3, y3)


def reference_star(alpha1, alpha2):
    """The star product through witnesses: both operands to checked points,
    the closed chord formulas for a generic b = 1 pair, reference_add and
    elem_from_point otherwise. The reference that binsq.star, which runs
    mordell's integer chord on the coordinates, must match, exceptions included."""
    from purecubic.binsq import elem_from_point, point_from_elem, star_parts
    from purecubic.errors import NotBinomial

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
    total = reference_add(w1.curve.k, P1, P2)
    return elem_from_point(field, w1.b, -total).alpha
