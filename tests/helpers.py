"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's own code paths: trial division
instead of Pollard rho, exhaustive height enumeration instead of the
rational root theorem, and so on.
"""

from fractions import Fraction
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
    with |p| <= height and 1 <= q <= height, by exhaustive search."""
    roots = set()
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            if sum(c * x**i for i, c in enumerate(coeffs)) == 0:
                roots.add(x)
    return roots


def naive_elem_square(m: int, comps):
    """(r + s*w + t*w^2)^2 expanded by schoolbook distribution over the
    nine basis products, reducing w^3 -> m and w^4 -> m*w by hand."""
    r, s, t = comps
    # basis-product table: (1,w,w^2) x (1,w,w^2)
    c0 = r * r + m * (s * t) + m * (t * s)
    c1 = r * s + s * r + m * (t * t)
    c2 = r * t + s * s + t * r
    return (c0, c1, c2)


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
    """Brent-cycle Pollard rho with a gcd at every step: the reference that
    the block-gcd arith._rho_split must match, (factor, used) for (factor, used)."""
    used = 0
    c = 1
    while used < budget:
        x = y = 2
        d = 1
        power = lam = 1
        while d == 1 and used < budget:
            if power == lam:
                y = x
                power *= 2
                lam = 0
            x = (x * x + c) % n
            lam += 1
            used += 1
            d = gcd(abs(x - y), n)
        if 1 < d < n:
            return d, used
        c += 1
    return None, used


def _to_fraction_exact(x) -> Fraction:
    """Exact Fraction value of a binary float / mpf / int / Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    import mpmath as mp

    v = mp.mpf(x)
    sign, man, exp, _ = v._mpf_
    man = int(man)
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man * (1 << exp))
    return Fraction(man, 1 << (-exp))


def fraction_reconstruct(approx, height_bound: int) -> Fraction | None:
    """Continued-fraction reconstruction on Fraction values: the reference
    that the integer walk of arith.rational_reconstruct must match, None
    included. Finite input only."""
    import mpmath as mp

    target = _to_fraction_exact(approx)
    tol = Fraction(1, 1 << max(8, mp.mp.prec // 2))

    best = None
    p0, q0 = 1, 0
    rem = target
    a = rem.numerator // rem.denominator
    p1, q1 = a, 1
    while True:
        if abs(p1) > height_bound or q1 > height_bound:
            break
        if abs(target - Fraction(p1, q1)) <= tol:
            best = Fraction(p1, q1)
        rem -= a
        if rem == 0:
            break
        rem = 1 / rem
        a = rem.numerator // rem.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return best
