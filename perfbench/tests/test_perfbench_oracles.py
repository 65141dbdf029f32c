"""The benchmark's oracles against sympy and against the paper's worked values."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as orc  # noqa: E402

sympy = pytest.importorskip("sympy")

K2 = Fraction(-2)  # y^2 = x^3 - 2
P = (Fraction(3), Fraction(5))


def test_paper_worked_values():
    assert orc.double(K2, P)[0] == Fraction(129, 100)
    assert orc.mul(K2, 3, P)[0] == Fraction(164323, 171**2)
    assert orc.mul(K2, 2, P) == orc.double(K2, P)


def test_group_law_stays_on_curve_and_is_consistent():
    for n in range(1, 9):
        nP = orc.mul(K2, n, P)
        assert nP[1] ** 2 == nP[0] ** 3 + K2
        assert orc.double(K2, nP) == orc.mul(K2, 2 * n, P)
    assert orc.add(K2, P, orc.neg(P)) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_halving_quartic_root_is_nP(n):
    """x(nP) is a rational root of x^4 - 4X x^3 - 8k x - 4kX with X = x(2nP) (sympy.roots)."""
    x = sympy.Symbol("x")
    X = sympy.Rational(*orc.double(K2, orc.mul(K2, n, P))[0].as_integer_ratio())
    k = -2
    roots = sympy.roots(x**4 - 4 * X * x**3 - 8 * k * x - 4 * k * X, x, filter="Q")
    assert sympy.Rational(*orc.mul(K2, n, P)[0].as_integer_ratio()) in roots


def test_field_multiplication_and_norm_against_sympy():
    x = sympy.Symbol("x")
    u = (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))
    v = (Fraction(-1), Fraction(4, 9), Fraction(5, 2))
    for m in (2, 4, 11, 33554467**2):
        def poly(e):
            return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(e))

        want = sympy.Poly(sympy.rem(poly(u) * poly(v), x**3 - m, x), x).all_coeffs()[::-1]
        want += [0] * (3 - len(want))
        assert orc.fmul(m, u, v) == tuple(Fraction(str(c)) for c in want)
        assert orc.fnorm(m, u) == Fraction(str(sympy.resultant(x**3 - m, poly(u), x)))
    assert orc.fnorm(2, (5, 0, -1)) == 121  # the CLI example `norm 2 5 0 -1`


def test_cubefree_and_primes_against_factorint():
    for m in range(2, 600):
        assert orc.is_cubefree(m) == all(e < 3 for e in sympy.factorint(m).values())
    assert orc.primes_up_to(5000) == list(sympy.primerange(2, 5001))


def test_nonresidue_certificates_against_sqrt_mod():
    # x(P) - w for P = (3, 5) is not a square in Q(cbrt(2)); x(2P) - w is
    p, c = orc.nonresidue_certificate(2, 3, 1)
    assert (c**3 - 2) % p == 0 and sympy.sqrt_mod((3 - c) % p, p) is None
    assert orc.check_certificate(2, 3, 1, p, c)
    assert orc.nonresidue_certificate(2, Fraction(129, 100), 1) is None
    for m, a, b in [(11, 3, 1), (26, Fraction(17, 4), 1), (47, 6, 1), (7, Fraction(-5, 3), 2)]:
        cert = orc.nonresidue_certificate(m, a, b)
        assert cert is not None
        p, c = cert
        a, b = Fraction(a), Fraction(b)
        v = (a.numerator * pow(a.denominator, -1, p) - b.numerator * pow(b.denominator, -1, p) * c) % p
        assert (c**3 - m) % p == 0 and (6 * m) % p and sympy.sqrt_mod(v, p) is None


def test_search_box_against_sympy_squares():
    k, e_bound, a_bound = 17, 3, 60
    want = []
    for e in range(1, e_bound + 1):
        for a in range(-a_bound, a_bound + 1):
            if sympy.gcd(a, e) != 1:
                continue
            xr = sympy.Rational(a, e * e)
            y2 = xr**3 + k
            y = sympy.sqrt(y2)
            if y2 >= 0 and y.is_rational:
                x, yf = Fraction(a, e * e), Fraction(str(y))
                want.extend([(x, yf)] if yf == 0 else [(x, -yf), (x, yf)])
    assert orc.search_box(k, e_bound, a_bound) == want
    assert (Fraction(-2), Fraction(3)) in want
