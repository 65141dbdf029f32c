import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from purecubic.arith import (
    Factorization,
    IntPoly,
    certified_prime,
    cubefree_and_noncube,
    factorize,
    icbrt,
    parse_rat,
    perfect_cube_root,
    perfect_square_root,
    rational_reconstruct,
    rational_roots,
)
from purecubic.errors import EffortExceeded

from helpers import brute_rational_roots, trial_factorize
from helpers import fraction_reconstruct, per_step_rho
from purecubic import arith
from purecubic.arith import _decimal_digits, _rho_split
from purecubic.mordell import MordellCurve, affine


class TestFactorize:
    def test_small_composite(self):
        assert factorize(12).prime_powers == ((2, 2), (3, 1))

    def test_unit(self):
        assert factorize(1) == Factorization(1, ())
        assert factorize(-1) == Factorization(-1, ())

    def test_sign(self):
        assert factorize(-12) == Factorization(-1, ((2, 2), (3, 1)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_717409_against_trial_division(self):
        # oracle: unbounded trial division
        assert trial_factorize(717409) == {7: 2, 11: 4}
        assert factorize(717409).prime_powers == ((7, 2), (11, 4))

    def test_large_semiprime_needs_rho(self):
        p, q = 1000003, 1000033
        fac = factorize(p * q)
        assert fac.prime_powers == ((p, 1), (q, 1))

    def test_effort_bound_fails_loudly(self):
        p = 2**61 - 1  # Mersenne prime
        q = 2305843009213693967  # next prime after it
        assert sympy.isprime(p) and sympy.isprime(q)
        with pytest.raises(EffortExceeded):
            factorize(p * q, effort_bound=10)

    def test_listed_primes_are_prime(self):
        for n in (717409, 12345678, 987654321, 2**31 + 7):
            for p, _ in factorize(n):
                assert sympy.isprime(p)

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_product_roundtrip(self, n):
        assert factorize(n).value() == n

    def test_divisors(self):
        assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
        assert factorize(1).divisors() == [1]


class TestCertifiedPrime:
    @pytest.mark.parametrize("n,expect", [(2, True), (97, True), (1, False), (561, False)])
    def test_small(self, n, expect):
        assert certified_prime(n) is expect

    def test_beyond_certified_range(self):
        # a prime larger than the deterministic Miller-Rabin bound
        n = sympy.nextprime(4 * 10**24)
        with pytest.raises(EffortExceeded):
            certified_prime(n)

    def test_composite_beyond_range_is_still_composite(self):
        n = sympy.nextprime(4 * 10**24) * 3
        assert certified_prime(n) is False

    # below 10^20: any integer, a prime, or a product of two primes below 10^10
    @given(st.one_of(st.integers(min_value=-10, max_value=10**20 - 1),
                     st.integers(min_value=3, max_value=10**20 - 1).map(sympy.prevprime),
                     st.tuples(*[st.integers(min_value=3, max_value=10**10).map(sympy.prevprime)] * 2)
                     .map(prod)))
    @settings(max_examples=500, deadline=None)
    def test_matches_sympy(self, n):
        assert certified_prime(n) is sympy.isprime(n)

    # the least strong pseudoprimes to the first 4, 7, 11 and 12 primes: each base set
    # is chosen to stop just below the one it cannot tell from a prime
    @pytest.mark.parametrize("n", [3215031751, 341550071728321, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not sympy.isprime(n)
        assert certified_prime(n) is False

    @pytest.mark.parametrize("bound", [3215031751, 341550071728321, 318665857834031151167461,
                                       arith._CERTIFIED_BOUND])
    def test_primes_either_side_of_each_bound(self, bound):
        assert certified_prime(sympy.prevprime(bound)) is True
        if bound < arith._CERTIFIED_BOUND:
            assert certified_prime(sympy.nextprime(bound)) is True

    def test_pseudoprime_to_all_thirteen_bases_is_not_certified(self):
        # the least strong pseudoprime to 2, ..., 41 is where certification stops
        with pytest.raises(EffortExceeded):
            certified_prime(arith._CERTIFIED_BOUND)


class TestPerfectSquareRoot:
    def test_norm_of_five_minus_cbrt4(self):
        # 5^3 - 4 = 121 = 11^2
        assert perfect_square_root(121) == 11

    def test_fraction(self):
        assert perfect_square_root(Fraction(4, 9)) == Fraction(2, 3)

    def test_nonsquare(self):
        assert perfect_square_root(2) is None
        assert perfect_square_root(-4) is None
        assert perfect_square_root(Fraction(4, 7)) is None

    @given(st.fractions(max_denominator=10**6))
    @settings(max_examples=200)
    def test_square_roundtrip(self, q):
        r = perfect_square_root(q * q)
        assert r == abs(q)

    @given(st.integers(min_value=2, max_value=10**12))
    @settings(max_examples=200)
    def test_random_nonsquares_rejected(self, n):
        r = perfect_square_root(n)
        if r is not None:
            assert r * r == n


class TestCubefree:
    def test_two(self):
        assert cubefree_and_noncube(2) == (True, False)

    def test_eight(self):
        assert cubefree_and_noncube(8) == (False, True)

    def test_105_squared(self):
        # oracle: 11025 = 3^2 * 5^2 * 7^2, so cubefree and not a cube
        assert trial_factorize(11025) == {3: 2, 5: 2, 7: 2}
        assert cubefree_and_noncube(11025) == (True, False)

    def test_negative_cube(self):
        assert cubefree_and_noncube(-8) == (False, True)
        assert cubefree_and_noncube(-1) == (True, True)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cubefree_and_noncube(0)


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).is_zero()

    def test_eval(self):
        p = IntPoly((80, 32, 0, -20, 1))
        assert p(2) == 0
        assert p(Fraction(1, 2)) == Fraction(80) + 16 - Fraction(20, 8) + Fraction(1, 16)

    def test_non_integer_coefficient_rejected(self):
        # truncated, [-1/2, 1] would become x, whose root is 0, not 1/2
        for coeffs in ([Fraction(-1, 2), 1], [0.5, 1], [Fraction(4), 1]):
            with pytest.raises(TypeError):
                IntPoly(coeffs)
        assert rational_roots(IntPoly.from_rationals([Fraction(-1, 2), 1])) == {Fraction(1, 2)}

    def test_from_rationals_clears_denominators(self):
        p = IntPoly.from_rationals([Fraction(1, 2), Fraction(2, 3), 1])
        assert p.coeffs == (3, 4, 6)

    def test_format(self):
        assert IntPoly((-717409, 0, 28227, 0, -291, 0, 1)).format() == (
            "x^6 - 291x^4 + 28227x^2 - 717409"
        )
        assert IntPoly((0, -1)).format() == "-x"
        assert IntPoly(()).format() == "0"


class TestRationalRoots:
    def test_quadratic(self):
        assert rational_roots(IntPoly((-1, 0, 1))) == {1, -1}

    def test_no_roots(self):
        assert rational_roots(IntPoly((1, 0, 1))) == set()

    def test_halving_quartic_for_x5_km4(self):
        # oracle: exhaustive search over heights <= 60 finds exactly {2}
        coeffs = (80, 32, 0, -20, 1)  # x^4 - 20x^3 + 32x + 80
        assert brute_rational_roots(coeffs, 60) == {Fraction(2)}
        assert rational_roots(IntPoly(coeffs)) == {Fraction(2)}

    def test_zero_root_stripped_first(self):
        assert rational_roots(IntPoly((0, 0, -1, 1))) == {0, 1}

    def test_degree_6_with_thousands_of_divisors(self):
        # end coefficients with 15,552 and 6,720 divisors; the roots are sympy.roots(filter="Q")'s
        coeffs = (10729424405700000, 10060277507280000, -25022455085628000, -19135758925483200,
                  10379675368782720, 11098911556212480, 2273167300884480)
        assert rational_roots(IntPoly(coeffs)) == {Fraction(-5, 8), Fraction(31, 33), Fraction(-45, 22)}

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(IntPoly(()))

    @given(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=5).filter(
            lambda cs: any(c != 0 for c in cs)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_complete_against_brute_force(self, cs):
        p = IntPoly(tuple(cs))
        if p.is_zero():
            return
        assert rational_roots(p) == brute_rational_roots(p.coeffs, 9)


# pi to 60 decimal places, as an exact rational
PI_60 = Fraction("3.141592653589793238462643383279502884197169399375105820974944")


def radius(bound):
    """The acceptance radius 1/(2H^2) of rational_reconstruct."""
    return Fraction(1, 2 * bound * bound)


class TestRationalReconstruct:
    def test_exact_half(self):
        assert rational_reconstruct(Fraction(1, 2), 10) == Fraction(1, 2)
        assert rational_reconstruct(-7, 10) == -7
        for value in (0.5, Decimal("0.5"), "1/2"):
            with pytest.raises(TypeError):
                rational_reconstruct(value, 10)

    def test_x_of_2p(self):
        # within the radius 1/(2*10^12) of 129/100, and just outside it
        assert rational_reconstruct(Fraction(129, 100) + Fraction(1, 10**13), 10**6) == Fraction(129, 100)
        assert rational_reconstruct(Fraction(129, 100) + Fraction(1, 10**12), 10**6) is None

    def test_pi_has_no_small_reconstruction(self):
        # |pi - 355/113| is 2.7e-7, inside 1/(2*1000^2) and outside 1/(2*10^8)
        assert rational_reconstruct(PI_60, 10) is None
        assert rational_reconstruct(PI_60, 1000) == Fraction(355, 113)
        assert rational_reconstruct(PI_60, 10**4) is None
        assert rational_reconstruct(-PI_60, 1000) == Fraction(-355, 113)

    @given(st.fractions(max_denominator=10**5), st.integers(-15, 15))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_at_high_precision(self, q, j):
        # q itself, and q moved by j/16 of the radius at its own height
        bound = max(abs(q.numerator), q.denominator, 1)
        assert rational_reconstruct(q, bound) == q
        assert rational_reconstruct(q + j * radius(bound) / 16, bound) == q

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_not_finite_rejected(self, x):
        # only an exact rational is read: floats, Decimals and strings are refused, finite or not
        for value in (float(x), Decimal(x), x):
            with pytest.raises(TypeError):
                rational_reconstruct(value, 10)

    @given(
        st.integers(0, 40).flatmap(lambda e: st.integers(1, 10**e)),
        st.integers(0, 40).flatmap(lambda e: st.integers(-(10**e), 10**e)),
        st.integers(0, 40).flatmap(lambda e: st.integers(1, 10**e)),
        st.sampled_from(["int", "fraction", "near"]),
        st.integers(-24, 24),
    )
    @settings(max_examples=400, deadline=None)
    def test_integer_walk_matches_the_fraction_walk(self, bound, n, d, kind, j):
        if kind == "int":
            x = n
        elif kind == "fraction":
            x = Fraction(n, d)
        else:
            # j/8 of the acceptance radius 1/(2H^2) away from n/d
            x = Fraction(n, d) + j * radius(bound) / 8
        assert rational_reconstruct(x, bound) == fraction_reconstruct(x, bound)

    @given(st.integers(1, 30), st.integers(-40, 40), st.integers(1, 40), st.integers(-24, 24),
           st.sampled_from([1, 3, 7]))
    @settings(max_examples=300, deadline=None)
    def test_none_is_a_proof(self, bound, n, d, j, k):
        # every rational of height at most H within the radius, by enumeration: a None means
        # there is none, and a returned p/q is the only one
        x = Fraction(n, d) + j * radius(bound) / (8 * k)
        close = {Fraction(p, q) for q in range(1, bound + 1) for p in range(-bound, bound + 1)
                 if abs(x - Fraction(p, q)) < radius(bound)}
        got = rational_reconstruct(x, bound)
        assert close == (set() if got is None else {got})

    def test_without_mpmath(self):
        # the answers read no module state: a process that cannot import mpmath gives the same
        inputs = [Fraction(1, 2), Fraction(129, 100), PI_60, -7, Fraction(10**30, 7), -PI_60]
        bounds = [10, 10**6, 10**40]
        code = (
            "import sys; sys.modules['mpmath'] = None\n"
            "from fractions import Fraction\n"
            "from purecubic.arith import rational_reconstruct\n"
            f"print([str(rational_reconstruct(x, b)) for x in {inputs!r} for b in {bounds!r}])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60, check=True)
        expected = [str(rational_reconstruct(x, b)) for x in inputs for b in bounds]
        assert proc.stdout.splitlines() == [repr(expected)]


class TestParseRat:
    @pytest.mark.parametrize("text,val", [("3", 3), ("-9/10", Fraction(-9, 10)), ("+4/6", Fraction(2, 3))])
    def test_ok(self, text, val):
        assert parse_rat(text) == val

    @pytest.mark.parametrize("text", ["1.5", "3e2", "4/0", "1/-2", "", "x", "5\n", "1/2\n", "\u0663"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rat(text)


def test_perfect_cube_root():
    assert perfect_cube_root(27) == 3
    assert perfect_cube_root(-27) == -3
    assert perfect_cube_root(0) == 0
    assert perfect_cube_root(26) is None
    big = 10**20 + 7
    assert perfect_cube_root(big**3) == big
    assert perfect_cube_root(-(big**3)) == -big
    assert perfect_cube_root(10**400) is None
    assert perfect_cube_root(-(10**400)) is None
    assert perfect_cube_root(10**402) == 10**134


@given(st.integers(min_value=0, max_value=2**3000))
@settings(max_examples=200, deadline=None)
def test_icbrt_is_the_floor_cube_root(n):
    assert icbrt(n) == sympy.integer_nthroot(n, 3)[0]


def test_effort_exceeded_states_its_budget():
    p, q = 2**61 - 1, 2305843009213693967
    with pytest.raises(EffortExceeded, match=r"^rho: 10 of 10 iterations, cofactor of 37 digits$"):
        factorize(p * q, effort_bound=10)


def test_effort_messages_count_digits_past_the_int_str_limit(monkeypatch):
    n = 10**4400 + 1
    cofactor = n
    for p in sympy.primerange(2, 10_000):
        while cofactor % p == 0:
            cofactor //= p
    digits = sympy.integer_log(cofactor, 10)[0] + 1
    with monkeypatch.context() as patch:
        patch.setattr(arith, "certified_prime", lambda c: False)
        with pytest.raises(EffortExceeded, match=rf"^rho: 10 of 10 iterations, cofactor of {digits} digits$"):
            factorize(n, effort_bound=10)
    monkeypatch.setattr(arith, "_miller_rabin_witness", lambda c, a: False)
    with pytest.raises(EffortExceeded, match=r"^primality of an integer of 4401 digits not certifiable$"):
        certified_prime(n)


@given(st.one_of(st.integers(1, 2**20000),
                 st.builds(lambda k, j: 10**k + j, st.integers(1, 6000), st.integers(-1, 1))))
@settings(max_examples=300, deadline=None)
def test_decimal_digits(n):
    assert _decimal_digits(n) == sympy.integer_log(n, 10)[0] + 1


def _times_linear(coeffs: list[int], q: int, p: int) -> list[int]:
    """The ascending coefficients of (coeffs) * (q*x - p)."""
    padded = [0, *coeffs, 0]
    return [q * padded[i] - p * padded[i + 1] for i in range(len(coeffs) + 1)]


_planted_root = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 20)),
)


@st.composite
def _planted_poly(draw) -> list[int]:
    """A scaled cofactor times (q*x - p)^k, k <= 3, for up to three planted roots p/q.

    The scales include the highly composite 720720 (240 divisors) and
    negative numbers, so the end coefficients can carry hundreds of
    divisors and the leading coefficient takes either sign. The scale
    2*3*...*37 divides both end coefficients, so rational_roots passes
    every prime up to 37 and takes the squarefree part, of which planted
    double and triple roots make a proper factor."""
    cofactor = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4).filter(any))
    scale = draw(st.sampled_from([1, -1, 6, -12, 720720, -720720, 35336848261, 7420738134810]))
    coeffs = [scale * c for c in cofactor]
    for root, multiplicity in draw(st.lists(st.tuples(_planted_root, st.integers(1, 3)), max_size=3)):
        for _ in range(multiplicity):
            coeffs = _times_linear(coeffs, root.denominator, root.numerator)
    while coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@given(_planted_poly())
@settings(max_examples=200, deadline=None)
def test_rational_roots_match_sympy(coeffs):
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    expected = {Fraction(int(r.p), int(r.q)) for r in sympy.roots(poly, filter="Q")}
    got = rational_roots(IntPoly(tuple(coeffs)))
    assert got == expected
    height = 8
    small = {r for r in got if abs(r.numerator) <= height and r.denominator <= height}
    assert small == brute_rational_roots(coeffs, height)


_SCALED_QUADRATIC = [12 * 35336848261 * c for c in (30, -7, 12)]


@pytest.mark.parametrize("coeffs, roots", [
    ((-(10**9 + 7), 1), {Fraction(10**9 + 7)}),  # the root is c_0 itself
    ((10**9 + 7, 3), {Fraction(-(10**9 + 7), 3)}),
    ((-(2**61 - 1), 720720), {Fraction(2**61 - 1, 720720)}),
    ((-(10**6 + 1), -(10**6), 1), {Fraction(10**6 + 1), Fraction(-1)}),  # (x - (M + 1))(x + 1)
    ((-1, 0, 0, 1), {Fraction(1)}),  # f(1) = 0
    ((1, 0, 0, 1), {Fraction(-1)}),  # f(-1) = 0
    ((-1, 0, 1), {Fraction(1), Fraction(-1)}),  # f(1) = f(-1) = 0
    ((1, -2, 1), {Fraction(1)}),  # (x - 1)^2
    ((0, 0, 0, -5), {Fraction(0)}),
    ((7, 720727, 720720), {Fraction(-7, 720720), Fraction(-1)}),  # c_d has more divisors than c_0
    # 6(x - 2)(x - 13)(x + 9): the three roots share the one class 2 mod 11
    ((1404, -654, -36, 6), {Fraction(2), Fraction(13), Fraction(-9)}),
    # 2450(x + 1)^2(11x + 15)(...) and -720720(5x + 9)^3(...): every prime up to 37 divides an end
    # coefficient or meets the repeated root, so the prime comes from the squarefree part
    ((183750, -526750, -2432850, -1722350, 1474900, 2121700, 646800), {Fraction(-1), Fraction(-15, 11)}),
    ((10508097600, 31699427760, 42830227440, 25445019600, 2432430000, -3243240000, -900900000),
     {Fraction(-9, 5)}),
    # 12*11*13*...*37 * (30 - 7x + 12x^2), with and without (19x + 29)(13x - 30): 6,144 x 3,840
    # and 12,288 x 5,184 divisors
    (_SCALED_QUADRATIC, set()),
    (_times_linear(_times_linear(_SCALED_QUADRATIC, 19, -29), 13, 30), {Fraction(-29, 19), Fraction(30, 13)}),
])
def test_rational_roots_edge_cases(coeffs, roots):
    assert rational_roots(IntPoly(coeffs)) == roots


@pytest.mark.parametrize("coeffs, c0", [
    ((7, 720727, 720720), 7),  # c_d has more divisors than c_0
    ((1404, -654, -36, 6), 1404),  # c_d has fewer
    ((0, 0, 1404, -654, -36, 6), 1404),  # x^2 is stripped first
])
def test_rational_roots_factors_c0_only(monkeypatch, coeffs, c0):
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n, *rest: calls.append(n) or real(n, *rest))
    rational_roots(IntPoly(coeffs))
    assert tuple(calls) == (c0,)


def test_rational_roots_never_factors_the_leading_coefficient():
    # c_d = P1*P2, two primes of 40 and 41 digits, which rho cannot split within its budget
    p1, p2 = 10**39 + 3, 10**40 + 121
    assert sympy.isprime(p1) and sympy.isprime(p2)
    with pytest.raises(EffortExceeded, match="cofactor of 80 digits"):
        factorize(p1 * p2)
    assert rational_roots(IntPoly([-7, p1 * p2])) == {Fraction(7, p1 * p2)}


def test_factorize_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="effort bound must be >= 0"):
        factorize(12, -5)


def test_block_rho_matches_per_step_rho_on_small_composites():
    for n in range(9, 5000, 2):
        if certified_prime(n):
            continue
        for budget in (1, 5, 63, 64, 65, 200):
            assert _rho_split(n, budget) == per_step_rho(n, budget), (n, budget)


@given(st.integers(10, 20), st.integers(10, 20), st.data())
@settings(max_examples=100, deadline=None)
def test_block_rho_matches_per_step_rho_on_semiprimes(p_bits, q_bits, data):
    p = sympy.nextprime(data.draw(st.integers(2 ** (p_bits - 1), 2**p_bits)))
    q = sympy.nextprime(data.draw(st.integers(2 ** (q_bits - 1), 2**q_bits)))
    assert _rho_split(p * q, 500_000) == per_step_rho(p * q, 500_000)


# the default budget, or one small enough that some semiprimes exhaust it
@given(st.integers(20, 30), st.integers(20, 30), st.just(arith.DEFAULT_EFFORT) | st.integers(0, 100_000),
       st.data())
@settings(max_examples=100, deadline=None)
def test_factorize_splits_semiprimes_or_spends_the_whole_budget(p_bits, q_bits, budget, data):
    p = sympy.nextprime(data.draw(st.integers(2 ** (p_bits - 1), 2**p_bits)))
    q = sympy.nextprime(data.draw(st.integers(2 ** (q_bits - 1), 2**q_bits)))
    try:
        fac = factorize(p * q, budget)
    except EffortExceeded as exc:
        assert str(exc) == f"rho: {budget} of {budget} iterations, cofactor of {len(str(p * q))} digits"
    else:
        assert dict(fac.prime_powers) == sympy.factorint(p * q)


def test_rung5_constant_coefficient_still_exceeds_the_budget():
    curve = MordellCurve(-2)
    P = affine(3, 5)
    quartic = curve.halving_quartic(curve.double(curve.scalar_mul(5, P)).x)
    with pytest.raises(EffortExceeded, match=r"^rho: 500000 of 500000 iterations, cofactor of 36 digits$"):
        factorize(quartic.coeffs[0])
    with pytest.raises(EffortExceeded, match=r"^rho: 1000 of 1000 iterations, cofactor of 48 digits$"):
        factorize(quartic.coeffs[0], effort_bound=1000)


# primes either side of the trial bound 10^4, and one near 10^5
_NEAR_TRIAL_BOUND = (9967, 9973, 10007, 10009, 99991)


@given(st.lists(st.tuples(st.sampled_from(_NEAR_TRIAL_BOUND + tuple(sympy.primerange(100))), st.integers(1, 5)),
                max_size=5),
       st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_factorize_matches_trial_division_around_the_trial_bound(prime_powers, sign):
    n = sign * prod(p**e for p, e in prime_powers)
    fac = factorize(n)
    assert fac.sign == sign
    assert dict(fac.prime_powers) == trial_factorize(n)


@pytest.mark.parametrize("n, prime_powers, cofactor_tested", [
    (1, (), None),
    (-1, (), None),
    (9973**2, ((9973, 2),), None),
    (9973 * 10007, ((9973, 1), (10007, 1)), None),
    (10007**2, ((10007, 2),), 10007**2),  # a composite cofactor above 10^8: Miller-Rabin, then rho
    (2 * 99991, ((2, 1), (99991, 1)), None),  # a prime cofactor below 10^8 needs no Miller-Rabin
    (2**64 * 3**40 * 9973**3, ((2, 64), (3, 40), (9973, 3)), None),
])
def test_factorize_trial_stage_edges(monkeypatch, n, prime_powers, cofactor_tested):
    tested, split = [], []
    real_prime, real_rho = arith.certified_prime, arith._rho_split
    monkeypatch.setattr(arith, "certified_prime", lambda c: tested.append(c) or real_prime(c))
    monkeypatch.setattr(arith, "_rho_split", lambda c, budget: split.append(c) or real_rho(c, budget))
    assert factorize(n) == Factorization(1 if n > 0 else -1, prime_powers)
    expected = [] if cofactor_tested is None else [cofactor_tested]
    assert tested == expected and split == expected


@pytest.mark.parametrize("function, args", [
    (factorize, (12.5,)),
    (factorize, (12.0,)),
    (factorize, (1e20,)),
    (factorize, (12, 10.0)),
    (certified_prime, (7.0,)),
], ids=["factorize-12.5", "factorize-12.0", "factorize-1e20", "budget-10.0", "certified_prime-7.0"])
def test_non_integers_raise_type_error(function, args):
    with pytest.raises(TypeError):
        function(*args)
