import copy
import itertools
import pickle
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from purecubic import arith, field
from purecubic.arith import icbrt, perfect_square_root
from purecubic.binsq import elem_from_point, is_square_binomial, point_from_elem, star
from purecubic.classfield import kappa_element
from purecubic.errors import FieldMismatch
from purecubic.field import CubicElement, CubicField, binomial_minpoly, sqrt_in_field
from purecubic.mordell import MordellCurve, affine

from helpers import (naive_elem_mul, naive_elem_square, naive_norm, reference_alpha, reference_point,
                     reference_sqrt_in_field, reference_star)

F2 = CubicField(2)
F26 = CubicField(26)

rats = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))
elems2 = st.tuples(rats, rats, rats).map(lambda c: F2.element(*c))


class TestFieldConstruction:
    def test_cube_rejected(self):
        for m in (8, 1, -1, 0, -27):
            with pytest.raises(ValueError, match="perfect cube"):
                CubicField(m)

    def test_non_integer_rejected(self):
        # truncated, they would build Q(cbrt(2)) and Q(cbrt(3))
        for m in (2.5, Fraction(7, 2)):
            with pytest.raises(TypeError):
                CubicField(m)

    def test_non_cubefree_rejected(self):
        # a field needs only a non-cube m; the cubefree requirement is kappa_element's
        assert CubicField(16).m == 16
        with pytest.raises(ValueError, match="not cubefree"):
            kappa_element(16, -1, affine(0, 4))  # on y^2 = x^3 + 16
        with pytest.raises(ValueError, match="not cubefree"):
            kappa_element(54, 1, affine(7, 17))  # on y^2 = x^3 - 54

    def test_negative_allowed(self):
        assert CubicField(-4).m == -4


class TestMul:
    def test_one_is_identity(self):
        a = F2.element(Fraction(3, 7), 2, Fraction(-1, 5))
        assert a * F2.one == a

    def test_intro_identity_small(self):
        a = F2.element(1, -1, -1)
        assert (a * a).components() == (5, 0, -1)

    def test_intro_identity_larger(self):
        a = F2.element(9, -6, -2)
        assert (a * a).components() == (129, -100, 0)

    def test_matches_schoolbook_expansion(self):
        comps = (Fraction(3, 5), Fraction(-7, 2), Fraction(11, 4))
        a = F26.element(*comps)
        assert (a * a).components() == naive_elem_square(26, comps)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            F2.one * F26.one

    def test_int_coercion(self):
        a = F2.element(1, 2, 3)
        assert 2 * a == F2.element(2, 4, 6)
        assert a + 1 == F2.element(2, 2, 3)

    @given(elems2, elems2, elems2)
    @settings(max_examples=100, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestNormTrace:
    def test_five_minus_w_squared(self):
        assert F2.element(5, 0, -1).norm() == 121

    def test_one(self):
        assert F2.one.norm() == 1
        assert F2.one.trace() == 3

    def test_unit_in_q_cbrt_26(self):
        assert F26.element(3, -1, 0).norm() == 1

    def test_binomial_norm_formula(self):
        # N(a - b*w) = a^3 - m*b^3
        a, b = Fraction(35), Fraction(1)
        assert F26.element(a, -b, 0).norm() == a**3 - 26 * b**3

    @given(elems2, elems2)
    @settings(max_examples=100, deadline=None)
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()

    @given(elems2, elems2)
    @settings(max_examples=50, deadline=None)
    def test_trace_additive(self, a, b):
        assert (a + b).trace() == a.trace() + b.trace()


class TestIntegerKernels:
    """norm() and * on one common denominator against the plain Fraction formulas."""

    fields = st.sampled_from([2, 3, 26, -2, -7, -26, 113, 33554467**2]).map(CubicField)
    big = st.integers(-(10**30), 10**30)
    coords = st.one_of(big, rats, st.builds(Fraction, big, st.integers(1, 10**30)))
    triples = st.tuples(coords, coords, coords)

    @given(fields, triples, triples, big)
    @settings(max_examples=200, deadline=None)
    def test_norm_and_product(self, F, a, b, n):
        x, y = F.element(*a), F.element(*b)
        a, b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
        assert x.norm() == naive_norm(F.m, a) and type(x.norm()) is Fraction
        product = (x * y).components()
        assert product == naive_elem_mul(F.m, a, b)
        assert all(type(c) is Fraction for c in product)
        assert (n * x).components() == (x * n).components() == tuple(n * c for c in a)


class TestSignOfEmbedding:
    def test_huge_elements_next_to_zero(self):
        # x - y*w and (x+1) - y*w bracket 0 in the real embedding, at 4000 digits
        y = 10**4000 + 12345
        x = icbrt(2 * y**3)
        assert x**3 < 2 * y**3 < (x + 1) ** 3
        for r, want in ((x, -1), (x + 1, 1)):
            sign = F2.element(r, -y, 0).sign_of_embedding()
            assert sign == want == (1 if r**3 - 2 * y**3 > 0 else -1)


class TestExactCoordinates:
    def test_int_coordinates_square_to_fractions(self):
        a = field.CubicElement(F2, 1, 2, 3)
        assert all(type(c) is Fraction for c in (a * a).components())
        assert (a * a).components() == (25, 22, 10)

    def test_float_coordinates_give_an_exact_norm(self):
        a = field.CubicElement(F2, 0.1, 0.2, 0)
        assert a.components() == (Fraction(0.1), Fraction(0.2), 0)
        assert type(a.norm()) is Fraction
        assert a.norm() == Fraction(0.1) ** 3 + 2 * Fraction(0.2) ** 3


class TestIntegerStorage:
    """An element is stored as (R, S, T, D), D > 0 and gcd(R, S, T, D) = 1; Fractions only at the edge."""

    fields = st.sampled_from([2, 7, 26, -2, -7, 113, 33554467**2]).map(CubicField)
    coords = st.one_of(
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4)),
        st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60)),
    )
    triples = st.tuples(coords, coords, coords)

    @staticmethod
    def stored(x):
        return x.R, x.S, x.T, x.D

    @given(fields, triples, triples, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_storage_and_kernels_match_fraction_oracles(self, F, a, b, same):
        b = a if same else b
        x, y = F.element(*a), F.element(*b)
        for e, comps in ((x, a), (y, b)):
            R, S, T, D = self.stored(e)
            assert D > 0 and gcd(R, S, T, D) == 1 and e._integral() == (R, S, T, D)
            assert (Fraction(R, D), Fraction(S, D), Fraction(T, D)) == comps
            assert e.components() == comps == (e.r, e.s, e.t)
            assert all(type(c) is Fraction for c in e.components())
        assert (x == y) == (a == b) and (x != y) == (a != b)
        if a == b:
            assert hash(x) == hash(y)
        m = F.m
        for got, want in ((x + y, [p + q for p, q in zip(a, b)]), (x - y, [p - q for p, q in zip(a, b)]),
                          (x * y, naive_elem_mul(m, a, b)), (-x, [-p for p in a])):
            assert got.components() == tuple(want)
            assert gcd(*self.stored(got)) == 1 and got.D > 0
        assert x.norm() == naive_norm(m, a) and type(x.norm()) is Fraction
        # a binomial square (-s^2/(2t), s, t) and its point P: the element of P, the tangent (the
        # element of -2P) and the chord to its double
        s, t = a[1], a[2]
        if t:
            alpha = F.element(-s * s / (2 * t), s, t)
            b, px, py = reference_point(m, alpha.components())
            P = affine(px, py)
            assert elem_from_point(F, b, P).alpha.components() == reference_alpha(b, px, py) == alpha.components()
            Q = -MordellCurve.twist(m, b).double(P)
            double = star(alpha, alpha)
            assert double.components() == reference_alpha(b, Q.x, Q.y) and double == reference_star(alpha, alpha)
            assert star(alpha, double) == reference_star(alpha, double)
            assert gcd(*self.stored(double)) == 1 and double.D > 0

    def test_mixed_denominators_round_trip(self):
        F = CubicField(26)
        x = F.element(Fraction(-3, 4), Fraction(5, 6), Fraction(7, 10**40 + 1))
        assert x.D == 12 * (10**40 + 1)
        assert repr(x) == f"CubicElement(field={F!r}, r={x.r!r}, s={x.s!r}, t={x.t!r})"
        for y in (eval(repr(x), {"CubicElement": CubicElement, "CubicField": CubicField, "Fraction": Fraction}),
                  pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert y == x and hash(y) == hash(x) and self.stored(y) == self.stored(x)
            assert y.components() == x.components()

    def test_integer_and_float_coordinates(self):
        assert F2.element(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))._integral() == (3, 2, 1, 6)
        assert F2.element(4, -6, 2)._integral() == (4, -6, 2, 1) and F2.element(0)._integral() == (0, 0, 0, 1)
        x = CubicElement(F2, 0.1, 0.2, 0)  # the exact binary values, over one power of two
        assert x.components() == (Fraction(0.1), Fraction(0.2), 0) and x.D == Fraction(0.1).denominator == 2**55

    @pytest.mark.parametrize("m, comps", [
        (2, (1, -1, -1)), (-26, (Fraction(-1, 2), 3, Fraction(7, 5))), (250, (3, Fraction(-1, 5), 2)),
        (26, (0, 1, 0)), (-7, (Fraction(1, 3), 5, Fraction(-2, 7)))])
    def test_a_square_root_builds_one_fraction(self, m, comps):
        # the candidate, its exact square and the cut run on integers; the one Fraction is the
        # norm that positive_embedding reads for the sign
        beta = CubicField(m).element(*comps) ** 2
        built, new = [], Fraction.__dict__["__new__"]

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new.__func__(cls, *args, **kwargs)

        Fraction.__new__ = counted
        try:
            root = sqrt_in_field(beta)
        finally:
            Fraction.__new__ = new
        assert root * root == beta
        assert len(built) == 1 and abs(Fraction(*built[0])) == abs(root.norm())


class TestSqrtInField:
    def test_five_minus_w2_in_q_cbrt2(self):
        got = sqrt_in_field(F2.element(5, 0, -1))
        assert got == F2.element(-1, 1, 1)
        assert got.sign_of_embedding() > 0

    def test_rational_square(self):
        assert sqrt_in_field(F2.element(4)) == F2.element(2)
        assert sqrt_in_field(F2.element(2)) is None

    def test_fundamental_unit_not_square(self):
        # norm is 1, but 3 - w is not a square in Q(cbrt(26))
        beta = F26.element(3, -1, 0)
        assert beta.norm() == 1
        assert sqrt_in_field(beta) is None

    def test_negative_real_embedding(self):
        assert sqrt_in_field(F2.element(-5, 0, 1) * F2.element(-5, 0, 1) * F2.element(-1)) is None

    def test_always_verified(self):
        beta = F2.element(Fraction(2340922881, 58675600), -1, 0)
        got = sqrt_in_field(beta)
        assert got is not None and got * got == beta

    def test_precision_follows_the_height(self):
        # digits is ignored: the precision follows from the height, and 20 digits could not hold this root
        big = 10**60 + 3
        gamma = F2.element(big, big + 1, Fraction(1, big))
        got = sqrt_in_field(gamma * gamma, digits=20)
        assert got is not None and got * got == gamma * gamma

    def test_130_digit_coefficients_at_the_default_digits(self):
        big = 10**130 + 7
        gamma = CubicField(7).element(big, Fraction(3, big), big + 2)
        beta = gamma * gamma
        got = sqrt_in_field(beta)
        assert got is not None and got * got == beta

    def test_roundtrip_random(self):
        import random

        rng = random.Random(11)
        for _ in range(10):
            gamma = F2.element(
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            )
            if gamma.is_zero():
                continue
            beta = gamma * gamma
            got = sqrt_in_field(beta)
            assert got is not None
            assert got in (gamma, -gamma)
            assert got * got == beta


class TestOneAttempt:
    """One numeric attempt, at a precision in bits worked out from beta and m."""

    def test_m_of_2134_digits(self):
        gamma = CubicField(prod(sympy.primerange(2, 5000))).element(1, 1)
        assert sqrt_in_field(gamma * gamma) == gamma

    def test_coordinate_above_the_int_str_limit(self):
        gamma = F2.element(10**2200 + 1, 1)
        assert sqrt_in_field(gamma * gamma) == gamma

    def test_root_above_the_height_bound_takes_one_attempt(self):
        calls, attempt = [], field._sqrt_attempt

        def counted(*args):
            calls.append(args)
            return attempt(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(field, "_sqrt_attempt", counted)
            assert sqrt_in_field(CubicField(33554467**2).omega) is None
        assert len(calls) == 1

    def test_the_cut_is_the_only_gap(self):
        # the attempt finds the root w^2/33554467 of w, and sqrt_in_field cuts it at its height
        K = CubicField(33554467**2)
        root = field._sqrt_attempt(K.omega)
        assert root == K.element(0, 0, Fraction(1, 33554467)) and root * root == K.omega
        assert sqrt_in_field(K.omega) is None

    @pytest.mark.parametrize("a, c", [(1, 2**24 - 3), (1, 2**24 + 1), (2**10, 33554467), (3, 2**31 + 1)])
    def test_the_cut_on_either_side_of_its_bit_bound(self, a, c):
        # a*w^2/c squares to a^2*w in Q(cbrt(c^2)), whose D is 1: past 24 bits in the root, the cut
        # reads the heights, and it answers None exactly when the root's height exceeds a^4 * 2^24
        K = CubicField(c * c)
        root = K.element(0, 0, Fraction(a, c))
        assert sqrt_in_field(K.element(0, a * a, 0)) == (None if root.D > a**4 << 24 else root)

    primorial = prod(sympy.primerange(2, 700))  # 290 digits
    fields = st.sampled_from([2, 3, 7, 26, -2, -7, 113, -primorial, 33554467**2]).map(CubicField)
    wide = st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**25))
    coords = st.one_of(rats, wide)

    @given(fields, coords, coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_retrying_reference(self, F, r, s, t):
        beta = F.element(r, s, t) ** 2
        expected = reference_sqrt_in_field(beta)
        if expected is not None:
            assert sqrt_in_field(beta) == expected


class TestFixedPointEdges:
    """The fixed-point attempt next to its guard and on its stable complex branch."""

    @pytest.mark.parametrize("n", [5, 50, 150, 400])
    def test_powers_of_the_unit_w_minus_1(self, n):
        # the real embedding of (w - 1)^(2n) is about 0.26^(2n): 2^-1555 for n = 400
        gamma = (F2.omega - 1) ** n
        assert sqrt_in_field(gamma * gamma) in (gamma, -gamma)

    @pytest.mark.parametrize("n", [5, 50, 150, 400])
    def test_the_guard_alone_at_the_least_precision(self, n):
        # the attempt runs at the least precision, prec = bits(E) + 2, so nothing but the guard
        # pays for the tiny real embedding; without it the root is missed from n = 50 on
        gamma = (F2.omega - 1) ** n * Fraction(1, 3**40)
        assert field._sqrt_attempt(gamma * gamma) in (gamma, -gamma)

    @pytest.mark.parametrize("m, comps", [
        (2, (1, 3, 0)), (2, (1, 0, 2)), (26, (0, 1, 0)), (-2, (1, 1, 1)),
        (-7, (2, -1, 3)), (-7, (Fraction(1, 3), 5, Fraction(-2, 7))),
    ])
    def test_complex_embedding_with_a_negative_real_part(self, m, comps):
        gamma = CubicField(m).element(*comps)
        beta = gamma * gamma
        # beta at w*zeta, zeta = (-1 + i*sqrt(3))/2, has real part r - (s*w + t*w^2)/2
        w = abs(m) ** (1 / 3) * (1 if m > 0 else -1)
        r, s, t = map(float, beta.components())
        assert r - (s * w + t * w * w) / 2 < 0
        assert sqrt_in_field(beta) in (gamma, -gamma)

    @pytest.mark.parametrize("n", [10, 50, 150])
    def test_complex_root_next_to_the_imaginary_axis(self, n):
        # gamma = a/2 - b*w - c*w^2 for (w - 1)^n = a + b*w + c*w^2: gamma at w*zeta has real
        # part (a + b*w + c*w^2)/2, about 0.26^n / 2, so gamma^2 lies next to the negative axis
        a, b, c = ((F2.omega - 1) ** n).components()
        gamma = F2.element(a / 2, -b, -c)
        assert sqrt_in_field(gamma * gamma) in (gamma, -gamma)


class TestNormTest:
    """A non-square norm is a proof: N(d*gamma^2) = d^3 N(gamma)^2."""

    fields = st.sampled_from([2, 3, 26, -2, -7, 113, 33554467**2]).map(CubicField)
    elements = st.tuples(fields, rats, rats, rats).map(lambda f: f[0].element(*f[1:]))
    nonsquares = rats.filter(lambda d: d != 0 and perfect_square_root(d) is None)

    @given(elements, nonsquares)
    @settings(max_examples=150, deadline=None)
    def test_nonsquare_norm_needs_no_numeric_attempt(self, gamma, d):
        if gamma.is_zero():
            return

        def numeric_attempt(*args):
            raise AssertionError("numeric attempt on a non-square norm")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(field, "_sqrt_attempt", numeric_attempt)
            assert sqrt_in_field(d * gamma * gamma) is None

    @given(elements)
    @settings(max_examples=100, deadline=None)
    def test_squares_still_found(self, gamma):
        beta = gamma * gamma
        got = sqrt_in_field(beta)
        assert got is not None and got * got == beta


class TestIntegerNormAndSignOrder:
    """One integer norm n*D decides the norm test, and the root's sign is rounded first."""

    # every one but the last two took two exact checks when the signs were tried in a fixed order
    squares = [
        (2, (1, -1, -1)), (2, (Fraction(9, 10), Fraction(-3, 5), Fraction(-1, 5))),
        (-7, (2, -1, 3)), (-2, (1, 1, 1)), (-26, (Fraction(-1, 2), 3, Fraction(7, 5))),
        (4, (-1, 1, Fraction(1, 2))), (54, (1, 1, 1)), (54, (Fraction(1, 2), -1, Fraction(1, 3))),
        (250, (3, Fraction(-1, 5), 2)), (26, (0, 1, 0)), (-7, (Fraction(1, 3), 5, Fraction(-2, 7))),
    ]

    @pytest.mark.parametrize("m, comps", squares)
    def test_three_walks_per_square(self, m, comps, monkeypatch):
        # the first sign's three coordinates are rounded and confirmed by one product
        gamma = CubicField(m).element(*comps)
        beta = gamma * gamma
        products, mul = [], CubicElement.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(CubicElement, "__mul__", counted)
        assert sqrt_in_field(beta) in (gamma, -gamma)
        assert len(products) == 1

    def test_no_norm_before_the_attempt(self, monkeypatch):
        F26 = CubicField(26)
        # (beta, norm calls in all, norm calls when the attempt starts, None if it never does)
        cases = [(CubicField(m).element(*comps) ** 2, 1, 0) for m, comps in self.squares]
        cases += [(3 * F26.element(1, 2, -1) ** 2, 0, None),  # a non-square norm: no attempt
                  (F26.element(1, 2, -1) ** 2 * F26.element(3, -1), 0, 0)]  # norm 1, no root
        counts = {"norm": 0, "at_attempt": None}
        norm, attempt = CubicElement.norm, field._sqrt_attempt

        def counted_norm(self):
            counts["norm"] += 1
            return norm(self)

        def recorded_attempt(*args):
            counts["at_attempt"] = counts["norm"]
            return attempt(*args)

        monkeypatch.setattr(CubicElement, "norm", counted_norm)
        monkeypatch.setattr(field, "_sqrt_attempt", recorded_attempt)
        for beta, norms, at_attempt in cases:
            counts.update(norm=0, at_attempt=None)
            # the one norm a square root takes is positive_embedding's
            assert (sqrt_in_field(beta) is None) == (norms == 0)
            assert counts == {"norm": norms, "at_attempt": at_attempt}

    # elements whose norm is 1 and which are not squares: gamma^2 times one of them is not a square
    square_norms = {26: (3, -1), 2: (-1, 1), 7: (2, -1)}
    fields = st.sampled_from([2, 3, 7, 26, -2, -7, 54, 250])

    @given(fields, rats, rats, rats, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_reference(self, m, r, s, t, twisted):
        K = CubicField(m)
        gamma = K.element(r, s, t)
        assume(not gamma.is_zero())
        beta = gamma * gamma
        if twisted and m in self.square_norms:
            beta = beta * K.element(*self.square_norms[m])
            assert sqrt_in_field(beta) is None
        assert sqrt_in_field(beta) == reference_sqrt_in_field(beta)

    def test_a_far_sign_is_not_squared(self, monkeypatch):
        # gamma^2*u, u of norm 1 and not a square, for 124 gamma = a + b*w + (c/2)*w^2 in each of
        # three fields: a sign whose E*r lies farther than 1/4 from an integer is not built and
        # squared, so these take 380 products, not the 744 of squaring both signs of each
        betas = [CubicField(m).element(a, b, Fraction(c, 2)) ** 2 * CubicField(m).element(*u)
                 for m, u in self.square_norms.items()
                 for a, b, c in itertools.product(range(-2, 3), repeat=3) if (a, b, c) != (0, 0, 0)]
        products, mul = [], CubicElement.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(CubicElement, "__mul__", counted)
        assert all(sqrt_in_field(beta) is None for beta in betas)
        assert (len(betas), len(products)) == (372, 380)


class TestProvedDenominator:
    """Roots outside (1/D)Z[w], D the denominator of their square, in fields whose ring of
    integers is bigger than Z[w]: their coordinates are integers over 3|m|*D all the same."""

    # an algebraic integer outside Z[w]: w^2/c for m = c^2*m0, and (1 +- w + w^2)/3 for
    # m = +-1 mod 9 (minimal polynomials x^3 - 5, x^3 - 20, x^3 - 28, x^3 - 50 and
    # x^3 - x^2 - 3x - 3, x^3 - x^2 + 6x - 12, x^3 - x^2 - 6x - 12, x^3 - x^2 - 3x - 3)
    third = Fraction(1, 3)
    integral = {25: (0, 0, Fraction(1, 5)), 50: (0, 0, Fraction(1, 5)), 98: (0, 0, Fraction(1, 7)),
                -20: (0, 0, Fraction(1, 2)), 10: (third, third, third), 17: (third, -third, third),
                19: (third, third, third), -10: (third, -third, third)}
    small = st.integers(-20, 20)

    @given(st.sampled_from(sorted(integral)), small, small, small, rats)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference(self, m, a, b, c, q):
        K = CubicField(m)
        gamma = K.element(a, b) + c * K.element(*self.integral[m])
        gamma = gamma * q
        assume(not gamma.is_zero())
        beta = gamma * gamma
        got = sqrt_in_field(beta)
        assert got in (gamma, -gamma)
        assert got == reference_sqrt_in_field(beta)


class TestBinomialMinpoly:
    def test_129_minus_100w(self):
        p = binomial_minpoly(129, 100, F2)
        assert p.coeffs == (-(129**3 - 2 * 100**3), 3 * 129**2, -3 * 129, 1)
        assert p.coeffs == (-146689, 49923, -387, 1)

    def test_nagell_unit(self):
        p = binomial_minpoly(-19, -7, CubicField(20))
        assert p.coeffs == (-1, 1083, 57, 1)

    def test_vanishes_at_element_exactly(self):
        for (a, b, field) in [(129, 100, F2), (Fraction(129, 100), 1, F2), (-19, -7, CubicField(20))]:
            p = binomial_minpoly(a, b, field)
            alpha = field.element(Fraction(a), -Fraction(b), 0)
            value = p(alpha)
            assert value == field.element(0)

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            binomial_minpoly(5, 0, F2)

    def test_clears_denominators(self):
        p = binomial_minpoly(Fraction(129, 100), 1, F2)
        assert all(isinstance(c, int) for c in p.coeffs)
        alpha = F2.element(Fraction(129, 100), -1, 0)
        assert p(alpha) == F2.element(0)


@pytest.mark.parametrize("m", [16, 54, 10**30 + 57])
def test_field_and_binsq_never_factor_m(m, monkeypatch):
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n, *rest: calls.append(n) or real(n, *rest))
    K = CubicField(m)
    gamma = K.element(Fraction(3, 7), -2, Fraction(5, 4))
    beta = gamma * gamma
    assert beta.norm() == gamma.norm() ** 2
    assert sqrt_in_field(beta) == gamma.positive_embedding()
    alpha = K.element(Fraction(-1, 2), 1, 1)  # 2rt + s^2 = 0, so alpha^2 = a - b*w
    witness = point_from_elem(K, alpha)
    assert elem_from_point(K, witness.b, witness.point).alpha == alpha
    assert point_from_elem(K, star(alpha, alpha)).point == -witness.curve.double(witness.point)
    assert calls == []


# Q(cbrt(c^3*m0)) is Q(cbrt(m0)) with w = c*w0, so answers must agree across that isomorphism
small = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
nonzero_small = small.filter(bool)
rescaled = st.tuples(st.sampled_from((F2.m, F26.m)), st.sampled_from((2, 3, 5)))


def _image(m0, c, alpha):
    """alpha of Q(cbrt(c^3*m0)) in Q(cbrt(m0)), by w -> c*w0."""
    return CubicField(m0).element(alpha.r, c * alpha.s, c * c * alpha.t)


class TestCubeFactorOfM:
    @given(rescaled, small, small, small)
    @settings(max_examples=80, deadline=None)
    def test_sqrt_in_field_of_planted_squares(self, mc, r, s, t):
        m0, c = mc
        gamma = CubicField(c**3 * m0).element(r, s, t)
        assume(not gamma.is_zero())
        root = sqrt_in_field(gamma * gamma)
        assert root == gamma.positive_embedding()
        assert sqrt_in_field(_image(m0, c, gamma * gamma)) == _image(m0, c, root)

    @given(rescaled, small, nonzero_small)
    @settings(max_examples=80, deadline=None)
    def test_square_decision_agrees(self, mc, a, b):
        m0, c = mc
        root = is_square_binomial(CubicField(c**3 * m0), a, b)
        other = is_square_binomial(CubicField(m0), a, b * c)
        assert other == (None if root is None else _image(m0, c, root))

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("m0, Q", [(26, (3, 1)), (26, (35, 207)), (26, (Fraction(17, 4), Fraction(57, 8)))])
    def test_square_decision_on_doubled_points(self, m0, Q, c):
        # x(2Q) - w0 is a square in Q(cbrt(m0)), so x(2Q) - (1/c)*w is one in Q(cbrt(c^3*m0))
        x = MordellCurve(-m0).double(affine(*Q)).x
        root = is_square_binomial(CubicField(c**3 * m0), x, Fraction(1, c))
        assert root is not None and root * root == root.field.element(x, Fraction(-1, c))
        assert is_square_binomial(CubicField(m0), x, 1) == _image(m0, c, root)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_paper_point_root(self, c):
        # the same for Q = (3, 5) on y^2 = x^3 - 2, with the roots written out
        x = MordellCurve(-2).double(affine(3, 5)).x
        root = is_square_binomial(CubicField(2 * c**3), x, Fraction(1, c))
        assert root == CubicField(2 * c**3).element(Fraction(-9, 10), Fraction(3, 5 * c), Fraction(1, 5 * c * c))
        assert _image(2, c, root) == F2.element(Fraction(-9, 10), Fraction(3, 5), Fraction(1, 5))
