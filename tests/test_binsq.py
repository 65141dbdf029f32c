import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from purecubic import binsq, mordell
from purecubic.binsq import (
    elem_from_point,
    is_square_binomial,
    point_from_elem,
    star,
    star_parts,
)
from purecubic.classfield import kappa_element
from purecubic.errors import DomainError, FieldMismatch, InvalidPoint, NotBinomial, ZeroElement
from purecubic.field import CubicElement, CubicField, sqrt_in_field
from purecubic.mordell import INFINITY, CurvePoint, MordellCurve, affine

from helpers import reference_add, reference_alpha, reference_point, reference_star

F2 = CubicField(2)
F4 = CubicField(4)
F20 = CubicField(20)
F26 = CubicField(26)
F47 = CubicField(47)


class TestElemFromPoint:
    def test_bachet_fermat(self):
        w = elem_from_point(F2, 1, affine(3, 5))
        assert w.alpha.components() == (Fraction(-9, 10), Fraction(3, 5), Fraction(1, 5))
        assert w.a == Fraction(129, 100)
        assert w.b == 1

    def test_double_point_matches_quoted_element(self):
        P = affine(Fraction(129, 100), Fraction(383, 1000))
        w = elem_from_point(F2, 1, P)
        assert w.alpha.components() == (
            Fraction(-16641, 7660),
            Fraction(1290, 383),
            Fraction(1000, 383),
        )
        assert w.a == Fraction(2340922881, 58675600)

    def test_nagell_twist(self):
        w = elem_from_point(F20, -7, affine(14, 98))
        assert w.alpha.components() == (-1, -1, Fraction(1, 2))
        assert (w.alpha * w.alpha).components() == (-19, 7, 0)

    def test_square_identity_always_verified(self):
        C = MordellCurve(-47)
        for P in C.search(3, 40):
            w = elem_from_point(F47, 1, P)
            assert (w.alpha * w.alpha).components() == (w.a, -1, 0)

    def test_off_curve_rejected(self):
        with pytest.raises(InvalidPoint):
            elem_from_point(F2, 1, affine(3, 4))

    def test_infinity_rejected(self):
        with pytest.raises(InvalidPoint):
            elem_from_point(F2, 1, INFINITY)


class TestBinomialB:
    """_binomial on one common denominator against the plain Fraction formulas."""

    fields = st.sampled_from([2, 26, -2, -7, 113, 33554467**2]).map(CubicField)
    big = st.integers(-(10**30), 10**30)
    coords = st.one_of(big, st.builds(Fraction, big, st.integers(1, 10**30)))

    @given(fields, coords, coords.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_b_of_a_binomial_square(self, F, s, t):
        r = -Fraction(s) ** 2 / (2 * Fraction(t))
        alpha = F.element(r, s, t)
        s_, t_, d, B = binsq._binomial(F, alpha)
        assert all(type(v) is int for v in (s_, t_, d, B)) and d > 0
        assert (Fraction(s_, d), Fraction(t_, d)) == (alpha.s, alpha.t)
        b = point_from_elem(F, alpha).b
        assert type(b) is Fraction and b == Fraction(B, d * d) == -(2 * r * s + F.m * Fraction(t) ** 2)

    @given(fields, coords, coords, coords)
    @settings(max_examples=150, deadline=None)
    def test_message_for_a_non_binomial(self, F, r, s, t):
        r, s, t = map(Fraction, (r, s, t))
        assume(2 * r * t + s * s != 0)
        with pytest.raises(NotBinomial) as info:
            binsq._binomial(F, F.element(r, s, t))
        assert str(info.value) == f"2rt + s^2 = {2 * r * t + s * s} != 0"


class TestPointFromElem:
    def test_bachet_fermat_inverse(self):
        alpha = F2.element(Fraction(-9, 10), Fraction(3, 5), Fraction(1, 5))
        w = point_from_elem(F2, alpha)
        assert w.point == affine(3, 5)
        assert w.b == 1

    def test_trivial_element(self):
        w = point_from_elem(F2, F2.one)
        assert w.point == INFINITY
        assert w.b == 0 and w.a == 1

    def test_nagell_unit_element(self):
        alpha = F20.element(1, 1, Fraction(-1, 2))
        w = point_from_elem(F20, alpha)
        assert w.b == -7
        assert w.point.x == 14 and abs(w.point.y) == 98
        assert w.a == -19

    def test_not_binomial(self):
        with pytest.raises(NotBinomial):
            point_from_elem(F2, F2.element(1, 1, 1))

    def test_zero_element(self):
        with pytest.raises(ZeroElement):
            point_from_elem(F2, F2.element(0))

    def test_element_of_another_field(self):
        # a binomial-square element of Q(cbrt(20)), asked for on the curve of Q(cbrt(2))
        with pytest.raises(FieldMismatch):
            point_from_elem(F2, F20.element(1, 1, Fraction(-1, 2)))

    @pytest.mark.parametrize("c", [1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])
    def test_roundtrip_through_square_twists(self, c):
        # (x, y) on y^2 = x^3 - m scales to (c^2 x, c^3 y) on the b = c^2 twist
        b = Fraction(c) ** 2
        C = MordellCurve.twist(47, b)
        base = MordellCurve(-47).search(2, 60)
        assert base
        for P0 in base:
            P = C.point(c * c * P0.x, c**3 * P0.y)
            w = elem_from_point(F47, b, P)
            back = point_from_elem(F47, w.alpha)
            assert back.point == P
            assert back.b == b
            assert back.a == w.a

    def test_roundtrip_negative_twist(self):
        C = MordellCurve.twist(20, -7)
        for P in (C.point(14, 98), C.point(-19, 1), C.point(14, -98)):
            w = elem_from_point(F20, -7, P)
            back = point_from_elem(F20, w.alpha)
            assert back.point == P and back.b == -7

    def test_int_coordinates_stay_exact(self):
        # CubicElement takes its coordinates as given; b*s/t on ints must not become a float
        s = 2 * (10**9 + 7)
        built, parsed = CubicElement(F2, -s * s // 2, s, 1), F2.element(-s * s // 2, s, 1)
        w = point_from_elem(F2, built)
        assert w == point_from_elem(F2, parsed)
        assert type(w.b) is Fraction and type(w.point.x) is Fraction
        assert star(built, built) == star(parsed, parsed) == reference_star(parsed, parsed)

    def test_sign_pairing(self):
        C = MordellCurve(-26)
        for P in C.search(2, 40):
            a_pos = elem_from_point(F26, 1, P).alpha
            a_neg = elem_from_point(F26, 1, -P).alpha
            assert a_neg == -a_pos


class TestStar:
    def test_worked_example_parts(self):
        a1 = F2.element(Fraction(9, 10), Fraction(-3, 5), Fraction(-1, 5))
        a2 = F2.element(Fraction(-16641, 7660), Fraction(1290, 383), Fraction(1000, 383))
        parts = star_parts(a1, a2)
        assert parts.s_minus == Fraction(-342, 383)
        assert parts.s_plus == Fraction(-858, 383)
        assert parts.t_minus == Fraction(-5383, 1915)
        assert parts.t_plus == Fraction(-200, 383)
        assert parts.sigma == Fraction(-6138414, 733445)
        assert parts.s == Fraction(-28099233, 66234835)
        assert parts.t == Fraction(-5000211, 66234835)
        assert parts.r == Fraction(27002048329, 22652313570)

    def test_worked_example_product(self):
        a1 = F2.element(Fraction(9, 10), Fraction(-3, 5), Fraction(-1, 5))
        a2 = F2.element(Fraction(-16641, 7660), Fraction(1290, 383), Fraction(1000, 383))
        got = star(a1, a2)
        assert got.components() == (
            Fraction(27002048329, 22652313570),
            Fraction(-28099233, 66234835),
            Fraction(-5000211, 66234835),
        )

    def test_identity(self):
        alpha = elem_from_point(F2, 1, affine(3, 5)).alpha
        assert star(alpha, F2.one) == alpha
        assert star(F2.one, alpha) == alpha

    def test_inverse_pair(self):
        alpha = elem_from_point(F2, 1, affine(3, 5)).alpha
        beta = elem_from_point(F2, 1, affine(3, -5)).alpha
        assert beta == -alpha
        assert star(alpha, beta) == F2.one

    def test_tangent_case_against_double(self):
        C = MordellCurve(-2)
        P = C.point(3, 5)
        alpha = elem_from_point(F2, 1, P).alpha
        got = star(alpha, alpha)
        expect = elem_from_point(F2, 1, C.double(P)).alpha
        assert got in (expect, -expect)
        # and the sign convention makes it the quoted double element
        assert got.components() == (
            Fraction(-16641, 7660),
            Fraction(1290, 383),
            Fraction(1000, 383),
        )

    def test_closed_formulas_equal_point_route(self):
        C = MordellCurve(-47)
        points = C.search(3, 40)
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            P, Q = rng.choice(points), rng.choice(points)
            if P.x == Q.x:
                continue
            a1 = elem_from_point(F47, 1, P).alpha
            a2 = elem_from_point(F47, 1, Q).alpha
            parts = star_parts(a1, a2)
            closed = F47.element(parts.r, parts.s, parts.t)
            route = elem_from_point(F47, 1, -(C.add(P, Q))).alpha
            assert closed == route
            assert star(a1, a2) == closed
            checked += 1

    def test_homomorphism_up_to_sign(self):
        C = MordellCurve(-26)
        points = C.search(1, 40)
        for P in points:
            for Q in points:
                total = C.add(P, Q)
                a1 = elem_from_point(F26, 1, P).alpha
                a2 = elem_from_point(F26, 1, Q).alpha
                got = star(a1, a2)
                if total.is_infinity:
                    assert got == F26.one
                else:
                    expect = elem_from_point(F26, 1, total).alpha
                    assert got in (expect, -expect)

    def test_nontrivial_twist_scale(self):
        C = MordellCurve.twist(20, -7)
        P = C.point(14, 98)
        P2 = C.point(-19, 1)
        a1 = elem_from_point(F20, -7, P).alpha
        a2 = elem_from_point(F20, -7, P2).alpha
        got = star(a1, a2)
        expect = elem_from_point(F20, -7, -(C.add(P, P2))).alpha
        assert got == expect
        sq = got * got
        assert sq.t == 0  # still a binomial square over the same twist

    def test_mismatched_twists_rejected(self):
        a1 = elem_from_point(F20, -7, affine(14, 98)).alpha
        C2 = MordellCurve.twist(20, 1)
        pts = C2.search(1, 10)
        assert pts
        a2 = elem_from_point(F20, 1, pts[0]).alpha
        with pytest.raises(NotBinomial):
            star(a1, a2)

    def test_not_binomial_rejected(self):
        with pytest.raises(NotBinomial):
            star(F2.element(1, 1, 1), F2.one)

    def test_operands_of_different_fields_rejected(self):
        a1 = elem_from_point(F2, 1, affine(3, 5)).alpha
        a2 = elem_from_point(F26, 1, affine(3, 1)).alpha
        with pytest.raises(FieldMismatch):
            star(a1, a2)

    def test_star_parts_refuses_one_x(self):
        alpha = elem_from_point(F2, 1, affine(3, 5)).alpha
        for other in (alpha, -alpha):
            with pytest.raises(InvalidPoint, match="^chord formulas need distinct x-coordinates$"):
                star_parts(alpha, other)
        assert issubclass(InvalidPoint, DomainError)

    def test_star_parts_refuses_one_x_under_optimisation(self):
        # -O strips assert statements; the check must survive it
        code = (
            "from purecubic import CubicField, CurvePoint\n"
            "from purecubic.binsq import elem_from_point, star_parts\n"
            "from purecubic.errors import InvalidPoint\n"
            "alpha = elem_from_point(CubicField(2), 1, CurvePoint(3, 5)).alpha\n"
            "for other in (alpha, -alpha):\n"
            "    try:\n"
            "        star_parts(alpha, other)\n"
            "    except InvalidPoint as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "chord formulas need distinct x-coordinates\n" * 2


# y^2 = x^3 - m*b^3 with a point of infinite order: the Bachet point, and (58/9, 440/27) for b = 2/3
HEIGHT_CURVES = ((2, Fraction(1), (3, 5)), (7, Fraction(2, 3), (Fraction(58, 9), Fraction(440, 27))))


class TestStarAtHeight:
    """star against the group law at heights the searched properties do not reach: nP has about
    n^2 digits, so 40P * 45P runs the chord on coordinates of about 1,400 digits."""

    @pytest.mark.parametrize("m, b, xy", HEIGHT_CURVES, ids=["b=1", "b=2/3"])
    @pytest.mark.parametrize("n1, n2", [(10, 11), (20, 23), (40, 45), (40, 40)])
    def test_star_is_the_element_of_minus_the_sum(self, m, b, xy, n1, n2):
        K, C = CubicField(m), MordellCurve.twist(m, b)
        P = C.point(*xy)
        P1, P2 = C.scalar_mul(n1, P), C.scalar_mul(n2, P)
        total = C.add(P1, P2)
        assert total == C.scalar_mul(n1 + n2, P)
        a1, a2 = elem_from_point(K, b, P1).alpha, elem_from_point(K, b, P2).alpha
        assert star(a1, a2) == elem_from_point(K, b, -total).alpha


class TestIsSquareBinomial:
    def test_five_minus_cbrt4(self):
        got = is_square_binomial(F4, 5, 1)
        assert got is not None
        assert got.components() == (-1, 1, Fraction(1, 2))
        assert (got * got).components() == (5, -1, 0)

    def test_nagell_unit(self):
        got = is_square_binomial(F20, -19, -7)
        assert got is not None
        assert got.components() == (1, 1, Fraction(-1, 2))

    def test_35_minus_cbrt26_is_not_square(self):
        # norm 35^3 - 26 = 207^2 is a square, yet halving finds no preimage
        assert Fraction(35) ** 3 - 26 == 207**2
        assert is_square_binomial(F26, 35, 1) is None

    def test_rational_case(self):
        assert is_square_binomial(F2, Fraction(4, 9), 0) == F2.element(Fraction(2, 3))
        assert is_square_binomial(F2, 2, 0) is None

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            is_square_binomial(F2, 0, 0)

    def test_nonsquare_norm_short_circuits(self):
        assert is_square_binomial(F2, 7, 1) is None  # 343 - 2 = 341 not a square

    def test_soundness_on_doubled_points(self):
        # squares built from doubling are always recognized, and the
        # returned root actually squares back
        for m, field in ((2, F2), (26, F26), (47, F47)):
            C = MordellCurve(-m)
            for P in C.search(1, 40):
                D = C.double(P)
                a = D.x
                got = is_square_binomial(field, a, 1)
                assert got is not None
                assert (got * got).components() == (a, -1, 0)
                assert got.sign_of_embedding() > 0


class TestNonsquareCertificate:
    """x(P) - w is a square exactly when P is divisible by 2; a None proves it is not."""

    def test_bachet_point_is_certified(self):
        # (3, 5) on y^2 = x^3 - 2 is not divisible by 2
        assert is_square_binomial(F2, 3, 1) is None

    def test_doubled_point_is_not(self):
        # (5, 11) = 2*(2, -2) on y^2 = x^3 - 4
        root = is_square_binomial(F4, 5, 1)
        assert root is not None and root * root == F4.element(5, -1)

    def test_constructed_double(self):
        C = MordellCurve(-2)
        D = C.double(C.point(3, 5))
        root = is_square_binomial(F2, D.x, 1)
        assert root is not None and root * root == F2.element(D.x, -1)


def test_each_square_decision_takes_one_root_attempt(monkeypatch):
    counts = {"_sqrt_attempt": 0, "halve": 0, "rational_roots": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(binsq, "_sqrt_attempt", counting("_sqrt_attempt", binsq._sqrt_attempt))
    monkeypatch.setattr(MordellCurve, "halve", counting("halve", MordellCurve.halve))
    monkeypatch.setattr(mordell, "rational_roots", counting("rational_roots", mordell.rational_roots))
    # the norm 3^3 - 2 = 25 is a square, yet 3 - w is not: (3, +-5) is not divisible by 2
    assert is_square_binomial(F2, 3, 1) is None
    assert counts == {"_sqrt_attempt": 1, "halve": 0, "rational_roots": 0}


class TestOneRootAttempt:
    """Below sqrt_in_field's cut a square decision is one root attempt, whose None is a proof."""

    # m0 in {2, 26}, c^3*m0 for c in {2, 3, 5} and two more fields; coordinates p/q with |p| <= 1000 and
    # q <= 100, a range where halving (x, y) raises EffortExceeded for about a quarter of these squares
    fields = st.sampled_from([2, 26, -7, 113, 16, 54, 250, 208, 702, 3250])
    coords = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 100))

    def test_planted_root_in_q_cbrt_250(self):
        # the halving quartic of this decision has a constant coefficient rho cannot split
        K = CubicField(250)
        root = is_square_binomial(K, Fraction(359462014691, 364953600), Fraction(-3453075793, 4181760))
        assert root == K.element(Fraction(-1859, 5760), Fraction(13, 12), Fraction(20, 11))

    @pytest.mark.parametrize("n, square", [(9, False), (10, True), (21, False)])
    def test_multiples_of_the_bachet_point(self, n, square):
        # x(nP) - w for P = (3, 5) on y^2 = x^3 - 2 is a square exactly when n is even
        C = MordellCurve(-2)
        P = C.point(3, 5)
        root = is_square_binomial(F2, C.scalar_mul(n, P).x, 1)
        want = elem_from_point(F2, 1, C.scalar_mul(n // 2, P)).alpha.positive_embedding() if square else None
        assert root == want

    @given(fields, coords, coords.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_planted_binomial_squares(self, m, s, t):
        # gamma = (-s^2/(2t), s, t) squares to a binomial a - b*w
        K = CubicField(m)
        gamma = K.element(-s * s / (2 * t), s, t)
        square = gamma * gamma
        assert square.t == 0
        assert is_square_binomial(K, square.r, -square.s) == gamma.positive_embedding()

    def test_a_root_above_the_cut_is_still_decided(self):
        # w = (w^2/p)^2 in Q(cbrt(p^2)): sqrt_in_field's cut answers None, the halving route the root
        p = 33554467
        K = CubicField(p * p)
        assert sqrt_in_field(K.omega) is None
        assert is_square_binomial(K, 0, -1) == K.element(0, 0, Fraction(1, p))


class TestWeilMapProperty:
    def test_collinear_products_are_squares(self):
        # for collinear P, Q, R the product (x_P - w)(x_Q - w)(x_R - w)
        # must be a square in the field
        C = MordellCurve(-47)
        points = C.search(3, 40)
        rng = random.Random(9)
        done = 0
        while done < 6:
            P, Q = rng.choice(points), rng.choice(points)
            S = C.add(P, Q)
            if S.is_infinity:
                continue
            R = -S
            prod = F47.one
            for T in (P, Q, R):
                prod = prod * F47.element(T.x, -1, 0)
            root = sqrt_in_field(prod, digits=400)
            assert root is not None
            assert root * root == prod
            done += 1


class TestTorsionRemark:
    def test_order_three_torsion_gives_trivial_form(self):
        # (0, +-c) on y^2 = x^3 + c^2 carries the degenerate solution
        # with zero rational part: alpha = w^2/c ... alpha^2 = 0 - (-1)*w
        field = CubicField(-4)  # c = 2, curve y^2 = x^3 + 4
        C = MordellCurve.twist(-4, 1)
        assert C.k == 4
        for y in (2, -2):
            w = elem_from_point(field, 1, C.point(0, y))
            assert w.alpha.r == 0
            assert w.a == 0
            assert (w.alpha * w.alpha).components() == (0, -1, 0)


# fields and twist scales of the star and sign-rule properties; every scale has points in some field
PROPERTY_FIELDS = (2, 3, 7, 26, 113, -2, -7)
# (2/3 and -5/4 put numerator and denominator above 1 into the integer maps of binsq)
PROPERTY_TWISTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3), Fraction(2, 3),
                   Fraction(-5, 4))


@cache
def twist_points(m, b):
    """Searched points of y^2 = x^3 - m*b^3, both signs of y."""
    return tuple(MordellCurve.twist(m, b).search(9, 300))


@cache
def twist_elements(m, b):
    """The elements of the searched points and of their doubles."""
    C = MordellCurve.twist(m, b)
    points = twist_points(m, b) + tuple(C.double(P) for P in twist_points(m, b))
    return tuple(elem_from_point(CubicField(m), b, P).alpha for P in points)


def outcome(f, a1, a2):
    try:
        return f(a1, a2)
    except Exception as exc:  # the exception class is part of what must agree
        return type(exc)


def generic_b1(a1, a2) -> bool:
    """Whether star_parts applies: binomial squares a - w of one field, with distinct x."""
    return (
        a1.field == a2.field and a1.t != 0 and a2.t != 0
        and (a1 * a1).t == (a2 * a2).t == 0
        and (a1 * a1).s == (a2 * a2).s == -1 and a1.s * a2.t != a2.s * a1.t
    )


def odd_operands(m):
    """Operands beside a same-twist element: another twist, rational, zero, non-binomial, another field."""
    K = CubicField(m)
    others = [a for b in PROPERTY_TWISTS for a in twist_elements(m, b)]
    rats = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    not_binomial = st.tuples(rats, rats, rats).filter(lambda c: 2 * c[0] * c[2] + c[1] ** 2 != 0)
    foreign = twist_elements(26 if m != 26 else 2, Fraction(1))
    return st.one_of(
        st.sampled_from(others),
        rats.filter(bool).map(K.element),
        st.just(K.element(0)),
        not_binomial.map(lambda c: K.element(*c)),
        st.sampled_from(foreign),
    )


class TestStarAgainstTheWitnessRoute:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_star_matches_reference_star(self, data):
        m = data.draw(st.sampled_from(PROPERTY_FIELDS))
        pool = data.draw(st.sampled_from([p for p in (twist_elements(m, b) for b in PROPERTY_TWISTS) if p]))
        a1 = data.draw(st.sampled_from(pool))
        odd = odd_operands(m)
        second = {"same twist": st.sampled_from(pool), "tangent": st.just(a1), "inverse": st.just(-a1),
                  "odd": odd, "both odd": odd}
        kind = data.draw(st.sampled_from(("same twist",) * 4 + ("tangent", "inverse", "odd", "odd", "both odd")))
        a2 = data.draw(second[kind])
        if kind == "both odd":
            a1 = data.draw(odd)
        if data.draw(st.booleans()):
            a1, a2 = a2, a1
        got = outcome(star, a1, a2)
        assert got == outcome(reference_star, a1, a2)
        if isinstance(got, type):
            event(f"raises {got.__name__}")
        else:
            event("identity" if a1.t == 0 or a2.t == 0 else "inverse" if a1 == -a2
                  else "tangent" if a1 == a2 else "chord")
        if generic_b1(a1, a2):
            parts = star_parts(a1, a2)
            assert got == a1.field.element(parts.r, parts.s, parts.t)

    def test_every_twist_scale_has_points(self):
        for b in PROPERTY_TWISTS:
            assert any(twist_points(m, b) for m in PROPERTY_FIELDS), b

    def test_non_binomial_operand_rejected_where_star_parts_is_not(self):
        # a2^2 has w-coordinate -1, as for b = 1, but its w^2-coordinate 2rt + s^2 is 145/4: star
        # rejects the pair, while star_parts, which assumes binomial operands, returns an element
        a1 = F2.element(Fraction(9, 10), Fraction(-3, 5), Fraction(-1, 5))
        a2 = F2.element(-9, Fraction(1, 2), -2)
        assert (a2 * a2).s == -1 and (a2 * a2).t == Fraction(145, 4)
        for pair in ((a1, a2), (a2, a1)):
            with pytest.raises(NotBinomial, match=r"^2rt \+ s\^2 = 145/4 != 0$"):
                star(*pair)
            assert outcome(reference_star, *pair) is NotBinomial
        assert isinstance(star_parts(a1, a2), binsq.StarParts)
        assert not generic_b1(a1, a2) and not generic_b1(a2, a1)

    def test_maps_match_the_formulas(self):
        # every searched point of every field and twist scale, and its double
        for m in PROPERTY_FIELDS:
            K = CubicField(m)
            for b in PROPERTY_TWISTS:
                C = MordellCurve.twist(m, b)
                assert C.k == -m * b**3
                for P in twist_points(m, b) + tuple(C.double(P) for P in twist_points(m, b)):
                    w = elem_from_point(K, b, P)
                    assert w.alpha.components() == reference_alpha(b, P.x, P.y)
                    assert reference_point(m, w.alpha.components()) == (b, P.x, P.y)
                    assert point_from_elem(K, w.alpha) == w
                    # the public constructor takes alpha alone and reads b, the point and the twist from it
                    assert binsq.BinomialSquareWitness(K, w.alpha) == w and (w.b, w.point, w.curve) == (b, P, C)


def test_the_witness_is_its_element():
    """The constructor and both maps give one witness, equal and hashed alike through pickle and
    copy, whose b, a, point and twist are read from alpha alone; errors come from alpha's one check."""
    cases = [(m, b, P) for m in PROPERTY_FIELDS for b in PROPERTY_TWISTS for P in twist_points(m, b)[:4]]
    assert {b for _, b, _ in cases} == set(PROPERTY_TWISTS)  # b = p/q of either sign
    for m, b, P in cases:
        K = CubicField(m)
        w = elem_from_point(K, b, P)
        assert w.alpha * w.alpha == K.element(w.a, -w.b) and w.curve.contains(w.point)
        for v in (point_from_elem(K, w.alpha), binsq.BinomialSquareWitness(K, w.alpha),
                  pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert v == w and hash(v) == hash(w)
    for r in (1, -3, Fraction(2, 7), Fraction(-5, 9)):
        w = point_from_elem(F2, F2.element(r))
        assert (w.b, w.a, w.point, w.curve) == (0, Fraction(r) ** 2, INFINITY, None)
        assert pickle.loads(pickle.dumps(w)) == copy.copy(w) == binsq.BinomialSquareWitness(F2, F2.element(r)) == w
    for alpha, error in ((F2.element(0), ZeroElement), (F2.element(1, 1, 1), NotBinomial),
                         (F20.element(1, 1, Fraction(-1, 2)), FieldMismatch)):
        for make in (point_from_elem, binsq.BinomialSquareWitness):
            with pytest.raises(error):
                make(F2, alpha)


# c for the curves y^2 = x^3 + c^3, each with the point (-c, 0) of order 2
TORSION_CS = (Fraction(1), Fraction(-2), Fraction(2, 3), Fraction(-1, 2), Fraction(-7, 4), Fraction(3, 2))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_group_law_and_star_match_the_fraction_chord(data):
    """add, double and scalar_mul against helpers.reference_add on the twists y^2 = x^3 - m*b^3
    and on curves with a point of order 2, and star against the element of -(P + Q), for Q
    another point, P itself, -P or infinity: the chord, the tangent and the vertical line."""
    if data.draw(st.booleans()):
        m = data.draw(st.sampled_from(PROPERTY_FIELDS))
        b = data.draw(st.sampled_from([b for b in PROPERTY_TWISTS if twist_points(m, b)]))
        C, points = MordellCurve.twist(m, b), twist_points(m, b)
    else:
        m, c = None, data.draw(st.sampled_from(TORSION_CS))
        C = MordellCurve(c**3)
        points = (CurvePoint(-c, 0), *C.search(3, 40))
    P = data.draw(st.sampled_from(points))
    kind = data.draw(st.sampled_from(("other",) * 3 + ("P", "-P", "infinity")))
    Q = {"other": data.draw(st.sampled_from(points)), "P": P, "-P": -P, "infinity": INFINITY}[kind]
    total = reference_add(C.k, P, Q)
    assert C.add(P, Q) == total and C.add(Q, P) == total
    assert C.double(P) == reference_add(C.k, P, P)
    n = data.draw(st.integers(-7, 7))
    multiple = INFINITY
    for _ in range(abs(n)):
        multiple = reference_add(C.k, multiple, P if n > 0 else -P)
    assert C.scalar_mul(n, P) == multiple
    event(f"Q = {kind}" + (", P of order 2" if not P.y else ""))
    if m is not None and not Q.is_infinity:
        K = CubicField(m)
        a1, a2 = (K.element(*reference_alpha(b, R.x, R.y)) for R in (P, Q))
        want = K.one if total.is_infinity else K.element(*reference_alpha(b, total.x, -total.y))
        assert star(a1, a2) == want


class TestSignRule:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_norm_is_minus_y_of_the_double(self, data):
        m = data.draw(st.sampled_from(PROPERTY_FIELDS))
        b = data.draw(st.sampled_from([b for b in PROPERTY_TWISTS if twist_points(m, b)]))
        Q = data.draw(st.sampled_from(twist_points(m, b)))
        K = CubicField(m)
        twoQ = MordellCurve.twist(m, b).double(Q)
        alpha = elem_from_point(K, b, Q).alpha
        assert alpha.norm() == -twoQ.y
        assert is_square_binomial(K, twoQ.x, b) == alpha.positive_embedding()


def test_star_and_square_decision_check_once(monkeypatch):
    chord = (
        F2.element(Fraction(9, 10), Fraction(-3, 5), Fraction(-1, 5)),
        F2.element(Fraction(-16641, 7660), Fraction(1290, 383), Fraction(1000, 383)),
    )
    tangent = (chord[0], chord[0])
    pool = twist_elements(7, Fraction(2))
    twist2 = (pool[0], pool[2])  # -P and -2P, P = (18, 76) on y^2 = x^3 - 56
    assert twist2[0] != -twist2[1] and twist2[0] != twist2[1]
    expected = [reference_star(*pair) for pair in (chord, tangent, twist2)]
    root = F4.element(-1, 1, Fraction(1, 2))

    counts = {"witness": 0, "contains": 0, "norm": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(binsq.BinomialSquareWitness, "__init__",
                        counting("witness", binsq.BinomialSquareWitness.__init__))
    monkeypatch.setattr(MordellCurve, "contains", counting("contains", MordellCurve.contains))
    monkeypatch.setattr(CubicElement, "norm", counting("norm", CubicElement.norm))

    for pair, want in zip((chord, tangent, twist2), expected):
        assert star(*pair) == want
    assert counts["witness"] == counts["contains"] == 0

    assert is_square_binomial(F4, 5, 1) == root
    assert counts["witness"] == counts["norm"] == counts["contains"] == 0  # one root attempt, no halving


def test_star_builds_no_curve_objects(monkeypatch):
    chord = (
        F2.element(Fraction(9, 10), Fraction(-3, 5), Fraction(-1, 5)),
        F2.element(Fraction(-16641, 7660), Fraction(1290, 383), Fraction(1000, 383)),
    )
    tangent = (chord[0], chord[0])
    pool = twist_elements(7, Fraction(2, 3))
    twist = (pool[0], pool[2])  # -P and -2P, P = (58/9, 440/27) on y^2 = x^3 - 56/27
    assert twist[0] not in (twist[1], -twist[1])
    inverse = (chord[1], -chord[1])
    pairs = (chord, tangent, twist, inverse)
    expected = [reference_star(*pair) for pair in pairs]
    assert expected[3] == F2.one

    counts = {"MordellCurve": 0, "CurvePoint": 0, "_chord": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(MordellCurve, "__init__", counting("MordellCurve", MordellCurve.__init__))
    monkeypatch.setattr(CurvePoint, "__init__", counting("CurvePoint", CurvePoint.__init__))
    monkeypatch.setattr(MordellCurve, "_chord", counting("_chord", MordellCurve._chord))
    for pair, want in zip(pairs, expected):
        assert star(*pair) == want
    assert counts == {"MordellCurve": 0, "CurvePoint": 0, "_chord": 0}


@pytest.mark.parametrize("call", [
    lambda: kappa_element(113, 3, affine(Fraction(97, 4), Fraction(847, 8))),
    lambda: elem_from_point(F2, 1, affine(3, 5)),
], ids=["kappa_element", "elem_from_point"])
def test_each_point_checked_on_its_curve_once(monkeypatch, call):
    calls = []
    contains = MordellCurve.contains

    def counted(curve, P):
        calls.append(P)
        return contains(curve, P)

    monkeypatch.setattr(MordellCurve, "contains", counted)
    call()
    assert len(calls) == 1
