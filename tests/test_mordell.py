import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from purecubic import arith, mordell
from purecubic.arith import IntPoly
from purecubic.errors import InvalidPoint
from purecubic.mordell import INFINITY, CurvePoint, MordellCurve, affine, x_as_a_over_e2

from helpers import brute_rational_roots, reference_halve
from helpers import brute_search


def pts(curve, *pairs):
    return [curve.point(x, y) for x, y in pairs]


class TestMembership:
    def test_bachet_fermat_point(self):
        assert MordellCurve.from_m(2).contains(affine(3, 5))

    def test_generator_on_k_minus_26(self):
        assert MordellCurve(-26).contains(affine(3, 1))

    def test_off_curve(self):
        assert not MordellCurve(-2).contains(affine(3, 4))

    def test_point_constructor_validates(self):
        with pytest.raises(InvalidPoint):
            MordellCurve(-2).point(3, 4)

    def test_infinity_always_on(self):
        assert MordellCurve(7).contains(INFINITY)

    def test_one_none_coordinate_rejected(self):
        # a point is affine or infinity: (3, None) would reach contains half built, and
        # (None, 5) would say is_infinity yet differ from INFINITY
        for x, y in ((3, None), (None, 5), (None, 0), (0, None)):
            with pytest.raises(InvalidPoint):
                CurvePoint(x, y)
        assert CurvePoint(None, None) == INFINITY and CurvePoint(3, 5) == affine(3, 5)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            MordellCurve(0)


class TestAdd:
    def test_identity(self):
        C = MordellCurve(-2)
        P = C.point(3, 5)
        assert C.add(P, INFINITY) == P
        assert C.add(INFINITY, P) == P

    def test_inverse(self):
        C = MordellCurve(-2)
        assert C.add(C.point(3, 5), C.point(3, -5)) == INFINITY

    def test_double_of_bachet_point(self):
        C = MordellCurve(-2)
        P = C.point(3, 5)
        assert C.add(P, P) == affine(Fraction(129, 100), Fraction(-383, 1000))

    def test_triple_of_bachet_point(self):
        C = MordellCurve(-2)
        P = C.point(3, 5)
        want = affine(Fraction(164323, 171**2), Fraction(-66234835, 171**3))
        assert C.scalar_mul(3, P) == want

    def test_requires_on_curve(self):
        C = MordellCurve(-2)
        with pytest.raises(InvalidPoint):
            C.add(affine(3, 4), INFINITY)


class TestDouble:
    def test_half_of_5_11(self):
        C = MordellCurve(-4)
        assert C.double(C.point(2, -2)) == affine(5, 11)

    def test_nagell_twist_point(self):
        C = MordellCurve(7**3 * 20)
        assert C.double(C.point(14, 98)) == affine(-19, 1)

    def test_infinity(self):
        assert MordellCurve(-4).double(INFINITY) == INFINITY

    def test_two_torsion_doubles_to_infinity(self):
        C = MordellCurve(1)
        assert C.double(C.point(-1, 0)) == INFINITY

    def test_matches_add_on_samples(self):
        for k in (-2, -26, -47, 1):
            C = MordellCurve(k)
            for P in C.search(3, 60):
                if P.y != 0:
                    assert C.double(P) == C.add(P, P)


class TestScalarMul:
    def test_zero(self):
        C = MordellCurve(-2)
        assert C.scalar_mul(0, C.point(3, 5)) == INFINITY

    def test_two_matches_double(self):
        C = MordellCurve(-2)
        P = C.point(3, 5)
        assert C.scalar_mul(2, P) == C.double(P)

    def test_negative_is_negation(self):
        C = MordellCurve(-2)
        P = C.point(3, 5)
        assert C.scalar_mul(-1, P) == affine(3, -5)
        assert C.scalar_mul(-3, P) == -C.scalar_mul(3, P)


class TestHalve:
    def test_5_11_halves_to_2_minus2(self):
        C = MordellCurve(-4)
        assert C.point(2, -2) in C.halve(C.point(5, 11))

    def test_nagell_halving(self):
        C = MordellCurve(7**3 * 20)
        assert C.point(14, 98) in C.halve(C.point(-19, 1))

    def test_bachet_point_not_halvable(self):
        # oracle: the quartic x^4 - 12x^3 + 16x + 24 has no rational roots
        # (exhaustive height search)
        assert brute_rational_roots((24, 16, 0, -12, 1), 60) == set()
        C = MordellCurve(-2)
        assert C.halve(C.point(3, 5)) == set()

    def test_infinity_yields_two_torsion(self):
        C = MordellCurve(1)
        assert C.halve(INFINITY) == {INFINITY, C.point(-1, 0)}

    def test_two_preimages_with_torsion(self):
        # (0, 1) on y^2 = x^3 + 1 is 2Q for two different Q
        C = MordellCurve(1)
        got = C.halve(C.point(0, 1))
        assert got == {C.point(0, -1), C.point(2, 3)}

    def test_double_of_halve_is_identity(self):
        for k in (-2, -4, -26, -47, 1):
            C = MordellCurve(k)
            for P in C.search(2, 50):
                preimages = C.halve(P)
                assert len(preimages) <= 2
                for Q in preimages:
                    assert C.double(Q) == P


class TestSearch:
    def test_k_minus_26(self):
        C = MordellCurve(-26)
        got = C.search(1, 40)
        assert C.point(3, 1) in got and C.point(3, -1) in got
        assert C.point(35, 207) in got and C.point(35, -207) in got

    def test_k_minus_3_empty(self):
        assert MordellCurve(-3).search(10, 1000) == []

    def test_k_1_classics(self):
        C = MordellCurve(1)
        got = C.search(1, 10)
        for xy in ((0, 1), (0, -1), (2, 3), (2, -3), (-1, 0)):
            assert C.point(*xy) in got

    def test_order_is_deterministic(self):
        C = MordellCurve(1)
        got = C.search(2, 10)
        keys = [(P.x.denominator, P.x.numerator, P.y) for P in got]
        assert keys == sorted(keys)

    def test_all_on_curve(self):
        C = MordellCurve(-47)
        for P in C.search(3, 50):
            assert C.contains(P)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            MordellCurve(1).search(0, 5)


class TestGroupProperties:
    def sample_points(self, C, extra=()):
        base = C.search(3, 40)
        out = list(base)
        for P in base[:3]:
            out.append(C.double(P))
            out.append(C.add(P, base[-1]))
        out.extend(extra)
        return out

    @pytest.mark.parametrize("k", [-2, -26, -47, 1])
    def test_commutative_associative(self, k):
        C = MordellCurve(k)
        rng = random.Random(k)
        points = self.sample_points(C, extra=[INFINITY])
        assert points
        for _ in range(40):
            P, Q, R = (rng.choice(points) for _ in range(3))
            assert C.add(P, Q) == C.add(Q, P)
            assert C.add(C.add(P, Q), R) == C.add(P, C.add(Q, R))
            assert C.contains(C.add(P, Q))

    @pytest.mark.parametrize("k", [-2, -26, -47, 1])
    def test_identity_and_inverse(self, k):
        C = MordellCurve(k)
        for P in self.sample_points(C):
            assert C.add(P, INFINITY) == P
            assert C.add(P, -P) == INFINITY


class TestDuplicationNormIdentity:
    def test_cor2_identity_random_sample(self):
        # ((x^4+8mx)/(4(x^3-m)))^3 - m == (x^6-20mx^3-8m^2)^2 / (64 (x^3-m)^3)
        rng = random.Random(7)
        cubefree = [m for m in range(2, 51) if all(m % (p**3) for p in (2, 3))]
        count = 0
        while count < 100:
            m = rng.choice(cubefree)
            x = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            if x**3 - m == 0 or x == 0:
                continue
            lhs = ((x**4 + 8 * m * x) / (4 * (x**3 - m))) ** 3 - m
            rhs = (x**6 - 20 * m * x**3 - 8 * m * m) ** 2 / (64 * (x**3 - m) ** 3)
            assert lhs == rhs
            count += 1


def test_x_as_a_over_e2():
    assert x_as_a_over_e2(Fraction(4873, 36)) == (4873, 6)
    with pytest.raises(InvalidPoint):
        x_as_a_over_e2(Fraction(1, 2))


# -- the sieved search and the check-once scalar_mul against independent oracles --

_nonzero_k = st.integers(-500, 500).filter(lambda k: k != 0)
_fractional_k = st.builds(Fraction, st.integers(-500, 500).filter(lambda n: n != 0),
                          st.sampled_from([8, 27, 64, 7, 12]))
# k = y^2 - x^3 for a chosen x = a/e^2, y = b/e^3, so the box holds at least one point
_planted_k = st.builds(lambda a, b, e: Fraction(b * b - a**3, e**6), st.integers(-30, 30),
                       st.integers(0, 200), st.integers(1, 3)).filter(lambda k: k != 0)


@given(st.one_of(_nonzero_k, _fractional_k, _planted_k), st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_search_matches_brute_force(k, e_bound, a_bound):
    got = MordellCurve(k).search(e_bound, a_bound)
    assert [(P.x, P.y) for P in got] == brute_search(k, e_bound, a_bound)


@pytest.mark.parametrize("k, e_bound, a_bound", [(-2, 8, 2000), (17, 6, 2000), (-26, 5, 2500)])
def test_search_matches_brute_force_on_wide_boxes(k, e_bound, a_bound):
    got = MordellCurve(k).search(e_bound, a_bound)
    assert got and [(P.x, P.y) for P in got] == brute_search(k, e_bound, a_bound)


_MULTIPLE_CASES = [
    (1, (-1, 0)), (1, (0, 1)), (1, (0, -1)), (1, (2, 3)), (1, (2, -3)),  # torsion of orders 2, 3, 6
    (-2, (3, 5)), (-26, (3, 1)), (17, (-2, 3)), (Fraction(-1, 32), (Fraction(3, 4), Fraction(5, 8))),
]


@given(st.sampled_from(_MULTIPLE_CASES), st.integers(-30, 30))
@settings(max_examples=200, deadline=None)
def test_scalar_mul_matches_repeated_add(case, n):
    k, xy = case
    C = MordellCurve(k)
    P = C.point(*xy)
    step = P if n >= 0 else -P
    R = INFINITY
    for _ in range(abs(n)):
        R = C.add(R, step)
    assert C.scalar_mul(n, P) == R


def test_scalar_mul_checks_the_point_once(monkeypatch):
    calls = []
    contains = MordellCurve.contains

    def counting(self, P):
        calls.append(P)
        return contains(self, P)

    monkeypatch.setattr(MordellCurve, "contains", counting)
    C = MordellCurve(-2)
    P = affine(3, 5)
    assert C.scalar_mul(37, P) == C.scalar_mul(-37, -P)
    assert calls == [P, -P]
    calls.clear()
    with pytest.raises(InvalidPoint):
        C.scalar_mul(37, affine(3, 4))
    assert calls == [affine(3, 4)]


def test_halve_checks_the_point_once(monkeypatch):
    calls = []
    contains = MordellCurve.contains

    def counting(self, P):
        calls.append(P)
        return contains(self, P)

    monkeypatch.setattr(MordellCurve, "contains", counting)
    C = MordellCurve(-2)
    P = affine(Fraction(129, 100), Fraction(-383, 1000))
    assert C.halve(P) == {affine(3, 5)}
    assert calls == [P]


def test_int_coordinates_give_exact_results():
    # the chord and tangent divide; int coordinates must not turn them into float division
    C = MordellCurve(-2)
    P = CurvePoint(3, 5)
    assert type(P.x) is Fraction and type(P.y) is Fraction
    twoP = affine(Fraction(129, 100), Fraction(-383, 1000))
    threeP = C.add(P, twoP)
    for R, want in ((C.double(P), twoP), (C.add(P, P), twoP), (C.scalar_mul(2, P), twoP),
                    (C.add(twoP, CurvePoint(3, 5)), threeP), (C.scalar_mul(3, P), threeP)):
        assert R == want
        assert type(R.x) is Fraction and type(R.y) is Fraction
    assert CurvePoint(None, None) == INFINITY


def test_halve_the_21_digit_rung():
    # x(6P) for P = (3, 5) on y^2 = x^3 - 2 has a 21-digit numerator; its only half is 3P
    C = MordellCurve(-2)
    P3 = C.scalar_mul(3, affine(3, 5))
    assert P3 == affine(Fraction(164323, 29241), Fraction(-66234835, 5000211))
    assert C.halve(C.double(P3)) == {P3}


def test_halve_factors_only_the_constant_coefficient(monkeypatch):
    # x(8P) for P = (4, 5) on y^2 = x^3 - 39: the quartic's 42-digit c_0 is factored, its c_d is not
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n, *rest: calls.append(n) or real(n, *rest))
    C = MordellCurve(-39)
    P4, P8 = C.scalar_mul(4, affine(4, 5)), C.scalar_mul(8, affine(4, 5))
    assert C.halve(P8) == {P4}
    assert calls == [C.halving_quartic(P8.x).coeffs[0]]


def test_halve_the_38_digit_rung():
    # x(8P) has a 38-digit numerator; its only half is 4P
    C = MordellCurve(-2)
    R = C.point(
        Fraction(30037088724630450803382035538503505921, 3010683982898763071786842993779918400),
        Fraction(164455721751979625643914376686667695661898155872010593281,
                 5223934923525719974563641453744978655831227509874752000),
    )
    assert R == C.scalar_mul(8, affine(3, 5))
    assert C.halve(R) == {affine(Fraction(2340922881, 58675600), Fraction(113259286337279, 449455096000))}


# two primes whose 41-digit product Pollard rho cannot split within the default budget
_P20, _Q20 = 10**20 + 39, 10**20 + 129


@pytest.mark.parametrize("k, torsion_x", [(-_P20 * _Q20, None), (-(_P20 * _Q20) ** 3, _P20 * _Q20)],
                         ids=["k=-pq", "k=-(pq)^3"])
def test_two_torsion_needs_no_factoring(k, torsion_x):
    C = MordellCurve(k)
    expected = {INFINITY} if torsion_x is None else {INFINITY, C.point(torsion_x, 0)}
    assert C.halve(INFINITY) == expected


@given(st.builds(Fraction, st.integers(-1000, 1000).filter(lambda n: n != 0), st.integers(1, 1000)))
@example(Fraction(1))
@example(Fraction(-27, 8))
@example(Fraction(2))
@example(Fraction(8, 343))
@settings(max_examples=200, deadline=None)
def test_two_torsion_matches_brute_force(k):
    # x^3 + k = 0 as kd*x^3 + kn; a root has height at most cbrt(1000) = 10
    roots = brute_rational_roots((k.numerator, 0, 0, k.denominator), 10)
    assert MordellCurve(k).two_torsion() == {affine(x, 0) for x in roots}


_HALVING_K = (-2, -4, -26, -47, 1, 17, -432)


@given(st.sampled_from(_HALVING_K), st.integers(0, 10**6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_halving_commutes_with_negation(k, index, n):
    # the fact that lets one halving decide both signs of y in is_square_binomial
    C = MordellCurve(k)
    points = C.search(2, 30)
    P = C.scalar_mul(n, points[index % len(points)])
    assert C.halve(-P) == {-Q for Q in C.halve(P)}


_BIG = st.integers(-(10**40), 10**40).filter(bool)
_BIG_RATIONALS = st.one_of(_BIG, st.builds(Fraction, _BIG, st.integers(1, 10**40)))


@given(_BIG_RATIONALS, st.one_of(st.just(0), _BIG_RATIONALS))
@example(Fraction(-2), Fraction(129, 100))
@example(Fraction(-1, 4), Fraction(1, 2))
@example(Fraction(3, 8), Fraction(-5, 6))
@settings(max_examples=300, deadline=None)
def test_halving_quartic_matches_the_rational_coefficients(k, X):
    # rungs 5-8 of the halving ladder depend on these exact integers: their constant coefficients are factored
    k, X = Fraction(k), Fraction(X)
    expected = IntPoly.from_rationals([-4 * k * X, -8 * k, 0, -4 * X, 1])
    assert MordellCurve(k).halving_quartic(X).coeffs == expected.coeffs


def test_halve_confirms_candidates_without_a_tangent(monkeypatch):
    """Decoy roots are refused by the integer checks alone: P is checked once and
    no Fraction tangent is taken, whether the root has a rational y or not."""
    cases = []
    for k in (-2, -4, -26, 1, 17, -432):
        C = MordellCurve(k)
        points = C.search(2, 40)
        for P in points:
            for R in (P, C.double(P)):
                # other points' x: rational y, but the double is not +-R; and x = 1/2, whose
                # x^3 + k has denominator 8, so no rational y
                decoys = {Q.x for Q in points if C.double(Q) not in (R, -R)} | {Fraction(1, 2)}
                cases.append((C, R, decoys, C.halve(R)))
    assert any(len(decoys) > 1 for *_, decoys, _ in cases)  # decoys with a rational y
    assert any(halves for *_, halves in cases)

    rational_roots, chord, contains = mordell.rational_roots, MordellCurve._chord, MordellCurve.contains
    decoys, calls = set(), {"_chord": 0, "contains": 0}

    def with_decoys(p):
        return rational_roots(p) | decoys

    def counting(name, method):
        def wrapped(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapped

    monkeypatch.setattr(mordell, "rational_roots", with_decoys)
    monkeypatch.setattr(MordellCurve, "_chord", counting("_chord", chord))
    monkeypatch.setattr(MordellCurve, "contains", counting("contains", contains))
    for C, R, decoys_of_R, halves in cases:
        decoys.clear()
        decoys.update(decoys_of_R)
        for target, expected in ((R, halves), (-R, {-Q for Q in halves})):
            calls.update(_chord=0, contains=0)
            assert C.halve(target) == expected
            assert calls == {"_chord": 0, "contains": 1}


def _height(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator)


@given(st.integers(-60, 60).filter(bool), st.sampled_from([1, 4, 8, 9, 27]), st.data())
@settings(max_examples=100, deadline=None)
def test_halve_matches_the_reference(kn, kd, data):
    """halve on Q, 2Q, -2Q and 3Q against the brute-force oracle, searched up to a
    height that covers Q (a preimage of +-2Q) and every preimage halve returns."""
    C = MordellCurve(Fraction(kn, kd))
    points = C.search(2, 40)
    assume(points)
    Q = data.draw(st.sampled_from(points))
    D = C.double(Q)

    def reference(R, height):
        return {CurvePoint(x, y) for x, y in reference_halve(C.k, R.x, R.y, height)}

    for R in (Q, D, -D, C.scalar_mul(3, Q)):
        if R.is_infinity:
            continue
        halves = C.halve(R)
        height = max(_height(S.x) for S in (Q, *halves))
        if height <= 150:  # the oracle's cost grows with the square of the height
            assert halves == reference(R, height)
    # the preimages of 3Q are Q + S with 2S = Q, whatever their height
    below_Q = reference(Q, max(_height(S.x) for S in (Q, *C.halve(Q))))
    assert C.halve(C.scalar_mul(3, Q)) == {C.add(Q, S) for S in below_Q}


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 30))


@given(st.integers(-60, 60).filter(bool), st.sampled_from([1, 4, 8, 9, 27]), st.data())
@settings(max_examples=150, deadline=None)
def test_contains_matches_the_fraction_equation(kn, kd, data):
    """The integer test of contains against y^2 = x^3 + k in Fractions, for fractional
    k: on points of search, on those points moved off the curve, on arbitrary
    rationals and at infinity."""
    C = MordellCurve(Fraction(kn, kd))
    candidates = [INFINITY, CurvePoint(data.draw(rationals), data.draw(rationals))]
    points = C.search(2, 30)
    if points:
        P = data.draw(st.sampled_from(points))
        shift = data.draw(rationals)
        candidates += [P, CurvePoint(P.x + shift, P.y), CurvePoint(P.x, P.y + shift)]
    for P in candidates:
        assert C.contains(P) == (P.is_infinity or P.y**2 == P.x**3 + C.k)
    assert not points or C.contains(points[0])


@pytest.mark.parametrize("e", [Fraction(2, 3), Fraction(-1, 2), Fraction(-7, 4), Fraction(3, 2)])
def test_halve_skips_the_root_with_y0_zero(e, monkeypatch):
    """On y^2 = x^3 - e^3 the point T = (e, 0) has order 2. x0 = e is never a root of a
    halving quartic (its value there is -9ke), so it is planted as a decoy: there
    x0^3 + k = 0, the integer test sees y0^2 = 0, and the root must be skipped."""
    C = MordellCurve(-e**3)
    T = CurvePoint(e, 0)
    assert C.contains(T) and C.two_torsion() == {T}
    targets, low = [INFINITY, T], [INFINITY, T]
    for P in C.search(4, 60):
        if P.y:
            targets += [P, C.double(P), C.scalar_mul(3, P), C.add(P, T)]
            low += [P, C.add(P, T)]
    assert len(targets) > 2
    expected = [C.halve(R) for R in targets]
    assert expected[:2] == [{INFINITY, T}, set()]  # no rational point of order 4 on y^2 = x^3 + k
    assert any(expected[2:])
    # the oracle searches up to the height of the low points and of every preimage found
    for R, halves in zip(targets[2:], expected[2:]):
        height = max(_height(S.x) for S in (*low[2:], *halves))
        assert halves == {CurvePoint(x, y) for x, y in reference_halve(C.k, R.x, R.y, height)}

    rational_roots = mordell.rational_roots
    monkeypatch.setattr(mordell, "rational_roots", lambda p: rational_roots(p) | {e})
    assert [C.halve(R) for R in targets] == expected
