from fractions import Fraction

import pytest

from purecubic import arith, classfield
from purecubic.arith import IntPoly
from purecubic.classfield import (
    kappa_element,
    load_table1,
    sqrt_ext_minpoly,
    table1_verify,
    unramified_conditions,
)
from purecubic.errors import AlphaIsSquare, EffortExceeded, InvalidPoint, ZeroElement
from purecubic.field import CubicField
from purecubic.mordell import MordellCurve, affine


def kappa(m, b, x, y):
    return kappa_element(m, b, affine(x, y))


class TestKappaElement:
    def test_generator_of_q_cbrt_47(self):
        r = kappa(47, 1, 6, 13)
        assert (r.a, r.e) == (6, 1)
        assert r.alpha.components() == (6, -1, 0)
        assert r.norm == 169 and r.norm_sqrt == 13

    def test_generator_of_q_cbrt_57(self):
        r = kappa(57, 1, Fraction(4873, 36), Fraction(-340165, 216))
        assert (r.a, r.e) == (4873, 6)
        assert r.alpha.components() == (4873, -36, 0)
        assert r.norm_sqrt is not None

    def test_gcd_condition_fails_for_shared_factor(self):
        r = kappa(101, 2, 14, 44)
        assert r.gcd_ab_ok is False
        assert r.claims_unramified is False
        assert r.norm_sqrt is not None  # the norm is still a square

    def test_norm_is_y_e_cubed_squared(self):
        r = kappa(57, 1, Fraction(4873, 36), Fraction(-340165, 216))
        assert r.norm == (Fraction(-340165, 216) * 6**3) ** 2

    def test_off_curve_rejected(self):
        with pytest.raises(InvalidPoint):
            kappa_element(47, 1, affine(6, 14))

    def test_b_zero_rejected(self):
        with pytest.raises(ZeroElement, match="^twist scale b must be nonzero$"):
            kappa_element(47, 0, affine(6, 13))

    def test_exceeded_budget_raises(self):
        # 10P = 2*(5P) makes alpha a square, but the halving cannot finish
        # factoring, so the report refuses to leave already_square open
        C = MordellCurve(-2)
        P = C.scalar_mul(10, C.point(3, 5))
        with pytest.raises(EffortExceeded, match="of 500000 iterations"):
            kappa_element(2, 1, P)

    def test_m_is_factored_once(self, monkeypatch):
        # CubicField never factors m; the cubefree check is one factorization per report
        calls = []
        real = arith.cubefree_and_noncube
        monkeypatch.setattr(classfield, "cubefree_and_noncube", lambda m: calls.append(m) or real(m))
        kappa(47, 1, 6, 13)
        kappa(57, 1, Fraction(4873, 36), Fraction(-340165, 216))
        assert calls == [47, 57]

    @pytest.mark.parametrize("b", [-1.0, Fraction(-1)])
    def test_non_integer_b_refused_before_any_work(self, monkeypatch, b):
        # at b = -1 the point (-1, 1) lies on y^2 = x^3 + 2, so only b's type can stop it
        calls = []
        for owner, name in ((arith, "factorize"), (MordellCurve, "halve")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k))
        with pytest.raises(TypeError):
            kappa_element(2, b, affine(-1, 1))
        assert calls == []


class TestUnramifiedConditions:
    def test_m11_row(self):
        r = kappa(11, 1, Fraction(9, 4), Fraction(5, 8))
        assert r.e == 2 and r.a == 9
        assert r.two_divides_e and r.a_pos_1mod4 and r.eligible_mod9 and r.gcd_ab_ok
        assert r.claims_unramified is True

    def test_m58_row(self):
        x = Fraction(5393, 484)
        y2 = x**3 - 58
        from purecubic.arith import perfect_square_root

        y = perfect_square_root(y2)
        assert y is not None
        r = kappa(58, 1, x, y)
        assert r.e == 22 and r.a == 5393
        assert r.claims_unramified is True

    def test_m26_not_eligible(self):
        r = kappa(26, 1, 3, 1)
        assert r.eligible_mod9 is False
        assert r.claims_unramified is False

    def test_negative_a_blocks_the_claim(self):
        r = kappa(2351, -3, Fraction(-551, 16), Fraction(9629, 64))
        assert r.a == -551 and r.e == 4
        assert r.a_pos_1mod4 is False
        assert r.claims_unramified is False


def test_report_arrives_complete():
    # every Table 1 row, and the small points of twelve twists
    inputs = [(row.field_m, row.b, row.report.point) for row in table1_verify().rows]
    for m in (2, 26, 47, 113):
        for b in (1, -1, 3):
            inputs += [(m, b, P) for P in MordellCurve.twist(m, b).search(3, 300)]
    checked = 0
    for m, b, P in inputs:
        try:
            r = kappa_element(m, b, P)
        except EffortExceeded:
            continue
        assert type(r.claims_unramified) is bool
        assert r.claims_unramified == all(
            (r.eligible_mod9, r.gcd_ab_ok, r.two_divides_e, r.a_pos_1mod4))
        assert unramified_conditions(r) == r
        checked += 1
    assert checked == 25 + 60  # no halving here needs more than the budget


class TestSqrtExtMinpoly:
    def test_m113_first_row(self):
        r = kappa(113, 3, Fraction(97, 4), Fraction(847, 8))
        assert sqrt_ext_minpoly(r) == IntPoly((-717409, 0, 28227, 0, -291, 0, 1))

    def test_m113_third_row(self):
        r = kappa(113, 3, Fraction(1257, 64), Fraction(34443, 512))
        assert sqrt_ext_minpoly(r) == IntPoly((-1186320249, 0, 4740147, 0, -3771, 0, 1))

    def test_m2351_negative_row(self):
        r = kappa(2351, -3, Fraction(-551, 16), Fraction(9629, 64))
        assert sqrt_ext_minpoly(r) == IntPoly((-92717641, 0, 910803, 0, 1653, 0, 1))

    def test_square_alpha_refused(self):
        r = kappa(4, 1, 5, 11)  # (5, 11) = 2*(2, -2)
        assert r.already_square is True
        with pytest.raises(AlphaIsSquare):
            sqrt_ext_minpoly(r)

    def test_numeric_root_vanishes(self):
        # exactly: alpha = a - b*e^2*w is a root of its cubic in K, and the sextic is that
        # cubic at x^2, so the sextic vanishes at sqrt(alpha)
        r = kappa(113, 3, Fraction(97, 4), Fraction(847, 8))
        K = CubicField(113)
        cubic = IntPoly(r.sextic.coeffs[0::2])
        assert r.alpha == K.element(r.a, -r.b * r.e**2) and cubic(r.alpha) == K.element(0)
        assert cubic.degree == 3 and not any(r.sextic.coeffs[1::2])


class TestKappaPairwiseDistinct:
    """Each report decides whether its own alpha is a square; that says nothing about products."""

    M113 = ((Fraction(97, 4), Fraction(847, 8)),
            (Fraction(43449, 2500), Fraction(5861043, 125000)),
            (Fraction(1257, 64), Fraction(34443, 512)))

    def test_m113_rows(self):
        for x, y in self.M113:
            assert kappa(113, 3, x, y).already_square is False

    def test_m113_alphas_multiply_to_a_square(self):
        # no alpha is a square, yet the three are dependent in K^x/K^x2
        a1, a2, a3 = (kappa(113, 3, x, y).alpha for x, y in self.M113)
        root = a1.field.element(74355, -16266, 594)
        assert a1 * a2 * a3 == root * root

    def test_m2351_rows(self):
        rows = [
            kappa(2351, -3, Fraction(57, 4), Fraction(2061, 8)),
            kappa(2351, -3, Fraction(-551, 16), Fraction(9629, 64)),
            kappa(2351, -3, Fraction(-87, 4), Fraction(1845, 8)),
        ]
        for r in rows:
            assert r.already_square is False

    def test_doubled_point_fails(self):
        C = MordellCurve(-47)
        D = C.double(C.point(6, 13))
        r = kappa(47, 1, D.x, D.y)
        assert r.already_square is True

    def test_single_nondouble_report(self):
        assert kappa(47, 1, 6, 13).already_square is False


class TestTable1:
    def test_all_rows_pass(self):
        result = table1_verify()
        assert len(result.rows) == 25
        assert result.all_passed

    def test_row_m43(self):
        result = table1_verify()
        row = next(r for r in result.rows if r.m == 43)
        assert row.x == Fraction(1177, 36)
        assert row.report.alpha.components() == (1177, -36, 0)
        assert row.passed

    def test_row_m105_uses_square_field(self):
        result = table1_verify()
        row = next(r for r in result.rows if r.m == 105)
        assert row.field_m == 11025
        assert row.report.alpha.components() == (16465, -196, 0)
        assert row.report.eligible_mod9 is False  # 11025 = 0 mod 9
        assert row.passed

    def test_row_m66_negative_b(self):
        result = table1_verify()
        row = next(r for r in result.rows if r.m == 66)
        assert row.b == -1
        assert row.x == Fraction(1, 4)
        assert row.report.alpha.components() == (1, 4, 0)
        assert row.passed

    def test_m47_printed_value_corrected(self):
        result = table1_verify()
        row = next(r for r in result.rows if r.m == 47)
        assert row.passed
        assert row.printed_alpha_match is False
        assert row.note is not None
        # the printed coefficient cannot be right: its norm is not a square
        data = load_table1()
        raw = next(r for r in data["rows"] if r["m"] == "47")
        printed = int(raw["alpha_b_coeff_printed"])
        a = int(raw["alpha_a"])
        from purecubic.arith import perfect_square_root

        assert perfect_square_root(a**3 + 47 * printed**3) is None

    def test_sextic_rows_all_match(self):
        result = table1_verify()
        with_sextics = [r for r in result.rows if r.sextic_match is not None]
        assert len(with_sextics) == 6
        assert all(r.sextic_match for r in with_sextics)

    def test_claims_summary(self):
        # rows failing some sufficient condition, by m and x numerator
        result = table1_verify()
        failing = {(r.m, r.report.a) for r in result.rows if not r.report.claims_unramified}
        assert failing == {
            (63, 9),
            (65, 129),
            (89, 153),
            (105, 16465),
            (113, 43449),
            (113, 1257),
            (2351, 57),
            (2351, -551),
            (2351, -87),
        }

    def test_external_dataset_path(self, tmp_path):
        import json

        data = load_table1()
        data["rows"] = data["rows"][:3]
        p = tmp_path / "small.json"
        p.write_text(json.dumps(data))
        result = table1_verify(str(p))
        assert len(result.rows) == 3 and result.all_passed

    @pytest.mark.parametrize("key, value", [("x_num", 9.9), ("m", 11.5), ("x_num", True),
                                            ("k", -11.0), ("alpha_a", "9.0"), ("x_den", " 4")])
    def test_a_non_integer_entry_names_its_row(self, tmp_path, key, value):
        # the first row is m = 11, x = 9/4 on y^2 = x^3 - 11; int() would read each value above
        import json

        data = load_table1()
        data["rows"] = [{**data["rows"][0], key: value}]
        p = tmp_path / "one.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^row 0 .*: {key} = .* is not an integer$"):
            table1_verify(str(p))

    @pytest.mark.parametrize("value", ["9", 9, "+9"])
    def test_an_integer_entry_as_int_or_digits(self, tmp_path, value):
        import json

        data = load_table1()
        data["rows"] = [{**data["rows"][0], "x_num": value}]
        p = tmp_path / "one.json"
        p.write_text(json.dumps(data))
        (row,) = table1_verify(str(p)).rows
        assert row.x == Fraction(9, 4) and row.passed

    @pytest.mark.parametrize("value", [1.0, 1, "true"])
    def test_a_flag_that_is_not_a_boolean_names_its_row(self, tmp_path, value):
        # the first row's flags are all true, so == alone would let 1.0 and 1 through
        import json

        data = load_table1()
        raw = data["rows"][0]
        data["rows"] = [{**raw, "expected_flags": {key: value for key in raw["expected_flags"]}}]
        p = tmp_path / "one.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=r"^row 0 \(m='11'\): expected_flags eligible_mod9 = .* is not a boolean$"):
            table1_verify(str(p))

    @pytest.mark.parametrize("flip", [None, "gcd_ab_ok"])
    def test_boolean_flags_are_compared(self, tmp_path, flip):
        import json

        data = load_table1()
        raw = data["rows"][0]
        flags = dict(raw["expected_flags"])
        if flip:
            flags[flip] = not flags[flip]
        data["rows"] = [{**raw, "expected_flags": flags}]
        p = tmp_path / "one.json"
        p.write_text(json.dumps(data))
        (row,) = table1_verify(str(p)).rows
        assert row.flags_match is row.passed is (flip is None)

    def test_a_non_integer_sextic_coefficient_is_refused(self, tmp_path):
        import json

        data = load_table1()
        raw = next(raw for raw in data["rows"] if raw["expected_sextics"])
        sextic = [float(c) + 0.5 if i == 0 else c for i, c in enumerate(raw["expected_sextics"][0])]
        data["rows"] = [{**raw, "expected_sextics": [sextic]}]
        p = tmp_path / "one.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="expected_sextics must be lists of integers"):
            table1_verify(str(p))
