"""Quadratic extensions of pure cubic fields from Mordell-curve points.

A rational point P = (a/e^2, y) on y^2 = x^3 - m*b^3 with gcd(a, e) = 1
yields the element alpha = a - b*e^2*w of Q(w), w^3 = m, whose norm
a^3 - m*b^3*e^6 = (y*e^3)^2 is always a perfect square. When alpha is
not itself a square, K(sqrt(alpha)) is a quadratic extension of the
field, generated over Q by a root of

    x^6 - 3a x^4 + 3a^2 x^2 - N(alpha).

Sufficient conditions for that extension to be unramified everywhere
are tracked as flags: m not congruent to 0 or +-1 mod 9, gcd(a, b) = 1,
e even, and a positive with a = 1 mod 4. The mod-9 flag reads m, so
kappa_element checks m cubefree; a field needs only a non-cube m. The
flags are reported, never enforced, so failing examples stay explorable.

Each report's already_square decides, by one exact halving of the point,
whether alpha is a square, that is, whether K(sqrt(alpha)) is a proper
extension. It says nothing about several alphas together: the three
m = 113 alphas of Table 1 are non-squares whose product is a square, so
the third extension lies in the compositum of the first two.

table1_verify() checks the bundled reference dataset of such rows
(data/table1.json) end to end.
"""

from __future__ import annotations

import json
import operator
import re
from fractions import Fraction
from importlib import resources
from math import gcd
from typing import NamedTuple

from .arith import IntPoly, cubefree_and_noncube, perfect_cube_root, perfect_square_root
from .errors import AlphaIsSquare, InvalidPoint
from .field import CubicElement, CubicField
from .mordell import CurvePoint, MordellCurve, x_as_a_over_e2


# the four sufficient conditions for K(sqrt(alpha))/K to be unramified
_CONDITIONS = ("eligible_mod9", "gcd_ab_ok", "two_divides_e", "a_pos_1mod4")


class KappaReport(NamedTuple):
    """The element a - b*e^2*w of a curve point; kappa_element fills in every check."""

    m: int
    b: int
    point: CurvePoint
    a: int
    e: int
    alpha: CubicElement
    norm: Fraction
    norm_sqrt: Fraction
    eligible_mod9: bool
    gcd_ab_ok: bool
    two_divides_e: bool
    a_pos_1mod4: bool
    sextic: IntPoly
    already_square: bool  # the point is divisible by 2, so alpha is a square
    claims_unramified: bool | None = None


def kappa_element(m: int, b: int, P: CurvePoint) -> KappaReport:
    """Build the report for a point on y^2 = x^3 - m*b^3.

    m must be cubefree (ValueError otherwise, after one factorization of
    m) and b a nonzero integer (TypeError, before any factoring or
    halving, for a non-integer; ZeroElement for 0).
    The norm is asserted to be the square of norm_sqrt = |y|*e^3. The
    flags are never enforced; the report arrives with claims_unramified
    already set. already_square comes from an exact halving of P; when
    that halving cannot finish, EffortExceeded propagates rather than
    leaving the question open.
    """
    field = CubicField(m)  # rejects a cube m without factoring it
    b = operator.index(b)
    if not cubefree_and_noncube(m)[0]:  # the mod-9 condition reads m, so it must be cubefree
        raise ValueError(f"m = {m} is not cubefree")
    curve = MordellCurve.twist(m, b)  # ZeroElement for b = 0
    if P.is_infinity:
        raise InvalidPoint("need an affine point")
    already_square = bool(curve.halve(P))  # halve checks P on the curve, once
    a, e = x_as_a_over_e2(P.x)
    alpha = field.element(a, -b * e * e, 0)
    norm = alpha.norm()
    norm_sqrt = abs(P.y) * e**3
    assert norm == norm_sqrt**2, "norm must equal (y*e^3)^2 for on-curve points"
    # alpha's minimal cubic t^3 - 3a t^2 + 3a^2 t - N(alpha) at t = x^2; N(alpha) = norm_sqrt^2,
    # and norm_sqrt = |y|*e^3 is an integer
    N = norm_sqrt.numerator**2
    sextic = IntPoly((-N, 0, 3 * a * a, 0, -3 * a, 0, 1))
    return unramified_conditions(KappaReport(
        m=m,
        b=b,
        point=P,
        a=a,
        e=e,
        alpha=alpha,
        norm=norm,
        norm_sqrt=norm_sqrt,
        eligible_mod9=m % 9 not in (0, 1, 8),
        gcd_ab_ok=gcd(a, b) == 1,
        two_divides_e=e % 2 == 0,
        a_pos_1mod4=a > 0 and a % 4 == 1,
        sextic=sextic,
        already_square=already_square,
    ))


def unramified_conditions(report: KappaReport) -> KappaReport:
    """The report with claims_unramified = all(_CONDITIONS); a kappa_element report is unchanged."""
    return report._replace(claims_unramified=all(getattr(report, f) for f in _CONDITIONS))


def sqrt_ext_minpoly(report: KappaReport) -> IntPoly:
    """Defining sextic of sqrt(alpha) over Q.

    Refuses (AlphaIsSquare) when the point is divisible by 2, since
    alpha is then a square and generates nothing. A report always
    carries a decided already_square, so a returned sextic is always
    backed by an empty halving.
    """
    if report.already_square:
        raise AlphaIsSquare(f"{report.alpha} is a square: {report.point} is divisible by 2")
    return report.sextic


# -- Table 1 verification ----------------------------------------------------


class Table1Row(NamedTuple):
    m: int
    field_m: int
    k: int
    x: Fraction
    b: int
    report: KappaReport | None  # None when the point is not even on the curve
    on_curve: bool
    alpha_match: bool
    printed_alpha_match: bool
    norm_square: bool
    flags_match: bool
    sextic_match: bool | None  # None when the row carries no expected sextic
    note: str | None

    @property
    def passed(self) -> bool:
        checks = [self.on_curve, self.alpha_match, self.norm_square, self.flags_match]
        if self.sextic_match is not None:
            checks.append(self.sextic_match)
        return all(checks)


class Table1Result(NamedTuple):
    rows: tuple[Table1Row, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def load_table1(path: str | None = None) -> dict:
    """Load the bundled dataset, or one from an explicit path."""
    if path is not None:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    ref = resources.files("purecubic").joinpath("data/table1.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _json_int(value) -> int:
    """An int that is not a bool, or a string of an optional sign and digits, as an
    int; anything else raises ValueError. int() alone would truncate 9.9 to 9 and
    read true as 1."""
    if value.__class__ is int or value.__class__ is str and re.fullmatch("[+-]?[0-9]+", value):
        return int(value)  # a ValueError past int()'s digit limit
    raise ValueError(f"not an integer: {value!r}")


def _row_int(raw: dict, key: str, name: str) -> int:
    """raw[key] as an int (see _json_int), or a ValueError naming the row."""
    try:
        return _json_int(raw[key])
    except ValueError:
        raise ValueError(f"{name}: {key} = {raw[key]!r} is not an integer") from None


def _row_flags(raw: dict, name: str) -> dict:
    """raw["expected_flags"], each a JSON boolean, or a ValueError naming the row and the key:
    == alone would match 1.0 or 1 against True."""
    expected = raw["expected_flags"]
    if not isinstance(expected, dict):
        raise ValueError(f"{name}: expected_flags = {expected!r} is not an object")
    for key, value in expected.items():
        if value.__class__ is not bool:
            raise ValueError(f"{name}: expected_flags {key} = {value!r} is not a boolean")
    return expected


def table1_verify(path: str | None = None) -> Table1Result:
    """Recompute every dataset row and compare against its recorded values.

    Per row: the point lies on the stated curve, the recomputed element
    matches the recorded one, the norm is a perfect square, the
    condition flags agree, and any recorded sextic matches coefficient
    for coefficient. Failures become report entries, not exceptions.
    """
    data = load_table1(path)
    if not isinstance(data, dict):
        raise ValueError("table must be a JSON object with a \"rows\" list")
    if not isinstance(data["rows"], list) or not all(isinstance(raw, dict) for raw in data["rows"]):
        raise ValueError("table \"rows\" must be a list of objects")
    rows: list[Table1Row] = []
    for index, raw in enumerate(data["rows"]):
        name = f"row {index} (m={raw.get('m')!r})"
        m, field_m, k, x_num, x_den = (
            _row_int(raw, key, name) for key in ("m", "field_m", "k", "x_num", "x_den")
        )
        for key, value in (("field_m", field_m), ("x_den", x_den)):
            if value == 0:
                raise ValueError(f"{name}: {key} must be nonzero")
        x = Fraction(x_num, x_den)
        cube = perfect_cube_root(-k // field_m) if k % field_m == 0 else None
        if cube is None:
            raise ValueError(f"{name}: k = {k} is not -field_m * b^3")
        b = cube
        y = perfect_square_root(x**3 + k)
        if y is None:
            # cannot even build the point; record the failure and move on
            rows.append(
                Table1Row(
                    m=m, field_m=field_m, k=k, x=x, b=b,
                    report=None, on_curve=False, alpha_match=False,
                    printed_alpha_match=False, norm_square=False,
                    flags_match=False, sextic_match=None, note=raw.get("note"),
                )
            )
            continue
        report = kappa_element(field_m, b, CurvePoint(x, y))
        want_a = _row_int(raw, "alpha_a", name)
        want_coeff = _row_int(raw, "alpha_b_coeff", name)
        got_coeff = -report.b * report.e**2
        alpha_match = report.a == want_a and got_coeff == want_coeff
        printed = raw.get("alpha_b_coeff_printed")
        printed_alpha_match = (
            printed is None or _row_int(raw, "alpha_b_coeff_printed", name) == got_coeff
        )
        flags = {f: getattr(report, f) for f in (*_CONDITIONS, "claims_unramified")}
        flags_match = flags == _row_flags(raw, name)
        sextic_match = None
        if raw.get("expected_sextics"):
            try:
                wanted = [IntPoly(map(_json_int, cs)) for cs in raw["expected_sextics"]]
            except (TypeError, ValueError):
                raise ValueError(f"{name}: expected_sextics must be lists of integers") from None
            sextic_match = report.sextic in wanted
        rows.append(
            Table1Row(
                m=m,
                field_m=field_m,
                k=k,
                x=x,
                b=b,
                report=report,
                on_curve=True,
                alpha_match=alpha_match,
                printed_alpha_match=printed_alpha_match,
                norm_square=report.norm_sqrt**2 == report.norm,
                flags_match=flags_match,
                sextic_match=sextic_match,
                note=raw.get("note"),
            )
        )
    return Table1Result(tuple(rows))
