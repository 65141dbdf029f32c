"""Command-line front end. Every value is exact: rationals go in and out
as 'p/q' strings, never as floating point.

The argument grammar is parsed by hand because positional arguments are
frequently negative rationals ('-383/1000'), which standard option
parsers mistake for flags. Flags may appear anywhere, and a flag's
value may follow it as the next argument or after '=':

    --json             one self-describing JSON record per line
    --table PATH       alternate table1 dataset
    --e-bound N        search: denominator bound
    --a-bound N        search: numerator bound

Each command is one row of a table: a signature saying what its
positional arguments are, and a handler that computes the answer as a
JSON record and a line of text. One parser and one printer serve all.
The module itself needs only arith and errors: _parse_args imports
mordell or field for the values that need them, and each handler imports
its own binsq or classfield names, so a command loads only its layers.

Exit codes: 0 success, 1 domain error (error name on stderr), 2 usage.
"""

from __future__ import annotations

import contextlib
import json
import sys

from .arith import parse_rat
from .errors import DomainError

USAGE = """usage: purecubic [--json] [--table PATH] COMMAND ARGS

commands (points are 'x y' pairs, or 'inf'; rationals are 'p' or 'p/q'):
  curve-add k P Q            sum of two points on y^2 = x^3 + k
  curve-double k P           duplication
  curve-mul k n P            scalar multiple
  halve k P                  all Q with 2Q = P
  search k --e-bound E --a-bound A
                             points with x = a/e^2 within the bounds
  from-point m b x y         element attached to a point of y^2 = x^3 - m*b^3
  to-point m r s t           point attached to r + s*w + t*w^2
  star m r1 s1 t1 r2 s2 t2   induced product of two elements
  square-test m a b          decide whether a - b*w is a square in Q(cbrt(m))
  norm m r s t               field norm of r + s*w + t*w^2
  kappa m b x y              element a - b*e^2*w report for a curve point
  ext-poly m b x y           sextic of sqrt(a - b*e^2*w) over Q
  table1                     verify the bundled reference table
"""


class UsageError(Exception):
    pass


def _parse_argv(argv: list[str]):
    opts = {"json": False, "table": None, "e_bound": None, "a_bound": None}
    positional: list[str] = []
    tokens = iter(argv)
    for tok in tokens:
        name, eq, val = tok[2:].partition("=")
        if not tok.startswith("--"):
            positional.append(tok)
        elif name not in ("json", "table", "e-bound", "a-bound"):
            raise UsageError(f"unknown flag --{name}")
        elif name == "json":
            if eq:
                raise UsageError("--json takes no value")
            opts["json"] = True
        else:
            if not eq:
                val = next(tokens, None)
                if val is None:
                    raise UsageError(f"--{name} needs a value")
            opts[name.replace("-", "_")] = val if name == "table" else _parse_args("i", [val])[0]
    if not positional:
        raise UsageError("no command given")
    return positional[0], positional[1:], opts


_KIND_NAMES = {"k": "curve k", "m": "field m", "i": "integer", "q": "rational",
               "P": "point (x y, or 'inf')", "e": "element r s t"}


def _parse_args(signature: str, args: list[str]) -> list:
    """The values a signature names, parsed in order from args.

    One letter per value: k the curve y^2 = x^3 + k, m the field
    Q(cbrt(m)), i an integer 'p', q a rational 'p' or 'p/q', P a point
    'x y' or 'inf', e an element 'r s t' of the field given first.
    """
    values: list = []
    for kind in signature:
        n = {"P": 1 if args[:1] == ["inf"] else 2, "e": 3}.get(kind, 1)
        if len(args) < n:
            raise UsageError(f"missing {_KIND_NAMES[kind]}")
        toks, args = args[:n], args[n:]
        if kind == "k":
            from .mordell import MordellCurve

            values.append(MordellCurve(parse_rat(toks[0])))
        elif kind in "mi":
            if "/" in toks[0]:
                raise ValueError(f"not an integer: {toks[0]!r}")
            value = int(parse_rat(toks[0]))
            if kind == "m":
                from .field import CubicField

                value = CubicField(value)
            values.append(value)
        elif kind == "q":
            values.append(parse_rat(toks[0]))
        elif kind == "P":
            from .mordell import INFINITY, CurvePoint

            values.append(INFINITY if toks == ["inf"] else CurvePoint(*map(parse_rat, toks)))
        else:
            values.append(values[0].element(*map(parse_rat, toks)))
    if args:
        raise UsageError("too many arguments")
    return values


def _point_rec(P):
    if P.is_infinity:
        return "inf"
    return {"x": str(P.x), "y": str(P.y)}


def _elem_rec(e):
    return {"r": str(e.r), "s": str(e.s), "t": str(e.t), "m": str(e.field.m)}


def _curve_result(curve, R, **extra):
    return {"k": str(curve.k), **extra, "result": _point_rec(R)}, str(R)


def _halve(opts, curve, P):
    preimages = sorted(curve.halve(P), key=lambda Q: (Q.is_infinity, Q.x or 0, Q.y or 0))
    rec = {"k": str(curve.k), "preimages": [_point_rec(Q) for Q in preimages]}
    return rec, ", ".join(str(Q) for Q in preimages) or "(none)"


def _search(opts, curve):
    if opts["e_bound"] is None or opts["a_bound"] is None:
        raise UsageError("search needs --e-bound and --a-bound")
    points = curve.search(opts["e_bound"], opts["a_bound"])
    rec = {"k": str(curve.k), "points": [_point_rec(P) for P in points]}
    return rec, "\n".join(str(P) for P in points) or "(none)"


def _from_point(opts, field, b, P):
    from .binsq import elem_from_point

    w = elem_from_point(field, b, P)
    rec = {"m": str(field.m), "b": str(w.b), "alpha": _elem_rec(w.alpha), "a": str(w.a)}
    return rec, f"alpha = {w.alpha}\nalpha^2 = {w.a} - ({w.b})*w"


def _to_point(opts, field, alpha):
    from .binsq import point_from_elem

    w = point_from_elem(field, alpha)
    rec = {"m": str(field.m), "b": str(w.b), "a": str(w.a), "point": _point_rec(w.point)}
    if w.curve is None:
        return rec, f"inf: alpha = {alpha.r} is rational, so b = 0 and there is no twist   [alpha^2 = {w.a}]"
    return rec, f"{w.point} on y^2 = x^3 - ({field.m})*({w.b})^3   [alpha^2 = {w.a} - ({w.b})*w]"


def _star(opts, field, a1, a2):
    from .binsq import star, star_parts

    product = star(a1, a2)
    rec = {"m": str(field.m), "result": _elem_rec(product)}
    # star_parts' closed formulas, independent of star: both squares are a - 1*w and x = s/t differs
    if (a1 * a1).s == (a2 * a2).s == -1 and a1.s * a2.t != a2.s * a1.t:
        parts = star_parts(a1, a2)
        names = ("S_minus", "S_plus", "T_minus", "T_plus", "Sigma")
        rec["parts"] = {name: str(getattr(parts, name.lower())) for name in names}
    return rec, str(product)


def _square_test(opts, field, a, b):
    from .binsq import is_square_binomial

    root = is_square_binomial(field, a, b)
    rec = {"m": str(field.m), "a": str(a), "b": str(b), "square": root is not None,
           "root": _elem_rec(root) if root is not None else None}
    if root is None:
        return rec, f"{a} - ({b})*w is not a square in {field}"
    return rec, f"{a} - ({b})*w = gamma^2, gamma = {root}"


def _norm(opts, field, alpha):
    norm, trace = alpha.norm(), alpha.trace()
    rec = {"m": str(field.m), "norm": str(norm), "trace": str(trace)}
    return rec, f"norm = {norm}, trace = {trace}"


def _kappa(opts, m, b, P):
    from .classfield import _CONDITIONS, kappa_element

    r = kappa_element(m, b, P)
    # the report's flags, printed as text one group per line
    groups = (_CONDITIONS, ("claims_unramified", "already_square"))
    flags = {f: getattr(r, f) for group in groups for f in group}
    rec = {
        "m": str(r.m),
        "b": str(r.b),
        "point": _point_rec(r.point),
        "a": str(r.a),
        "e": str(r.e),
        "alpha": _elem_rec(r.alpha),
        "norm": str(r.norm),
        "norm_sqrt": str(r.norm_sqrt),
        **flags,
        "sextic": [str(c) for c in r.sextic.coeffs],
    }
    flag_lines = (" ".join(f"{f}={flags[f]}" for f in group) for group in groups)
    return rec, "\n".join([f"alpha = {r.alpha}", f"norm = {r.norm} = ({r.norm_sqrt})^2", *flag_lines])


def _ext_poly(opts, m, b, P):
    from .classfield import kappa_element, sqrt_ext_minpoly

    r = kappa_element(m, b, P)
    poly = sqrt_ext_minpoly(r)
    return {"m": str(r.m), "b": str(r.b), "coeffs": [str(c) for c in poly.coeffs],
            "poly": poly.format()}, poly.format()


_ROW_CHECKS = ("passed", "on_curve", "alpha_match", "printed_alpha_match", "norm_square", "flags_match",
               "sextic_match")


def _table1(opts):
    from .classfield import table1_verify

    try:
        result = table1_verify(opts["table"])
    except OSError as exc:
        raise UsageError(f"cannot read table: {exc}") from None
    except KeyError as exc:
        raise UsageError(f"table has no field {exc}") from None
    out = []
    for row in result.rows:
        rec = {
            **{f: str(getattr(row, f)) for f in ("m", "field_m", "k", "x")},
            **{f: getattr(row, f) for f in _ROW_CHECKS},
            "claims_unramified": row.report.claims_unramified if row.report else None,
            "note": row.note,
        }
        status = "ok" if row.passed else "FAIL"
        line = f"m={row.m:>5}  x={row.x}  {status}  claims_unramified={rec['claims_unramified']}"
        if row.sextic_match is not None:
            line += f"  sextic_match={row.sextic_match}  sextic: {row.report.sextic.format()}"
        if row.note:
            line += f"\n        note: {row.note}"
        out.append((rec, line))
    summary = {"rows": len(result.rows), "all_passed": result.all_passed}
    out.append((summary, f"{len(result.rows)} rows, all_passed={result.all_passed}"))
    return out


# command -> (signature for _parse_args, handler). A handler gets the
# options and the parsed values and returns (record, text); table1
# returns a list of rows followed by a summary.
_COMMANDS = {
    "curve-add": ("kPP", lambda opts, curve, P, Q: _curve_result(curve, curve.add(P, Q))),
    "curve-double": ("kP", lambda opts, curve, P: _curve_result(curve, curve.double(P))),
    "curve-mul": ("kiP", lambda opts, curve, n, P:
                  _curve_result(curve, curve.scalar_mul(n, P), n=str(n))),
    "halve": ("kP", _halve),
    "search": ("k", _search),
    "from-point": ("mqP", _from_point),
    "to-point": ("me", _to_point),
    "star": ("mee", _star),
    "square-test": ("mqq", _square_test),
    "norm": ("me", _norm),
    "kappa": ("iiP", _kappa),
    "ext-poly": ("iiP", _ext_poly),
    "table1": ("", _table1),
}


@contextlib.contextmanager
def _no_int_str_limit():
    """Lift the int-to-str digit limit (where the interpreter has one) so
    exact results of any size print; argv parsing keeps the guard."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, args, opts = _parse_argv(list(argv))
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        signature, handler = _COMMANDS[command]
        values = _parse_args(signature, args)
        with _no_int_str_limit():
            results = handler(opts, *values)
            if isinstance(results, tuple):
                results, ops = [results], [command]
            else:
                ops = [f"{command}-row"] * (len(results) - 1) + [f"{command}-summary"]
            for op, (record, text) in zip(ops, results):
                print(json.dumps({"op": op, **record}) if opts["json"] else text)
        return 0
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
