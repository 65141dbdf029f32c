"""The package surface: what an import loads, and the contract of the value types."""

import ast
import copy
import inspect
import json
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs in a fresh interpreter: the purecubic submodules and watched
# stdlib modules loaded after `import purecubic`, then after one command.
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, SRC)

def loaded():
    return sorted(name for name in sys.modules
                  if name.startswith("purecubic.") or name in ("dataclasses", "inspect", "mpmath"))

import purecubic
out = {"import": loaded()}
if ARGV:
    from purecubic.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        out["code"] = main(ARGV)
    out["command"] = loaded()
print(json.dumps(out))
"""


def probe(argv=()):
    code = f"SRC = {SRC!r}\nARGV = {list(argv)!r}\n" + PROBE
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_submodule():
    assert probe() == {"import": []}


def test_the_package_imports_only_the_standard_library():
    # every import in a source file, at module level or inside a function, names the
    # package's own modules or the standard library's
    for path in sorted(Path(SRC, "purecubic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one: the package's own
            for name in names:
                top = name.partition(".")[0]
                assert top == "purecubic" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


@pytest.mark.parametrize("argv, layers", [
    (["norm", "2", "1", "2", "3"], "field"),
    (["curve-add", "-2", "3", "5", "3", "5"], "mordell"),
    (["halve", "-2", "129/100", "-383/1000"], "mordell"),
    (["kappa", "113", "3", "97/4", "847/8"], "classfield field mordell"),  # never binsq
    (["table1"], "classfield field mordell"),
])
def test_a_command_loads_only_its_layers(argv, layers):
    out = probe(argv)
    assert out["code"] == 0
    assert out["command"] == sorted(f"purecubic.{name}" for name in ("arith", "cli", "errors", *layers.split()))


def test_every_public_name_resolves_to_its_submodule():
    import importlib

    import purecubic

    for module, names in purecubic._EXPORTS.items():
        submodule = importlib.import_module(f"purecubic.{module}")
        for name in names:
            assert getattr(purecubic, name) is getattr(submodule, name)
    assert set(purecubic.__all__) == set(purecubic._HOME)
    assert purecubic.field is importlib.import_module("purecubic.field")


def test_star_import_binds_every_name():
    import purecubic

    namespace = {}
    exec("from purecubic import *", namespace)
    assert set(purecubic.__all__) <= set(namespace)
    for name in purecubic.__all__:
        assert namespace[name] is getattr(purecubic, name)
    assert set(purecubic.__all__) <= set(dir(purecubic))


# "nonexistent" and the names deleted from the surface
@pytest.mark.parametrize("name", ["nonexistent", "nonsquare_certificate", "kappa_pairwise_distinct", "Rat",
                                  "rational_reconstruct"])
def test_unknown_name_raises_attribute_error(name):
    import purecubic

    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(purecubic, name)
    assert not hasattr(purecubic, f"_{name}")


# -- value types ----------------------------------------------------------------------


def _values():
    """Two equal, separately built instances of each value type, and one different one."""
    from purecubic.arith import Factorization, IntPoly
    from purecubic.binsq import elem_from_point
    from purecubic.field import CubicField
    from purecubic.mordell import CurvePoint, MordellCurve, affine

    def witness(x, y):
        return elem_from_point(CubicField(2), 1, affine(x, y))

    return [
        (lambda: CurvePoint(3, 5), CurvePoint(3, -5)),
        (lambda: MordellCurve(-2), MordellCurve(-3)),
        (lambda: IntPoly((1, 2, 0)), IntPoly((1, 2, 1))),
        (lambda: Factorization(1, ((2, 1), (3, 2))), Factorization(-1, ((2, 1), (3, 2)))),
        (lambda: CubicField(2), CubicField(3)),
        (lambda: CubicField(2).element(1, Fraction(1, 2), 3), CubicField(2).element(1, 2, 3)),
        (lambda: witness(3, 5), witness(3, -5)),
    ]


@pytest.mark.parametrize("index", range(7))
def test_value_type_contract(index):
    make, other = _values()[index]
    a, b = make(), make()
    cls = type(a)
    fields = list(inspect.signature(cls).parameters)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and other != a
    assert repr(a).startswith(f"{cls.__name__}(")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b  # unchanged by the refused writes
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_values_of_different_classes_never_compare_equal():
    from purecubic.field import CubicField
    from purecubic.mordell import MordellCurve

    values = [make() for make, _ in _values()]
    assert {type(v).__name__ for v in values} == {
        "CurvePoint", "MordellCurve", "IntPoly", "Factorization", "CubicField", "CubicElement",
        "BinomialSquareWitness"}
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) is (i == j)
    # same field tuple, different class
    assert MordellCurve(2) != CubicField(2) and CubicField(2) != MordellCurve(2)
    assert CubicField(2) != 2 and CubicField(2) != (2,)
