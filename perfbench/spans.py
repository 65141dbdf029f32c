"""Span tracing of purecubic's layers from outside the package.

``Tracer.install`` replaces each traced public function or method with a
wrapper that records a span (name, start, end, parent). A function is
rebound in every purecubic module that holds it, since modules import
each other's names (``mordell`` calls ``rational_roots`` through its own
global), so a nested call gets its own span. ``uninstall`` restores the
originals; a run that never installs the tracer runs the program
unchanged.

Spans stay in memory as parallel arrays and are written out once, by
``dump``. A span's self time is its duration minus the durations of its
direct children: calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Counters kept next to the spans: each hook sees the call's arguments
# and result (RAISED if the call raised) and adds to the tracer's counts.
RAISED = object()


def _max_coeff_digits(counts, args, kwargs, result):
    digits = max(len(str(abs(c))) for c in args[0].coeffs)
    counts["arith.rational_roots.max_coeff_digits"] = max(
        counts["arith.rational_roots.max_coeff_digits"], digits
    )


def _coprime_count(e: int, a_bound: int) -> int:
    """How many a in [-a_bound, a_bound] have gcd(a, e) = 1 (inclusion-exclusion)."""
    primes, n, p = [], e, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    total = 0
    for mask in range(1 << len(primes)):
        d, bits = 1, 0
        for i, q in enumerate(primes):
            if mask >> i & 1:
                d *= q
                bits += 1
        multiples = 2 * (a_bound // d) + 1  # multiples of d in [-A, A], zero included
        total += -multiples if bits % 2 else multiples
    return total


def _search_counts(counts, args, kwargs, result):
    if result is RAISED:
        return
    e_bound, a_bound = args[1], args[2]
    counts["mordell.search.candidates"] += sum(_coprime_count(e, a_bound) for e in range(1, e_bound + 1))
    counts["mordell.search.points"] += len(result)


def _halve_counts(counts, args, kwargs, result):
    if result is not RAISED:
        counts["mordell.halve.preimages"] += len(result)


def _found_count(key):
    def hook(counts, args, kwargs, result):
        if result is not None and result is not RAISED:
            counts[key] += 1

    return hook


# (module, attribute path, span name, counter hook). A method is named by
# "Class.method"; CubicElement's __mul__ and __rmul__ are one function.
TARGETS = [
    ("arith", "factorize", "arith.factorize", None),
    ("arith", "rational_roots", "arith.rational_roots", _max_coeff_digits),
    ("arith", "rational_reconstruct", "arith.rational_reconstruct", None),
    ("arith", "perfect_square_root", "arith.perfect_square_root", None),
    ("arith", "cubefree_and_noncube", "arith.cubefree_and_noncube", None),
    ("mordell", "MordellCurve.add", "mordell.add", None),
    ("mordell", "MordellCurve.double", "mordell.double", None),
    ("mordell", "MordellCurve.scalar_mul", "mordell.scalar_mul", None),
    ("mordell", "MordellCurve.contains", "mordell.contains", None),
    ("mordell", "MordellCurve.search", "mordell.search", _search_counts),
    ("mordell", "MordellCurve.halve", "mordell.halve", _halve_counts),
    ("field", "CubicField.__init__", "field.CubicField.init", None),
    ("field", "CubicElement.__mul__", "field.CubicElement.mul", None),
    ("field", "sqrt_in_field", "field.sqrt_in_field", _found_count("field.sqrt_in_field.found")),
    ("field", "CubicElement.sign_of_embedding", "field.sign_of_embedding", None),
    ("binsq", "is_square_binomial", "binsq.is_square_binomial",
     _found_count("binsq.is_square_binomial.squares")),
    ("binsq", "elem_from_point", "binsq.elem_from_point", None),
    ("binsq", "point_from_elem", "binsq.point_from_elem", None),
    ("binsq", "star", "binsq.star", None),
    ("classfield", "table1_verify", "classfield.table1_verify", None),
    ("classfield", "kappa_element", "classfield.kappa_element", None),
    ("cli", "main", "cli.main", None),
]

SPAN_NAMES = [name for _, _, name, _ in TARGETS]
COUNTER_NAMES = [
    "arith.rational_roots.max_coeff_digits",
    "mordell.search.candidates",
    "mordell.search.points",
    "mordell.halve.preimages",
    "field.sqrt_in_field.found",
    "binsq.is_square_binomial.squares",
]


class Tracer:
    """The spans and counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        op = self._id(name)
        stack, ops, parents, starts, ends = self._stack, self.op, self.parent, self.start, self.end
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ops.append(op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            result = RAISED
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, result)

        return traced

    def install(self):
        """Wrap every target and rebind it wherever purecubic holds the original."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname in {t[0] for t in TARGETS}:
            importlib.import_module(f"purecubic.{modname}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "purecubic" or name.startswith("purecubic."))]
        for modname, path, name, hook in TARGETS:
            module = sys.modules[f"purecubic.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(name, original, hook)
                for holder_attr, value in list(cls.__dict__.items()):
                    if value is original:  # __rmul__ is __mul__
                        self._restore.append((cls, holder_attr, original))
                        setattr(cls, holder_attr, wrapper)
            else:
                original = getattr(module, path)
                wrapper = self.wrap(name, original, hook)
                for mod in modules:
                    for holder_attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, holder_attr, original))
                            setattr(mod, holder_attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            name = self.names[self.op[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def dump(self, path):
        """Write the spans as gzipped JSON columns; times in seconds from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": list(self.op),
            "start_s": [round(t - t0, 7) for t in self.start],
            "end_s": [round(t - t0, 7) for t in self.end],
            "parent": list(self.parent),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
