"""The benchmark's workloads: inputs from a seed, the operations of one round, and their checks.

A workload is built in two steps. Its constructor does all oracle
work: it generates the inputs and the expected answers from the seed
(no purecubic import). ``objects`` lists the CubicField and MordellCurve
objects whose construction is the workload's set-up. ``build(pc)`` then
constructs those objects and returns the operations of one round. Every
round repeats the same operations, so the share of failed operations is
the same in every run.

An operation is a zero-argument ``call`` into the program, timed, and a
``check`` of its result against the oracles, not timed. ``detail``
turns each operation's median time in the run into the workload's own
figures. Operations with
``fault`` set are known to fail at this version; for them a wrong answer
counts as a failure rather than as an incorrect result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

import oracles as orc


@dataclass
class Op:
    kind: str
    call: object
    check: object
    fault: str | None = None
    # in-process variant of a subprocess call, used by traced runs
    inproc: object = None


@dataclass
class Record:
    kind: str
    seconds: float
    ref_s: float  # the reference loop's time next to the operation
    status: str  # "ok", "failed" or "wrong"
    error: str | None = None


def as_pair(P):
    return None if P.is_infinity else (P.x, P.y)


def squares_back(m, root, target) -> bool:
    return root is not None and orc.fmul(m, root.components(), root.components()) == tuple(target)


# -- halving-ladder -------------------------------------------------------------------

LADDER_RUNGS = (1, 2, 3, 5, 6, 7, 8)
LADDER_REPEAT = {2: 5}  # rung 2 is cheap enough to time five times per round
LADDER_FAULT = ("EffortExceeded: rational_roots cannot factor the quartic's end "
                "coefficients within DEFAULT_EFFORT")


class HalvingLadder:
    """Halve x(2nP) for P = (3, 5) on y^2 = x^3 - 2; the seed only orders the rungs."""

    name = "halving-ladder"
    faults = {f"rung{n}": LADDER_FAULT for n in (5, 6, 7, 8)}

    def __init__(self, seed: int, tiny: bool = False):
        k = Fraction(-2)
        P = (Fraction(3), Fraction(5))
        rungs = (1, 2, 5) if tiny else LADDER_RUNGS
        self.cases = []
        for n in rungs:
            Q = orc.mul(k, n, P)
            self.cases.extend([(n, orc.double(k, Q), Q)] * LADDER_REPEAT.get(n, 1))
        random.Random(seed).shuffle(self.cases)
        self.objects = {"fields": [], "curves": [-2]}

    def build(self, pc):
        C = pc.MordellCurve(-2)
        ops = []
        for n, R, Q in self.cases:
            point = pc.CurvePoint(*R)
            ops.append(Op(
                kind=f"rung{n}",
                call=lambda point=point: C.halve(point),
                check=lambda res, Q=Q: {as_pair(S) for S in res} == {Q},
                fault=self.faults.get(f"rung{n}"),
            ))
        return ops

    @staticmethod
    def detail(per_op):
        by = _by_kind(per_op)
        rung = {n: median(by[f"rung{n}"]) for n in LADDER_RUNGS if f"rung{n}" in by}
        return {
            "ladder_s": (sum(rung.values()), "s"),
            "halve_10d_ms": (rung[2] * 1e3, "ms"),
            "halve_21d_s": (rung.get(3, float("nan")), "s"),
        }


# -- square-test ----------------------------------------------------------------------

SQ_FIELDS = (2, 4, 7, 11, 26, 28, 39, 47)
SQ_HEIGHT = 60  # x-height bound on the pool points: keeps every halving under ~0.1 s
N_NORM_NONSQ = 40
N_SQRT = 40
N_SQRT_NONSQ = 40
N_STAR = 100
SQRT_FAULT_K = 33554467  # the root w^2/k of w has height k, past sqrt_in_field's bound
CUBE_FAULT_P = 10**12 + 39  # factorize cannot split p^2 within DEFAULT_EFFORT
SQUARE_TEST_KINDS = ("square", "nonsquare_sqnorm", "nonsquare_norm", "square_big_m")
SQRT_KINDS = ("sqrt", "sqrt_nonsquare", "sqrt_omega")


def point_pool(m: int, height: int):
    """Low-height points of y^2 = x^3 - m: a small box, then sums, differences and doubles."""
    k = Fraction(-m)
    found = orc.search_box(-m, 4, 1500)
    pool = set(found)
    for P in found:
        for Q in found:
            for R in (orc.add(k, P, Q), orc.add(k, P, orc.neg(Q))):
                if R is not None:
                    pool.add(R)
    return sorted(P for P in pool if orc.x_height(P) <= height)


def _rand_rat(rng, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


class SquareTest:
    """Square decisions, field square roots and star products over several Q(cbrt(m))."""

    name = "square-test"
    faults = {
        "sqrt_omega": f"sqrt_in_field(w) in Q(cbrt({SQRT_FAULT_K}^2)) returns None, "
                      f"but w = (w^2/{SQRT_FAULT_K})^2: heuristic height bound",
        "square_big_m": f"CubicField(({CUBE_FAULT_P})^2) raises EffortExceeded: "
                        "factorize has no perfect-power step",
    }

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        fields = SQ_FIELDS[:2] if tiny else SQ_FIELDS
        # a pure cubic field needs m cubefree and not a cube (the certificates rely on it)
        if not all(m > 1 and orc.is_cubefree(m) for m in fields + (SQRT_FAULT_K**2,)):
            raise ValueError("every m must be cubefree and greater than 1")
        scale = 10 if tiny else 1
        self.squares, self.sqnorm, self.normnonsq = [], [], []
        self.sqrts, self.sqrt_nonsq, self.stars = [], [], []
        pools = {m: point_pool(m, SQ_HEIGHT) for m in fields}
        for m, pool in pools.items():
            k = Fraction(-m)
            for Q in pool:
                if Q[1] > 0:
                    self.squares.append((m, orc.double(k, Q)[0]))
                    cert = orc.nonresidue_certificate(m, Q[0], 1)
                    if cert is not None:
                        self.sqnorm.append((m, Q[0], cert))
        while len(self.normnonsq) < N_NORM_NONSQ // scale:
            m = rng.choice(fields)
            a, b = _rand_rat(rng, 99, 9), _rand_rat(rng, 9, 4)
            if b != 0 and orc.rational_sqrt(orc.fnorm(m, (a, -b, 0))) is None:
                self.normnonsq.append((m, a, b))
        while len(self.sqrts) < N_SQRT // scale:
            m = rng.choice(fields)
            g = tuple(_rand_rat(rng, 20, 12) for _ in range(3))
            if g[1] or g[2]:
                self.sqrts.append((m, orc.fmul(m, g, g)))
        while len(self.sqrt_nonsq) < N_SQRT_NONSQ // scale:
            m = rng.choice(fields)
            g = tuple(_rand_rat(rng, 20, 12) for _ in range(3))
            d = _rand_rat(rng, 12, 5)
            if (g[1] or g[2]) and d != 0 and orc.rational_sqrt(d) is None:
                self.sqrt_nonsq.append((m, tuple(d * c for c in orc.fmul(m, g, g))))
        for _ in range(N_STAR // scale):
            m = rng.choice(fields)
            P1, P2 = rng.choice(pools[m]), rng.choice(pools[m])
            if rng.random() < 0.1:
                P2 = P1  # tangent case
            R = orc.neg(orc.add(Fraction(-m), P1, P2))
            want = (Fraction(1), Fraction(0), Fraction(0)) if R is None else orc.element_of_point(*R)
            self.stars.append((m, orc.element_of_point(*P1), orc.element_of_point(*P2), want))
        self.order = rng.random()  # seeds the shuffle of the op list in build
        self.objects = {"fields": list(fields) + [SQRT_FAULT_K**2], "curves": [-m for m in fields]}

    def build(self, pc):
        K = {m: pc.CubicField(m) for m in self.objects["fields"]}
        for m in self.objects["curves"]:
            pc.MordellCurve(m)
        ops = []
        for m, a in self.squares:
            ops.append(Op("square", lambda K=K[m], a=a: pc.is_square_binomial(K, a, 1),
                          lambda r, m=m, a=a: squares_back(m, r, (a, -1, 0))))
        for m, a, cert in self.sqnorm:
            ops.append(Op("nonsquare_sqnorm", lambda K=K[m], a=a: pc.is_square_binomial(K, a, 1),
                          lambda r, m=m, a=a, c=cert: r is None and orc.check_certificate(m, a, 1, *c)))
        for m, a, b in self.normnonsq:
            ops.append(Op("nonsquare_norm", lambda K=K[m], a=a, b=b: pc.is_square_binomial(K, a, b),
                          lambda r: r is None))
        for m, beta in self.sqrts:
            e = K[m].element(*beta)
            ops.append(Op("sqrt", lambda e=e: pc.sqrt_in_field(e),
                          lambda r, m=m, beta=beta: squares_back(m, r, beta)))
        for m, beta in self.sqrt_nonsq:
            # beta is d * gamma^2 with d a rational non-square, and Q(cbrt(m)) has no quadratic subfield
            e = K[m].element(*beta)
            ops.append(Op("sqrt_nonsquare", lambda e=e: pc.sqrt_in_field(e), lambda r: r is None))
        for m, u, v, want in self.stars:
            x, y = K[m].element(*u), K[m].element(*v)
            ops.append(Op("star", lambda x=x, y=y: pc.star(x, y),
                          lambda r, want=want: r.components() == want))
        k2 = SQRT_FAULT_K**2
        ops.append(Op("sqrt_omega", lambda: pc.sqrt_in_field(K[k2].omega),
                      lambda r: squares_back(k2, r, (0, 1, 0)), fault=self.faults["sqrt_omega"]))
        p2 = CUBE_FAULT_P**2
        ops.append(Op("square_big_m", lambda: pc.is_square_binomial(pc.CubicField(p2), 0, -1),
                      lambda r: squares_back(p2, r, (0, 1, 0)), fault=self.faults["square_big_m"]))
        random.Random(self.order).shuffle(ops)
        return ops

    @staticmethod
    def detail(per_op):
        return {
            "square_tests_per_s": (_rate(per_op, SQUARE_TEST_KINDS), "1/s"),
            "field_sqrt_per_s": (_rate(per_op, SQRT_KINDS), "1/s"),
            "star_per_s": (_rate(per_op, ("star",)), "1/s"),
        }


# -- curve-search ---------------------------------------------------------------------

CS_CURVES = (-2, -11, -26, -39, 17)
CS_HEIGHT = 50
CS_DRAWS = 16  # seeded multiples per pool point
CS_MAX_N = 40
# Fixed boxes: (k, e_bound, a_bound).
CS_BOXES = ((-2, 8, 2000), (17, 6, 2000), (-26, 5, 2500))


class CurveSearch:
    """scalar_mul of every low-height point by seeded multiples, then search over fixed boxes."""

    name = "curve-search"
    faults: dict = {}

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.smul = []
        draws, max_n = (2, 6) if tiny else (CS_DRAWS, CS_MAX_N)
        for k in CS_CURVES:
            for P in orc.search_box(k, 3, 500):
                if P[1] < 0 or orc.x_height(P) > CS_HEIGHT:
                    continue
                nP = [None, P]
                for _ in range(max_n):
                    nP.append(orc.add(Fraction(k), nP[-1], P))
                # one multiple from each of `draws` equal slices of [2, max_n], so the
                # seed moves the inputs but hardly the cost of a round
                edges = [2 + (max_n - 1) * j // draws for j in range(draws + 1)]
                for lo, hi in zip(edges, edges[1:]):
                    n = rng.randrange(lo, hi)
                    self.smul.append((k, n, P, nP[n]))
        rng.shuffle(self.smul)
        boxes = tuple((k, 2, 100) for k, _, _ in CS_BOXES) if tiny else CS_BOXES
        self.boxes = [(k, e, a, orc.search_box(k, e, a)) for k, e, a in boxes]
        self.objects = {"fields": [], "curves": list(CS_CURVES)}

    def build(self, pc):
        C = {k: pc.MordellCurve(k) for k in self.objects["curves"]}
        ops = []
        for k, n, P, want in self.smul:
            point = pc.CurvePoint(*P)
            ops.append(Op("scalar_mul", lambda C=C[k], n=n, point=point: C.scalar_mul(n, point),
                          lambda r, want=want: as_pair(r) == want))
        for k, e, a, want in self.boxes:
            ops.append(Op("search", lambda C=C[k], e=e, a=a: C.search(e, a),
                          lambda r, want=want: [as_pair(P) for P in r] == want))
        return ops

    @staticmethod
    def detail(per_op):
        return {
            "scalar_mul_per_s": (_rate(per_op, ("scalar_mul",)), "1/s"),
            "search_s": (sum(r.seconds for r in per_op if r.kind == "search"), "s"),
        }


# -- cli-table1 -----------------------------------------------------------------------

CLI_TIMEOUT_S = 60
CLI_HEIGHT = 6  # small points keep each command near its start-up cost, whatever the seed


def _q(x: Fraction) -> str:
    return str(Fraction(x))


class CliTable1:
    """Cold-start one-shot CLI commands and `table1 --json`, one child process at a time."""

    name = "cli-table1"
    faults: dict = {}

    def __init__(self, seed: int, tiny: bool = False):
        # tiny changes nothing here: a round is already five commands
        rng = random.Random(seed)
        self.root = Path(__file__).resolve().parents[1]
        m = rng.choice(SQ_FIELDS)
        pool = [P for P in point_pool(m, CLI_HEIGHT) if P[1] > 0]
        k = Fraction(-m)
        r, s, t = (_rand_rat(rng, 30, 9) for _ in range(3))
        Q, P1, P2 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        twoQ = orc.double(k, Q)
        self.commands = [
            ("norm", [str(m), _q(r), _q(s), _q(t)], orc.fnorm(m, (r, s, t))),
            ("square-test", [str(m), _q(twoQ[0]), "1"], (m, twoQ[0])),
            ("halve", [str(-m), _q(twoQ[0]), _q(twoQ[1])], Q),
            ("curve-add", [str(-m), _q(P1[0]), _q(P1[1]), _q(P2[0]), _q(P2[1])], orc.add(k, P1, P2)),
        ]
        data = json.loads((self.root / "src/purecubic/data/table1.json").read_text(encoding="utf-8"))
        self.table_rows = []
        for raw in data["rows"]:
            fm = int(raw["field_m"])
            x = Fraction(int(raw["x_num"]), int(raw["x_den"]))
            alpha = (Fraction(int(raw["alpha_a"])), Fraction(int(raw["alpha_b_coeff"])), Fraction(0))
            on = orc.rational_sqrt(x**3 + int(raw["k"])) is not None
            sq_norm = orc.rational_sqrt(orc.fnorm(fm, alpha)) is not None
            self.table_rows.append((raw["m"], str(x), on and sq_norm))
        self.objects = {"fields": [m], "curves": [-m]}

    def _check(self, cmd, expected, out: str) -> bool:
        recs = [json.loads(line) for line in out.splitlines() if line.strip()]
        if cmd == "table1":
            rows = [r for r in recs if r["op"] == "table1-row"]
            got = [(r["m"], r["x"], r["on_curve"] and r["norm_square"] and r["passed"]) for r in rows]
            return got == self.table_rows and recs[-1] == {
                "op": "table1-summary", "rows": len(self.table_rows), "all_passed": True}
        (rec,) = recs
        if cmd == "norm":
            return rec["norm"] == str(expected)
        if cmd == "square-test":
            m, a = expected
            r = tuple(Fraction(rec["root"][c]) for c in "rst") if rec["square"] else None
            return r is not None and orc.fmul(m, r, r) == (a, -1, 0)
        if cmd == "halve":
            return [(Fraction(p["x"]), Fraction(p["y"])) for p in rec["preimages"]] == [expected]
        if cmd == "curve-add":
            res = rec["result"]
            got = None if res == "inf" else (Fraction(res["x"]), Fraction(res["y"]))
            return got == expected
        raise ValueError(cmd)

    def build(self, pc):
        for m in self.objects["fields"]:
            pc.CubicField(m)
        for k in self.objects["curves"]:
            pc.MordellCurve(k)
        cli = importlib.import_module("purecubic.cli")
        env = child_env(self.root)
        ops = []
        for cmd, args, expected in self.commands + [("table1", [], None)]:
            argv = [cmd, *args, "--json"]

            def cold(argv=argv):
                proc = subprocess.run([sys.executable, "-m", "purecubic.cli", *argv], cwd=self.root,
                                      env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                return proc.returncode, proc.stdout

            def inproc(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                return code, buf.getvalue()

            kind = "table1" if cmd == "table1" else "oneshot"
            check = (lambda res, cmd=cmd, expected=expected:
                     res[0] == 0 and self._check(cmd, expected, res[1]))
            ops.append(Op(kind, cold, check, inproc=inproc))
        return ops

    @staticmethod
    def detail(per_op):
        by = _by_kind(per_op)
        return {
            "cli_cold_ms": (median(by["oneshot"]) * 1e3, "ms"),
            "table1_s": (median(by["table1"]), "s"),
        }


# -- shared ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _by_kind(records) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        out.setdefault(r.kind, []).append(r.seconds)
    return out


def _rate(records, kinds) -> float:
    """Completed operations of these kinds per second spent on them; failures excluded."""
    done = [r.seconds for r in records if r.kind in kinds and r.status == "ok"]
    return len(done) / sum(done) if done else 0.0


WORKLOADS = {w.name: w for w in (HalvingLadder, SquareTest, CurveSearch, CliTable1)}
