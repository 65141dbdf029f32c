"""Benchmark of purecubic, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. One process runs one workload. It makes the inputs from the seed,
times set-up in fresh child processes, then runs whole rounds of the
workload's operations, one at a time (a closed loop with one caller),
until S seconds have passed and at least two rounds are done. Every
result is checked against the oracles in oracles.py outside the timed
region.

--trace 0 prints the end-to-end metrics, with no wrapper installed. The
round metrics are in units of a reference timed next to each operation
(see RefClock). --trace 1 runs rounds untraced for S/2 seconds, then the
same number of rounds with every layer wrapped, and prints the per-layer
metrics, per round; the spans go to perfbench/out/. The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the workload's own figures in
seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
MIN_ROUNDS = 2
REF_EVERY_S = 0.5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def setup_seconds(objects: dict, env: dict) -> float:
    """Median over fresh processes of: import purecubic, build the workload's objects."""
    spec = json.dumps(objects)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), spec],
                              env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return median(samples)


def import_seconds(env: dict) -> dict[str, float]:
    """Cumulative import time of purecubic and of mpmath, from -X importtime."""
    found: dict[str, list[float]] = {"purecubic": [], "mpmath": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import purecubic"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seen = {name: 0.0 for name in found}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name, value in seen.items():
            found[name].append(value)
    return {name: median(values) for name, values in found.items()}


def _passes(check, result) -> bool:
    """A result the check cannot even read (malformed output) is a wrong answer."""
    try:
        return bool(check(result))
    except (ValueError, TypeError, KeyError, AttributeError, IndexError):
        return False


def reference_loop() -> Fraction:
    """The unit of the normalised metrics: a fixed sum of 1000 Fractions, about 3 ms."""
    x = Fraction(1)
    for i in range(1, 1000):
        x += Fraction(1, i)
    return x


class RefClock:
    """Reference timings taken next to the operations.

    An operation's time is divided by a reference of the same kind taken
    just before it: for an in-process call, the median of three runs of
    ``reference_loop``, refreshed at most every REF_EVERY_S seconds; for a
    child process, one bare interpreter start (``python -c pass``). The
    ratio cancels the machine's speed, which on a shared host changes by
    up to 1.7x in phases of seconds to minutes, without touching what the
    program's own code costs.
    """

    def __init__(self, env: dict):
        self.env = env
        self.loop_s = 0.0
        self.loop_at = float("-inf")

    def loop(self, fresh: bool = False) -> float:
        if fresh or perf_counter() - self.loop_at > REF_EVERY_S:
            times = []
            for _ in range(3):
                t0 = perf_counter()
                reference_loop()
                times.append(perf_counter() - t0)
            self.loop_at = perf_counter()
            self.loop_s = median(times)
        return self.loop_s

    def start(self) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, capture_output=True,
                       timeout=CHILD_TIMEOUT_S, check=True)
        return perf_counter() - t0


def run_round(ops, records, ref: RefClock, tracer=None, inproc=False) -> bool:
    """Attempt every operation once, appending a Record each; False if an answer was wrong."""
    from workloads import Record

    correct = True
    for op in ops:
        child = op.inproc is not None and not inproc
        ref_s = ref.start() if child else ref.loop()
        call = op.inproc if inproc and op.inproc is not None else op.call
        if tracer is not None:
            call = tracer.wrap(f"bench.{op.kind}", call)
        error = None
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # the program's failure is the measurement
            error = f"{type(exc).__name__}: {exc}"[:300]
        seconds = perf_counter() - t0
        if not child and seconds > REF_EVERY_S:
            # a long operation gets the mean of the references on either side of it
            ref_s = (ref_s + ref.loop(fresh=True)) / 2
        if error is not None:
            status = "failed"
        elif _passes(op.check, result):
            status = "ok"
        elif op.fault is not None:
            status, error = "failed", f"wrong answer: {result!r}"[:300]
        else:
            status, error = "wrong", f"wrong answer: {result!r}"[:300]
            correct = False
        records.append(Record(op.kind, seconds, ref_s, status, error))
    return correct


def run_for(ops, seconds, records, rounds, min_rounds=1, **kw) -> bool:
    """Whole rounds until `seconds` of wall time have passed and `min_rounds` are done."""
    correct = True
    t_end = perf_counter() + seconds
    while True:
        start = len(records)
        ok = run_round(ops, records, **kw)
        rounds.append(records[start:])
        correct &= ok
        if perf_counter() >= t_end and len(rounds) >= min_rounds:
            return correct


def median_of_rounds(rounds):
    """Each operation's median over the rounds, with its status in the first round.

    Every round attempts the same operations, so position i is the same
    operation in each.
    """
    from workloads import Record

    return [Record(recs[0].kind, median(r.seconds for r in recs), median(r.ref_s for r in recs),
                   recs[0].status, recs[0].error)
            for recs in zip(*rounds)]


def in_ref(records, status=None) -> float:
    """Sum of each operation's time over the reference loop's time next to it."""
    return sum(r.seconds / r.ref_s for r in records if status is None or r.status == status)


def main(argv=None) -> int:
    from workloads import WORKLOADS, child_env

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "purecubic" / "__init__.py").is_file():
        print(f"error: no purecubic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = child_env(ROOT)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = setup_seconds(workload.objects, env)

    import purecubic as pc

    if Path(pc.__file__).resolve().parent != (ROOT / "src" / "purecubic").resolve():
        print(f"error: imported purecubic from {pc.__file__}, not from ./src", file=sys.stderr)
        return 2
    ops = workload.build(pc)
    records, rounds = [], []
    ref = RefClock(env)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        from spans import COUNTER_NAMES, SPAN_NAMES, Tracer

        inproc = args.workload == "cli-table1"
        correct = run_for(ops, args.seconds / 2, records, rounds, ref=ref, inproc=inproc)
        n = len(rounds)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(n):
                start = len(records)
                correct &= run_round(ops, records, ref, tracer=tracer, inproc=inproc)
                rounds.append(records[start:])
        finally:
            tracer.uninstall()
        untraced = median(sum(r.seconds for r in rnd) for rnd in rounds[:n])
        traced = median(sum(r.seconds for r in rnd) for rnd in rounds[n:])
        calls, self_s = tracer.self_times()
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name] / n, "count")
            metrics[f"{name}.self_s"] = (self_s[name] / n, "s")
        for name in COUNTER_NAMES:
            value = tracer.counts[name]
            metrics[name] = (value if name.endswith("max_coeff_digits") else value / n, "count")
        imports = import_seconds(env)
        metrics["cli.import.purecubic_s"] = (imports["purecubic"], "s")
        metrics["cli.import.mpmath_s"] = (imports["mpmath"], "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        detail = {}
    else:
        correct = run_for(ops, args.seconds, records, rounds, ref=ref, min_rounds=MIN_ROUNDS)
        rusage = resource.RUSAGE_CHILDREN if args.workload == "cli-table1" else resource.RUSAGE_SELF
        done = sum(r.status == "ok" for r in rounds[0])
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024, "MB"),
            "round_ref": (median(in_ref(rnd) for rnd in rounds), "ref"),
            "ok_ops_per_ref": (done / median(in_ref(rnd, "ok") for rnd in rounds), "1/ref"),
        }
        per_op = median_of_rounds(rounds)
        detail = {name: {"value": v, "unit": u} for name, (v, u) in workload.detail(per_op).items()}
        detail["reference_ms"] = {"value": median(r.ref_s for r in records) * 1e3, "unit": "ms"}

    failures = sorted({f"{r.kind}: {r.error}" for r in records if r.status != "ok"})
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.status == "failed" for r in records),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": len(rounds),
            "ops_per_round": len(ops), "figures": detail, "failures": failures}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
