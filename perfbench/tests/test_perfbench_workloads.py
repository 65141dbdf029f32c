"""A tiny pass of every workload, the tracer, and the runner's refusal without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import purecubic as pc  # noqa: E402
import run  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, child_env  # noqa: E402

ENV = child_env(ROOT)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass(name):
    workload = WORKLOADS[name](seed=7, tiny=True)
    ops = workload.build(pc)
    records = []
    assert run.run_round(ops, records, run.RefClock(ENV), inproc=name == "cli-table1")
    failed = {r.kind for r in records if r.status != "ok"}
    assert failed == set(workload.faults) & {op.kind for op in ops}
    assert all(r.status == "failed" for r in records if r.kind in failed)
    assert workload.detail(run.median_of_rounds([records, records]))


def test_cli_cold_pass():
    ops = WORKLOADS["cli-table1"](seed=3).build(pc)
    records = []
    assert run.run_round(ops, records, run.RefClock(ENV))
    assert [r.status for r in records] == ["ok"] * len(ops)


def test_same_seed_same_inputs():
    a, b = WORKLOADS["square-test"](seed=11, tiny=True), WORKLOADS["square-test"](seed=11, tiny=True)
    assert (a.sqrts, a.stars, a.normnonsq) == (b.sqrts, b.stars, b.normnonsq)


def test_tracer_spans_nest_and_uninstall_restores():
    ops = WORKLOADS["square-test"](seed=5, tiny=True).build(pc)
    originals = (pc.star, pc.binsq.star, pc.mordell.rational_roots, pc.CubicElement.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert pc.mordell.rational_roots is not originals[2]
        assert run.run_round(ops, [], run.RefClock(ENV), tracer=tracer)
    finally:
        tracer.uninstall()
    assert (pc.star, pc.binsq.star, pc.mordell.rational_roots, pc.CubicElement.__mul__) == originals
    calls, self_s = tracer.self_times()
    assert calls["binsq.star"] and calls["arith.rational_roots"] and calls["field.CubicElement.mul"]
    assert set(calls) - {n for n in calls if n.startswith("bench.")} <= set(SPAN_NAMES)
    names = tracer.names
    # rational_roots is reached through mordell.halve, so its parent is a halve span
    for i in range(len(tracer.start)):
        if names[tracer.op[i]] == "arith.rational_roots":
            assert names[tracer.op[tracer.parent[i]]] == "mordell.halve"
    assert all(v >= 0 for v in self_s.values())


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "square-test", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_unreadable_output_is_a_wrong_answer():
    ops = [Op("oneshot", lambda: (0, "not json"), lambda res: json.loads(res[1]) == {})]
    records = []
    assert not run.run_round(ops, records, run.RefClock(ENV))
    assert records[0].status == "wrong"
