"""Tests of the benchmark itself: its input generators, its output checks,
its tracer and its agreement with BENCHMARK.json.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from metrics import END_TO_END, MOVES, PER_LAYER
from reference import Speed
from tracer import Tracer
from workloads import (
    WORKLOADS,
    bipartite_text,
    cycle_problem,
    induced_subgraph,
    witness_problem,
)

ROOT = Path(__file__).resolve().parent.parent
q = run.import_qube()


def build(name: str, seed: int, workdir: Path, seconds: float = 1):
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[name].build(seed, seconds, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return ops, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(tmp_path, name):
    a = build(name, 7, tmp_path / "a")
    b = build(name, 7, tmp_path / "b")
    assert a == b and a[0]
    assert build(name, 8, tmp_path / "c") != a


def test_corpus_cycles_are_valid(tmp_path):
    _, files = build("corpus", 3, tmp_path)
    for text in files.values():
        for line in text.splitlines():
            doc = json.loads(line)
            assert cycle_problem(doc["n"], doc["seq"]) is None
            q.cycles.validate_cycle(doc["n"], doc["seq"])


def test_enumerate_prefixes_are_simple_paths(tmp_path):
    ops, _ = build("enumerate", 3, tmp_path)
    prefixes = [op.args for op in ops if op.kind == "prefix"]
    assert prefixes
    for p in prefixes:
        assert len(p) == 14 and p[0] == 0 and len(set(p)) == 14
        assert all((a ^ b).bit_count() == 1 and a < 32 for a, b in zip(p, p[1:]))


def test_sample_pool_does_not_depend_on_the_seed(tmp_path):
    a, _ = build("sample", 1, tmp_path / "a")
    b, _ = build("sample", 2, tmp_path / "b")
    assert sorted(op.args for op in a) == sorted(op.args for op in b)


def test_equi_graph_files_are_the_induced_subgraphs(tmp_path):
    ops, _ = build("equi", 3, tmp_path)
    for op in ops:
        if op.kind.startswith("q"):
            path, _, vertices = op.args
            b = q.graphs.parse_bipartite((tmp_path / path).read_text())
            n0 = len(b.class0)
            assert all(v.bit_count() % 2 == 0 for v in vertices[:n0])
            assert all(v.bit_count() % 2 == 1 for v in vertices[n0:])
            for u in range(len(vertices)):
                for w in range(len(vertices)):
                    adjacent = (vertices[u] ^ vertices[w]).bit_count() == 1
                    assert b.graph.adj[u] >> w & 1 == adjacent


def test_prefix_counts_agree_without_prunes(tmp_path):
    ops, _ = build("enumerate", 5, tmp_path)
    prefixes = [op.args for op in ops if op.kind == "prefix"][:3]
    none = q.enumeration.PruneConfig.none()
    for p in prefixes:
        pruned = [h.seq for h in q.enumeration.enumerate_cycles(5, prefix=p)]
        unpruned = [h.seq for h in q.enumeration.enumerate_cycles(5, none, prefix=p)]
        assert pruned == unpruned


def test_small_equi_instances_match_brute_force():
    rng = random.Random(11)
    for _ in range(6):
        vertices, n0 = induced_subgraph(6, 14, rng)
        b = q.graphs.parse_bipartite(bipartite_text(6, vertices, n0))
        expected = q.independence.brute_force_equi(b)
        for method in ("direct", "reduction"):
            size, witness = q.independence.equi_independence(b, method=method)
            assert size == expected
            assert witness_problem([vertices[k] for k in witness], size) is None


def test_checks_catch_wrong_outputs(tmp_path):
    enum = WORKLOADS["enumerate"]
    ops, _ = build("enumerate", 5, tmp_path)
    op = next(o for o in ops if o.kind == "prefix" and list(q.enumeration.enumerate_cycles(5, prefix=o.args)))
    good = enum.run(q, op)
    assert enum.check(op, good)[1] == []
    seq, _ = good[0]
    assert enum.check(op, [(seq, False)])[1]  # no square reported
    assert enum.check(op, [(seq[:1] + seq[:0:-1], True)])[1]  # not canonical
    assert enum.check(op, good + good[:1])[1]  # duplicate
    assert enum.check(ops[0], (0, '{"n": 4, "count": 1343}\n'))[1]
    assert witness_problem([0, 3, 5, 6], 4) == "witness is not balanced"
    assert witness_problem([0, 1], 2) == "witness is not independent"


def test_tracer_wraps_and_restores():
    original = q.cli.check_balance
    tracer = Tracer()
    tracer.install()
    try:
        assert q.cli.check_balance is not original
        assert q.cycles.check_balance is q.cli.check_balance
        h = q.cycles.gray_cycle(4)
        assert q.cli.check_balance(h, 0)
        list(q.enumeration.enumerate_cycles(3))
    finally:
        tracer.uninstall()
    assert q.cli.check_balance is original
    agg = tracer.by_name()
    assert agg["cycles.check_balance"]["calls"] == 1
    assert agg["cycles.dimension_profile"]["calls"] == 1
    assert agg["enumeration.enumerate_cycles"]["items"] == 6
    assert tracer.counts["hypercube.edge_dim"] > 0
    for span in tracer.spans:
        assert span[2] >= span[1] and tracer.self_seconds(span) >= -1e-9


def test_speed_scales_by_the_nearest_reference_samples():
    speed = Speed()
    speed.samples = [(0.01, 4), (0.06, 20), (0.03, 20), (0.005, 2)]
    assert speed.slowdown == pytest.approx(0.105 / 46 / 0.0025)
    assert speed.local_slowdown(0) == pytest.approx(0.07 / 24 / 0.0025)  # nothing before
    assert speed.local_slowdown(2) == pytest.approx((0.003 + 0.0015) / 2 / 0.0025)
    speed.sample(0.0)
    assert speed.samples[-1][1] == 1


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(name):
    for trace, expected in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert "failed_ratio 0.0000" in proc.stderr
        assert json.loads(lines[-2])["provenance"]["seed"] == 1
        for metric in expected:
            assert metric in proc.stderr


@pytest.mark.parametrize("name", ["corpus", "enumerate"])
def test_count_metrics_repeat_exactly(name):
    counts = []
    for _ in range(2):
        proc = bench("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(("calls_per_cycle", "squares_per_cycle", ".calls"))})
    assert counts[0] == counts[1]
    assert counts[0]["hypercube.edge_dim.calls_per_cycle"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in MOVES.items()
    ]
    for name, (_, _, moves) in MOVES.items():
        assert moves or name == "trace.overhead_ratio"
        for metric, workload in moves:
            assert metric in END_TO_END and workload in WORKLOADS
