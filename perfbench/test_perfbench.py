"""Tests of the benchmark itself:

    PYTHONPATH=src python3 -m pytest perfbench -q

They check that work counts repeat exactly for a seed, that
``solve_corpus`` draws from the criterion-5 instance stream, that the
output checks reject wrong reports, and that a run prints the result
line ``BENCHMARK.json`` promises.
"""
from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@pytest.fixture(scope="module")
def mods():
    return run.fresh_import()


def _traced_counts(mods, ops) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        run.run_round(ops, range(len(ops)), lambda op: tracer.wrap(run.ROOT_SPAN, op.call), None, set())
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, run.ROOT_SPAN, 1.0, 1.0)
    return {name: metrics[name][0] for name in COUNT_METRICS}, metrics["trace.coverage"][0]


def _subset(workload, name: str):
    ops = workload.ops
    if name == "solve_corpus":  # the first light ops plus one brute-force op
        heavy = next(op for op in ops if op.stratum.startswith("3/4/"))
        return ops[:5] + [heavy]
    return ops[:6]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(mods, tmp_path, name):
    runs, coverage = [], []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        select, setup = workloads.WORKLOADS[name]
        workload = setup(mods, 11, workdir, select(mods, 11) if select else None)
        counts, covered = _traced_counts(mods, _subset(workload, name))
        runs.append(counts)
        coverage.append(covered)
    assert runs[0] == runs[1]
    assert min(coverage) >= 0.9  # layer spans, not entry points, hold the time
    assert runs[0]["trace.ops"] == 6
    if name == "fiber":  # norming and the oracle stay out of fiber ops
        assert runs[0]["norming.enumerate_cells.calls"] == runs[0]["oracle.bj_checks"] == 0


def test_solve_corpus_follows_criterion_5_stream(mods):
    # The loop of tests/test_acceptance.py::test_criterion_5_oracle_agreement.
    rng = random.Random(505)
    expected = []
    for _ in range(12):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 0, 1, 2)), n - m)
        basis = mods.instances.random_basis(rng, n, m, zero_rows=zero_rows)
        b = mods.instances.random_vector(rng, n)
        expected.append((basis.matrix, b))
    stream = workloads.criterion5_stream(mods, 505)
    assert [(basis.matrix, b) for _, _, _, basis, b in (next(stream) for _ in range(12))] == expected
    chosen = workloads.select_corpus(mods, 505)
    indices = [index for index, _ in chosen]
    assert indices == sorted(set(indices)) and len(chosen) == sum(workloads.CORPUS_QUOTAS.values())
    # In stream order, only grid ops (m = 3) outside the n = 4 quota are skipped.
    stream = workloads.criterion5_stream(mods, 505)
    skipped = [(n, m) for index, (n, m, *_) in zip(range(12), stream) if index not in indices]
    assert all(m == 3 and n != 4 for n, m in skipped)


def test_checks_reject_wrong_reports(mods, tmp_path):
    workload = workloads.setup_arrangement(mods, 3, tmp_path)
    norming_op, classify_op = workload.ops[:2]
    result = norming_op.call()
    assert norming_op.check(result) is None
    assert classify_op.check(classify_op.call()) is None
    report = json.loads(result[1])
    bad = copy.deepcopy(report)
    bad["cells"][0]["witness"] = ["0"] * len(bad["cells"][0]["witness"])
    assert "strictly inside" in workloads._check_norming_set(bad, report["m"], report["n"],
                                                             len(report["hyperplanes"]), {})
    assert norming_op.check((2, "", "coapprox norming-set: bad")).startswith("exit code 2")
    solve = {"m": 2, "n": 3, "targets": [
        {"outcome": "not-exists", "brute_force": {"exists": True, "grid_points": 441}}]}
    assert workloads._check_solve(solve, 2, 3) == "brute-force grid found a solution"


def test_run_prints_the_promised_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "arrangement",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["lp.lex.calls"] == 0
    assert all(v == 0 for k, v in metrics.items() if k.startswith("oracle."))
