"""scripts/bench_record.py's A/B pairing and summary, on stubbed result lines."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def _lines(side, workload, seed, k, trace):
    """A run's (detail, result) lines: the change does 10% more ops per
    second than "against" except in pair 3, and the same p50 throughout."""
    ops = 100.0 + k + (10.0 if side == "change" and k != 3 else 0.0)
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": 1.0, "unit": "ms"}}
    if trace:
        metrics = {"lp.pivots": {"value": 7 + (side == "change"), "unit": "count"},
                   "cli.main.self_s": {"value": 0.5, "unit": "s"}}
    detail = {"report_sha256": f"{workload}@{seed}", "git_commit": "x", "python": "3",
              "nproc": 1, "src_coapprox_lines": 1}
    return detail, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def _stub():
    calls = []

    def run_side(side, workload, seed, seconds, trace):
        k = sum(1 for c in calls if c[:3] == (side, workload, seed) and not c[3])
        calls.append((side, workload, seed, trace))
        return _lines(side, workload, seed, k, trace)

    return calls, run_side


def test_pairs_alternate_which_side_runs_first():
    calls, run_side = _stub()
    out = bench_record.ab_pairs(run_side, ("w1", "w2"), (505, 11), runs=4, seconds=0.1)
    assert list(out) == ["w1@505", "w2@505", "w1@11", "w2@11"]
    assert len(calls) == 4 * (2 * 4 + 2)
    first = calls[:10]  # w1@505: four pairs, swapped every other one, then a traced run each
    assert [c[0] for c in first] == ["against", "change", "change", "against"] * 2 + [
        "against", "change"]
    assert [c[3] for c in first] == [0] * 8 + [1, 1]
    assert all(c[1:3] == ("w1", 505) for c in first)
    assert out["w1@505"]["change"]["untraced"][0]["metrics"]["ops_per_s"]["value"] == 110.0


def test_summary_counts_pairs_won_and_the_gap_against_the_iqr():
    calls, run_side = _stub()
    both = bench_record.ab_pairs(run_side, ("w",), (505,), runs=10, seconds=0.1)["w@505"]
    against, change = both["against"], both["change"]
    assert against["metrics"]["ops_per_s"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert against["traced_counts"] == {"lp.pivots": 7}
    got = bench_record.compare(against, change, END_TO_END)
    ops = got["metrics"]["ops_per_s"]
    assert (ops["pairs"], ops["pairs_won"]) == (10, 9)  # pair 3 ties
    assert ops["median_gap"] == change["metrics"]["ops_per_s"]["median"] - 104.5
    assert ops["against_iqr"] == 4.5
    assert ops["relative_move"] == pytest.approx(-ops["median_gap"] / 104.5)  # < 0: better
    assert ops["bound"] == 0.25
    p50 = got["metrics"]["op_p50_ms"]
    assert (p50["pairs_won"], p50["median_gap"], p50["relative_move"]) == (0, 0.0, 0.0)
    assert got["report_sha256_equal"] is True
    assert got["traced_counts_differ"] == ["lp.pivots"]


def test_a_lower_is_better_metric_counts_a_fall_as_a_win():
    def side(values):
        return {"untraced": [{"metrics": {"op_p50_ms": {"value": v}}} for v in values],
                "metrics": {"op_p50_ms": bench_record.summary(values)},
                "report_sha256": ["a"], "traced_counts": {}}

    got = bench_record.compare(side([2.0, 2.0, 2.0, 2.0]), side([1.0, 3.0, 1.0, 1.0]),
                               END_TO_END[1:])["metrics"]["op_p50_ms"]
    assert got["pairs_won"] == 3
    assert got["relative_move"] == pytest.approx(-0.5)
