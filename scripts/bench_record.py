#!/usr/bin/env python3
"""Record an A/B benchmark of this checkout against a commit.

    python3 scripts/bench_record.py --against REV --label NAME

REV is checked out into a temporary git worktree, and the two trees,
"against" (REV) and "change" (this checkout), each run their own
perfbench/run.py, unedited, as a subprocess: for each seed (505 and 11)
and each workload, RUNS pairs of untraced runs of --seconds SECONDS, the
side that runs first swapping each pair so that the host's drift falls
on both sides alike, then one traced run per side.  Each side's bytecode
lives under its own PYTHONPYCACHEPREFIX, empty at first, so neither starts
from the checkout's __pycache__.  To record one tree, run --against HEAD
on a clean checkout: that A/A record's pairs won and median gap against
the IQR show the host's noise.

BENCH_<label>.json, at the repository root, keeps per side, workload and
seed every run's result line (the last stdout line), per metric the
median and quartiles over the untraced runs (statistics.quantiles,
inclusive method), the traced run's result line and counts, and every
report_sha256; per side the commit and a sha256 over src/coapprox/*.py
(the commit alone does not name an uncommitted tree); the Python version,
nproc, SECONDS and RUNS, which every committed BENCH_*.json shares so that
any two compare; and per end-to-end metric of BENCHMARK.json both medians
and quartiles, the pairs the change won, the median gap against the REV
side's interquartile range and the relative move against the metric's
bound.  It names any report_sha256 or traced count the sides differ in.
Standard library only; the runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (505, 11)
WORKLOADS = ("arrangement", "fiber", "solve_corpus")
RUNS = 10  # untraced runs per workload and seed; 5 left the quartiles too loose
SECONDS = 20  # perfbench/run.py --seconds, as BENCHMARK.json's run_seconds
SIDES = ("against", "change")


def run(tree: Path, pycache: Path, workload: str, seed: int, seconds: float, trace: int):
    """(detail, result) lines of one perfbench/run.py run in `tree`, bytecode in `pycache`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env={**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)},
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def src_sha256(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "coapprox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def record(workload: str, seed: int, runs: list[tuple[dict, dict]], traced: tuple[dict, dict]) -> dict:
    """One side's record of a workload and seed from its (detail, result) lines."""
    results = [result for _, result in runs]
    return {
        "workload": workload,
        "seed": seed,
        "report_sha256": sorted({detail["report_sha256"] for detail, _ in (*runs, traced)}),
        "correct": all(r["correct"] for r in (*results, traced[1])),
        "metrics": {k: summary([r["metrics"][k]["value"] for r in results])
                    for k in results[0]["metrics"]},
        "traced_counts": {k: m["value"] for k, m in traced[1]["metrics"].items()
                          if m["unit"] == "count"},
        "untraced": results,
        "traced": traced[1],
    }


def compare(against: dict, change: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, the pairs (run k of each side) the change won,
    the median gap against the REV side's IQR, and the relative move (> 0
    is worse) against the bound; plus the digests and counts that differ."""
    out = {"metrics": {}}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        a = [r["metrics"][name]["value"] for r in against["untraced"]]
        c = [r["metrics"][name]["value"] for r in change["untraced"]]
        ma, mc = against["metrics"][name], change["metrics"][name]
        out["metrics"][name] = {
            "better": spec["better"],
            "against": ma,
            "change": mc,
            "pairs": len(a),
            "pairs_won": sum(sign * (y - x) > 0 for x, y in zip(a, c)),
            "median_gap": mc["median"] - ma["median"],
            "against_iqr": ma["q3"] - ma["q1"],
            "relative_move": sign * (ma["median"] - mc["median"]) / ma["median"],
            "bound": spec["bound"],
        }
    counts_a, counts_c = against["traced_counts"], change["traced_counts"]
    out["report_sha256_equal"] = against["report_sha256"] == change["report_sha256"]
    out["traced_counts_differ"] = sorted(k for k in counts_a.keys() | counts_c.keys()
                                         if counts_a.get(k) != counts_c.get(k))
    return out


def ab_pairs(run_side, workloads, seeds, runs: int, seconds: float) -> dict:
    """`runs` alternating pairs and one traced run per side for each
    workload and seed: pair k runs "against" first when k is even.
    run_side(side, workload, seed, seconds, trace) -> (detail, result)."""
    out = {}
    for seed in seeds:
        for workload in workloads:
            lines = {side: [] for side in SIDES}
            for k in range(runs):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    lines[side].append(run_side(side, workload, seed, seconds, 0))
            traced = {side: run_side(side, workload, seed, seconds, 1) for side in SIDES}
            out[f"{workload}@{seed}"] = {
                side: record(workload, seed, lines[side], traced[side]) for side in SIDES}
    return out


def record_against(rev: str, label: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        base = Path(tmp) / "tree"
        git(ROOT, "worktree", "add", "--detach", str(base), rev)
        try:
            trees = {"against": base, "change": ROOT}
            pairs = ab_pairs(lambda side, *a: run(trees[side], Path(tmp) / side, *a),
                             WORKLOADS, SEEDS, RUNS, SECONDS)
            sides = {side: {"git_commit": git(tree, "rev-parse", "HEAD"),
                            "src_sha256": src_sha256(tree)} for side, tree in trees.items()}
        finally:
            git(ROOT, "worktree", "remove", "--force", str(base))
    out = {"label": label, "against": rev, "sides": sides, "seconds": SECONDS, "runs": RUNS,
           "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "workloads": {}}
    for key, both in pairs.items():
        out["workloads"][key] = {**both, "compare": compare(both["against"], both["change"],
                                                             spec["end_to_end"])}
        row = out["workloads"][key]["compare"]["metrics"]["ops_per_s"]
        print(f"{key}: ops_per_s {row['against']['median']:.1f} -> {row['change']['median']:.1f}"
              f" ({row['pairs_won']}/{row['pairs']} pairs won)", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--against", metavar="REV", required=True,
                        help="A/B pairs against this commit (HEAD for an A/A record)")
    args = parser.parse_args(argv)

    out = record_against(args.against, args.label)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
