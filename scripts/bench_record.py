#!/usr/bin/env python3
"""Record a benchmark baseline: BENCH_<label>.json at the repository root.

    python3 scripts/bench_record.py --label NAME

Runs this checkout's perfbench/run.py, unedited, as a subprocess: for each
seed (505 and 11) and each workload, RUNS untraced runs of --seconds SECONDS
and one traced run.  The file keeps every run's result line (the last stdout
line) and per metric the median and quartiles over the untraced runs
(statistics.quantiles, inclusive method), the traced run's result line and
its counts, each run's report_sha256, and the run metadata: the commit
run.py reads, a sha256 over src/coapprox/*.py (the commit alone does not
name an uncommitted tree), the Python version, nproc, SECONDS and RUNS.
Every committed BENCH_*.json is recorded with these RUNS and SECONDS, so
that any two compare.
Standard library only; the runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (505, 11)
WORKLOADS = ("arrangement", "fiber", "solve_corpus")
RUNS = 10  # untraced runs per workload and seed; 5 left the quartiles too loose
SECONDS = 20  # perfbench/run.py --seconds, as BENCHMARK.json's run_seconds


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(detail line, result line) of one perfbench/run.py run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coapprox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    args = parser.parse_args(argv)

    out = {"label": args.label, "src_sha256": src_sha256(), "seconds": SECONDS,
           "runs": RUNS, "workloads": {}}
    for seed in SEEDS:
        for workload in WORKLOADS:
            results, digests = [], set()
            for _ in range(RUNS):
                detail, result = run(workload, seed, SECONDS, 0)
                results.append(result)
                digests.add(detail["report_sha256"])
            detail, traced = run(workload, seed, SECONDS, 1)
            digests.add(detail["report_sha256"])
            for key in ("git_commit", "python", "nproc", "src_coapprox_lines"):
                out.setdefault(key, detail[key])
            names = results[0]["metrics"]
            out["workloads"][f"{workload}@{seed}"] = {
                "workload": workload,
                "seed": seed,
                "report_sha256": sorted(digests),
                "correct": all(r["correct"] for r in (*results, traced)),
                "metrics": {k: summary([r["metrics"][k]["value"] for r in results]) for k in names},
                "traced_counts": {k: m["value"] for k, m in traced["metrics"].items()
                                  if m["unit"] == "count"},
                "untraced": results,
                "traced": traced,
            }
            row = out["workloads"][f"{workload}@{seed}"]["metrics"]["op_p90_ms"]
            print(f"{workload}@{seed}: op_p90_ms median {row['median']:.4f} "
                  f"(IQR {row['q1']:.4f}-{row['q3']:.4f})", file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
