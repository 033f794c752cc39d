#!/usr/bin/env python3
"""Benchmark of the coapprox package, run from the repository root:

    python3 perfbench/run.py --workload arrangement|fiber|solve_corpus \\
        --seed N --seconds S --trace 0|1

Single process, single thread, closed loop (one caller, next op after the
previous one returns).  Set-up (import, instance generation, problem
files, and for ``fiber`` the prepared subspaces) runs ``SETUPS`` times and
the median is ``setup_s``; choosing ``solve_corpus``'s instances solves
them, so that runs once before.  With ``--trace 0`` the op list is timed
in rounds, ``--seconds`` / ``round_s`` of them (``round_s`` is the
workload's nominal time per round), each pinned to the next CPU this
process may use.  Ops marked ``repeat=False`` (the brute-force grid ops
of ``solve_corpus``) are timed in the first round only.  Every timing is
divided by the time of a fixed reference computation measured just
before and after it and scaled by ``REFERENCE_S``, so that the speed of
the host, which drifts by up to 2x within a minute on a shared virtual
machine, divides out.  An op's latency is its fastest scaled round;
``ops_per_s`` is ops per summed latency.  The unscaled figures are in the
detail line under ``raw``.  Every end-to-end metric is printed.  With
``--trace 1`` exactly one untraced and one traced round run on one CPU,
so every work count is exact for the seed, and the per-layer metrics are
printed.

Every op's output is checked after the timed loop; repeats of an op must
give byte-identical output.  The last stdout line is the JSON result;
the line before it holds run metadata, the report digest and failures.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
MIN_OPS = 100
MIN_ROUNDS = 2
# Every timing is divided by the time of ``reference()`` measured just
# before and just after it, and multiplied by REFERENCE_S, about the
# fastest time of ``reference()`` on a 2-vCPU virtual machine (Python
# 3.11.7), so that scaled times read as times on that machine at its
# fastest.
REFERENCE_S = 0.0031
# No round starts after DEADLINE_FACTOR * --seconds of measuring, so
# that a run on a very slow host still ends in time.
DEADLINE_FACTOR = 3
ROOT_SPAN = "op"


def fresh_import() -> SimpleNamespace:
    """Import coapprox from this checkout's src/, dropping any earlier
    import first so that each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "coapprox" or n.startswith("coapprox.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = importlib.import_module("coapprox")
    if not Path(api.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"coapprox imported from {api.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"coapprox.{name}")
            for name in ("cli", "exact", "instances", "subspace")}
    return SimpleNamespace(api=api, **mods)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    src_files = sorted((SRC / "coapprox").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_coapprox_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def reference() -> list:
    """Fixed exact-rational work, the yardstick every timing is divided
    by: Gauss-Jordan elimination of a 9x9 system over Fraction, the same
    kind of work as the program's LP pivots, but no code of the program."""
    n = 9
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)]
         for i in range(n)]
    for c in range(n):
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n] for row in a]


def time_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def run_round(ops, indices, call_of, first_canon, failed_ops):
    """Time ops[k] once for each k in indices, in order, with the
    reference timed before the first op and after every op; return op
    latencies, the surrounding reference times (one more than ops),
    results and the number of failed executions.

    A failed execution raised, failed its check in the first round, or
    gave output that differs from the first round.
    """
    times, refs, results, failed = [], [time_reference()], [], 0
    for k in indices:
        op = ops[k]
        call = call_of(op)
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # reported as a failed op, never dropped
            result = exc
        times.append(perf_counter() - start)
        refs.append(time_reference())
        results.append(result)
        if first_canon is not None:
            if k in failed_ops or isinstance(result, Exception) or op.canon(result) != first_canon[k]:
                failed += 1
    return times, refs, results, failed


def check_first_round(workload, results) -> tuple[list[str], set[int], list[str]]:
    """Checks on the first round: returns canonical reports, failed op
    indices and failure messages (op label: reason)."""
    canon, failed, messages = [], set(), []
    for k, (op, result) in enumerate(zip(workload.ops, results)):
        if isinstance(result, Exception):
            reason = "raised " + "".join(traceback.format_exception_only(result)).strip()
            canon.append(reason)
        else:
            canon.append(op.canon(result))
            try:
                reason = op.check(result)
            except Exception as exc:  # a malformed report fails its op
                reason = f"check raised {exc!r}"
        if reason is not None:
            failed.add(k)
            messages.append(f"{op.label}: {reason}")
    return canon, failed, messages


def digest(canon: list[str]) -> str:
    h = hashlib.sha256()
    for text in canon:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def quantile_ms(times: list[float], q: int) -> float:
    """q-th percentile in ms (statistics.quantiles, exclusive method)."""
    return 1000 * statistics.quantiles(times, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = metadata()
    try:
        mods = fresh_import()
    except ImportError as exc:
        print(f"perfbench: cannot import coapprox from {SRC}: {exc}", file=sys.stderr)
        return 2

    select, setup = WORKLOADS[args.workload]
    selection = select(mods, args.seed) if select else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup_times, setup_refs = [], [time_reference()]
        for k in range(SETUPS):
            workdir = Path(tmp) / f"setup{k}"
            workdir.mkdir()
            start = perf_counter()
            mods = fresh_import()
            workload = setup(mods, args.seed, workdir, selection)
            setup_times.append(perf_counter() - start)
            setup_refs.append(time_reference())
        ops = workload.ops
        if len(ops) < MIN_OPS:  # p90 needs 10 samples beyond it
            raise SystemExit(f"perfbench: {args.workload} has {len(ops)} ops, needs {MIN_OPS}")
        gc.collect()

        direct = lambda op: op.call  # noqa: E731
        every = range(len(ops))
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})  # trace mode stays on this CPU
        measure_start = perf_counter()
        times, refs, results, _ = run_round(ops, every, direct, None, set())
        canon, failed_ops, failures = check_first_round(workload, results)
        failed = len(failed_ops)
        for list_check in workload.list_checks:
            reason = list_check(ops, results)
            if reason is not None:
                failures.append(f"op list: {reason}")
        del results

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, _, more_failed = run_round(
                    ops, every, lambda op: tracer.wrap(ROOT_SPAN, op.call), canon, failed_ops)
            finally:
                tracer.uninstall()
            failed += more_failed
            attempted = 2 * len(ops)
            rounds = 2
            metrics = layer_metrics(tracer, ROOT_SPAN, sum(times), sum(traced))
        else:
            samples = [[(t, r0, r1)] for t, r0, r1 in zip(times, refs, refs[1:])]
            again = [k for k in every if ops[k].repeat]
            rounds = 1
            wanted = max(MIN_ROUNDS, round(args.seconds / workload.round_s))
            deadline = measure_start + DEADLINE_FACTOR * args.seconds
            while rounds < wanted and perf_counter() < deadline:
                os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
                more, refs, _, more_failed = run_round(ops, again, direct, canon, failed_ops)
                for k, t, r0, r1 in zip(again, more, refs, refs[1:]):
                    samples[k].append((t, r0, r1))
                failed += more_failed
                rounds += 1
            attempted = sum(len(s) for s in samples)
            per_op = [REFERENCE_S * min(2 * t / (r0 + r1) for t, r0, r1 in s) for s in samples]
            raw_op = [min(t for t, _, _ in s) for s in samples]
            per_setup = [REFERENCE_S * 2 * t / (r0 + r1)
                         for t, r0, r1 in zip(setup_times, setup_refs, setup_refs[1:])]
            metrics = {
                "setup_s": (statistics.median(per_setup), "s"),
                "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
                "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
                "op_p90_ms": (quantile_ms(per_op, 90), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            raw = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(raw_op) / sum(raw_op),
                "op_p50_ms": 1000 * statistics.median(raw_op),
                "op_p90_ms": quantile_ms(raw_op, 90),
                "reference_ms_median": 1000 * statistics.median(
                    r for s in samples for _, r, _ in s),
            }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(ops),
        "rounds": rounds,
        "samples": attempted,
        "error_rate": failed / attempted,
        "setup_s_all": setup_times,
        "raw": None if args.trace else raw,
        "report_sha256": digest(canon),
        "failures": failures[:20],
        "notes": workload.notes,
        **meta,
    }
    if args.trace:
        detail["self_s_top"] = sorted(
            ([k, round(v, 6)] for k, v in tracer.self_time.items()), key=lambda kv: -kv[1])[:12]
        detail["callers"] = {
            f"{parent}>{child}": n for (parent, child), n in sorted(
                tracer.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12}  {name:<42} {value:>14.6g} {unit}")
    print(f"{args.workload:>12}  {'error_rate':<42} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
