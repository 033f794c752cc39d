"""The three seeded workloads: inputs, timed operations and output checks.

Each workload's ``setup(mods, seed, workdir, selection)`` builds its
inputs from the seed alone, writes any problem files under ``workdir``
and returns the op list.  An op is timed on its own; its check runs after
the timed loop and returns a failure message or ``None``.  The program
is reached only through ``mods`` (the freshly imported ``coapprox``
modules) and only by attribute lookup at call time, so the tracer can
wrap the public functions without the workloads knowing.

Why these three (see also ``BENCHMARK.json`` and ``README.md``):

- ``arrangement`` is all cell enumeration (margin LPs) and never reaches
  the solver or the oracle;
- ``fiber`` is the cached many-targets path: minimax and lex-extreme LPs
  against prepared subspaces, with norming only in set-up;
- ``solve_corpus`` is the criterion-5 reference corpus through the CLI,
  dominated by the brute-force grid on ``not-exists`` targets.

Each op list has a fixed composition (shapes, outcome strata), so seeds
change the entries but not the mix, and figures from different seeds
are comparable.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


@dataclass
class Op:
    """One timed operation and its untimed checks."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    canon: Callable[[Any], str]
    stratum: str = ""
    repeat: bool = True  # timed in every round, or in the first only


@dataclass
class Workload:
    ops: list[Op]
    round_s: float  # nominal seconds of one round; --seconds sets the rounds
    # Checks over the first round's results (in op order); each returns
    # a failure message or None.
    list_checks: list[Callable[[list[Op], list[Any]], str | None]] = field(
        default_factory=list
    )
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- helpers


def _proportional(u, v) -> bool:
    return all(
        u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u))
    )


def _directions(rng: random.Random, mods, m: int, r: int, lo: int, hi: int):
    """r pairwise non-proportional nonzero integer rows of rank m."""
    while True:
        rows: list[tuple[int, ...]] = []
        while len(rows) < r:
            v = tuple(rng.randint(lo, hi) for _ in range(m))
            if any(v) and not any(_proportional(v, w) for w in rows):
                rows.append(v)
        if mods.exact.rank([tuple(Fraction(x) for x in row) for row in rows]) == m:
            return rows


def _problem_doc(rows, targets=()) -> dict:
    m = len(rows[0])
    doc = {
        "n": len(rows),
        "basis": [[str(row[j]) for row in rows] for j in range(m)],
    }
    if targets:
        doc["targets"] = [
            {"name": f"b{k + 1}", "vector": [str(x) for x in t]}
            for k, t in enumerate(targets)
        ]
    return doc


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cli_call(mods, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_canon(result) -> str:
    code, out, err = result
    return f"exit={code}\n{out}{err}"


def _cli_report(result) -> tuple[dict | None, str | None]:
    code, out, err = result
    if code != 0:
        return None, f"exit code {code}: {err.strip()}"
    return json.loads(out), None


# ----------------------------------------------------------- arrangement

# (m, distinct hyperplanes r); each subspace gets two proportional extra
# rows, so n = r + 2 <= 8.  Entries in [-2, 2] make proportional rows and
# non-simple arrangements (three planes through a line) common.  Op time
# follows the shape (about 20% spread within one), so a fixed shape mix
# keeps seeds comparable.
ARRANGEMENT_SHAPES = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4))
ARRANGEMENT_COPIES = 9
ARRANGEMENT_EXTRA_ROWS = 2
ARRANGEMENT_ROUND_S = 5.0


def _arrangement_rows(rng, mods, m: int, r: int):
    directions = _directions(rng, mods, m, r, -2, 2)
    rows = list(directions)
    for _ in range(ARRANGEMENT_EXTRA_ROWS):
        c = rng.choice((-2, -1, 2))
        rows.append(tuple(c * x for x in rng.choice(directions)))
    rng.shuffle(rows)
    return rows


def _check_norming_set(report: dict, m: int, n: int, r: int, shared: dict) -> str | None:
    if (report["m"], report["n"], report["zero_set"]) != (m, n, []):
        return "envelope m/n/zero_set does not match the generated subspace"
    planes = [[Fraction(x) for x in h] for h in report["hyperplanes"]]
    if len(planes) != r:
        return f"{len(planes)} hyperplanes, generated {r} distinct directions"
    cells = report["cells"]
    if len(cells) != len(report["representatives"]):
        return "cell count differs from representative count"
    for k, cell in enumerate(cells):
        w = [Fraction(x) for x in cell["witness"]]
        for s, h in zip(cell["signs"], planes, strict=True):
            if s * sum(a * b for a, b in zip(h, w, strict=True)) <= 0:
                return f"cell {k}: witness not strictly inside its cell"
    q = report["q"]
    if not m <= q <= r:
        return f"rank sandwich violated: m={m} q={q} d={r}"
    shared["q"] = q
    return None


def _check_classify(report: dict, m: int, r: int, shared: dict) -> str | None:
    q, d = report["q"], report["d"]
    if report["zero_set_size"] != 0 or report["zero_set"]:
        return "zero set reported for a zero-set-free subspace"
    if d != r or not m <= q <= d:
        return f"rank sandwich violated: m={m} q={q} d={d} (generated d={r})"
    if shared.get("q") != q:
        return f"classify q={q} differs from norming-set q={shared.get('q')}"
    if report["coproximinal"] != (q == m):
        return "coproximinal flag disagrees with q == m"
    if report["co_chebyshev"] != report["coproximinal"]:
        return "co_chebyshev flag disagrees with coproximinal on an empty zero set"
    return None


def _cli_check(inner):
    def check(result):
        report, err = _cli_report(result)
        return err if err is not None else inner(report)

    return check


def setup_arrangement(mods, seed: int, workdir: Path, selection=None) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    k = 0
    for _ in range(ARRANGEMENT_COPIES):
        for m, r in ARRANGEMENT_SHAPES:
            rows = _arrangement_rows(rng, mods, m, r)
            n = len(rows)
            path = _write(workdir / f"arr{k:03d}.json", _problem_doc(rows))
            shared: dict = {}
            ops.append(Op(
                f"norming-set:arr{k:03d}",
                _cli_call(mods, ["norming-set", "--input", path]),
                _cli_check(lambda rep, m=m, n=n, r=r, s=shared: _check_norming_set(rep, m, n, r, s)),
                _cli_canon,
            ))
            ops.append(Op(
                f"classify:arr{k:03d}",
                _cli_call(mods, ["classify", "--input", path]),
                _cli_check(lambda rep, m=m, r=r, s=shared: _check_classify(rep, m, r, s)),
                _cli_canon,
            ))
            k += 1
    return Workload(ops, ARRANGEMENT_ROUND_S)


# ------------------------------------------------------------------ fiber

# (m, distinct hyperplanes r, zero rows); entries in [-4, 4] keep the
# arrangements mostly simple, so the minimax LP size follows the shape.
# Op time follows the outcome (not-exists < unique < polytope, a third of
# the ops each), so p50 and p90 fall inside the unique and polytope
# groups.  An m = 3 subspace would make a few ops several times slower
# and put p90 at the edge of that small group.
FIBER_SUBSPACES = ((2, 4, 1),) * 6 + ((2, 5, 2),) * 6
FIBER_ROUND_S = 4.0
FIBER_BASES = 3  # off-Z target parts per subspace
# Zero-set mass as a multiple of delta0: below (not-exists), at (the
# minimax face, generically one point: unique) and above (polytope).
FIBER_SLACKS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))


def _fiber_subspace(rng, mods, m: int, r: int, zr: int):
    """A subspace with zero set of size zr that is not coproximinal, so
    fiber targets below the critical mass have no solution."""
    while True:
        rows = _directions(rng, mods, m, r, -4, 4) + [(0,) * m] * zr
        rng.shuffle(rows)
        matrix = tuple(tuple(Fraction(x) for x in row) for row in rows)
        basis = mods.subspace.validate_basis(matrix)
        pb = mods.api.prepare(basis)
        if pb.norming.span_dim > m:
            return rows, basis, pb


def _fiber_target(rng, zero_set, b0, mass: Fraction):
    b = list(b0)
    if len(zero_set) == 1:
        b[zero_set[0]] = rng.choice((-1, 1)) * mass
    else:
        first = mass / 3
        b[zero_set[0]] = rng.choice((-1, 1)) * first
        b[zero_set[1]] = rng.choice((-1, 1)) * (mass - first)
    return tuple(b)


def _fiber_call(mods, pb, b):
    def call():
        api = mods.api
        outcome = api.solve_general(pb.basis, None, b, prepared=pb)
        threshold = api.existence_threshold(pb.basis, None, b, prepared=pb)
        return outcome, threshold

    return call


def _fmt(v) -> list[str] | None:
    return None if v is None else [str(x) for x in v]


def _fiber_canon(result) -> str:
    outcome, th = result
    doc = {
        "outcome": outcome.kind.value,
        "coefficients": _fmt(outcome.coefficients),
        "witness": _fmt(outcome.witness),
        "vector": _fmt(outcome.vector),
        "delta0": str(th.delta0),
        "minimizing_alpha": _fmt(th.minimizing_alpha),
    }
    if outcome.constraints is not None:
        doc["constraints"] = {
            "rows": [_fmt(row) for row in outcome.constraints.rows],
            "rhs": _fmt(outcome.constraints.rhs),
            "slack": str(outcome.constraints.slack),
        }
    return json.dumps(doc, sort_keys=True)


def _fiber_check(mods, basis, b, slack: Fraction, delta0: Fraction):
    def check(result):
        outcome, th = result
        kind = outcome.kind.value
        if th.delta0 != delta0:
            return f"delta0 {th.delta0} differs from the set-up value {delta0}"
        if kind == "not-exists":
            # No oracle-free evidence exists for not-exists yet; only the
            # solver's own consistency (slack below delta0) is checked.
            return None if slack < delta0 else f"not-exists at slack {slack} >= delta0 {delta0}"
        if slack < delta0:
            return f"{kind} at slack {slack} < delta0 {delta0}"
        verdict = mods.api.verify_best_coapprox(basis, b, outcome.chosen_alpha)
        return None if verdict.confirmed else "oracle refuted the returned solution"

    return check


def _all_outcomes(ops, results) -> str | None:
    seen = {r[0].kind.value for r in results if isinstance(r, tuple)}
    missing = {"unique", "polytope", "not-exists"} - seen
    return f"op list lacks outcomes {sorted(missing)}" if missing else None


def setup_fiber(mods, seed: int, workdir: Path, selection=None) -> Workload:
    rng = random.Random(seed)
    api = mods.api
    ops: list[Op] = []
    for k, (m, r, zr) in enumerate(FIBER_SUBSPACES):
        rows, basis, pb = _fiber_subspace(rng, mods, m, r, zr)
        # Problem files are written as the user would keep them; the
        # ops themselves reuse the prepared basis.
        _write(workdir / f"fiber{k:02d}.json", _problem_doc(rows))
        zero_set = pb.profile.zero_set
        bases = 0
        while bases < FIBER_BASES:
            b0 = tuple(
                Fraction(0) if i in zero_set else Fraction(rng.randint(-5, 5))
                for i in range(basis.n)
            )
            delta0 = api.existence_threshold(basis, None, b0, prepared=pb).delta0
            if delta0 == 0:
                continue
            bases += 1
            for factor in FIBER_SLACKS:
                slack = factor * delta0
                b = _fiber_target(rng, zero_set, b0, slack)
                ops.append(Op(
                    f"fiber{k:02d}:t{len(ops)}",
                    _fiber_call(mods, pb, b),
                    _fiber_check(mods, basis, b, slack, delta0),
                    _fiber_canon,
                ))
    return Workload(
        ops,
        FIBER_ROUND_S,
        list_checks=[_all_outcomes],
        notes=["not-exists targets have no oracle-free check yet; only slack < delta0 is checked"],
    )


# ------------------------------------------------------------ solve_corpus

GRID_ARGS = ["--grid-radius", "5", "--grid-step", "1/2"]
CORPUS_ROUND_S = 7.0

# Quotas per stratum of the criterion-5 stream.  Not-exists targets with
# m = 3 go through the brute-force grid (about 90% of the time), so they
# are one stratum per n; the rest are strata by m.  Instances are taken in
# stream order until every quota is full, which fixes the mix (and so the
# latency tail) across seeds.  The stream's own shares, per 100 of its
# first 500 instances (seeds 505 and 401): m = 1 49, m = 2 30, m = 3
# solvable 5-6, grid ops 17, 5-7 for each n in 4..6.  Here the grid ops
# are 14 and all have n = 4, the cheapest grid (about 1 s against 1.4 s
# and 1.9 s for n = 5, 6), so that a run keeps to its time.  p90 then
# lies between the 4th and 5th fastest of them: inside a group of like
# ops, so it does not jump with the seed.
CORPUS_QUOTAS = {
    (3, 4, "not-exists"): 14,
    (3, "solvable"): 5,
    (2, "any"): 27,
    (1, "any"): 54,
}


def criterion5_stream(mods, seed: int):
    """The instance stream of the criterion-5 acceptance test, in order:
    yields (n, m, zero_rows, basis, target)."""
    inst = mods.instances
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n - 1))
        zero_rows = min(rng.choice((0, 0, 0, 1, 2)), n - m)
        basis = inst.random_basis(rng, n, m, zero_rows=zero_rows)
        b = inst.random_vector(rng, n)
        yield n, m, zero_rows, basis, b


def _stratum(mods, n: int, m: int, basis, b, left: dict) -> tuple | None:
    """The quota key an instance fills, or None when its quotas are full.
    Only m = 3 instances are solved here, and only while a quota they
    could fill is open."""
    if m < 3:
        return (m, "any")
    heavy, light = (3, n, "not-exists"), (3, "solvable")
    if not (left.get(heavy) or left.get(light)):
        return None
    api = mods.api
    kind = api.solve_general(basis, None, b, prepared=api.prepare(basis)).kind
    return heavy if kind.value == "not-exists" else light


def select_corpus(mods, seed: int) -> list[tuple[int, tuple]]:
    """Stratified, in-order selection from the criterion-5 stream, as
    (stream index, quota key) pairs.  It solves instances, so it runs once
    per run, outside the timed set-ups."""
    left = dict(CORPUS_QUOTAS)
    chosen = []
    for index, (n, m, _, basis, b) in enumerate(criterion5_stream(mods, seed)):
        if not any(left.values()):
            return chosen
        key = _stratum(mods, n, m, basis, b, left)
        if key is not None and left.get(key):
            left[key] -= 1
            chosen.append((index, key))


def _check_solve(report: dict, m: int, n: int) -> str | None:
    if (report["m"], report["n"]) != (m, n) or len(report["targets"]) != 1:
        return "envelope does not match the generated instance"
    entry = report["targets"][0]
    if entry["outcome"] == "not-exists":
        bf = entry.get("brute_force")
        if bf is None:
            return "not-exists without a brute-force corroboration"
        return "brute-force grid found a solution" if bf["exists"] else None
    if entry["oracle"]["verdict"] != "confirmed":
        return "oracle did not confirm the solution"
    return None


def setup_solve_corpus(mods, seed: int, workdir: Path, selection) -> Workload:
    keys = dict(selection)
    ops: list[Op] = []
    for index, (n, m, _, basis, b) in enumerate(criterion5_stream(mods, seed)):
        if index not in keys:
            continue
        k = len(ops)
        path = _write(workdir / f"c5_{k:03d}.json", _problem_doc(basis.matrix, [b]))
        ops.append(Op(
            f"solve:c5_{k:03d}",
            _cli_call(mods, ["solve", "--input", path, *GRID_ARGS]),
            _cli_check(lambda rep, m=m, n=n: _check_solve(rep, m, n)),
            _cli_canon,
            "/".join(map(str, keys[index])),
            repeat=keys[index][-1] != "not-exists",
        ))
        if len(ops) == len(keys):
            return Workload(ops, CORPUS_ROUND_S)


# name -> (select, setup).  select(mods, seed), when given, runs once per
# run before the timed set-ups; its result is setup's last argument.
WORKLOADS = {
    "arrangement": (None, setup_arrangement),
    "fiber": (None, setup_fiber),
    "solve_corpus": (select_corpus, setup_solve_corpus),
}
