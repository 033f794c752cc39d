"""Command-line front end: JSON problem files in, JSON reports out.

All numeric payloads travel as exact rational strings ('13', '-3/7');
coordinate indices in reports are 1-based.  Exit codes: 0 success,
2 validation failure, 3 capacity guard, 4 violated precondition.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import __version__
from .classify import classify
from .errors import CoapproxError, EmptyZeroSetError, ValidationError
from .exact import Q, Vec, format_rational, l1_norm, parse_rational
from .oracle import (BRUTE_FORCE_MAX_M, brute_force_existence, check_grid,
                     check_probe_capacity, verify_best_coapprox)
from .solver import (
    OutcomeKind,
    PreparedBasis,
    existence_threshold,
    prepare,
    projection_map,
    solve_general,
)
from .subspace import SubspaceBasis, apply_rho, validate_basis

DEFAULT_TRIALS = 200
DEFAULT_SEED = 0


@dataclass(frozen=True)
class ProblemFile:
    basis: SubspaceBasis
    targets: tuple[tuple[str, Vec], ...]
    options: dict


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, not 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_entry(value, where: str) -> Q:
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    if _is_int(value):
        return Q(value)
    raise ValidationError(f"{where}: expected a rational string, got {value!r}")


def _parse_vector(raw, n: int, where: str) -> Vec:
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: expected a list of rational strings")
    if len(raw) != n:
        raise ValidationError(f"{where}: expected length {n}, got {len(raw)}")
    return tuple(_parse_entry(v, f"{where}[{i + 1}]") for i, v in enumerate(raw))


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an int literal over the digit limit
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("problem file: top level must be an object")
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise ValidationError("n: expected a positive integer")
    raw_basis = doc.get("basis")
    if not isinstance(raw_basis, list) or not raw_basis:
        raise ValidationError("basis: expected a non-empty list of vectors")
    vectors = [
        _parse_vector(v, n, f"basis[{k + 1}]") for k, v in enumerate(raw_basis)
    ]
    matrix = tuple(zip(*vectors))  # columns are the basis vectors
    basis = validate_basis(matrix)
    targets: list[tuple[str, Vec]] = []
    raw_targets = doc.get("targets", [])
    if raw_targets is None:
        raw_targets = []
    if not isinstance(raw_targets, list):
        raise ValidationError("targets: expected a list")
    for k, item in enumerate(raw_targets):
        where = f"targets[{k + 1}]"
        if isinstance(item, dict):
            name = item.get("name", f"t{k + 1}")
            if not isinstance(name, str):
                raise ValidationError(f"{where}.name: expected a string")
            vector = _parse_vector(item.get("vector"), n, f"{where}.vector")
        else:
            name = f"t{k + 1}"
            vector = _parse_vector(item, n, where)
        targets.append((name, vector))
    options = doc.get("options", {})
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ValidationError("options: expected an object")
    return ProblemFile(basis=basis, targets=tuple(targets), options=options)


def _fmt_vec(v: Vec) -> list[str]:
    return [format_rational(x) for x in v]


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _sign_list(x) -> list[int]:
    return [int(s) for s in x]


def _ambient_signs(pb: PreparedBasis, x) -> list[int]:
    out = [0] * pb.basis.n
    for pos, orig in enumerate(pb.reduced.kept_indices):
        out[orig] = int(x[pos])
    return out


def _envelope(command: str, pb: PreparedBasis) -> dict:
    return {
        "tool": "coapprox",
        "version": __version__,
        "command": command,
        "n": pb.basis.n,
        "m": pb.basis.m,
        "zero_set": _one_based(pb.profile.zero_set),
    }


def cmd_analyze(problem: ProblemFile) -> dict:
    pb = prepare(problem.basis)
    report = _envelope("analyze", pb)
    report["component_classes"] = [
        {
            "representative": cls.representative + 1,
            "members": [
                {"coordinate": i + 1, "constant": format_rational(c)}
                for i, c in cls.members
            ],
        }
        for cls in pb.profile.classes
    ]
    report["d"] = pb.profile.d
    report["rationale"] = ["row-proportionality-classes"]
    return report


def cmd_norming_set(problem: ProblemFile) -> dict:
    pb = prepare(problem.basis)
    norming = pb.norming
    report = _envelope("norming-set", pb)
    report["reduced_dimension"] = pb.reduced.basis.n
    report["hyperplanes"] = [_fmt_vec(nu) for nu in pb.arrangement.normals]
    report["q"] = norming.span_dim
    report["system_basis"] = [_ambient_signs(pb, x) for x in norming.system_basis]
    report["representatives"] = [
        _ambient_signs(pb, x) for x in norming.representatives
    ]
    report["representatives_reduced"] = [
        _sign_list(x) for x in norming.representatives
    ]
    report["cells"] = [
        {"signs": _sign_list(c.signs), "witness": _fmt_vec(c.witness)}
        for c in pb.cells
    ]
    tags = ["sign-cell-enumeration", "staircase-span-basis"]
    if pb.profile.zero_set:
        tags.insert(0, "sigma-reduction")
    report["rationale"] = tags
    return report


def _solve_options(problem: ProblemFile, args) -> dict:
    opts = dict(problem.options)
    for key in ("trials", "seed", "grid_radius", "grid_step"):  # flags override the file
        if getattr(args, key) is not None:
            opts[key] = getattr(args, key)
    out = {
        "trials": opts.get("trials", DEFAULT_TRIALS),
        "seed": opts.get("seed", DEFAULT_SEED),
        "grid_radius": None,
        "grid_step": None,
    }
    if not _is_int(out["trials"]) or out["trials"] < 1:
        raise ValidationError("options.trials: expected a positive integer")
    if not _is_int(out["seed"]):
        raise ValidationError("options.seed: expected an integer")
    if "grid_radius" in opts:
        out["grid_radius"] = _parse_entry(opts["grid_radius"], "options.grid_radius")
    if "grid_step" in opts:
        out["grid_step"] = _parse_entry(opts["grid_step"], "options.grid_step")
    check_grid(out["grid_radius"], out["grid_step"])
    check_probe_capacity(problem.basis.m, out["trials"])
    return out


def cmd_solve(problem: ProblemFile, args) -> dict:
    if not problem.targets:
        raise ValidationError("targets: at least one target is required for solve")
    opts = _solve_options(problem, args)
    pb = prepare(problem.basis)
    report = _envelope("solve", pb)
    report["q"] = pb.q
    report["seed"] = opts["seed"]
    report["trials"] = opts["trials"]
    results = []
    for name, b in problem.targets:
        outcome = solve_general(problem.basis, pb.profile, b, prepared=pb)
        entry: dict = {"name": name, "outcome": outcome.kind.value}
        if outcome.kind is OutcomeKind.NOT_EXISTS:
            entry["rationale"] = _existence_tags(pb)
            if (
                opts["grid_radius"] is not None
                and opts["grid_step"] is not None
                and problem.basis.m <= BRUTE_FORCE_MAX_M
            ):
                bf = brute_force_existence(
                    problem.basis, b, opts["grid_radius"], opts["grid_step"]
                )
                entry["brute_force"] = {
                    "exists": bf.exists,
                    "grid_points": bf.grid_points,
                }
        else:
            alpha = outcome.chosen_alpha
            if outcome.kind is OutcomeKind.UNIQUE:
                entry["coefficients"] = _fmt_vec(outcome.coefficients)
            else:
                entry["witness"] = _fmt_vec(outcome.witness)
                entry["constraints"] = {
                    "rows": [_fmt_vec(r) for r in outcome.constraints.rows],
                    "rhs": _fmt_vec(outcome.constraints.rhs),
                    "slack": format_rational(outcome.constraints.slack),
                }
            entry["vector"] = _fmt_vec(outcome.vector)
            projection = projection_map(problem.basis, b, outcome)
            entry["projection_image"] = _fmt_vec(projection.image_of_target)
            verdict = verify_best_coapprox(
                problem.basis, b, alpha, trials=opts["trials"], seed=opts["seed"]
            )
            oracle_entry = {
                "verdict": "confirmed" if verdict.confirmed else "refuted",
                "seed": verdict.seed,
                "trials": verdict.trials,
            }
            if verdict.counterexample is not None:  # pragma: no cover
                oracle_entry["counterexample"] = {
                    "beta": _fmt_vec(verdict.counterexample.beta),
                    "lhs": format_rational(verdict.counterexample.lhs),
                    "rhs": format_rational(verdict.counterexample.rhs),
                }
            entry["oracle"] = oracle_entry
            entry["rationale"] = _existence_tags(pb)
        results.append(entry)
    report["targets"] = results
    return report


def _existence_tags(pb: PreparedBasis) -> list[str]:
    if pb.profile.zero_set:
        return ["sigma-reduction", "slack-feasibility"]
    return ["equality-system"]


def cmd_classify(problem: ProblemFile) -> dict:
    pb = prepare(problem.basis)
    result = classify(problem.basis, prepared=pb)
    report = _envelope("classify", pb)
    report["coproximinal"] = result.coproximinal
    report["co_chebyshev"] = result.co_chebyshev
    report["q"] = result.q
    report["d"] = result.d
    report["zero_set_size"] = result.zero_set_size
    report["rationale"] = list(result.rationale)
    return report


def cmd_threshold(problem: ProblemFile) -> dict:
    pb = prepare(problem.basis)
    if not pb.profile.zero_set:
        raise EmptyZeroSetError(
            "threshold requires a basis with a non-empty zero set"
        )
    if not problem.targets:
        raise ValidationError("targets: at least one target is required for threshold")
    report = _envelope("threshold", pb)
    results = []
    for name, b in problem.targets:
        th = existence_threshold(problem.basis, pb.profile, b, prepared=pb)
        rho_mass = l1_norm(apply_rho(b, pb.profile))
        results.append(
            {
                "name": name,
                "delta0": format_rational(th.delta0),
                "minimizing_alpha": _fmt_vec(th.minimizing_alpha),
                "rho_mass": format_rational(rho_mass),
                "bound_ok": th.delta0 <= rho_mass,
            }
        )
    report["targets"] = results
    report["rationale"] = ["sigma-reduction", "slack-minimax"]
    return report


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coapprox",
        description="Exact best-coapproximation analysis in l1^n",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "norming-set", "solve", "classify", "threshold"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--output", help="write the report here instead of stdout")
        if name == "solve":
            p.add_argument("--trials", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--grid-radius", dest="grid_radius", default=None)
            p.add_argument("--grid-step", dest="grid_step", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.input)
        if args.command == "analyze":
            report = cmd_analyze(problem)
        elif args.command == "norming-set":
            report = cmd_norming_set(problem)
        elif args.command == "solve":
            report = cmd_solve(problem, args)
        elif args.command == "classify":
            report = cmd_classify(problem)
        else:
            report = cmd_threshold(problem)
    except CoapproxError as exc:
        print(f"coapprox {args.command}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
