"""Command-line front end: JSON problem files in, JSON reports out.

All numeric payloads travel as exact rational strings ('13', '-3/7');
coordinate indices in reports are 1-based.  Exit codes: 0 success,
2 validation failure, 3 capacity guard, 4 violated precondition.

`main` runs one pipeline for every command: the canonical argv,
`COMMAND (--option VALUE)*`, read off the parser's option table (any
other spelling goes to argparse, which reads or reports it);
`load_problem` (the file's UTF-8 bytes with text mode's newlines, each
integral entry kept an int); one `prepare`; the command's `cmd_*` body,
which returns only its own fields; and `_dump` of the envelope followed
by those fields, which matches `json.dumps(indent=2)`.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .errors import CoapproxError, EmptyZeroSetError, ValidationError
from .exact import Q, Vec, format_rational, parse_literal, rational
from .norming import margin_witness
from .oracle import BRUTE_FORCE_MAX_M, brute_force_existence, check_grid, verify_best_coapprox
from .solver import (
    OutcomeKind,
    PreparedBasis,
    classify,
    existence_threshold,
    prepare,
    projection_map,
    solve_general,
)
from .subspace import SubspaceBasis, validate_basis

class ProblemFile(NamedTuple):
    basis: SubspaceBasis
    targets: tuple[tuple[str, Vec], ...]
    options: dict


def _parse_entry(value, at: str) -> Q:
    """`exact.rational`, with the entry's JSON path `at` in its error."""
    try:
        return rational(value)
    except ValidationError as exc:
        raise ValidationError(f"{at}: {exc}") from None


def _parse_vector(raw, n: int, where: str) -> Vec:
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: expected a list of rational strings")
    if len(raw) != n:
        raise ValidationError(f"{where}: expected length {n}, got {len(raw)}")
    try:  # rational's rule, but a JSON int, or a string with no '/den', stays an int
        return tuple([v if type(v) is int else parse_literal(v) if type(v) is str
                      else rational(v) for v in raw])
    except ValidationError:  # again entry by entry, to name the first bad entry's path
        return tuple([_parse_entry(v, f"{where}[{i + 1}]") for i, v in enumerate(raw)])


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "rb") as fh:  # text mode's decoding and newlines, without its wrapper
            doc = json.loads(fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad, too deeply nested, or an over-long int
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("problem file: top level must be an object")
    n = doc.get("n")
    if type(n) is not int or n < 1:  # true and false are bools, not 1 and 0
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


def _dump(x, pad: str = "\n") -> str:
    """`json.dumps(x, indent=2)`, byte for byte, for the report shape alone:
    dicts with str keys, lists, str, int, bool and None; else TypeError."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return str(x)
    if kind is bool or x is None:
        return "null" if x is None else "true" if x else "false"
    inner = pad + "  "
    if kind is list:
        items = [_dump(v, inner) for v in x]
    elif kind is dict:
        items = [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}" for k, v in x.items()]
    else:
        raise TypeError(f"not a report value: {kind.__name__}")
    ends = "[]" if kind is list else "{}"
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def _fmt_vec(v: Vec) -> list[str]:
    return [format_rational(x) for x in v]


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _ambient_signs(pb: PreparedBasis, x) -> list[int]:
    out = [0] * pb.basis.n
    for pos, orig in enumerate(pb.reduced.kept_indices):
        out[orig] = x[pos]
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


def cmd_analyze(problem: ProblemFile, pb: PreparedBasis, args) -> dict:
    classes = [
        {
            "representative": cls.representative + 1,
            "members": [
                {"coordinate": i + 1, "constant": format_rational(c)}
                for i, c in cls.members
            ],
        }
        for cls in pb.profile.classes
    ]
    return {"component_classes": classes, "d": pb.profile.d,
            "rationale": ["row-proportionality-classes"]}


def cmd_norming_set(problem: ProblemFile, pb: PreparedBasis, args) -> dict:
    norming = pb.norming
    tags = ["sign-cell-enumeration", "staircase-span-basis"]
    if pb.profile.zero_set:
        tags.insert(0, "sigma-reduction")
    return {
        "reduced_dimension": pb.reduced.basis.n,
        "hyperplanes": [_fmt_vec(nu) for nu in pb.arrangement.normals],
        "q": norming.span_dim,
        "system_basis": [_ambient_signs(pb, x) for x in norming.system_basis],
        "representatives": [_ambient_signs(pb, x) for x in norming.representatives],
        "representatives_reduced": [list(x) for x in norming.representatives],
        "cells": [
            {"signs": list(c.signs), "witness": _fmt_vec(margin_witness(pb.arrangement, c))}
            for c in pb.cells
        ],
        "rationale": tags,
    }


def _solve_options(problem: ProblemFile, args) -> dict:
    """The grid options, flags over the file; they come both or neither."""
    opts = dict(problem.options)
    out = {}
    for key in ("grid_radius", "grid_step"):
        if getattr(args, key) is not None:  # flags override the file
            opts[key] = getattr(args, key)
        out[key] = _parse_entry(opts[key], f"options.{key}") if key in opts else None
    try:  # check_grid's message starts with the field at fault, the step first
        check_grid(out["grid_radius"], out["grid_step"])
    except ValidationError as exc:
        raise ValidationError(f"options.{exc}") from None
    for have, missing in (("grid_radius", "grid_step"), ("grid_step", "grid_radius")):
        if out[missing] is None and out[have] is not None:
            raise ValidationError(f"options.{missing}: required with {have}")
    return out


def cmd_solve(problem: ProblemFile, pb: PreparedBasis, args) -> dict:
    if not problem.targets:
        raise ValidationError("targets: at least one target is required for solve")
    opts = _solve_options(problem, args)
    report = {"q": pb.q}
    results = []
    for name, b in problem.targets:
        outcome = solve_general(problem.basis, pb.profile, b, prepared=pb)
        entry: dict = {"name": name, "outcome": outcome.kind.value}
        if outcome.kind is OutcomeKind.NOT_EXISTS:
            entry["rationale"] = _existence_tags(pb)
            if opts["grid_radius"] is not None and problem.basis.m <= BRUTE_FORCE_MAX_M:
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
            image = projection_map(problem.basis, b, outcome).image_of_target
            entry["vector"] = entry["projection_image"] = _fmt_vec(image)
            verdict = verify_best_coapprox(problem.basis, b, alpha)
            oracle_entry = {"verdict": "confirmed" if verdict.confirmed else "refuted"}
            if verdict.counterexample is not None:
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


def cmd_classify(problem: ProblemFile, pb: PreparedBasis, args) -> dict:
    result = classify(problem.basis, prepared=pb)
    return {
        "coproximinal": result.coproximinal,
        "co_chebyshev": result.co_chebyshev,
        "q": result.q,
        "d": result.d,
        "zero_set_size": result.zero_set_size,
        "rationale": list(result.rationale),
    }


def cmd_threshold(problem: ProblemFile, pb: PreparedBasis, args) -> dict:
    if not pb.profile.zero_set:
        raise EmptyZeroSetError(
            "threshold requires a basis with a non-empty zero set"
        )
    if not problem.targets:
        raise ValidationError("targets: at least one target is required for threshold")
    results = []
    for name, b in problem.targets:
        th = existence_threshold(problem.basis, pb.profile, b, prepared=pb)
        results.append(
            {
                "name": name,
                "delta0": format_rational(th.delta0),
                "minimizing_alpha": _fmt_vec(th.minimizing_alpha),
                "rho_mass": format_rational(th.rho_mass),
                "bound_ok": th.delta0 <= th.rho_mass,
            }
        )
    return {"targets": results, "rationale": ["sigma-reduction", "slack-minimax"]}


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coapprox",
        description="Exact best-coapproximation analysis in l1^n",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # name -> {option: dest}, the table _read_canonical reads
    for name in ("analyze", "norming-set", "solve", "classify", "threshold"):
        p = sub.add_parser(name)
        p.set_defaults(command=name)
        table = {"--input": {"required": True, "help": "problem file (JSON)"},
                 "--output": {"help": "write the report here instead of stdout"}}
        if name == "solve":
            table.update({"--grid-radius": {}, "--grid-step": {}})
        parser.commands[name] = {f: p.add_argument(f, **kw).dest for f, kw in table.items()}
    return parser


def _read_canonical(parser: argparse.ArgumentParser, argv) -> argparse.Namespace | None:
    """parse_args(argv) without argparse, for the canonical spelling
    COMMAND (--option VALUE)*: each option in full from COMMAND's table,
    no VALUE starting with '-', --input given, the last of a repeated
    option winning.  None for any other argv, which the parser reads."""
    dests = parser.commands.get(argv[0]) if argv else None
    if dests is None or len(argv) % 2 == 0:
        return None
    args = dict.fromkeys(dests.values())  # every option's default is None
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in dests or value.startswith("-"):
            return None
        args[dests[flag]] = value
    return argparse.Namespace(command=argv[0], **args) if args["input"] is not None else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # Any other spelling than the canonical one: the full parser reads or reports it.
    args = _read_canonical(parser, argv) or parser.parse_args(argv)
    try:
        problem = load_problem(args.input)
        pb = prepare(problem.basis)
        # Built per call, so a cmd_* rebound on the module (a tracer's wrapper) is the one run.
        run = {"analyze": cmd_analyze, "norming-set": cmd_norming_set, "solve": cmd_solve,
               "classify": cmd_classify, "threshold": cmd_threshold}
        body = run[args.command](problem, pb, args)
        text = _dump({**_envelope(args.command, pb), **body})
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ValidationError(f"cannot write {args.output}: {exc}") from None
        else:
            try:
                print(text, flush=True)
            except OSError as exc:  # a closed pipe, say
                # Exit's own flush of what is left would fail again, loudly.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise ValidationError(f"cannot write stdout: {exc}") from None
    except CoapproxError as exc:
        print(f"coapprox {args.command}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
