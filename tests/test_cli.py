import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coapprox import cli, lp, mat, norming, oracle, solver, vec
from coapprox.cli import main
from coapprox.errors import CoapproxError, ValidationError
from coapprox.exact import l1_norm, rank, vec_sub
from coapprox.instances import random_basis, random_vector
from coapprox.subspace import SubspaceBasis, validate_basis

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_worked_fixture(capsys):
    report = run_json(capsys, "analyze", "--input", str(PROBLEMS / "span3_l16.json"))
    assert report["zero_set"] == []
    assert report["d"] == 4
    assert report["n"] == 6 and report["m"] == 3
    classes = {
        tuple(member["coordinate"] for member in cls["members"])
        for cls in report["component_classes"]
    }
    assert (1, 5) in classes and (2, 6) in classes


def test_analyze_zero_set_one_based(capsys):
    report = run_json(
        capsys, "analyze", "--input", str(PROBLEMS / "pair_l17_coproximinal.json")
    )
    assert report["zero_set"] == [4, 7]


def test_norming_set_worked_fixture(capsys):
    report = run_json(
        capsys, "norming-set", "--input", str(PROBLEMS / "span3_l16.json")
    )
    assert report["q"] == 4
    assert report["system_basis"] == [
        [1, 1, 1, 1, -1, 1],
        [1, 1, 1, -1, -1, 1],
        [1, 1, -1, -1, -1, 1],
        [1, -1, -1, -1, -1, -1],
    ]
    assert len(report["representatives"]) == 7
    assert len(report["cells"]) == 7


def test_a_segment_face_witness_is_pinned(capsys):
    # Cell (+, +, +) of pair_l17_not_coproximinal, planes (1, -1), (2, 1)
    # and (1, 0): in the unit box its smallest margin is at most b1 <= 1,
    # and it is 1 on the whole segment b1 = 1, -1 <= b2 <= 0.  The printed
    # witness is the vertex the margin LP's pivots reach, so a pivot change
    # that moves it fails here.
    report = run_json(capsys, "norming-set", "--input",
                      str(PROBLEMS / "pair_l17_not_coproximinal.json"))
    normals = [tuple(map(int, h)) for h in report["hyperplanes"]]
    assert normals == [(1, -1), (2, 1), (1, 0)]
    assert report["cells"][0] == {"signs": [1, 1, 1], "witness": ["1", "0"]}
    for k in range(5):
        beta = (1, Fraction(-k, 4))
        assert min(a * beta[0] + b * beta[1] for a, b in normals) == 1


def test_solve_worked_fixture(capsys):
    report = run_json(capsys, "solve", "--input", str(PROBLEMS / "span3_l16.json"))
    by_name = {t["name"]: t for t in report["targets"]}
    assert by_name["b1"]["outcome"] == "not-exists"
    assert by_name["b1"]["brute_force"] == {"exists": False, "grid_points": 9261}
    b2 = by_name["b2"]
    assert b2["outcome"] == "unique"
    assert b2["coefficients"] == ["1/7", "-3/7", "1"]
    assert b2["vector"] == ["2", "3", "0", "0", "-2", "6"]
    assert b2["projection_image"] == ["2", "3", "0", "0", "-2", "6"]
    assert b2["oracle"]["verdict"] == "confirmed"


def test_solve_leaves_out_the_grid_above_m_3(tmp_path, capsys):
    # The grid runs only for m <= 3; on a wider basis solve answers as
    # usual, with no brute_force block, even when both grid flags are given.
    rows = [(-1, 2, -2, 0), (-2, 1, 1, 1), (1, -1, -2, 1), (-2, 1, 1, 2), (-2, 1, 0, -1),
            (0, 0, 0, 0)]
    f = tmp_path / "m4.json"
    f.write_text(json.dumps({
        "n": 6, "basis": [[str(r[j]) for r in rows] for j in range(4)],
        "targets": [["-3", "-3", "2", "1", "-3", "0"]],
    }), encoding="utf-8")
    report = run_json(capsys, "solve", "--input", str(f), "--grid-radius", "1", "--grid-step", "1")
    (target,) = report["targets"]
    assert report["m"] == 4 and target["outcome"] == "not-exists"
    assert "brute_force" not in target


def test_norming_set_single_pair(capsys):
    report = run_json(
        capsys, "norming-set", "--input", str(PROBLEMS / "line_l12_polytope.json")
    )
    assert report["q"] == 1
    assert report["representatives"] == [[1, 0]]
    assert report["representatives_reduced"] == [[1]]


def test_solve_polytope(capsys):
    report = run_json(capsys, "solve", "--input", str(PROBLEMS / "line_l12_polytope.json"))
    (target,) = report["targets"]
    assert target["outcome"] == "polytope"
    assert target["witness"] == ["3"]
    assert target["constraints"]["slack"] == "1"
    assert target["oracle"]["verdict"] == "confirmed"


def test_solve_zero_fiber_polytope(capsys):
    report = run_json(
        capsys, "solve", "--input", str(PROBLEMS / "pair_l17_coproximinal.json")
    )
    (target,) = report["targets"]
    assert target["outcome"] == "polytope"
    assert target["witness"] == ["0", "0"]


@pytest.mark.parametrize(
    "problem,coproximinal,co_chebyshev",
    [
        ("pair_l17_coproximinal.json", True, False),
        ("pair_l17_not_coproximinal.json", False, False),
        ("pair_l15_cochebyshev.json", True, True),
        ("span3_l16.json", False, False),
    ],
)
def test_classify(capsys, problem, coproximinal, co_chebyshev):
    report = run_json(capsys, "classify", "--input", str(PROBLEMS / problem))
    assert report["coproximinal"] is coproximinal
    assert report["co_chebyshev"] is co_chebyshev


def test_threshold(capsys):
    report = run_json(
        capsys, "threshold", "--input", str(PROBLEMS / "span3_l17_threshold.json")
    )
    (target,) = report["targets"]
    assert target["delta0"] == "41/21"
    assert target["bound_ok"] is True


def test_threshold_requires_zero_set(capsys):
    code, _, err = run_cli(
        capsys, "threshold", "--input", str(PROBLEMS / "span3_l16.json")
    )
    assert code == 4
    assert "zero set" in err


def test_invalid_rational_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 2, "basis": [["1", "1/0"]]}), encoding="utf-8"
    )
    code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
    assert code == 2
    assert "basis[1][2]" in err


def test_rank_deficient_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"n": 2, "basis": [["1", "2"], ["2", "4"]]}), encoding="utf-8"
    )
    code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
    assert code == 2


def test_capacity_guard_exits_3(tmp_path, capsys):
    doc = {
        "n": 21,
        "basis": [
            ["1"] * 21,
            [str(k) for k in range(21)],
        ],
    }
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "norming-set", "--input", str(f))
    assert code == 3


def test_solve_requires_targets(tmp_path, capsys):
    f = tmp_path / "no_targets.json"
    f.write_text(json.dumps({"n": 2, "basis": [["1", "0"]]}), encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--input", str(f))
    assert code == 2
    assert "targets" in err


def test_output_round_trip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "solve",
            "--input",
            str(PROBLEMS / "span3_l16.json"),
            "--output",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    from coapprox import parse_rational

    for t in report["targets"]:
        for key in ("coefficients", "vector"):
            if key in t:
                for s in t[key]:
                    assert parse_rational(s) == parse_rational(s)


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coapprox.cli", "classify", "--input",
         str(PROBLEMS / "pair_l15_cochebyshev.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["co_chebyshev"] is True


def test_grid_point_cap_exits_3(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "solve", "--input", str(PROBLEMS / "span3_l16.json"),
        "--grid-radius", "100", "--grid-step", "1/100",
    )
    assert code == 3
    assert "grid" in err
    assert time.perf_counter() - start < 10.0


def test_negative_grid_radius_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--input", str(PROBLEMS / "span3_l16.json"),
        "--grid-radius", "-1", "--grid-step", "1/2",
    )
    assert code == 2
    assert "grid_radius" in err


@pytest.mark.parametrize(
    "have, missing", [("grid_radius", "grid_step"), ("grid_step", "grid_radius")]
)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_lone_grid_option_exits_2_naming_the_other(tmp_path, capsys, source, have, missing):
    # span3_l16.json without its options: b1 is not-exists, and a lone
    # grid option, by flag or in the file, is refused instead of dropping
    # the corroboration.  The other option from the other source completes it.
    doc = json.loads((PROBLEMS / "span3_l16.json").read_text(encoding="utf-8"))
    values = {"grid_radius": "5", "grid_step": "1/2"}
    doc["options"] = {have: values[have]} if source == "file" else {}
    f = tmp_path / "lone.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    flag = ["--" + have.replace("_", "-"), values[have]] if source == "flag" else []
    code, out, err = run_cli(capsys, "solve", "--input", str(f), *flag)
    assert (code, out) == (2, "")
    assert f"options.{missing}: required with {have}" in err
    other = ["--" + missing.replace("_", "-"), values[missing]]
    report = run_json(capsys, "solve", "--input", str(f), *flag, *other)
    assert report["targets"][0]["brute_force"] == {"exists": False, "grid_points": 9261}


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"n": True, "basis": [["1"]]}, "n"),
    ],
)
def test_bools_are_not_integers(tmp_path, capsys, patch, field):
    doc = {"n": 2, "basis": [["1", "0"]], "targets": [["1", "1"]]}
    doc.update(patch)
    f = tmp_path / "bool.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", "--input", str(f))
    assert code == 2
    assert err.split(": ")[1] == field


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"basis": [["1", "0"], ["\u0663", "1"]]}, "basis[2][1]"),
        ({"targets": [["1", "\uff11\uff12"]]}, "targets[1][2]"),
        # Whitespace beyond ASCII around a literal is not stripped either.
        ({"basis": [["1", "0"], ["\u20033", "1"]]}, "basis[2][1]"),
        ({"targets": [["\xa05", "1"]]}, "targets[1][1]"),
        ({"basis": [["\x1c3", "0"]]}, "basis[1][1]"),
    ],
)
def test_non_ascii_digits_exit_2(tmp_path, capsys, patch, field):
    doc = {"n": 2, "basis": [["1", "0"]], "targets": [["1", "1"]]}
    doc.update(patch)
    f = tmp_path / "digits.json"
    f.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--input", str(f))
    assert (code, out) == (2, "")
    assert err.split(": ")[1] == field
    assert "not a rational literal" in err


@pytest.mark.parametrize("value", [3, True, 1.5, None, "0.5", "1e1", "3/7"], ids=repr)
def test_files_and_vec_share_one_entry_rule(tmp_path, capsys, value):
    # A basis entry is accepted, or refused with vec's own message behind
    # its JSON path: the file format and the library cannot drift apart.
    f = tmp_path / "entry.json"
    f.write_text(json.dumps({"n": 2, "basis": [["1", value]]}), encoding="utf-8")
    try:
        expected = vec(("1", value))
    except ValidationError as exc:
        code, out, err = run_cli(capsys, "analyze", "--input", str(f))
        assert (code, out, err) == (2, "", f"coapprox analyze: basis[1][2]: {exc}\n")
    else:
        assert cli.load_problem(str(f)).basis.matrix == tuple(zip(expected))


def test_literal_over_int_digit_limit_exits_2(tmp_path, capsys):
    f = tmp_path / "long.json"
    f.write_text(
        json.dumps({"n": 2, "basis": [["1" * 5000, "1"]]}), encoding="utf-8"
    )
    code, _, err = run_cli(capsys, "analyze", "--input", str(f))
    assert code == 2
    assert "basis[1][1]" in err
    f.write_text('{"n": 2, "basis": [[' + "1" * 5000 + ', 1]]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--input", str(f))
    assert code == 2
    assert "invalid JSON" in err


_TOO_DEEP = {
    "array": "[" * 100_000 + "]" * 100_000,
    "options": ('{"n": 1, "basis": [["1"]], "targets": [["1"]], "options": '
                + '{"a": ' * 50_000 + "1" + "}" * 50_000 + "}"),
}


@pytest.mark.parametrize("shape", sorted(_TOO_DEEP))
def test_json_nested_too_deep_exits_2_naming_the_file(tmp_path, capsys, shape):
    # The JSON parser gives up on the depth; that is invalid JSON, through
    # the CLI and through the script that shares load_problem.
    f = tmp_path / "deep.json"
    f.write_text(_TOO_DEEP[shape], encoding="utf-8")
    for command in ("analyze", "solve"):
        code, out, err = run_cli(capsys, command, "--input", str(f))
        assert (code, out) == (2, "")
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"coapprox {command}: {f}: invalid JSON: ")
        assert "Traceback" not in err
    proc = _threshold_script("--input", str(f))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith(f"threshold_dichotomy: {f}: invalid JSON: ")


# Digest of every command's exit code and output on every sample problem,
# hashed exactly as perfbench/smoke.py does; any report change moves it.
# CI reads the pin from this line.
GOLDEN_DIGEST = "b51c86d88af74efa96da103e08fc71b3fc7d8753321e87986a4e5a08118d4ee6"


def test_reports_match_golden_digest():
    overall = hashlib.sha256()
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in ("analyze", "norming-set", "solve", "classify", "threshold"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path)])
            overall.update(f"exit={code}\n{out.getvalue()}{err.getvalue()}".encode() + b"\0")
    assert overall.hexdigest() == GOLDEN_DIGEST


COMMANDS = ("analyze", "norming-set", "solve", "classify", "threshold")


def _sample_reports():
    """The report of every command on every sample problem that gives one,
    the envelope followed by the command's own fields, as `main` builds it."""
    run = {"analyze": cli.cmd_analyze, "norming-set": cli.cmd_norming_set, "solve": cli.cmd_solve,
           "classify": cli.cmd_classify, "threshold": cli.cmd_threshold}
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = cli.load_problem(str(path))
        for command in COMMANDS:
            args = cli.build_parser().parse_args([command, "--input", str(path)])
            pb = solver.prepare(problem.basis)
            try:
                body = run[command](problem, pb, args)
            except CoapproxError:  # threshold without a zero set, solve without targets
                continue
            yield {**cli._envelope(command, pb), **body}


_ODD_NAMES = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9",
              "\u03b4\u2080 \U0001d4c1\u00b9", "\u2028\ufeff"]
_HAND_BUILT = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], {"a": {"b": {"c": []}}},
    [True, 1, False, 0, None, -7, 10**30], {"t": True, "one": 1, "f": False, "zero": 0},
    None, True, 0, "", {"": ""},
    {"targets": [{"name": name, "outcome": "unique", "vector": ["1", "-3/7"]} for name in _ODD_NAMES]},
    {name: [name, {name: None}] for name in _ODD_NAMES},
]


def test_report_writer_matches_json_dumps_indent_2():
    reports = list(_sample_reports())
    assert len(reports) == 26
    for x in reports + _HAND_BUILT:
        assert cli._dump(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("value", [1.5, 0.0, Fraction(1, 2), Fraction(3)])
def test_report_writer_refuses_other_types(value):
    for x in (value, [value], {"a": [1, {"b": value}]}):
        with pytest.raises(TypeError):
            cli._dump(x)


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SPAN3 = str(PROBLEMS / "span3_l16.json")
_ARGVS = [
    *([command, "--input", _SPAN3] for command in COMMANDS),
    ["threshold", "--input", str(PROBLEMS / "pair_l17_coproximinal.json")],
    ["solve", "--input", _SPAN3, "--trials", "5", "--seed", "-3", "--grid-radius", "5",
     "--grid-step", "1/2"],
    ["solve", "--input=" + _SPAN3, "--grid-radius=1", "--grid-step", "1"],
    ["solve", "--inp", _SPAN3, "--tri", "7"],
    ["solve", "--", "--input", _SPAN3],
    ["solve", "--input", _SPAN3, "--grid-radius", "-1", "--grid-step", "1/2"],
    ["solve", "--input", _SPAN3, "--grid"],
    ["classify", "--input", str(PROBLEMS / "missing.json")],
    ["solve"], ["classify", "--output", "x.json"], ["solve", "--trials", "5"],
    ["frobnicate", "--input", _SPAN3], ["Solve", "--input", _SPAN3], ["norm", "--input", _SPAN3],
    [], ["--input", _SPAN3], ["--input", _SPAN3, "solve"], ["--", "solve", "--input", _SPAN3],
    *([command, "--input", _SPAN3, flag, "5"]
      for command in ("analyze", "norming-set", "classify", "threshold")
      for flag in ("--trials", "--seed", "--grid-radius", "--grid-step")),
    ["classify", "--input", _SPAN3, "extra"], ["extra", "classify", "--input", _SPAN3],
    ["solve", "--input", _SPAN3, "--trials", "abc"], ["solve", "--input", _SPAN3, "--seed", "1.5"],
    ["solve", "--input", _SPAN3, "--version"], ["solve", "--input", _SPAN3, "--v"],
    ["-h"], ["--help"], ["solve", "-h"], ["classify", "--input", _SPAN3, "-h"], ["--version"],
]


def _argv_id(argv):
    return " ".join(argv).replace(str(PROBLEMS), "problems") or "(no arguments)"


@pytest.mark.parametrize("argv", _ARGVS, ids=_argv_id)
def test_argv_parity_with_the_full_parser(capsys, monkeypatch, argv):
    # With no sub-parser to call directly, main falls back to the full
    # parser's parse_args on every argv: the dispatch main had before.
    fast = _outcome(capsys, argv)
    monkeypatch.setattr(cli.build_parser(), "commands", {})
    assert fast == _outcome(capsys, argv)


def test_main_reads_sys_argv_without_an_argument(capsys, monkeypatch):
    argv = ["classify", "--input", _SPAN3]
    expected = _outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["coapprox", *argv])
    assert _outcome(capsys, None) == expected
    assert expected[0] == 0 and json.loads(expected[1])["command"] == "classify"


def _non_simple_rows(rng, m):
    """3..7 pairwise non-proportional int rows in [-2, 2]^m of rank m
    (for m >= 3, some m of them dependent: planes sharing a line), plus
    two proportional copies with constants in {-2, -1, 2}, shuffled."""
    while True:
        rows = []
        r = rng.randint(m + 1, 7)
        while len(rows) < r:
            v = tuple(rng.randint(-2, 2) for _ in range(m))
            if any(v) and all(rank(mat([v, w])) == 2 for w in rows):
                rows.append(v)
        if rank(mat(rows)) != m:
            continue
        if m > 2 and all(rank(mat(c)) == m for c in itertools.combinations(rows, m)):
            continue
        for _ in range(2):
            c = rng.choice((-2, -1, 2))
            rows.append(tuple(c * x for x in rng.choice(rows[:r])))
        rng.shuffle(rows)
        return rows


# sha256 over the norming-set reports of 60 seeded non-simple subspaces
# (m = 2, 3, 4 in turn).  Computed on the LP prefix-tree enumerator, which
# found the cells and their reported witnesses before the deletion-
# restriction enumeration replaced it; the reports must not move.
NON_SIMPLE_NORMING_DIGEST = "0a26f8ab638bfa117f8784f0b7163833ad9eb591b258696a5b4a03618ce258dc"


def test_non_simple_norming_set_reports_match_digest(tmp_path):
    rng = random.Random(2026)
    overall = hashlib.sha256()
    for k in range(60):
        m = 2 + k % 3
        rows = _non_simple_rows(rng, m)
        f = tmp_path / f"s{k}.json"
        f.write_text(json.dumps(
            {"n": len(rows), "basis": [[str(row[j]) for row in rows] for j in range(m)]}
        ), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["norming-set", "--input", str(f)])
        overall.update(f"exit={code}\n{out.getvalue()}{err.getvalue()}".encode() + b"\0")
    assert overall.hexdigest() == NON_SIMPLE_NORMING_DIGEST


def test_norming_set_builds_each_artefact_once(capsys, monkeypatch):
    calls = {"build_arrangement": 0, "enumerate_cells": 0, "minimal_norming_set": 0}
    for name in calls:
        original = getattr(norming, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(norming, name, counted)
        monkeypatch.setattr(solver, name, counted)
    run_json(capsys, "norming-set", "--input", str(PROBLEMS / "span3_l16.json"))
    assert calls == {"build_arrangement": 1, "enumerate_cells": 1, "minimal_norming_set": 1}


@pytest.mark.parametrize("name", ["line_l12_polytope.json", "pair_l15_cochebyshev.json"])
@pytest.mark.parametrize(
    "radius, step, field",
    [("-3", "0", "grid_step"), ("-3", "1/2", "grid_radius"), ("1", "0", "grid_step")],
)
def test_bad_grid_options_exit_2_without_a_not_exists_target(
    capsys, name, radius, step, field
):
    code, out, err = run_cli(
        capsys, "solve", "--input", str(PROBLEMS / name),
        "--grid-radius", radius, "--grid-step", step,
    )
    assert code == 2 and out == ""
    assert field in err


@pytest.mark.parametrize(
    "options, flags, message",
    [({"grid_radius": "1", "grid_step": "0"}, (), "options.grid_step: must be positive"),
     ({}, ("--grid-radius", "-1", "--grid-step", "1/2"),
      "options.grid_radius: must be non-negative")],
)
def test_grid_errors_name_their_field(tmp_path, capsys, options, flags, message):
    doc = json.loads((PROBLEMS / "span3_l16.json").read_text(encoding="utf-8"))
    doc["options"] = options
    f = tmp_path / "grid.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(capsys, "solve", "--input", str(f), *flags) == (2, "", f"coapprox solve: {message}\n")


@pytest.mark.parametrize("flag", ["--trials", "--seed", "--grid-radius", "--grid-step"])
@pytest.mark.parametrize("command", ["analyze", "norming-set", "classify", "threshold"])
def test_solve_options_are_refused_by_other_commands(capsys, command, flag):
    # Only solve reads the oracle's settings; elsewhere they are usage errors.
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(PROBLEMS / "span3_l16.json"), flag, "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("flag", ["--trials", "--seed"])
def test_solve_has_no_trials_or_seed_flag(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(PROBLEMS / "span3_l16.json"), flag, "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} 1" in captured.err


def test_unknown_option_keys_are_ignored(tmp_path, capsys):
    # Keys solve does not read, trials and seed among them, change nothing,
    # whatever their values; no report carries a trials or seed key.
    doc = json.loads((PROBLEMS / "span3_l16.json").read_text(encoding="utf-8"))
    doc["targets"].append({"name": "b3", "vector": ["4", "2", "1", "-1", "-4", "4"]})
    reports = []
    for extra in ({}, {"trials": True, "seed": "x", "foo": 1}):
        doc["options"] = {"grid_radius": "5", "grid_step": "1/2", **extra}
        f = tmp_path / "options.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        reports.append(run_cli(capsys, "solve", "--input", str(f)))
    assert reports[0] == reports[1] and reports[0][0] == 0
    report = json.loads(reports[0][1])
    oracles = [t["oracle"] for t in report["targets"] if "oracle" in t]
    assert len(oracles) == 2 and "brute_force" in report["targets"][0]
    assert all(key not in entry for entry in [report] + oracles for key in ("trials", "seed"))


def test_report_value_over_int_digit_limit_exits_3(tmp_path):
    f = tmp_path / "huge.json"
    f.write_text(
        json.dumps({"n": 2, "basis": [["1/" + "7" * 4000, "0"]],
                    "targets": [["7" * 4000, "1"]]}),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "coapprox.cli", "solve", "--input", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "digit limit" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture
def margin_lps(monkeypatch):
    """Calls through coapprox.norming.lp_max: the cell margin LPs."""
    calls = {"lp_max": 0}
    original = norming.lp_max

    def counted(*args):
        calls["lp_max"] += 1
        return original(*args)

    monkeypatch.setattr(norming, "lp_max", counted)
    return calls


def test_norming_set_work_counts(capsys, monkeypatch, margin_lps):
    # Exact work on the worked fixture: a kernel change that runs more
    # margin LPs, or finds other cells, fails here without any timing.
    # Cells are enumerated without an LP; each reported cell's margin
    # witness costs one.  Bland's rule picks the witness where a cell's
    # optimal face is not a point, so the 7 LPs' pivot count is pinned
    # too: a kernel change that moves Bland's path fails here by name.
    pivots = []
    pivot = lp.bareiss_pivot
    monkeypatch.setattr(lp, "bareiss_pivot", lambda *args: pivots.append(1) or pivot(*args))
    report = run_json(capsys, "norming-set", "--input", str(PROBLEMS / "span3_l16.json"))
    assert (margin_lps["lp_max"], len(report["cells"]), len(pivots)) == (7, 7, 48)


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.name)
def test_classify_runs_no_margin_lp(capsys, margin_lps, path):
    # q = d is read from the row profile: no sign cell is enumerated.
    run_json(capsys, "classify", "--input", str(path))
    assert margin_lps["lp_max"] == 0


@pytest.mark.parametrize(
    "command, name, expected",
    [
        # The empty-zero-set solve runs on the class-sum rows.
        ("solve", "pair_l15_cochebyshev.json", 0),
        ("solve", "span3_l16.json", 0),
        # The zero-set polytope needs every cell's signs, one inequality
        # each, and no LP finds them.
        ("solve", "line_l12_polytope.json", 0),
        ("solve", "pair_l17_coproximinal.json", 0),
        ("solve", "span3_l17_threshold.json", 0),
        ("threshold", "line_l12_polytope.json", 0),
        ("threshold", "pair_l17_coproximinal.json", 0),
        ("threshold", "span3_l17_threshold.json", 0),
    ],
)
def test_margin_lp_counts(capsys, margin_lps, command, name, expected):
    run_json(capsys, command, "--input", str(PROBLEMS / name))
    assert margin_lps["lp_max"] == expected


@pytest.mark.parametrize(
    "name, expected",
    [("pair_l17_coproximinal.json", (1, 0, 0, 0)), ("line_l12_polytope.json", (1, 0, 0, 0))],
)
def test_solve_work_counts(capsys, monkeypatch, name, expected):
    # Exact per-target solve work: minimax LPs, lex_extreme_alpha calls
    # and the lex LPs they run, counted at the names the solver calls.
    # Each fiber's minimax LP certifies a one-point optimal face, so no
    # lex search runs.  The inequality rows are signed class sums, so no
    # norming set is built.
    calls = {"solve_minimax_lp": 0, "lex_extreme_alpha": 0, "lp_min": 0,
             "minimal_norming_set": 0}
    for fn_name in calls:

        def counted(*args, _fn=getattr(solver, fn_name), _name=fn_name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, fn_name, counted)
    run_json(capsys, "solve", "--input", str(PROBLEMS / name))
    assert tuple(calls.values()) == expected


@pytest.mark.parametrize("mass, minimax_lps", [("0", 0), ("1", 1)])
def test_grid_certificate_work_counts(tmp_path, capsys, monkeypatch, mass, minimax_lps):
    # span3_l17_threshold's target with mass 0 or 1 on the zero row, both
    # below delta0 = 41/21: not-exists, and the grid settles each by a
    # certificate.  Slabs of width 0 are certified by a null vector, with
    # no LP; at width 1 the oracle runs one minimax LP over the slabs.
    doc = json.loads((PROBLEMS / "span3_l17_threshold.json").read_text(encoding="utf-8"))
    doc["targets"][0]["vector"][-1] = mass
    f = tmp_path / "mass.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    minimax = oracle.solve_minimax_lp
    monkeypatch.setattr(oracle, "solve_minimax_lp",
                        lambda *args, **kw: calls.append(args) or minimax(*args, **kw))
    report = run_json(capsys, "solve", "--input", str(f), "--grid-radius", "5",
                      "--grid-step", "1/2")
    (entry,) = report["targets"]
    assert entry["outcome"] == "not-exists"
    assert entry["brute_force"] == {"exists": False, "grid_points": 21**3}
    assert len(calls) == minimax_lps


def test_grid_catches_a_solver_that_always_answers_not_exists(tmp_path, capsys, monkeypatch):
    # A mutant solver answers not-exists for every target, so the grid
    # runs on all of them: on a seeded m <= 3 corpus it must say "exists"
    # exactly for the targets the real solver answers.  A = (1, 2)^T,
    # b = (1, 0) has the one solution alpha = 1/3, on no grid point.
    rng = random.Random(1531)
    files = [([(1,), (2,)], [(1, 0)])]
    for k in range(18):
        m = 1 + k % 3
        n = rng.randint(m + 1, 6)
        basis = random_basis(rng, n, m, zero_rows=min(k % 2, n - m))
        members = [basis.combine(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                       for _ in range(m))) for _ in range(2)]
        files.append((basis.matrix, members + [random_vector(rng, n) for _ in range(3)]))
    answers = []
    for k, (rows, targets) in enumerate(files):
        basis = validate_basis(mat(rows))
        truth = [solver.solve_general(basis, None, vec(b)).kind
                 is not solver.OutcomeKind.NOT_EXISTS for b in targets]
        doc = {"n": len(rows), "basis": [[str(x) for x in col] for col in zip(*rows)],
               "targets": [[str(x) for x in b] for b in targets]}
        f = tmp_path / f"corpus{k}.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        with monkeypatch.context() as mp:
            mp.setattr(cli, "solve_general", lambda *args, **kw: types.SimpleNamespace(
                kind=solver.OutcomeKind.NOT_EXISTS))
            report = run_json(capsys, "solve", "--input", str(f), "--grid-radius", "5",
                              "--grid-step", "1/2")
        assert [t["brute_force"] for t in report["targets"]] == [
            {"exists": answered, "grid_points": 21**basis.m} for answered in truth], k
        answers += truth
    assert answers[0] and sum(answers) >= 50 and answers.count(False) >= 20, answers


# sha256 over the `solve` reports of every problem file under a solver
# that answers wrongly (below), pinned with the step taken from a general
# 1-d l1 minimizer: a counterexample that moves changes it.
REFUTED_REPORTS_SHA256 = "26866a761520045df7e049c6e8368d22b7bb8cbf65c77e6b8e2c2719c8d1483f"


def test_a_wrong_solver_is_refuted_with_an_exact_counterexample(capsys, monkeypatch):
    # Each unique answer's coefficients +1 and each polytope witness +3:
    # the oracle must refute every shifted answer, and the printed beta,
    # lhs = ||A.beta - A.alpha||_1 and rhs = ||A.beta - b||_1 must
    # recompute exactly from the file's basis and target, with lhs > rhs.
    real = cli.solve_general

    def wrong(basis, *args, **kwargs):
        outcome = real(basis, *args, **kwargs)
        shift, field = {solver.OutcomeKind.UNIQUE: (1, "coefficients"),
                        solver.OutcomeKind.POLYTOPE: (3, "witness")}.get(outcome.kind, (0, None))
        if field is None:
            return outcome
        alpha = tuple(x + shift for x in getattr(outcome, field))
        return outcome._replace(**{field: alpha}, vector=basis.combine(alpha))

    monkeypatch.setattr(cli, "solve_general", wrong)
    overall = hashlib.sha256()
    refuted = 0
    for path in sorted(PROBLEMS.glob("*.json")):
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        overall.update(f"exit={code}\n{out}{err}".encode() + b"\0")
        if code:
            continue
        problem = cli.load_problem(str(path))
        for entry, (_, b) in zip(json.loads(out)["targets"], problem.targets, strict=True):
            if entry["outcome"] == "not-exists":
                continue
            assert entry["oracle"]["verdict"] == "refuted", (path.name, entry["name"])
            example = entry["oracle"]["counterexample"]
            alpha = vec(entry.get("coefficients") or entry["witness"])
            point = problem.basis.combine(vec(example["beta"]))
            lhs = l1_norm(vec_sub(point, problem.basis.combine(alpha)))
            rhs = l1_norm(vec_sub(point, b))
            assert (vec((example["lhs"], example["rhs"])) == (lhs, rhs)) and lhs > rhs
            refuted += 1
    assert refuted == 4
    assert overall.hexdigest() == REFUTED_REPORTS_SHA256


def test_m_9_within_the_cell_caps_is_answered_and_confirmed(tmp_path, capsys):
    # m = 9: the identity plus a row proportional to the first, 9 planes
    # cutting 256 pairs, at the cell caps.  The verifier runs one probe per
    # tope pair, so no cap on m applies.
    n, m = 10, 9
    basis = [["1" if i == j or (j == 0 and i == n - 1) else "0" for i in range(n)]
             for j in range(m)]
    f = tmp_path / "m9.json"
    f.write_text(json.dumps({"n": n, "basis": basis, "targets": [["1"] * n]}),
                 encoding="utf-8")
    start = time.perf_counter()
    (entry,) = run_json(capsys, "solve", "--input", str(f))["targets"]
    assert time.perf_counter() - start < 2.0
    assert entry["outcome"] == "unique" and entry["coefficients"] == ["1"] * m
    assert entry["oracle"]["verdict"] == "confirmed"


@pytest.mark.parametrize("m", [4, 10])
def test_cell_pair_cap_exits_3_at_once(tmp_path, capsys, m):
    # Refused before any work.  Uncapped, the m = 4 basis (19 hyperplanes,
    # bound 988) has 943 cells; the m = 10 one (20 hyperplanes) may cut
    # 262144 cell pairs.
    rng = random.Random(m)
    doc = {"n": 20, "basis": [[str(rng.randint(-3, 3)) for _ in range(20)] for _ in range(m)]}
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--input", str(f))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "cell pairs" in err


@pytest.mark.parametrize("command", ["solve", "norming-set"])
def test_cell_pair_cap_exits_3_for_every_cell_reader(tmp_path, capsys, margin_lps, command):
    # The m = 4 basis of test_cell_pair_cap_exits_3_at_once, with a target:
    # solve refuses it before reading q, as norming-set and classify do.
    rng = random.Random(4)
    doc = {"n": 20, "basis": [[str(rng.randint(-3, 3)) for _ in range(20)] for _ in range(4)],
           "targets": [["1"] * 20]}
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--input", str(f))
    assert (code, out, margin_lps["lp_max"]) == (3, "", 0)
    assert "cell pairs" in err


def _moment_curve_problem(tmp_path, targets, nodes=range(13)):
    # Rows (1, x, x^2) over the nodes and one zero row: 13 nodes give n = 14,
    # m = 3 and 13 hyperplanes cutting 79 cell pairs; 20 nodes cut 191, the
    # most that any m = 3 basis within the cell caps may.
    nodes = list(nodes)
    doc = {"n": len(nodes) + 1,
           "basis": [[str(x ** p) for x in nodes] + ["0"] for p in range(3)],
           "targets": [{"name": f"t{k}", "vector": [str(x) for x in t]}
                       for k, t in enumerate(targets)]}
    f = tmp_path / "moment.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    return str(f)


def test_zero_slack_target_on_a_wide_zero_set_basis_is_solved(tmp_path, capsys):
    # e1 has no mass on the zero row, so the class-sum system answers it
    # (it is not a member: not-exists) and the solver runs no minimax LP.
    f = _moment_curve_problem(tmp_path, [[1] + [0] * 13])
    report = run_json(capsys, "solve", "--input", f, "--grid-radius", "2", "--grid-step", "1")
    (entry,) = report["targets"]
    assert entry["outcome"] == "not-exists"
    assert entry["brute_force"] == {"exists": False, "grid_points": 125}


def test_zero_set_mass_on_a_wide_basis_is_answered_and_confirmed(tmp_path, capsys):
    # 79 minimax rows, one per norming pair: within the cell caps.
    f = _moment_curve_problem(tmp_path, [[1] + [0] * 12 + [1]])
    (entry,) = run_json(capsys, "solve", "--input", f)["targets"]
    assert entry["outcome"] == "unique" and entry["coefficients"] == ["0", "0", "0"]
    assert entry["oracle"]["verdict"] == "confirmed"


@pytest.mark.parametrize("digits", [1, 10])
def test_solve_at_the_cell_caps_is_bounded(tmp_path, capsys, monkeypatch, digits):
    # 20 nodes, small or of 10 digits, cut 191 cell pairs: every minimax LP
    # and the grid's certificate LP have 191 rows.  The first target, with
    # mass on the zero row, is answered and confirmed; the second is
    # not-exists, and one accepted certificate settles its grid call.
    # About 0.3 s (small nodes) and 0.6 s (10-digit nodes) on 2 vCPUs.
    nodes = range(20)
    if digits == 10:
        nodes = sorted(random.Random(20).sample(range(10**9, 10**10), 20))
    targets = [[1] + [0] * 19 + [1], [3, -1] + [0] * 18 + ["1/2"]]
    f = _moment_curve_problem(tmp_path, targets, nodes)
    check, accepted = oracle.check_certificate, []

    def recorded(*args):
        accepted.append(check(*args))
        return accepted[-1]

    monkeypatch.setattr(oracle, "check_certificate", recorded)
    start = time.perf_counter()
    report = run_json(capsys, "solve", "--input", f, "--grid-radius", "5", "--grid-step", "1/2")
    assert time.perf_counter() - start < 5.0
    answered, refused = report["targets"]
    assert (answered["outcome"], answered["oracle"]["verdict"]) == ("unique", "confirmed")
    assert refused["outcome"] == "not-exists"
    assert refused["brute_force"] == {"exists": False, "grid_points": 21**3}
    assert accepted == [True]


@pytest.mark.parametrize("where", ["missing-dir/out.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    # A missing directory, or a directory given as the output file.
    path = str(tmp_path / where)
    code, out, err = run_cli(capsys, "classify", "--input", str(PROBLEMS / "span3_l16.json"),
                             "--output", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"coapprox classify: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_closed_stdout_exits_2_without_traceback():
    # stdout is a pipe whose read end is already closed, so the write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coapprox.cli", "norming-set", "--input",
             str(PROBLEMS / "span3_l16.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("coapprox norming-set: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


_GOOD_ENTRY = st.one_of(
    st.integers(-3, 3).map(str),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)),
    st.integers(-3, 3),
)
_BAD_VALUE = st.one_of(
    st.sampled_from(["1/0", "1.5", "1e3", "1/-2", "", "x", "--1", "9" * 5000]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_FAULTS = ("n", "entry", "ragged", "dependent", "oversized", "targets", "options",
           "top-level", "text")


@st.composite
def problem_documents(draw):
    """JSON text of a small problem file: valid, or (half the time) with one fault."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, min(n, 3)))
    vector = st.lists(_GOOD_ENTRY, min_size=n, max_size=n)
    doc = {
        "n": n,
        "basis": draw(st.lists(vector, min_size=m, max_size=m)),
        "targets": draw(st.lists(vector, min_size=1, max_size=2)),
        "options": {"grid_radius": draw(st.sampled_from(["0", "1", "1/2"])),
                    "grid_step": draw(st.sampled_from(["1", "1/2"]))},
    }
    if n > m and draw(st.booleans()):  # a zero set, for threshold
        for vec in doc["basis"]:
            vec[-1] = "0"
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    if fault == "n":
        doc["n"] = draw(st.sampled_from([True, False, 0, -1, "3", 2.0, None]))
    elif fault == "entry":
        vec = doc["basis"][draw(st.integers(0, m - 1))]
        vec[draw(st.integers(0, n - 1))] = draw(_BAD_VALUE)
    elif fault == "ragged":
        vec = doc["basis"][draw(st.integers(0, m - 1))]
        if draw(st.booleans()):
            vec.append("1")
        else:
            vec.pop()
    elif fault == "dependent":
        doc["basis"].append(list(doc["basis"][0]))
    elif fault == "oversized":
        # Rows (1, k, k^2, ...) are pairwise non-proportional: r = n hyperplanes.
        n, m = draw(st.sampled_from([(21, 2), (24, 3), (14, 4), (12, 10)]))
        doc["n"] = n
        doc["basis"] = [[str(k**j) for k in range(1, n + 1)] for j in range(m)]
        doc["targets"] = [["1"] * n]
    elif fault == "targets":
        doc["targets"] = draw(st.one_of(
            st.sampled_from([[], None]),
            _BAD_VALUE,
            st.lists(_BAD_VALUE, min_size=1, max_size=2),
            st.builds(lambda name, v: [{"name": name, "vector": v}],
                      st.one_of(st.text(max_size=2), _BAD_VALUE), _BAD_VALUE),
        ))
    elif fault == "options":
        doc["options"] = draw(st.one_of(
            _BAD_VALUE,
            st.dictionaries(
                st.sampled_from(["grid_radius", "grid_step"]),
                st.one_of(_BAD_VALUE, st.sampled_from(["-1", "0", -1, 0])),
                min_size=1,
            ),
        ))
    elif fault == "top-level":
        return json.dumps(draw(st.one_of(_BAD_VALUE, st.just([doc]))))
    elif fault == "text":
        return draw(st.sampled_from(["", "{", '{"n": 2,', "[1, 2", "nul", '{"n": NaN}']))
    return json.dumps(doc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=problem_documents(),
       command=st.sampled_from(["analyze", "norming-set", "solve", "classify", "threshold"]))
def test_cli_survives_generated_documents(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["command"] == command
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(f"coapprox {command}: ")


THRESHOLD_FILE = str(PROBLEMS / "span3_l17_threshold.json")


def _threshold_script(*argv):
    script = Path(__file__).resolve().parent.parent / "scripts" / "threshold_dichotomy.py"
    return subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True
    )


THRESHOLD_SCRIPT_OUTPUT = (
    "b1-extended: delta0 = 41/21\n"
    "  mass delta0 - step = 4079/2100: not-exists\n"
    "  mass delta0 = 41/21: unique\n"
    "  mass delta0 + step = 4121/2100: polytope\n"
)


def test_threshold_script_traces_the_dichotomy():
    proc = _threshold_script("--input", THRESHOLD_FILE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == THRESHOLD_SCRIPT_OUTPUT


def test_threshold_script_runs_one_minimax_lp_per_target(monkeypatch):
    # The script's four calls per target share one fiber, so one minimax
    # LP, and its multipliers certify a one-point optimal face, so no lex
    # search: the masses at and above delta0 both answer with its optimizer.
    # The fiber also keeps what its answers share: the unique and the
    # polytope answer read one combine between them, and the threshold is
    # built once.
    script = Path(__file__).resolve().parent.parent / "scripts" / "threshold_dichotomy.py"
    spec = importlib.util.spec_from_file_location("threshold_dichotomy", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls, searches, combines, thresholds = [], [], [], []
    lp = solver.solve_minimax_lp
    monkeypatch.setattr(solver, "solve_minimax_lp",
                        lambda *args, **kw: calls.append(args) or lp(*args, **kw))
    lex = solver.lex_extreme_alpha
    monkeypatch.setattr(solver, "lex_extreme_alpha",
                        lambda *args: searches.append(args[3]) or lex(*args))
    combine = SubspaceBasis.combine
    monkeypatch.setattr(SubspaceBasis, "combine",
                        lambda self, coeffs: combines.append(coeffs) or combine(self, coeffs))
    threshold = solver.ExistenceThreshold
    monkeypatch.setattr(solver, "ExistenceThreshold",
                        lambda *args: thresholds.append(args) or threshold(*args))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert module.main(["--input", THRESHOLD_FILE]) == 0
    assert (out.getvalue(), len(calls), searches) == (THRESHOLD_SCRIPT_OUTPUT, 1, [])
    assert (len(combines), len(thresholds)) == (1, 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--input", THRESHOLD_FILE, "--step", "abc"), "not a rational literal"),
        (("--input", THRESHOLD_FILE, "--step", "0"), "step must be positive"),
        (("--input", THRESHOLD_FILE, "--step=-1/2"), "step must be positive"),
        (("--input", "no-such-problem.json"), "cannot read"),
    ],
)
def test_threshold_script_errors_exit_2_without_traceback(argv, message):
    proc = _threshold_script(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert message in proc.stderr
