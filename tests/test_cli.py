import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coapprox import norming, solver
from coapprox.cli import main

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
    "patch, field",
    [
        ({"n": True, "basis": [["1"]]}, "n"),
        ({"options": {"trials": True}}, "options.trials"),
        ({"options": {"seed": False}}, "options.seed"),
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


# Digest of every command's exit code and output on every sample problem,
# hashed exactly as perfbench/smoke.py does; any report change moves it.
GOLDEN_DIGEST = "523caa7d753c7b94dc25c9031bc23c832daab6a24e3a8cbd3ef3cb865e6c20b3"


def test_reports_match_golden_digest():
    overall = hashlib.sha256()
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in ("analyze", "norming-set", "solve", "classify", "threshold"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path)])
            overall.update(f"exit={code}\n{out.getvalue()}{err.getvalue()}".encode() + b"\0")
    assert overall.hexdigest() == GOLDEN_DIGEST


def test_norming_set_builds_each_artefact_once(capsys, monkeypatch):
    calls = {"build_arrangement": 0, "enumerate_cells": 0}
    for name in calls:
        original = getattr(norming, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(norming, name, counted)
        monkeypatch.setattr(solver, name, counted)
    run_json(capsys, "norming-set", "--input", str(PROBLEMS / "span3_l16.json"))
    assert calls == {"build_arrangement": 1, "enumerate_cells": 1}


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


@pytest.mark.parametrize("flag", ["--trials", "--seed", "--grid-radius", "--grid-step"])
@pytest.mark.parametrize("command", ["analyze", "norming-set", "classify", "threshold"])
def test_solve_options_are_refused_by_other_commands(capsys, command, flag):
    # Only solve reads the oracle's settings; elsewhere they are usage errors.
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(PROBLEMS / "span3_l16.json"), flag, "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert flag in captured.err


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


def test_norming_set_work_counts(capsys, margin_lps):
    # Exact work on the worked fixture: a kernel change that runs more
    # margin LPs, or finds other cells, fails here without any timing.
    report = run_json(capsys, "norming-set", "--input", str(PROBLEMS / "span3_l16.json"))
    assert (margin_lps["lp_max"], len(report["cells"])) == (15, 7)


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
        # The zero-set polytope needs every cell: one inequality each.
        ("solve", "line_l12_polytope.json", 1),
        ("solve", "pair_l17_coproximinal.json", 3),
        ("solve", "span3_l17_threshold.json", 15),
        ("threshold", "line_l12_polytope.json", 1),
        ("threshold", "pair_l17_coproximinal.json", 3),
        ("threshold", "span3_l17_threshold.json", 15),
    ],
)
def test_margin_lp_counts(capsys, margin_lps, command, name, expected):
    run_json(capsys, command, "--input", str(PROBLEMS / name))
    assert margin_lps["lp_max"] == expected


@pytest.mark.parametrize(
    "name, expected",
    [("pair_l17_coproximinal.json", (1, 1, 1)), ("line_l12_polytope.json", (1, 1, 1))],
)
def test_solve_work_counts(capsys, monkeypatch, name, expected):
    # Exact per-target solve work: minimax LPs, lex_extreme_alpha calls
    # and the lex LPs they run, counted at the names the solver calls.
    calls = {"solve_minimax_lp": 0, "lex_extreme_alpha": 0, "lp_min": 0}
    for fn_name in calls:

        def counted(*args, _fn=getattr(solver, fn_name), _name=fn_name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, fn_name, counted)
    run_json(capsys, "solve", "--input", str(PROBLEMS / name))
    assert tuple(calls.values()) == expected


def test_verifier_probe_cap_exits_3_at_once(tmp_path, capsys, monkeypatch):
    # m = 9: the identity plus a row proportional to the first passes the
    # cell caps, but its member target would have the verifier sweep
    # 5^9 probes (more than 8 s per target uncapped).  Refused before
    # any solve.
    monkeypatch.setattr("coapprox.cli.solve_general", None)
    n, m = 10, 9
    basis = [["1" if i == j or (j == 0 and i == n - 1) else "0" for i in range(n)]
             for j in range(m)]
    f = tmp_path / "m9.json"
    f.write_text(json.dumps({"n": n, "basis": basis, "targets": [["1"] * n]}),
                 encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", "--input", str(f))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "probes" in err


def test_verifier_trials_cap_exits_3_at_once(capsys, monkeypatch):
    monkeypatch.setattr("coapprox.cli.solve_general", None)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", "--input",
                             str(PROBLEMS / "pair_l15_cochebyshev.json"), "--trials", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "probes" in err


@pytest.mark.parametrize("m", [4, 10])
def test_cell_pair_cap_exits_3_at_once(tmp_path, capsys, m):
    # Refused before any LP.  Uncapped, the m = 4 basis (19 hyperplanes,
    # bound 988) has 943 cells found by 7885 margin LPs; the m = 10 one
    # (20 hyperplanes) may cut 262144 cell pairs.
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
        "options": {"trials": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 3)),
                    "grid_radius": draw(st.sampled_from(["0", "1", "1/2"])),
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
                st.sampled_from(["trials", "seed", "grid_radius", "grid_step"]),
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


def test_threshold_script_traces_the_dichotomy():
    proc = _threshold_script("--input", THRESHOLD_FILE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "b1-extended: delta0 = 41/21",
        "  mass delta0 - step = 4079/2100: not-exists",
        "  mass delta0 = 41/21: unique",
        "  mass delta0 + step = 4121/2100: polytope",
    ]


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
