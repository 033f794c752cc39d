#!/usr/bin/env python3
"""One-shot smoke pass: every CLI command on every ``problems/*.json``.

    python3 perfbench/smoke.py

Runs ``analyze``, ``norming-set``, ``solve``, ``classify`` and
``threshold`` in-process on each sample problem (options as the file
gives them) and prints, as one JSON object, the exit code and the sha256
of the output of each, plus one digest over all of them.  Commands that do
not apply to a file are recorded with the exit code they give (2 or 4).
Two commits with equal digests produce byte-identical reports.  Not
timed, and not a benchmark workload.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from run import ROOT, fresh_import, metadata

COMMANDS = ("analyze", "norming-set", "solve", "classify", "threshold")


def main() -> int:
    try:
        mods = fresh_import()
    except ImportError as exc:
        print(f"perfbench smoke: cannot import coapprox: {exc}", file=sys.stderr)
        return 2
    table: dict = {}
    overall = hashlib.sha256()
    for path in sorted((ROOT / "problems").glob("*.json")):
        row = table[path.name] = {}
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main([command, "--input", str(path)])
            text = f"exit={code}\n{out.getvalue()}{err.getvalue()}"
            row[command] = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
            overall.update(text.encode() + b"\0")
    print(json.dumps({"problems": table, "sha256": overall.hexdigest(), **metadata()},
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
