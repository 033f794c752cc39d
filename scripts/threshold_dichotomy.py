#!/usr/bin/env python3
"""Trace the existence threshold on a problem file with a zero set.

For each target, prints delta0 and the solver outcome for fiber targets
whose zero-set mass steps across it.  Errors exit as the coapprox CLI
does (2 bad input, including a malformed or non-positive --step; 3
capacity; 4 precondition) with one line on stderr.
"""
import argparse
import sys
from fractions import Fraction as Q

from coapprox import (CoapproxError, ValidationError, existence_threshold,
                      parse_rational, prepare, solve_general)
from coapprox.cli import load_problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True)
    parser.add_argument("--step", default="1/100")
    args = parser.parse_args(argv)
    try:
        step = parse_rational(args.step)
        if step <= 0:
            raise ValidationError(f"step must be positive: {args.step!r}")
        problem = load_problem(args.input)
        pb = prepare(problem.basis)
        if not pb.profile.zero_set:
            print("basis has an empty zero set; threshold undefined", file=sys.stderr)
            return 4
        zero_coord = pb.profile.zero_set[0]
        for name, b in problem.targets:
            th = existence_threshold(problem.basis, pb.profile, b, prepared=pb)
            print(f"{name}: delta0 = {th.delta0}")
            for label, mass in (
                ("delta0 - step", th.delta0 - step),
                ("delta0", th.delta0),
                ("delta0 + step", th.delta0 + step),
            ):
                if mass < 0:
                    continue
                y = list(b)
                for i in pb.profile.zero_set:
                    y[i] = Q(0)
                y[zero_coord] = mass
                out = solve_general(problem.basis, pb.profile, tuple(y), prepared=pb)
                print(f"  mass {label} = {mass}: {out.kind.value}")
    except CoapproxError as exc:
        print(f"threshold_dichotomy: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
