#!/usr/bin/env python3
"""Walk one program through the engine and show everything it produces:
the desugared source, each automaton construction with its size before and
after trimming, the normalizing constant, and per-variable marginals.

    PYTHONPATH=src python3 scripts/posterior_demo.py programs/insurance.redip --upto 6
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from redip import infer, load_pga, marginal, parse_program
from redip.lang import program_to_text


def frac(q: Fraction) -> str:
    return f"{q} (= {float(q):.6g})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("program", type=Path, help="a .redip source file")
    ap.add_argument("--prior", help="automaton JSON file for the prior")
    ap.add_argument("--upto", type=int, default=8, help="marginal table bound")
    ap.add_argument("--no-steps", action="store_true", help="skip the step table")
    args = ap.parse_args()

    p = parse_program(args.program.read_text())
    prior = load_pga(args.prior) if args.prior else None
    res = infer(p, prior=prior)

    print("program")
    print("  " + program_to_text(p).replace("\n", "\n  "))
    print()

    if not args.no_steps:
        width = max(len(s.detail) for s in res.steps)
        print("construction steps (raw size -> kept size, kept states)")
        for s in res.steps:
            print(f"  {s.construction:<17} {s.detail:<{width}}  {s.pre_trim_size:>4} -> {s.post_trim_size:<4} {s.states:>4}")
        print()

    print(f"prior mass:           {frac(res.prior_mass)}")
    print(f"normalizing constant: {frac(res.normalizing_constant)}")
    print(f"violation mass:       {frac(res.violation_mass)}")
    print(f"posterior automaton:  {res.posterior.num_states} states, {res.posterior.size} transitions")
    print()

    for var in res.alphabet:
        probs, tail = marginal(res.posterior, var, args.upto)
        print(f"posterior marginal of {var}")
        for k, q in enumerate(probs):
            bar = "#" * round(40 * float(q))
            print(f"  {k:>3}  {str(q):>12}  {bar}")
        print(f"  tail {str(tail):>12}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
