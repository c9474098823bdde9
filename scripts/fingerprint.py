#!/usr/bin/env python3
"""Print one fingerprint line per program, to check that two source trees
give bit-identical answers.

Each line holds the program's index and name, a SHA-256 prefix of the
posterior automaton's JSON (or the error class and message), the normalizing
constant z, and SHA-256 prefixes of the step records, of `program_to_text`,
of the answers (the program's own queries, then for every posterior
variable v the guard masses of `v >= 1` and `v % 2 == 0`, then the
coefficient at the all-zero valuation), and a SHA-256 prefix of the
coefficient table with every posterior variable's count up to 3, the one
answer that takes the multi-variable level path, and a SHA-256 prefix of the
Monte-Carlo report `mc_sample(program, 200, seed=<line index>)`, on every
line whose program parses. Every line carries `oracle=`, a SHA-256 prefix
of the exit code, stdout and stderr of `redip oracle <program file> --trunc
10` (with `--prior <file>` on the lines that start from a prior), run
in-process through `redip.cli.main`. The corpus is the benchmark's small
corpus for each seed given, geo-chain k=6 and k=14, dec-ladder m=8 and m=18,
a few programs heavy in syntactic sugar, and a few programs inferred from a
prior automaton, one of whose priors has a dead and an unreachable
state. The output does not depend on PYTHONHASHSEED. Run it once per tree
and compare:

    PYTHONPATH=<tree>/src python3 scripts/fingerprint.py --seeds 3 4 > <tree>.txt
    diff parent.txt change.txt

With `--answers-only` the `posterior=` and `steps=` columns are left out, so
the lines compare what a user can observe (z, the answers, the table, the
program text, the sampled counts, the oracle's output and the error messages)
and not the automaton that carries them. That is the identity check for a
change that reshapes the automaton, such as a reduction or a rewritten
construction.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep perfbench/ free of compiled files
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (the benchmark's corpus, imported read-only)
from redip import (  # noqa: E402
    RedipError,
    coefficient,
    coefficient_table,
    guard_mass,
    infer,
    load_pga,
    marginal,
    parse_guard,
    parse_program,
    pga_to_json,
)
from redip.cli import main as redip_main  # noqa: E402
from redip.lang import program_to_text  # noqa: E402
from redip.oracle import mc_sample  # noqa: E402

# one custom distribution, written next to the programs that read it
DIE = {
    "alphabet": ["x"],
    "states": 2,
    "edges": [{"src": 0, "dst": 1, "weight": "1/2", "symbol": "x"}],
    "initial": {"0": "1"},
    "final": {"0": "1/2", "1": "1"},
}

# prior automata, written next to DIE
PRIORS = {
    # 1/2 + 1/2 * Y^2 over (x, y)
    "two-atom.json": {
        "alphabet": ["x", "y"],
        "states": 3,
        "edges": [
            {"src": 0, "dst": 1, "weight": "1/2", "symbol": "y"},
            {"src": 1, "dst": 2, "weight": "1", "symbol": "y"},
        ],
        "initial": {"0": "1"},
        "final": {"0": "1/2", "2": "1"},
    },
    # mass 3/4 from states 0 and 1; state 2 is dead and loops with weight one,
    # state 3 is unreachable
    "dead.json": {
        "alphabet": ["x"],
        "states": 4,
        "edges": [
            {"src": 0, "dst": 1, "weight": "1/2", "symbol": "x"},
            {"src": 0, "dst": 2, "weight": "1/4"},
            {"src": 2, "dst": 2, "weight": "1", "symbol": "x"},
            {"src": 3, "dst": 1, "weight": "1", "symbol": "x"},
        ],
        "initial": {"0": "1"},
        "final": {"0": "1/4", "1": "1"},
    },
    # geometric(1/2) in z, a variable no program below mentions
    "geo.json": {
        "alphabet": ["z"],
        "states": 1,
        "edges": [{"src": 0, "dst": 0, "weight": "1/2", "symbol": "z"}],
        "initial": {"0": "1"},
        "final": {"0": "1/2"},
    },
}

# (prior file, program): the prior carries the state the program starts from
PRIORED = (
    ("two-atom.json", "{ x += y } [1/2] { skip }; observe(x == 0)"),
    ("two-atom.json", "x += geometric(1/2); if (y == 2) { x += 1 } else { skip }; observe(x < 4)"),
    ("dead.json", "x += bernoulli(1/3); observe(x < 2)"),
    ("geo.json", "x += binomial(3, 1/2); y += z; observe(y % 2 == 0 or x == 0)"),
)

SUGAR = (
    "skip; x += 2; observe(true); y := x + 1; observe(not false)",
    "x += uniform(4); if (x != 2) { y += dirac(3) } else { skip }; observe(x <= 2 or y > 1)",
    "x += binomial(5, 1/3); y += negbinomial(2, 1/2); observe(x >= 1 and y != 3)",
    "{ x += bernoulli(0.25) } [1/3] { x += geometric(1/2) }; observe(x == 1 or x == 0)",
    'x += custom("die.json"); y += iid(custom("die.json"), x); observe(y < 2)',
    "x += 3; x -= 1; x--; if (x % 2 == 0 or false) { y += x } else { y := 2 * x }",
    "observe(false); x += 1",
    "x += geometric(1/3); if (not (x < 2 and x > 0)) { x := 0 } else { skip }",
)


def corpus(seeds: list[int]) -> list[workloads.Case]:
    cases: list[workloads.Case] = []
    for seed in seeds:
        cases += workloads.small_corpus(seed)
    cases += workloads.geo_chain(0, 6) + workloads.geo_chain(0, 14)
    cases += workloads.dec_ladder(0, 8) + workloads.dec_ladder(0, 18)
    cases += [workloads.Case(f"sugar-{i}", src, ()) for i, src in enumerate(SUGAR)]
    return cases


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def oracle_run(source: str, prior: str) -> str:
    """`redip oracle --trunc 10` on the source, written to a file in the
    working directory: its exit code, stdout and stderr."""
    Path("program.redip").write_text(source, encoding="utf-8")
    argv = ["oracle", "program.redip", "--trunc", "10"] + (["--prior", prior] if prior else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = redip_main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def fingerprint(
    case: workloads.Case, seed: int, answers_only: bool = False, prior: str = ""
) -> str:
    """The line's columns; `seed` seeds the sampler, `prior` names the
    prior's file, if any."""
    text = "-"
    mc = ""
    oracle = f" oracle={digest(oracle_run(case.source, prior))}"
    try:
        p = parse_program(case.source)
        text = digest(program_to_text(p))
        mc = f" mc={digest(repr(mc_sample(p, 200, seed)))}"
        result = infer(p, load_pga(prior) if prior else None)
        posterior = result.posterior
        answers = [
            guard_mass(posterior, parse_guard(q.guard, posterior.alphabet))
            if q.guard is not None
            else marginal(posterior, q.var, q.upto)
            for q in case.queries
        ]
        for v in posterior.alphabet:
            for guard in (f"{v} >= 1", f"{v} % 2 == 0"):
                answers.append(guard_mass(posterior, parse_guard(guard, posterior.alphabet)))
        answers.append(coefficient(posterior, dict.fromkeys(posterior.alphabet, 0)))
        table = coefficient_table(posterior, dict.fromkeys(posterior.alphabet, 3))
    except RedipError as exc:
        return f"text={text}{mc}{oracle} error={type(exc).__name__}: {exc}"
    columns = {
        "posterior": digest(pga_to_json(posterior)),
        "z": result.normalizing_constant,
        "steps": digest(repr(result.steps)),
        "text": text,
        "answers": digest(repr(answers)),
        "table": digest(repr(table)),
    }
    if answers_only:
        del columns["posterior"], columns["steps"]
    return " ".join(f"{name}={value}" for name, value in columns.items()) + mc + oracle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4], help="small-corpus seeds")
    ap.add_argument(
        "--answers-only", action="store_true", help="leave out the posterior and step hashes"
    )
    args = ap.parse_args()
    runs = [(case, "") for case in corpus(args.seeds)]
    runs += [(workloads.Case(f"prior-{i}", src, ()), f) for i, (f, src) in enumerate(PRIORED)]
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in {"die.json": DIE, **PRIORS}.items():
            Path(tmp, name).write_text(json.dumps(doc), encoding="utf-8")
        os.chdir(tmp)  # the sugar programs name the custom file by a relative path
        for i, (case, prior) in enumerate(runs):
            print(f"{i} {case.name} {fingerprint(case, i, args.answers_only, prior)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
