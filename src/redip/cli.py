"""Command line front end.

Subcommands: parse, infer, query, check, export-dot, oracle.

Exit codes: 0 success, 1 syntax or usage problem in the input program, the
query or the command line, 2 infeasible conditioning (zero normalizing
constant), 3 I/O or automaton-file problem, 4 oracle comparison failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Any, Callable, NoReturn, Optional

from .analysis import validate_pga
from .errors import (
    InfeasibleObservation,
    InvalidParameter,
    PgaParseError,
    RedipError,
    RedipSyntaxError,
)
from .lang import (
    Program,
    parse_guard,
    parse_program,
    parse_valuation,
    program_size,
    program_to_text,
    program_vars,
)
from .oracle import compare, enumerate_program, mc_sample
from .rational import decimal_str, format_ext, format_weight
from .serialize import load_pga, pga_to_dot, save_pga
from .translate import coefficient, guard_mass, infer, marginal, translate


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_program(path: str) -> Program:
    return parse_program(_read_text(path))


def _show(value: Fraction, digits: int) -> str:
    return f"{format_weight(value)} (= {decimal_str(value, digits)})"


def _ast_json(node: Any) -> Any:
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        out: dict[str, Any] = {"node": type(node).__name__}
        for f in dataclasses.fields(node):
            out[f.name] = _ast_json(getattr(node, f.name))
        return out
    if isinstance(node, Fraction):
        return format_weight(node)
    return node


# ---------------------------------------------------------------- commands


def cmd_parse(args: argparse.Namespace) -> int:
    p = _load_program(args.file)
    if args.json:
        doc = {
            "variables": list(program_vars(p)),
            "size": program_size(p),
            "ast": _ast_json(p),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(program_to_text(p))
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    p = _load_program(args.file)
    prior = load_pga(args.prior) if args.prior else None
    result = infer(p, prior)
    digits = args.digits

    doc: dict[str, Any] = {
        "alphabet": list(result.alphabet),
        "normalizing_constant": format_weight(result.normalizing_constant),
        "prior_mass": format_weight(result.prior_mass),
        "violation_mass": format_weight(result.violation_mass),
    }
    lines = [
        f"alphabet: {', '.join(result.alphabet)}",
        f"normalizing constant: {_show(result.normalizing_constant, digits)}",
        f"violation mass: {_show(result.violation_mass, digits)}",
    ]

    if args.query:
        g = parse_guard(args.query, result.alphabet)
        prob = guard_mass(result.posterior, g)
        doc["query"] = {"guard": args.query, "probability": format_weight(prob)}
        lines.append(f"P({args.query}) = {_show(prob, digits)}")

    if args.marginal:
        probs, tail = marginal(result.posterior, args.marginal, args.upto)
        doc["marginal"] = {
            "variable": args.marginal,
            "probabilities": [format_weight(q) for q in probs],
            "tail": format_weight(tail),
        }
        for k, q in enumerate(probs):
            lines.append(f"P({args.marginal} = {k}) = {_show(q, digits)}")
        lines.append(f"P({args.marginal} > {args.upto}) = {_show(tail, digits)}")

    if args.steps:
        doc["steps"] = [dataclasses.asdict(s) for s in result.steps]
        lines.append("steps (construction, raw size -> kept size, kept states):")
        for s in result.steps:
            sizes = f"{s.pre_trim_size:>5} -> {s.post_trim_size:<5} {s.states:>5}"
            lines.append(f"  {s.construction:<17} {sizes}  {s.detail}")
        posterior = result.posterior
        doc.update(posterior_states=posterior.num_states, posterior_edges=posterior.size)
        lines.append(f"posterior: {posterior.num_states} states, {posterior.size} transitions")

    target = result.unnormalized if args.unnormalized else result.posterior
    if args.out:
        save_pga(target, args.out)
        doc["saved"] = args.out
        lines.append(f"saved {'unnormalized' if args.unnormalized else 'posterior'} to {args.out}")

    print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    a = load_pga(args.file)
    digits = args.digits
    if args.at is not None:
        valuation = parse_valuation(args.at)
        value = coefficient(a, valuation)
        label = f"coefficient at {args.at}"
    else:
        g = parse_guard(args.guard, a.alphabet)
        value = guard_mass(a, g)
        label = f"mass of {args.guard}"
    if args.json:
        print(json.dumps({"query": label, "value": format_weight(value)}))
    else:
        print(f"{label}: {_show(value, digits)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.file.endswith(".json"):
        a = load_pga(args.file)
        report = validate_pga(a)
        print(f"mass: {format_ext(report.mass)}")
        for issue in report.issues:
            print(f"note: {issue}")
        if report.is_pga:
            print("ok: probability generating automaton")
            return 0
        print("not a probability automaton (mass exceeds 1 or diverges)")
        return 1
    p = _load_program(args.file)
    print(f"ok: {program_size(p)} statements over {', '.join(program_vars(p))}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    if args.file.endswith(".json"):
        a = load_pga(args.file)
    else:
        a = translate(_load_program(args.file)).automaton
    text = pga_to_dot(a, name=args.name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    reads = {"enumerate": "--trunc --prior --digits", "compare": "--trunc --prior",
             "mc": "--samples --seed --limit --digits --prior"}  # mc refuses --prior below
    for flag in args.given:
        if flag not in reads[args.mode].split():
            raise InvalidParameter(f"--mode {args.mode} does not read {flag}")
    p = _load_program(args.file)
    prior = load_pga(args.prior) if args.prior else None
    digits = args.digits

    if args.mode == "compare":
        result = compare(p, prior, truncation=args.trunc)
        print(f"truncation: {args.trunc}, residual: {format_weight(result.residual)}")
        if result.ok:
            print("ok: translation agrees with enumeration")
            return 0
        for line in result.mismatches:
            print(f"mismatch: {line}")
        print(f"worst discrepancy: {format_weight(result.worst_discrepancy)}")
        return 4

    if args.mode == "mc":
        if prior is not None:
            raise InvalidParameter("mc sampling starts every run at zero and takes no --prior")
        if args.limit < 0:  # a negative slice bound would drop rows from the end
            raise InvalidParameter(f"row limit must be nonnegative, got {args.limit}")
        report = mc_sample(p, samples=args.samples, seed=args.seed)
        print(f"samples: {report.samples}, accepted: {report.accepted}, "
              f"violations: {report.violations}")
        top = sorted(report.counts.items(), key=lambda kv: (-kv[1], kv[0]))[: args.limit]
        for sigma, count in top:
            pairs = ", ".join(f"{v}={k}" for v, k in zip(report.alphabet, sigma))
            print(f"  {pairs}: {count} (~{count / max(report.accepted, 1):.{digits}f})")
        return 0

    report = enumerate_program(p, None, args.trunc, prior)
    print(f"truncation: {report.truncation}")
    for sigma in sorted(report.terminal):
        pairs = ", ".join(f"{v}={k}" for v, k in zip(report.alphabet, sigma))
        print(f"  {pairs}: {_show(report.terminal[sigma], digits)}")
    print(f"violation mass: {_show(report.violation, digits)}")
    print(f"truncated residual: {_show(report.residual, digits)}")
    return 0


# ---------------------------------------------------------------- wiring


class _Given(argparse.Action):
    """Stores the value and notes the flag in `given`: each oracle mode reads only some."""

    def __call__(self, parser: argparse.ArgumentParser, namespace: argparse.Namespace,
                 values: Any, flag: Optional[str] = None) -> None:
        setattr(namespace, self.dest, values)
        namespace.given += (flag,)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other input problem: argparse's own
    code 2 is taken by infeasible conditioning."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="redip", description="exact inference for loop-free discrete programs")
    sub = top.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        """A --digits value, refused below 1 before any command runs."""
        if (value := int(text)) < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    def command(
        name: str,
        handler: Callable[[argparse.Namespace], int],
        text: str,
        file_help: str,
        digits: bool = False,
        as_json: bool = False,
    ) -> argparse.ArgumentParser:
        """A subcommand with its file argument and only the output flags it reads."""
        sp = sub.add_parser(name, help=text)
        sp.add_argument("file", help=file_help)
        if digits:
            sp.add_argument("--digits", type=count, default=6, action=_Given, help="decimal digits")
        if as_json:
            sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(handler=handler, given=())
        return sp

    program_file, either_file = "program file, or - for stdin", "program file or automaton .json"
    command("parse", cmd_parse, "parse and echo the desugared program", program_file,
            as_json=True)

    sp = command("infer", cmd_infer, "exact posterior inference", program_file,
                 digits=True, as_json=True)
    sp.add_argument("--prior", help="automaton JSON file used as the prior")
    sp.add_argument("--query", help="guard whose posterior probability to report")
    sp.add_argument("--marginal", metavar="VAR", help="variable whose marginal to report")
    sp.add_argument("--upto", type=int, default=10, help="largest marginal point shown")
    sp.add_argument("--steps", action="store_true", help="show per-construction sizes")
    sp.add_argument("--unnormalized", action="store_true",
                    help="save the unnormalized, step-reduced translation instead of the posterior")
    sp.add_argument("-o", "--out", help="write the resulting automaton JSON here")

    sp = command("query", cmd_query, "query a stored automaton", "automaton JSON file",
                 digits=True, as_json=True)
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--at", help='valuation like "x=2,r=0": exact coefficient')
    which.add_argument("--guard", help="guard: probability mass of satisfying runs")

    command("check", cmd_check, "validate a program or automaton file", either_file)

    sp = command("export-dot", cmd_export_dot,
                 "render a program translation or automaton to DOT", either_file)
    sp.add_argument("--name", default="pga", help="graph name")
    sp.add_argument("-o", "--out", help="output file (default stdout)")

    sp = command("oracle", cmd_oracle, "reference interpreter and differential check",
                 program_file, digits=True)
    sp.add_argument("--mode", choices=("enumerate", "mc", "compare"), default="enumerate")
    sp.add_argument("--prior", action=_Given, help="automaton JSON file used as the prior")
    sp.add_argument("--trunc", type=int, default=40, action=_Given, help="draw truncation bound")
    sp.add_argument("--samples", type=int, default=100_000, action=_Given, help="mc sample count")
    sp.add_argument("--seed", type=int, default=0, action=_Given, help="mc rng seed")
    sp.add_argument("--limit", type=int, default=20, action=_Given, help="mc rows shown")

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except RedipSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleObservation as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, PgaParseError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except (RedipError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
