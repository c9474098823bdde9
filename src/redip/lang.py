"""The loop-free source language: AST, parser, and desugaring.

Core statements (everything the translator and the reference interpreter
understand) are: set a variable to zero, add a constant / another variable /
a distribution sample / an iid sum of samples, decrement, observe a guard,
probabilistic choice, conditional, and sequencing. `Program` declares that
set once; `program_size` and `program_vars` read one table of each
statement's fields, built from it.

Surface conveniences are rewritten into core nodes as they are parsed, in
one pass; the sugar that needs a variable binds to x0, the first variable
token of the program (`x` when there is none):

* `skip`               -> `x0 += 0`
* `x := e` (linear e)  -> set-to-zero plus increments; a self-reference with
                          coefficient one skips the set-to-zero
* comparisons          -> threshold atoms, conjunction and negation, built
                          by `guards.compare_guard`
* `g or h`             -> `not (not g and not h)`
* `true` / `false`     -> `x0 >= 0` / `x0 < 0`, built the same way

Programs are plain text, one statement chain separated by `;`, with `{}`
blocks, `//` line comments, and UTF-8 encoding. Nesting is capped at 100
levels. One table, `_DISTS`, declares every distribution's syntax: the
reserved names, what the parser reads and what `dist_to_text` prints.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union, get_args

from .dists import (
    Bernoulli,
    Binomial,
    Custom,
    Dirac,
    DistSpec,
    Geometric,
    NegBinomial,
    Uniform,
)
from .errors import InvalidParameter, ProbabilityRangeError, RedipSyntaxError, UnknownVariable
from .guards import And, Guard, LessThan, ModEq, Not, compare_guard, guard_negate, guard_vars

# ---------------------------------------------------------------- core AST


@dataclass(frozen=True)
class SetZero:
    var: str


@dataclass(frozen=True)
class IncrConst:
    var: str
    amount: int


@dataclass(frozen=True)
class IncrDist:
    var: str
    dist: DistSpec


@dataclass(frozen=True)
class IncrVar:
    var: str
    source: str


@dataclass(frozen=True)
class IncrIid:
    """Add the sum of `count_var` independent draws from `dist` to `var`."""

    var: str
    dist: DistSpec
    count_var: str


@dataclass(frozen=True)
class Decrement:
    var: str


@dataclass(frozen=True)
class Observe:
    guard: Guard


@dataclass(frozen=True)
class Choice:
    left: Program
    prob: Fraction
    right: Program


@dataclass(frozen=True)
class IfElse:
    guard: Guard
    then_branch: Program
    else_branch: Program


@dataclass(frozen=True)
class Seq:
    first: Program
    second: Program


Program = Union[
    SetZero, IncrConst, IncrDist, IncrVar, IncrIid, Decrement, Observe, Choice, IfElse, Seq
]

# The statement set is declared once, as `Program`. The walks read each
# statement's fields from this table: a child statement, a guard, or, when it
# is a `str`, a variable. Annotations are deferred, so `f.type` is their text.
_FIELDS: dict[type, tuple[tuple[str, str], ...]] = {
    cls: tuple((f.name, f.type) for f in fields(cls) if f.type in ("Program", "Guard", "str"))
    for cls in get_args(Program)
}


def _fields(p: Program) -> tuple[tuple[str, str], ...]:
    try:
        return _FIELDS[type(p)]
    except KeyError:
        raise TypeError(f"not a program: {p!r}") from None


def program_size(p: Program) -> int:
    """Statement count: sequencing adds, branching adds one for the split."""
    children = sum(program_size(getattr(p, n)) for n, kind in _fields(p) if kind == "Program")
    return children + (type(p) is not Seq)


def program_vars(p: Program) -> tuple[str, ...]:
    """Variables in order of first appearance; this is the program alphabet."""
    out: dict[str, None] = {}

    def walk(node: Program) -> None:
        for name, kind in _fields(node):
            value = getattr(node, name)
            if kind == "Program":
                walk(value)
            elif kind == "Guard":
                out.update(dict.fromkeys(guard_vars(value)))
            else:
                out[value] = None

    walk(p)
    return tuple(out)


def seq_all(stmts: list[Program]) -> Program:
    """Sequence statements as a balanced tree, so that every walk over `Seq`
    recurses O(log n) deep on an n-statement chain; three statements keep the
    left-associated shape Seq(Seq(a, b), c)."""
    if not stmts:
        raise ValueError("empty statement list")
    if len(stmts) == 1:
        return stmts[0]
    mid = (len(stmts) + 1) // 2
    return Seq(seq_all(stmts[:mid]), seq_all(stmts[mid:]))


# ---------------------------------------------------------------- tokens

_KEYWORDS = {
    "if", "else", "observe", "skip", "iid", "true", "false", "and", "or", "not",
}
# The one table of distribution syntax: name -> (spec class, argument kinds in
# field order, each the _Parser method that reads it). The names are reserved,
# so a stray `geometric` used as a variable fails instead of shadowing it.
_DISTS: dict[str, tuple[type, tuple[str, ...]]] = {
    "geometric": (Geometric, ("probability",)),
    "bernoulli": (Bernoulli, ("probability",)),
    "dirac": (Dirac, ("natural",)),
    "uniform": (Uniform, ("natural",)),
    "binomial": (Binomial, ("natural", "probability")),
    "negbinomial": (NegBinomial, ("natural", "probability")),
    "custom": (Custom, ("string",)),
}
# the deepest nesting accepted: each `{…}` block, parenthesized guard, `not` and
# further operand of one `and`/`or` chain (its tree is as deep as it is long)
# adds a level, which keeps recursive walks far from Python's recursion limit
_MAX_NESTING = 100
# one alternative per token kind, tried in order; names and numbers are ASCII
# only (`\w` and `\d` would also take other scripts' letters and digits)
_TOKEN_RE = re.compile(
    r"""
      (?P<NL>\n)
    | (?P<SKIP>[ \t\r]+ | //[^\n]*)
    | (?P<OP>:= | \+= | -= | -- | <= | >= | == | != | [;{}\[\](),%+*/<>])
    | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | "(?P<STRING>[^"\n]*)"
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # IDENT, NUMBER, STRING, OP, KEYWORD, EOF
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    pos, n = 0, len(source)
    match = _TOKEN_RE.match
    while pos < n:
        m = match(source, pos)
        if m is None:
            ch = source[pos]
            message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise RedipSyntaxError(message, line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind != "SKIP":
            text = m.group(kind)
            if kind == "IDENT" and text in _KEYWORDS:
                kind = "KEYWORD"
            toks.append(Token(kind, text, line, pos - line_start + 1))
        pos = m.end()
    toks.append(Token("EOF", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, tokens: list[Token], x0: str):
        self.toks = tokens
        self.pos = 0
        self.x0 = x0  # the variable `skip`, `true` and `false` are rewritten onto
        self.depth = 0  # nesting levels open at the current token

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def error(self, message: str, tok: Optional[Token] = None) -> RedipSyntaxError:
        tok = tok or self.cur
        return RedipSyntaxError(message, tok.line, tok.col)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            got = self.cur.text or self.cur.kind
            raise self.error(f"expected {want!r}, got {got!r}")
        return tok

    def descend(self, tok: Token) -> None:
        """Open one more nesting level at `tok`; callers restore the depth."""
        if self.depth == _MAX_NESTING:
            raise self.error(f"nesting deeper than {_MAX_NESTING}", tok)
        self.depth += 1

    def number(self, tok: Token, kind: type = int):
        try:
            return kind(tok.text)
        except ValueError:  # int() refuses numbers past sys.get_int_max_str_digits()
            raise self.error(f"cannot read a {len(tok.text)}-character number", tok) from None

    def variable(self) -> str:
        tok = self.cur
        if tok.kind != "IDENT":
            raise self.error(f"expected a variable name, got {tok.text or tok.kind!r}")
        if tok.text in _DISTS:
            raise self.error(f"{tok.text!r} is a reserved distribution name")
        self.pos += 1
        return tok.text

    def natural(self) -> int:
        tok = self.expect("NUMBER")
        if "." in tok.text:
            raise self.error("expected a natural number, got a decimal", tok)
        return self.number(tok)

    def string(self) -> str:
        return self.expect("STRING").text

    def probability(self) -> Fraction:
        tok = self.expect("NUMBER")
        value = self.number(tok, Fraction)  # exact: "0.5" -> 1/2
        if self.accept("OP", "/"):
            if "." in tok.text:
                raise self.error("ratio parts must be naturals", tok)
            den_tok = self.expect("NUMBER")
            if "." in den_tok.text:
                raise self.error("ratio parts must be naturals", den_tok)
            den = self.number(den_tok)
            if den == 0:
                raise self.error("zero denominator", den_tok)
            value /= den
        if not 0 <= value <= 1:
            raise ProbabilityRangeError(f"probability {value} outside [0, 1]", tok.line, tok.col)
        return value

    # ----- programs and statements

    def program(self) -> Program:
        stmts = [self.statement()]
        while self.accept("OP", ";"):
            if self.cur.kind == "EOF" or self.cur.text == "}":
                break  # tolerate a trailing separator
            stmts.append(self.statement())
        return seq_all(stmts)

    def block(self) -> Program:
        self.descend(self.expect("OP", "{"))
        body = self.program()
        self.expect("OP", "}")
        self.depth -= 1
        return body

    def statement(self) -> Program:
        tok = self.cur
        if self.accept("KEYWORD", "skip"):
            return IncrConst(self.x0, 0)
        if self.accept("KEYWORD", "observe"):
            self.expect("OP", "(")
            g = self.guard()
            self.expect("OP", ")")
            return Observe(g)
        if self.accept("KEYWORD", "if"):
            self.expect("OP", "(")
            g = self.guard()
            self.expect("OP", ")")
            then_branch = self.block()
            self.expect("KEYWORD", "else")
            else_branch = self.block()
            return IfElse(g, then_branch, else_branch)
        if tok.text == "{":
            left = self.block()
            self.expect("OP", "[")
            prob = self.probability()
            self.expect("OP", "]")
            right = self.block()
            return Choice(left, prob, right)
        if tok.kind == "IDENT":
            var = self.variable()
            if self.accept("OP", ":="):
                return self.assignment(var)
            if self.accept("OP", "+="):
                return self.increment(var)
            if self.accept("OP", "--"):
                return Decrement(var)
            if self.accept("OP", "-="):
                if not self.accept("NUMBER", "1"):
                    raise self.error(
                        f"only '{var} -= 1' is supported (decrement by one, truncated "
                        f"at zero), got '-= {self.cur.text or self.cur.kind}'"
                    )
                return Decrement(var)
            raise self.error("expected ':=', '+=', '-= 1' or '--' after variable")
        raise self.error(f"expected a statement, got {tok.text or tok.kind!r}")

    def assignment(self, var: str) -> Program:
        at = self.cur
        const, coeffs = self.linear_expr()
        self_coeff = coeffs.pop(var, 0)
        if self_coeff > 1:
            raise self.error(
                f"cannot expand assignment: {var!r} occurs with coefficient {self_coeff}", at
            )
        stmts: list[Program] = []
        if self_coeff == 0:
            stmts.append(SetZero(var))
        if const > 0:
            stmts.append(IncrConst(var, const))
        for source, k in coeffs.items():
            stmts.extend(IncrVar(var, source) for _ in range(k))
        if not stmts:
            stmts.append(IncrConst(var, 0))  # x := x
        return seq_all(stmts)

    def linear_expr(self) -> tuple[int, dict[str, int]]:
        const = 0
        coeffs: dict[str, int] = {}

        def term() -> None:
            nonlocal const
            if self.cur.kind == "NUMBER":
                k = self.natural()
                if self.accept("OP", "*"):
                    v = self.variable()
                    coeffs[v] = coeffs.get(v, 0) + k
                else:
                    const += k
            else:
                v = self.variable()
                coeffs[v] = coeffs.get(v, 0) + 1

        term()
        while self.accept("OP", "+"):
            term()
        return const, coeffs

    def increment(self, var: str) -> Program:
        tok = self.cur
        if tok.kind == "NUMBER":
            return IncrConst(var, self.natural())
        if self.accept("KEYWORD", "iid"):
            self.expect("OP", "(")
            dist = self.distribution()
            self.expect("OP", ",")
            count_var = self.variable()
            self.expect("OP", ")")
            return IncrIid(var, dist, count_var)
        if tok.kind == "IDENT" and tok.text in _DISTS:
            return IncrDist(var, self.distribution())
        if tok.kind == "IDENT":
            return IncrVar(var, self.variable())
        raise self.error("expected an amount, variable, or distribution after '+='")

    def distribution(self) -> DistSpec:
        tok = self.cur
        if tok.kind != "IDENT" or tok.text not in _DISTS:
            raise self.error(f"expected a distribution name, got {tok.text or tok.kind!r}")
        self.pos += 1
        cls, kinds = _DISTS[tok.text]
        self.expect("OP", "(")
        args = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect("OP", ",")
            args.append(getattr(self, kind)())
        try:
            spec = cls(*args)
        except InvalidParameter as exc:
            raise self.error(str(exc), tok) from exc
        self.expect("OP", ")")
        return spec

    # ----- guards (precedence: not > and > or)

    def guard(self) -> Guard:
        depth = self.depth
        left = self.guard_conj()
        while tok := self.accept("KEYWORD", "or"):
            self.descend(tok)
            right = self.guard_conj()
            left = Not(And(Not(left), Not(right)))
        self.depth = depth
        return left

    def guard_conj(self) -> Guard:
        depth = self.depth
        left = self.guard_neg()
        while tok := self.accept("KEYWORD", "and"):
            self.descend(tok)
            left = And(left, self.guard_neg())
        self.depth = depth
        return left

    def guard_neg(self) -> Guard:
        if tok := self.accept("KEYWORD", "not"):
            self.descend(tok)
            inner = self.guard_neg()
            self.depth -= 1
            return guard_negate(inner)
        return self.guard_primary()

    def guard_primary(self) -> Guard:
        tok = self.cur
        if self.accept("KEYWORD", "true"):
            return compare_guard(self.x0, ">=", 0)
        if self.accept("KEYWORD", "false"):
            return compare_guard(self.x0, "<", 0)
        if self.accept("OP", "("):
            self.descend(tok)
            g = self.guard()
            self.expect("OP", ")")
            self.depth -= 1
            return g
        if tok.kind == "IDENT":
            return self.guard_atom()
        raise self.error(f"expected a guard, got {tok.text or tok.kind!r}")

    def guard_atom(self) -> Guard:
        var = self.variable()
        op_tok = self.cur
        if self.accept("OP", "%"):
            modulus = self.natural()
            self.expect("OP", "==")
            residue = self.natural()
            if modulus <= residue:
                raise self.error(
                    f"congruence needs modulus > residue, got {modulus} <= {residue}", op_tok
                )
            return ModEq(var, modulus, residue)
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if self.accept("OP", op):
                return compare_guard(var, op, self.natural())
        raise self.error("expected a comparison operator", op_tok)


def parse_program(source: str) -> Program:
    """Parse and desugar a source program; raises RedipSyntaxError with a
    1-based line:column position on bad input."""
    tokens = tokenize(source)
    # the parser reads every other identifier as a variable, in token order
    x0 = next((t.text for t in tokens if t.kind == "IDENT" and t.text not in _DISTS), "x")
    parser = _Parser(tokens, x0)
    p = parser.program()
    parser.expect("EOF")
    return p


def parse_guard(source: str, alphabet: tuple[str, ...]) -> Guard:
    """Parse a standalone guard (for queries). Variables must come from the
    given alphabet."""
    parser = _Parser(tokenize(source), alphabet[0] if alphabet else "x")
    g = parser.guard()
    parser.expect("EOF")
    unknown = [v for v in guard_vars(g) if v not in alphabet]
    if unknown:
        raise UnknownVariable(f"guard mentions {unknown} outside {alphabet}")
    return g


def parse_valuation(text: str) -> dict[str, int]:
    """Parse "x=2,r=0" into a valuation mapping."""
    out: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or not value or not (value.isascii() and value.isdigit()):
            raise InvalidParameter(f"malformed valuation entry {part!r} (want var=nat)")
        if name in out:
            raise InvalidParameter(f"variable {name!r} given twice in valuation")
        out[name] = int(value)
    if not out:
        raise InvalidParameter("empty valuation")
    return out


# ---------------------------------------------------------------- rendering


def guard_to_text(g: Guard) -> str:
    if isinstance(g, LessThan):
        return f"{g.var} < {g.bound}"
    if isinstance(g, ModEq):
        return f"{g.var} % {g.modulus} == {g.residue}"
    if isinstance(g, And):
        return f"({guard_to_text(g.left)} and {guard_to_text(g.right)})"
    if isinstance(g, Not):
        return f"not ({guard_to_text(g.inner)})"
    raise TypeError(f"not a core guard: {g!r}")


def dist_to_text(d: DistSpec) -> str:
    for name, (cls, kinds) in _DISTS.items():
        if type(d) is cls:
            values = [getattr(d, f.name) for f in fields(d)]
            args = [f'"{v}"' if k == "string" else str(v) for v, k in zip(values, kinds)]
            return f"{name}({', '.join(args)})"
    raise TypeError(f"not a distribution: {d!r}")


def _stmt_list(p: Program) -> Iterator[Program]:
    if isinstance(p, Seq):
        yield from _stmt_list(p.first)
        yield from _stmt_list(p.second)
    else:
        yield p


def program_to_text(p: Program, indent: str = "") -> str:
    return ";\n".join(_stmt_text(stmt, indent) for stmt in _stmt_list(p))


def _stmt_text(p: Program, indent: str) -> str:
    pad = indent
    inner = indent + "  "
    if isinstance(p, SetZero):
        return f"{pad}{p.var} := 0"
    if isinstance(p, IncrConst):
        return f"{pad}{p.var} += {p.amount}"
    if isinstance(p, IncrDist):
        return f"{pad}{p.var} += {dist_to_text(p.dist)}"
    if isinstance(p, IncrVar):
        return f"{pad}{p.var} += {p.source}"
    if isinstance(p, IncrIid):
        return f"{pad}{p.var} += iid({dist_to_text(p.dist)}, {p.count_var})"
    if isinstance(p, Decrement):
        return f"{pad}{p.var}--"
    if isinstance(p, Observe):
        return f"{pad}observe({guard_to_text(p.guard)})"
    if isinstance(p, Choice):
        return (
            f"{pad}{{\n{program_to_text(p.left, inner)}\n{pad}}} [{p.prob}] {{\n"
            f"{program_to_text(p.right, inner)}\n{pad}}}"
        )
    if isinstance(p, IfElse):
        return (
            f"{pad}if ({guard_to_text(p.guard)}) {{\n{program_to_text(p.then_branch, inner)}\n"
            f"{pad}}} else {{\n{program_to_text(p.else_branch, inner)}\n{pad}}}"
        )
    raise TypeError(f"not a statement: {p!r}")
