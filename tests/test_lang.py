"""Surface language: tokens, parsing, desugaring, and rendering."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from redip import (
    And,
    Bernoulli,
    Choice,
    Decrement,
    Dirac,
    Geometric,
    IfElse,
    IncrConst,
    IncrDist,
    IncrIid,
    IncrVar,
    LessThan,
    ModEq,
    NegBinomial,
    Not,
    Observe,
    Seq,
    SetZero,
    Uniform,
    parse_guard,
    parse_program,
    program_size,
)
from redip.errors import (
    InvalidParameter,
    ProbabilityRangeError,
    RedipError,
    RedipSyntaxError,
    UnknownVariable,
)
from redip.lang import (
    dist_to_text,
    guard_to_text,
    parse_valuation,
    program_to_text,
    program_vars,
    seq_all,
    tokenize,
)

H = Fraction(1, 2)


# ----- tokens


def test_token_positions_and_kinds():
    toks = tokenize("x := 0 // noise\ny += 1")
    assert [(t.kind, t.text) for t in toks] == [
        ("IDENT", "x"),
        ("OP", ":="),
        ("NUMBER", "0"),
        ("IDENT", "y"),
        ("OP", "+="),
        ("NUMBER", "1"),
        ("EOF", ""),
    ]
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[3].line, toks[3].col) == (2, 1)


def test_two_char_operators_tokenize_whole():
    toks = tokenize("x--; x <= 1; x != 2; x >= 3")
    ops = [t.text for t in toks if t.kind == "OP"]
    assert "--" in ops and "<=" in ops and "!=" in ops and ">=" in ops


def test_unknown_character_is_a_syntax_error():
    with pytest.raises(RedipSyntaxError):
        tokenize("x += $")


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_only_ascii_digits_make_numbers(digit):
    with pytest.raises(RedipSyntaxError, match="unexpected character") as info:
        tokenize(f"x += {digit}")
    assert (info.value.line, info.value.column) == (1, 6)


# whole tokens and their pieces, then what the language refuses
PIECES = [
    "x", "y", "z_1", " ", "\t", "\r", "\n", "//", ":=", "+=", "-=", "--", "<=", ">=", "==",
    "!=", "<", ">", ";", "{", "}", "[", "]", "(", ")", ",", "%", "+", "*", "/", "0", "7",
    "1/2", "0.25", "1" * 30, "if", "else", "observe", "skip", "iid", "true", "false", "and",
    "or", "not", "geometric", "bernoulli", "dirac", "uniform", "binomial", "negbinomial",
    "custom", '"s.json"',
]
REFUSED = ['"', "=", "!", ":", "-", ".", "$", "\u00e9", "\u00b2", "\u0663"]
sources = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=40),
    st.lists(st.sampled_from(PIECES + REFUSED), max_size=40),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_tokens_sit_at_their_positions(source):
    lines = source.split("\n")
    try:
        toks = tokenize(source)
    except RedipSyntaxError as e:
        ch = lines[e.line - 1][e.column - 1]
        want = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
        assert str(e) == f"{e.line}:{e.column}: {want}"
        return
    for t in toks[:-1]:
        text = f'"{t.text}"' if t.kind == "STRING" else t.text
        assert lines[t.line - 1].startswith(text, t.col - 1)
    eof = toks[-1]
    assert (eof.kind, eof.line, eof.col) == ("EOF", len(lines), len(lines[-1]) + 1)


def test_eof_after_a_trailing_comment_is_one_past_the_line():
    for source, col in (("x += // trailing", 17), ("x +=    ", 9)):
        eof = tokenize(source)[-1]
        assert (eof.kind, eof.line, eof.col) == ("EOF", 1, col)


@settings(max_examples=300, deadline=None)
@given(sources)
def test_parsers_raise_only_redip_errors(source):
    for parse in (parse_program, lambda text: parse_guard(text, ("x", "y"))):
        try:
            parse(source)
        except RedipError:
            pass


# ----- statements


def test_set_zero_and_increments():
    assert parse_program("x := 0") == SetZero("x")
    assert parse_program("x += 3") == IncrConst("x", 3)
    assert parse_program("x += y") == IncrVar("x", "y")
    assert parse_program("x--") == Decrement("x")
    assert parse_program("x += geometric(1/2)") == IncrDist("x", Geometric(H))
    assert parse_program("x += iid(bernoulli(2/5), y)") == IncrIid(
        "x", Bernoulli(Fraction(2, 5)), "y"
    )


def test_minus_equals_one_is_the_decrement():
    assert parse_program("x -= 1") == Decrement("x")
    assert parse_program("x += 3; x -= 1") == Seq(IncrConst("x", 3), Decrement("x"))


def test_minus_equals_other_amounts_are_rejected():
    for source in ("x -= 2", "x -= y", "x -= 1.0"):
        with pytest.raises(RedipSyntaxError, match="only 'x -= 1' is supported"):
            parse_program(source)


def test_skip_is_a_zero_increment_on_the_first_variable():
    assert parse_program("skip") == IncrConst("x", 0)
    assert parse_program("y += 1; skip") == Seq(IncrConst("y", 1), IncrConst("y", 0))


def test_sugar_before_the_first_variable_binds_to_it():
    assert parse_program("skip; y += 1") == Seq(IncrConst("y", 0), IncrConst("y", 1))
    assert parse_program("observe(true); y += 1").first.guard == Not(LessThan("y", 0))
    assert parse_guard("true", ("y", "x")) == Not(LessThan("y", 0))


def test_not_true_collapses_the_double_negation():
    assert parse_program("observe(not true)").guard == LessThan("x", 0)


def test_sequencing_left_associates():
    p = parse_program("x := 0; x += 1; x--")
    assert p == Seq(Seq(SetZero("x"), IncrConst("x", 1)), Decrement("x"))
    assert p == seq_all([SetZero("x"), IncrConst("x", 1), Decrement("x")])


def test_trailing_semicolon_tolerated():
    assert parse_program("x += 1;") == IncrConst("x", 1)
    assert parse_program("{x += 1;} [1/2] {skip}").left == IncrConst("x", 1)


# ----- assignment expansion


def test_linear_assignment_expands():
    p = parse_program("y := x + 2")
    assert p == Seq(Seq(SetZero("y"), IncrConst("y", 2)), IncrVar("y", "x"))


def test_self_assignment_with_unit_coefficient_keeps_the_value():
    assert parse_program("x := x + 1") == IncrConst("x", 1)
    assert parse_program("x := x") == IncrConst("x", 0)


def test_assignment_with_repeated_variable_is_rejected():
    with pytest.raises(RedipSyntaxError, match="coefficient 2"):
        parse_program("x := 2*x")
    with pytest.raises(RedipSyntaxError, match="coefficient 2"):
        parse_program("x := x + x")


# ----- choice and probabilities


def test_choice_parses_both_probability_forms():
    assert parse_program("{x += 1} [1/4] {skip}").prob == Fraction(1, 4)
    assert parse_program("{x += 1} [0.25] {skip}").prob == Fraction(1, 4)


def test_probability_out_of_range():
    with pytest.raises(ProbabilityRangeError):
        parse_program("{skip} [7/4] {skip}")


# ----- guard desugaring


def test_comparisons_desugar_to_the_two_atoms():
    assert parse_program("observe(x < 2)").guard == LessThan("x", 2)
    assert parse_program("observe(x <= 2)").guard == LessThan("x", 3)
    assert parse_program("observe(x >= 2)").guard == Not(LessThan("x", 2))
    assert parse_program("observe(x > 2)").guard == Not(LessThan("x", 3))
    assert parse_program("observe(x == 1)").guard == And(
        LessThan("x", 2), Not(LessThan("x", 1))
    )
    assert parse_program("observe(x != 1)").guard == Not(
        And(LessThan("x", 2), Not(LessThan("x", 1)))
    )
    assert parse_program("observe(x % 3 == 1)").guard == ModEq("x", 3, 1)


def test_or_desugars_through_de_morgan():
    g = parse_program("observe(x < 1 or y < 1)").guard
    assert g == Not(And(Not(LessThan("x", 1)), Not(LessThan("y", 1))))


def test_true_false_use_the_first_variable():
    assert parse_program("observe(true)").guard == Not(LessThan("x", 0))
    assert parse_program("y += 1; observe(false)").second.guard == LessThan("y", 0)


def test_modulus_must_exceed_residue():
    with pytest.raises(RedipSyntaxError):
        parse_program("observe(x % 2 == 2)")


def test_if_else():
    p = parse_program("if (x < 1) {x += 1} else {skip}")
    assert p == IfElse(LessThan("x", 1), IncrConst("x", 1), IncrConst("x", 0))


# ----- reserved words


def test_distribution_names_are_reserved():
    with pytest.raises(RedipSyntaxError):
        parse_program("geometric := 0")
    with pytest.raises(RedipSyntaxError):
        parse_program("x += uniform")  # needs arguments, not a variable


# ----- program measures


INSURANCE = (
    "{r := 0} [9/10] {r := 1}; "
    "if (r == 0) {x += negbinomial(1, 1/2)} else {x += negbinomial(2, 1/2)}; "
    "observe(x >= 2)"
)


def test_insurance_program_measures():
    p = parse_program(INSURANCE)
    # choice counts 1 + |r:=0| + |r:=1 as SetZero;IncrConst| = 4,
    # the if adds 3, the observe 1
    assert program_size(p) == 8
    assert program_vars(p) == ("r", "x")


def test_program_vars_in_first_appearance_order():
    p = parse_program("observe(b < 1); a += c")
    assert program_vars(p) == ("b", "a", "c")


@pytest.mark.parametrize("walk", [program_size, program_vars])
@pytest.mark.parametrize("node", ["x += 1", LessThan("x", 1), None])
def test_program_walks_reject_a_non_program(walk, node):
    with pytest.raises(TypeError, match="not a program"):
        walk(node)


# ----- standalone guard and valuation parsing


def test_parse_guard_respects_alphabet():
    g = parse_guard("x < 3 and y % 2 == 0", ("x", "y"))
    assert g == And(LessThan("x", 3), ModEq("y", 2, 0))
    with pytest.raises(UnknownVariable):
        parse_guard("z < 1", ("x", "y"))


def test_parse_valuation():
    assert parse_valuation("x=2, r=0") == {"x": 2, "r": 0}
    assert parse_valuation("x = 5") == {"x": 5}
    with pytest.raises(InvalidParameter):
        parse_valuation("x=")
    with pytest.raises(InvalidParameter, match="malformed"):
        parse_valuation("x=\u0663")  # an Arabic-Indic three
    with pytest.raises(InvalidParameter, match="'x' given twice"):
        parse_valuation("x=0, x=1")
    with pytest.raises(InvalidParameter, match="empty valuation"):
        parse_valuation(" , ")


# ----- rendering round trip

VARS = ("x", "y")

dists = st.one_of(
    st.builds(Geometric, st.sampled_from([H, Fraction(1, 3)])),
    st.builds(Bernoulli, st.sampled_from([Fraction(2, 5), Fraction(1)])),
    st.builds(Dirac, st.integers(0, 3)),
    st.builds(Uniform, st.integers(1, 4)),
    st.builds(NegBinomial, st.integers(0, 2), st.just(H)),
)

# the parser collapses double negation, so renderable guards never nest Not
guards = st.recursive(
    st.one_of(
        st.builds(LessThan, st.sampled_from(VARS), st.integers(0, 4)),
        st.builds(lambda v, m, r: ModEq(v, m, r % m), st.sampled_from(VARS), st.integers(1, 4), st.integers(0, 3)),
    ),
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Not, inner.filter(lambda h: not isinstance(h, Not))),
    ),
    max_leaves=4,
)

statements = st.recursive(
    st.one_of(
        st.builds(SetZero, st.sampled_from(VARS)),
        st.builds(IncrConst, st.sampled_from(VARS), st.integers(0, 4)),
        st.builds(IncrDist, st.sampled_from(VARS), dists),
        st.builds(IncrVar, st.just("x"), st.just("y")),
        st.builds(IncrIid, st.just("x"), dists, st.just("y")),
        st.builds(Decrement, st.sampled_from(VARS)),
        st.builds(Observe, guards),
    ),
    lambda inner: st.one_of(
        st.builds(Seq, inner, inner),
        st.builds(Choice, inner, st.sampled_from([H, Fraction(9, 10)]), inner),
        st.builds(IfElse, guards, inner, inner),
    ),
    max_leaves=6,
)


def canonical_assoc(p):
    """Rebuild every Seq tree in the canonical association of `seq_all`;
    rendering flattens `;` chains, so association is the one shape a round
    trip cannot preserve."""
    if isinstance(p, Seq):
        flat = []
        stack = [p]
        while stack:
            node = stack.pop()
            if isinstance(node, Seq):
                stack.append(node.second)
                stack.append(node.first)
            else:
                flat.append(canonical_assoc(node))
        return seq_all(flat)
    if isinstance(p, Choice):
        return Choice(canonical_assoc(p.left), p.prob, canonical_assoc(p.right))
    if isinstance(p, IfElse):
        return IfElse(p.guard, canonical_assoc(p.then_branch), canonical_assoc(p.else_branch))
    return p


@settings(max_examples=200, deadline=None)
@given(statements)
def test_render_parse_round_trip(p):
    assert parse_program(program_to_text(p)) == canonical_assoc(p)


@settings(max_examples=100, deadline=None)
@given(guards)
def test_guard_render_round_trip(g):
    assert parse_guard(guard_to_text(g), VARS) == g


def test_dist_rendering():
    assert dist_to_text(Uniform(4)) == "uniform(4)"
    assert dist_to_text(Geometric(H)) == "geometric(1/2)"
    assert dist_to_text(NegBinomial(2, H)) == "negbinomial(2, 1/2)"


@pytest.mark.parametrize(
    "text",
    [
        "geometric(1/3)",
        "bernoulli(1/2)",
        "dirac(3)",
        "uniform(4)",
        "binomial(5, 1/3)",
        "negbinomial(2, 1/2)",
        'custom("die.json")',
    ],
)
def test_every_distribution_parses_and_renders_back(text):
    assert dist_to_text(parse_program(f"x += {text}").dist) == text
    assert dist_to_text(parse_program(f"x += iid({text}, y)").dist) == text


@pytest.mark.parametrize(
    "source, message",
    [
        ("{ skip } [1/0] { skip }", "1:13: zero denominator"),
        ("{ skip } [0.5/2] { skip }", "1:11: ratio parts must be naturals"),
        ("{ skip } [1/2.5] { skip }", "1:13: ratio parts must be naturals"),
        ("x += 1.5", "1:6: expected a natural number, got a decimal"),
        ("x += iid(bernoulli(1/2), 3)", "1:26: expected a variable name, got '3'"),
        ("x += iid(x, y)", "1:10: expected a distribution name, got 'x'"),
    ],
)
def test_malformed_numbers_and_iid_arguments_are_refused_where_they_stand(source, message):
    with pytest.raises(RedipSyntaxError) as info:
        parse_program(source)
    assert str(info.value) == message


def test_bad_distribution_parameter_reports_at_the_name():
    # the range check runs before the closing parenthesis is expected
    for source in ("x += geometric(0)", "x += uniform(0", "x += negbinomial(2, 0"):
        with pytest.raises(RedipSyntaxError) as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == (1, 6)


def test_pickled_program_hashes_afresh_in_another_process():
    """A program pickled in one process and loaded in another, with a
    different string hash seed, compares and hashes equal to the same
    program freshly parsed there: it finds itself as a dict key."""
    source = "{ x += 1 } [1/2] { skip }; if (x == 0) { y += x } else { skip }"
    code = (
        "import pickle, sys\n"
        "from redip import parse_program\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        f"assert {{p: 1}}[parse_program({source!r})] == 1\n"
    )
    p = parse_program(source)
    hash(p)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    run = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(p), env=env,
                         capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
