"""Command-line interface: subcommands, exit codes, output formats."""

import dataclasses
import json
import sys

import pytest

from redip import pga_from_json, pga_to_json, make_pga, Edge, infer, parse_program, translate
from redip.errors import RedipSyntaxError
from redip.cli import main

from fractions import Fraction

INSURANCE = """\
{r := 0} [9/10] {r := 1};
if (r == 0) {x += negbinomial(1, 1/2)} else {x += negbinomial(2, 1/2)};
observe(x >= 2)
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "p.redip"
    path.write_text(INSURANCE)
    return str(path)


@pytest.fixture
def prior_file(tmp_path):
    a = make_pga(
        ("x", "y"),
        3,
        [Edge(0, 1, Fraction(1, 2), "y"), Edge(1, 2, Fraction(1), "y")],
        {0: Fraction(1)},
        {0: Fraction(1, 2), 2: Fraction(1)},
    )
    path = tmp_path / "prior.json"
    path.write_text(pga_to_json(a))
    return str(path)


# ----- parse


def test_parse_echoes_core_program(program, capsys):
    assert main(["parse", program]) == 0
    out = capsys.readouterr().out
    assert "r := 0" in out
    assert "negbinomial(1, 1/2)" in out
    assert "observe(not (x < 2))" in out


def test_parse_json_reports_measures(program, capsys):
    assert main(["parse", program, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 8
    assert data["variables"] == ["r", "x"]


def test_parse_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.redip"
    bad.write_text("x +=")
    assert main(["parse", str(bad)]) == 1
    assert "syntax error" in capsys.readouterr().err


# ----- infer


def test_infer_reports_exact_values(program, capsys):
    assert main(["infer", program, "--query", "r >= 1"]) == 0
    out = capsys.readouterr().out
    assert "normalizing constant: 11/40 (= 0.275)" in out
    assert "violation mass: 29/40" in out
    assert "P(r >= 1) = 2/11" in out


def test_infer_json_round_trips_fractions(program, capsys):
    assert main(["infer", program, "--json", "--marginal", "x", "--upto", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["normalizing_constant"] == "11/40"
    assert data["marginal"]["probabilities"][2] == "21/44"
    assert data["marginal"]["tail"] == "3/11"


def test_infer_writes_posterior_automaton(program, tmp_path, capsys):
    out_path = tmp_path / "posterior.json"
    assert main(["infer", program, "-o", str(out_path)]) == 0
    posterior = pga_from_json(out_path.read_text())
    from redip import mass

    assert mass(posterior) == 1


def test_infer_with_prior_file(prior_file, tmp_path, capsys):
    p = tmp_path / "obs.redip"
    p.write_text("{ x += y } [1/2] { skip }; observe(x == 0)\n")
    assert main(["infer", str(p), "--prior", prior_file]) == 0
    out = capsys.readouterr().out
    assert "normalizing constant: 3/4" in out


def test_infer_infeasible_exit_code(tmp_path, capsys):
    p = tmp_path / "dead.redip"
    p.write_text("x := 0; observe(x >= 1)\n")
    assert main(["infer", str(p)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_infer_steps_table(program, capsys):
    assert main(["infer", program, "--steps"]) == 0
    out = capsys.readouterr().out
    assert "union" in out and "concat" in out
    assert "raw size -> kept size" in out


def test_infer_steps_json_carries_kept_states(program, capsys):
    assert main(["infer", program, "--steps", "--json"]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    result = infer(parse_program(INSURANCE))
    assert [(s["post_trim_size"], s["states"]) for s in steps] == [
        (s.post_trim_size, s.states) for s in result.steps
    ]


GEO_CHAIN = ";\n".join(["x += geometric(1/2)"] * 14 + ["observe(x < 42)", "y += x", "observe(y % 5 == 2)"])


def test_infer_steps_end_with_the_posterior_size(tmp_path, capsys):
    path = tmp_path / "geo.redip"
    path.write_text(GEO_CHAIN)
    assert main(["infer", str(path), "--steps"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "posterior: 75 states, 74 transitions"
    assert main(["infer", str(path)]) == 0
    assert "posterior:" not in capsys.readouterr().out


def test_infer_steps_json_carries_the_posterior_size(tmp_path, capsys):
    path = tmp_path / "geo.redip"
    path.write_text(GEO_CHAIN)
    assert main(["infer", str(path), "--steps", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["posterior_states"], doc["posterior_edges"]) == (75, 74)
    # the step records are the translation's, and its last step keeps the posterior's states
    assert doc["steps"] == [dataclasses.asdict(s) for s in translate(parse_program(GEO_CHAIN)).steps]
    assert doc["steps"][-1]["states"] == 75


def test_infer_negative_marginal_bound_exit_code(program, capsys):
    assert main(["infer", program, "--marginal", "x", "--upto", "-1"]) == 1
    captured = capsys.readouterr()
    assert "nonnegative" in captured.err and "P(x > -1)" not in captured.out


def test_infer_long_straight_line_program(tmp_path, capsys):
    # a left-leaning Seq chain this long would exceed the recursion limit
    source = ";\n".join(["observe(x < 1)"] * 3000)
    assert infer(parse_program(source)).normalizing_constant == 1
    path = tmp_path / "long.redip"
    path.write_text(source)
    assert main(["infer", str(path)]) == 0
    assert "normalizing constant: 1" in capsys.readouterr().out


# ----- query


def test_query_coefficient_and_guard(program, tmp_path, capsys):
    out_path = tmp_path / "posterior.json"
    main(["infer", program, "-o", str(out_path)])
    capsys.readouterr()

    assert main(["query", str(out_path), "--at", "r=1,x=2"]) == 0
    assert "3/44" in capsys.readouterr().out

    assert main(["query", str(out_path), "--guard", "x == 2"]) == 0
    assert "21/44" in capsys.readouterr().out


def test_query_refuses_a_variable_given_twice(program, tmp_path, capsys):
    out_path = tmp_path / "posterior.json"
    main(["infer", program, "-o", str(out_path)])
    capsys.readouterr()
    assert main(["query", str(out_path), "--at", "x=0,x=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'x' given twice" in captured.err


def test_query_json_prints_the_query_and_its_value(program, tmp_path, capsys):
    out_path = tmp_path / "posterior.json"
    main(["infer", program, "-o", str(out_path)])
    capsys.readouterr()
    assert main(["query", str(out_path), "--at", "r=1,x=2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "query": "coefficient at r=1,x=2",
        "value": "3/44",
    }


@pytest.mark.parametrize("flags", [["--at", "r=1,x=2", "--guard", "r >= 1"], []])
def test_query_takes_exactly_one_of_at_and_guard(prior_file, capsys, flags):
    assert exit_code(["query", prior_file, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: redip query" in captured.err


def test_query_missing_file_exit_code(capsys):
    assert main(["query", "/nonexistent/a.json", "--at", "x=1"]) == 3
    assert "file error" in capsys.readouterr().err


@pytest.mark.parametrize("alphabet", [["x", "x"], [""]])
def test_query_bad_alphabet_file_exit_code(tmp_path, capsys, alphabet):
    path = tmp_path / "bad.json"
    data = {"alphabet": alphabet, "states": 1, "edges": [], "initial": {"0": "1"}, "final": {}}
    path.write_text(json.dumps(data))
    assert main(["query", str(path), "--guard", "x < 1"]) == 3
    assert "file error" in capsys.readouterr().err


def test_query_file_with_unhashable_symbol_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    edge = {"src": 0, "dst": 0, "weight": "1/2", "symbol": ["x"]}
    data = {"alphabet": ["x"], "states": 1, "edges": [edge], "initial": {"0": "1"}, "final": {}}
    path.write_text(json.dumps(data))
    assert main(["query", str(path), "--guard", "x < 1"]) == 3
    assert "file error: edge symbol ['x'] not in alphabet" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{}"], ids=["deep", "not-utf8"]
)
def test_query_malformed_file_exit_code(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["query", str(path), "--at", "x=0"]) == 3
    assert capsys.readouterr().err.startswith("file error:")


def test_query_coefficient_over_the_empty_alphabet(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(pga_to_json(make_pga((), 1, [], {0: Fraction(1)}, {0: Fraction(1, 2)})))
    assert main(["query", str(path), "--at", "x=0"]) == 0
    assert capsys.readouterr().out == "coefficient at x=0: 1/2 (= 0.5)\n"


# a number one digit past int()'s default limit of 4,300 digits
LONG = "1" * 5001


@pytest.mark.parametrize("field", ["states", "weight"])
def test_query_file_with_too_long_number_exit_code(tmp_path, capsys, field):
    data = {"alphabet": ["x"], "states": 1, "edges": [], "initial": {"0": "1"}, "final": {}}
    if field == "weight":
        data["final"] = {"0": LONG}
    text = json.dumps(data)
    if field == "states":
        text = text.replace('"states": 1', f'"states": {LONG}')
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["query", str(path), "--guard", "x < 1"]) == 3
    assert "file error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source",
    [f"x += {LONG}", f"x += bernoulli(1/{LONG})", f"x += bernoulli(0.{LONG})"],
    ids=["constant", "ratio", "decimal"],
)
def test_infer_too_long_number_exit_code(tmp_path, capsys, source):
    path = tmp_path / "long.redip"
    path.write_text(source)
    assert main(["infer", str(path)]) == 1
    assert "syntax error: 1:" in capsys.readouterr().err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_infer_non_ascii_digit_exit_code(tmp_path, capsys, digit):
    path = tmp_path / "digit.redip"
    path.write_text(f"x += {digit}", encoding="utf-8")
    assert main(["infer", str(path)]) == 1
    assert "syntax error: 1:6: unexpected character" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, col",
    [("x\u00b2 += 1", 2), ("x\u0663 += 1", 2), ("\u00e9 += 1", 1)],
    ids=["superscript-two", "arabic-indic-three", "accented-letter"],
)
def test_infer_non_ascii_name_exit_code(tmp_path, capsys, source, col):
    """Names are ASCII [A-Za-z_][A-Za-z0-9_]*: another script's letter or
    digit does not extend one, so `x\u00b2` is not a variable apart from `x`."""
    path = tmp_path / "name.redip"
    path.write_text(source, encoding="utf-8")
    assert main(["infer", str(path)]) == 1
    assert f"syntax error: 1:{col}: unexpected character" in capsys.readouterr().err


# ----- check


def test_check_accepts_valid_program(program, capsys):
    assert main(["check", program]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_accepts_valid_automaton(prior_file, capsys):
    assert main(["check", prior_file]) == 0
    assert capsys.readouterr().out == "mass: 1\nok: probability generating automaton\n"


def test_check_flags_non_distribution_automaton(tmp_path, capsys):
    heavy = make_pga(("x",), 1, [], {0: Fraction(2)}, {0: Fraction(1)})
    path = tmp_path / "heavy.json"
    path.write_text(pga_to_json(heavy))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "mass" in out


def test_check_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"alphabet": ["x"]}')
    assert main(["check", str(path)]) == 3


def test_check_notes_an_unreachable_and_a_dead_state(tmp_path, capsys):
    # state 1 has no arc in; state 2 is entered but has no way to a final weight
    edges = [Edge(0, 2, Fraction(1, 2), "x"), Edge(1, 0, Fraction(1), "x")]
    a = make_pga(("x",), 3, edges, {0: Fraction(1)}, {0: Fraction(1, 2)})
    path = tmp_path / "untrimmed.json"
    path.write_text(pga_to_json(a))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "mass: 1/2\n"
        "note: state 1 unreachable from any initial state\n"
        "note: state 2 cannot reach any final state\n"
        "ok: probability generating automaton\n"
    )


@pytest.mark.parametrize(
    "edge, message",
    [
        (["0", "0", "1/2", "x"], "edge 0 is not an object"),
        ({"src": 0, "dst": 0, "symbol": "x"}, "edge 0 is missing weight"),
    ],
    ids=["not-an-object", "no-weight"],
)
def test_check_malformed_edge_exit_code(tmp_path, capsys, edge, message):
    path = tmp_path / "bad.json"
    data = {"alphabet": ["x"], "states": 1, "edges": [edge], "initial": {"0": "1"}, "final": {"0": "1/2"}}
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == f"file error: {message}\n"


# ----- export-dot


def test_export_dot_from_program(program, capsys):
    assert main(["export-dot", program, "--name", "demo"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph demo {")
    assert "rankdir=LR;" in out


def test_export_dot_quotes_a_name_that_is_not_an_identifier(program, capsys):
    assert main(["export-dot", program, "--name", "my-graph"]) == 0
    assert capsys.readouterr().out.startswith('digraph "my-graph" {')


def test_export_dot_from_automaton_file(prior_file, tmp_path):
    out_path = tmp_path / "prior.dot"
    assert main(["export-dot", prior_file, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert "digraph" in text and '"1/2·y"' in text


# ----- oracle


def test_oracle_enumerate(program, capsys):
    assert main(["oracle", program, "--trunc", "25"]) == 0
    out = capsys.readouterr().out
    assert "violation" in out
    assert "residual" in out


def test_oracle_compare_ok(program, capsys):
    assert main(["oracle", program, "--mode", "compare", "--trunc", "30"]) == 0
    out = capsys.readouterr().out
    assert "ok: translation agrees with enumeration" in out


def test_oracle_compare_reports_a_mismatch(tmp_path, capsys, monkeypatch):
    """With one coefficient of the automaton's table pushed off by 1/4, compare
    names it, reports the worst discrepancy and exits 4."""
    import redip.oracle

    table_of = redip.oracle.coefficient_table

    def one_off(a, bounds):
        table = table_of(a, bounds)
        table[(0,)] += Fraction(1, 4)
        return table

    monkeypatch.setattr(redip.oracle, "coefficient_table", one_off)
    path = tmp_path / "coin.redip"
    path.write_text("x += bernoulli(1/2)")
    assert main(["oracle", str(path), "--mode", "compare", "--trunc", "5"]) == 4
    assert capsys.readouterr().out == (
        "truncation: 5, residual: 0\n"
        "mismatch: coefficient {'x': 0}: 3/4 outside [1/2, 1/2]\n"
        "worst discrepancy: 1/4\n"
    )


def test_oracle_enumerate_starts_from_the_prior(prior_file, tmp_path, capsys):
    # the prior is 1/2 + 1/2 * Y^2 over (x, y); y appears only in the prior
    p = tmp_path / "inc.redip"
    p.write_text("x += 1\n")
    assert main(["oracle", str(p), "--prior", prior_file]) == 0
    out = capsys.readouterr().out
    assert "  x=1, y=0: 1/2 (= 0.5)" in out
    assert "  x=1, y=2: 1/2 (= 0.5)" in out
    # the same distribution inference gives
    assert main(["infer", str(p), "--prior", prior_file, "--query", "x == 1 and y == 2"]) == 0
    assert "P(x == 1 and y == 2) = 1/2" in capsys.readouterr().out


def test_oracle_mc_refuses_a_prior(prior_file, tmp_path, capsys):
    p = tmp_path / "inc.redip"
    p.write_text("x += 1\n")
    assert main(["oracle", str(p), "--mode", "mc", "--prior", prior_file]) == 1
    assert "takes no --prior" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, flags",
    [
        ("enumerate", ["--samples", "5", "--seed", "3", "--limit", "1"]),
        ("compare", ["--digits", "3"]),
        ("mc", ["--trunc", "3"]),
    ],
)
def test_oracle_refuses_flags_its_mode_does_not_read(program, capsys, mode, flags):
    assert main(["oracle", program, "--mode", mode, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --mode {mode} does not read {flags[0]}\n"
    assert captured.out == ""


def test_oracle_modes_read_their_own_flags(prior_file, tmp_path, capsys):
    p = tmp_path / "coin.redip"
    p.write_text("x += bernoulli(1/3)\n")
    assert main(["oracle", str(p), "--trunc", "3", "--prior", prior_file, "--digits", "2"]) == 0
    out = capsys.readouterr().out
    assert "truncation: 3" in out and "  x=1, y=2: 1/6 (= 0.17)" in out
    assert main(["oracle", str(p), "--mode", "compare", "--trunc", "3", "--prior", prior_file]) == 0
    assert "ok: translation agrees with enumeration" in capsys.readouterr().out
    mc = ["--mode", "mc", "--samples", "7", "--seed", "3", "--limit", "1", "--digits", "2"]
    assert main(["oracle", str(p), *mc]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "samples: 7, accepted: 7, violations: 0",
        "  x=0: 4 (~0.57)",
    ]


def test_oracle_mc_deterministic(tmp_path, capsys):
    p = tmp_path / "iid.redip"
    p.write_text("y += 4; x += iid(bernoulli(1/2), y)\n")
    assert main(["oracle", str(p), "--mode", "mc", "--samples", "2000", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle", str(p), "--mode", "mc", "--samples", "2000", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_oracle_refuses_iid_in_enumerate_mode(tmp_path, capsys):
    p = tmp_path / "iid.redip"
    p.write_text("y += 4; x += iid(bernoulli(1/2), y)\n")
    assert main(["oracle", str(p), "--mode", "enumerate"]) == 1
    assert "error" in capsys.readouterr().err


# ----- stdin


def test_reads_program_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("x += 1\n"))
    assert main(["parse", "-"]) == 0
    assert "x += 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--mode", "mc", "--samples", "-5"],
        ["--mode", "mc", "--limit", "-1"],
        ["--mode", "enumerate", "--trunc", "-1"],
        ["--mode", "compare", "--trunc", "-1"],
    ],
)
def test_oracle_negative_counts_exit_code(program, capsys, flags):
    assert main(["oracle", program, *flags]) == 1
    captured = capsys.readouterr()
    assert "must be nonnegative" in captured.err
    assert "accepted" not in captured.out and "residual" not in captured.out


def test_oracle_compare_long_straight_line_program(tmp_path, capsys):
    path = tmp_path / "long.redip"
    path.write_text(";\n".join(["observe(x < 1)"] * 1000))
    assert main(["oracle", str(path), "--mode", "compare"]) == 0
    assert "ok: translation agrees with enumeration" in capsys.readouterr().out


# ----- nesting limit


def nested(shape, depth):
    """A program whose parser nesting reaches `depth` in the given shape."""
    if shape == "if":
        body = "x += bernoulli(1/2)"
        for i in range(depth):
            body = f"if (x < {i % 3 + 1}) {{ {body} }} else {{ x += 1 }}"
        return "x += bernoulli(1/2); " + body
    if shape == "choice":
        body = "x += 1"
        for _ in range(depth):
            body = f"{{ {body} }} [1/2] {{ x += 2 }}"
        return body
    if shape == "parentheses":
        guard = "(" * depth + "x < 1" + ")" * depth
    elif shape == "not":
        guard = "not " * depth + "x < 1"
    else:  # an `and` or `or` chain: each operand after the first opens a level
        guard = f" {shape} ".join(f"x < {i + 1}" for i in range(depth + 1))
    return f"x += bernoulli(1/2); observe({guard})"


SHAPES = ["if", "choice", "parentheses", "not", "and", "or"]


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_limit_infers_and_checks(tmp_path, capsys, shape):
    path = tmp_path / "deep.redip"
    path.write_text(nested(shape, 100))
    assert main(["infer", str(path)]) == 0
    assert main(["oracle", str(path), "--mode", "compare"]) == 0
    assert "ok: translation agrees with enumeration" in capsys.readouterr().out


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_past_the_limit_is_a_syntax_error(tmp_path, capsys, shape):
    with pytest.raises(RedipSyntaxError, match="nesting deeper than 100"):
        parse_program(nested(shape, 101))
    path = tmp_path / "deep.redip"
    path.write_text(nested(shape, 101))
    assert main(["infer", str(path)]) == 1
    assert "syntax error: 1:" in capsys.readouterr().err


def test_six_hundred_nested_ifs_are_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "deep.redip"
    path.write_text(nested("if", 600))
    assert main(["parse", str(path)]) == 1
    assert "syntax error:" in capsys.readouterr().err


# ----- the command line itself


def exit_code(argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    return caught.value.code


@pytest.mark.parametrize(
    "argv",
    [["infer", "PROGRAM", "--upto", "abc"], ["infer", "--bogus"], ["no-such-command"], []],
)
def test_usage_errors_exit_1_not_the_infeasible_code(program, capsys, argv):
    assert exit_code([program if a == "PROGRAM" else a for a in argv]) == 1
    assert "usage: redip" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["infer", "--help"], ["oracle", "--help"]])
def test_help_exits_0(capsys, argv):
    assert exit_code(argv) == 0
    assert "usage: redip" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag",
    [
        ("check", ["--json"]),
        ("export-dot", ["--json"]),
        ("oracle", ["--json"]),
        ("parse", ["--digits", "3"]),
        ("check", ["--digits", "3"]),
        ("export-dot", ["--digits", "3"]),
    ],
)
def test_flags_a_subcommand_does_not_read_are_refused(program, capsys, command, flag):
    assert exit_code([command, program, *flag]) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "PROGRAM", "--mode", "mc", "--digits", "-2"],
        ["oracle", "PROGRAM", "--mode", "mc", "--digits", "0"],
        ["oracle", "PROGRAM", "--digits", "0"],
        ["infer", "PROGRAM", "--digits", "0"],
        ["query", "PROGRAM", "--at", "x=0", "--digits", "0"],
    ],
)
def test_digits_below_one_are_refused_before_any_work(program, capsys, argv):
    argv = [program if a == "PROGRAM" else a for a in argv]
    assert exit_code(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: redip" in captured.err
    assert f"argument --digits: must be at least 1, got {argv[-1]}" in captured.err


def test_an_answer_too_long_to_print_is_refused_in_words(tmp_path, capsys):
    p = tmp_path / "long.redip"
    p.write_text("x += geometric(1/10); observe(x == 700)\n")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert main(["infer", str(p)]) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the exact value has more digits than Python will print (640); "
        "set PYTHONINTMAXSTRDIGITS=0 to print it\n"
    )
    assert main(["infer", str(p)]) == 0
    assert f"normalizing constant: {9**700}/{10**701} (= " in capsys.readouterr().out


def test_output_flags_reach_the_subcommands_that_read_them(program, capsys):
    assert main(["infer", program, "--digits", "2"]) == 0
    assert "normalizing constant: 11/40 (= 0.28)" in capsys.readouterr().out
    assert main(["oracle", program, "--digits", "2", "--trunc", "3"]) == 0
    assert "violation mass: 29/40 (= 0.72)" in capsys.readouterr().out


HUGE = "99999999999999999999999"  # past sys.maxsize


@pytest.mark.parametrize("flags", [["--guard", f"x < {HUGE}"], ["--at", f"x={HUGE}"]])
def test_query_refuses_a_counter_past_maxsize(program, tmp_path, capsys, flags):
    out_path = tmp_path / "posterior.json"
    main(["infer", program, "-o", str(out_path)])
    capsys.readouterr()
    assert main(["query", str(out_path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: guard x < ")


def test_infer_refuses_a_modulus_past_maxsize_that_the_oracle_accepts(tmp_path, capsys):
    path = tmp_path / "p.redip"
    path.write_text(f"x += geometric(1/2); observe(x % {HUGE} == 1)")
    assert main(["infer", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: guard x % {HUGE} == 1 needs {HUGE} states\n"
    assert main(["oracle", str(path), "--trunc", "10"]) == 0
    assert "x=1: 1/4" in capsys.readouterr().out
