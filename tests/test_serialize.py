"""JSON interchange round-trips, strict schema validation, dot export."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from redip import (
    Edge,
    load_pga,
    make_pga,
    pga_from_json,
    pga_to_json,
    save_pga,
)
from redip.errors import PgaParseError, RedipError
from redip.serialize import pga_from_dict, pga_to_dot

from conftest import rand_pga

H = Fraction(1, 2)


def pga_to_dict(a):
    """The schema's dict of an automaton: `pga_to_json`'s reference, which
    writes exactly `json.dumps(pga_to_dict(a), indent=2) + "\\n"`."""
    edges = []
    for e in a.edges:
        item = {"src": e.src, "dst": e.dst, "weight": str(e.weight)}
        if e.symbol is not None:
            item["symbol"] = e.symbol
        edges.append(item)
    return {
        "alphabet": list(a.alphabet),
        "states": a.num_states,
        "edges": edges,
        "initial": {str(q): str(w) for q, w in sorted(a.initial.items())},
        "final": {str(q): str(w) for q, w in sorted(a.final.items())},
    }


def sample():
    return make_pga(
        ("x", "r"),
        3,
        [Edge(0, 1, Fraction(9, 10), "r"), Edge(1, 2, H, None), Edge(2, 2, Fraction(1, 3), "x")],
        {0: Fraction(1)},
        {2: Fraction(2, 7)},
    )


# ----- round trips


def test_dict_round_trip():
    a = sample()
    assert pga_from_dict(pga_to_dict(a)) == a


def test_json_round_trip():
    a = sample()
    assert pga_from_json(pga_to_json(a)) == a


def test_file_round_trip(tmp_path):
    a = sample()
    path = str(tmp_path / "a.json")
    save_pga(a, path)
    assert load_pga(path) == a


def test_random_round_trips():
    rng = random.Random(321)
    for _ in range(50):
        a = rand_pga(rng)
        assert pga_from_json(pga_to_json(a)) == a


@st.composite
def automata(draw):
    """Automata whose alphabet names hold quotes, backslashes, control and
    non-ASCII characters; edges, initial and final weights may all be empty."""
    names = st.text(st.sampled_from('x"\\/\n\té☃😀') | st.characters(), min_size=1, max_size=4)
    alphabet = draw(st.lists(names, max_size=3, unique=True))
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    weight = st.fractions(min_value=0, max_value=3, max_denominator=10**20)
    symbol = st.sampled_from([None, *alphabet])
    edges = draw(st.lists(st.tuples(state, state, weight, symbol), max_size=6))
    initial = draw(st.dictionaries(state, weight, max_size=n))
    return make_pga(alphabet, n, edges, initial, draw(st.dictionaries(state, weight, max_size=n)))


@given(automata())
@example(make_pga(['a"b', "c\\d", "é"], 1, [], {}, {}))
def test_json_text_is_the_indented_json_dumps(a):
    text = pga_to_json(a)
    assert text == json.dumps(pga_to_dict(a), indent=2) + "\n"
    assert pga_from_json(text) == a


def test_weights_serialize_as_fraction_strings():
    data = pga_to_dict(sample())
    assert data["initial"] == {"0": "1"}
    assert data["final"] == {"2": "2/7"}
    assert data["edges"][0]["weight"] == "9/10"
    # unlabeled edges omit the symbol key entirely
    assert "symbol" not in data["edges"][1]
    assert json.dumps(data)  # plain JSON types only


# ----- schema strictness


def good():
    return {
        "alphabet": ["x"],
        "states": 2,
        "edges": [{"src": 0, "dst": 1, "weight": "1/2", "symbol": "x"}],
        "initial": {"0": "1"},
        "final": {"1": "1"},
    }


def test_unknown_top_key_rejected():
    d = good()
    d["comment"] = "hi"
    with pytest.raises(PgaParseError, match="unknown keys"):
        pga_from_dict(d)


def test_missing_top_key_rejected():
    d = good()
    del d["final"]
    with pytest.raises(PgaParseError, match="missing keys"):
        pga_from_dict(d)


def test_unknown_edge_key_rejected():
    d = good()
    d["edges"][0]["color"] = "red"
    with pytest.raises(PgaParseError, match="unknown keys"):
        pga_from_dict(d)


def test_edge_state_out_of_range():
    d = good()
    d["edges"][0]["dst"] = 5
    with pytest.raises(PgaParseError, match="references state 5 of a 2-state automaton"):
        pga_from_dict(d)


def test_initial_state_out_of_range():
    d = good()
    d["initial"] = {"9": "1"}
    with pytest.raises(PgaParseError, match="references state 9"):
        pga_from_dict(d)


@pytest.mark.parametrize(
    "key",
    [" 1", "+1", "1_0", "\u0661", "-1", "1" * 5000],
    ids=["space", "plus", "underscore", "arabic-indic-one", "minus", "5000-digits"],
)
@pytest.mark.parametrize("which", ["initial", "final"])
def test_state_keys_are_ascii_digits(which, key):
    # int() alone reads each of the first four, "1_0" as state 10
    d = good()
    d[which] = {key: "1"}
    with pytest.raises(PgaParseError, match="is not a natural number"):
        pga_from_dict(d)


def test_float_weight_rejected():
    d = good()
    d["edges"][0]["weight"] = 0.5
    with pytest.raises(PgaParseError):
        pga_from_dict(d)


def test_negative_weight_rejected():
    d = good()
    d["edges"][0]["weight"] = "-1/2"
    with pytest.raises(PgaParseError):
        pga_from_dict(d)


def test_bool_states_rejected():
    d = good()
    d["states"] = True
    with pytest.raises(PgaParseError, match="states must be a positive integer"):
        pga_from_dict(d)


def test_duplicate_alphabet_variable_rejected():
    d = good()
    d["alphabet"] = ["x", "x"]
    with pytest.raises(PgaParseError, match="duplicate variable"):
        pga_from_dict(d)


def test_unknown_symbol_rejected():
    d = good()
    d["edges"][0]["symbol"] = "zz"
    with pytest.raises(PgaParseError, match="not in alphabet"):
        pga_from_dict(d)


def test_invalid_json_text():
    with pytest.raises(PgaParseError, match="invalid JSON"):
        pga_from_json("{nope")


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(PgaParseError, match="invalid JSON"):
        pga_from_json("[" * 100_000 + "]" * 100_000)


def test_undecodable_automaton_file_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(PgaParseError, match="not UTF-8"):
        load_pga(str(path))


def test_non_object_source():
    with pytest.raises(PgaParseError, match="expected an object"):
        pga_from_dict([1, 2])


# any JSON value, and automata with each field drawn near its valid form
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
weights = st.sampled_from(["0", "1", "1/2", "2/0", "-1", "1.5", " 1"]) | json_values
state_keys = st.sampled_from(["0", "1", "2", "01", "-1", " 1", "x"]) | st.text(max_size=2)
edges = st.fixed_dictionaries(
    {"src": st.integers(-1, 3) | json_values, "dst": st.integers(-1, 3) | json_values, "weight": weights},
    optional={"symbol": st.sampled_from(["x", "y", None]) | json_values, "color": json_values},
)
near_pgas = st.fixed_dictionaries(
    {
        "alphabet": st.sampled_from([["x"], ["x", "y"], [], ["x", "x"]]) | json_values,
        "states": st.integers(-1, 3) | json_values,
        "edges": st.lists(edges, max_size=3) | json_values,
        "initial": st.dictionaries(state_keys, weights, max_size=2) | json_values,
        "final": st.dictionaries(state_keys, weights, max_size=2) | json_values,
    },
    optional={"comment": json_values},
)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30) | json_values.map(json.dumps) | near_pgas.map(json.dumps))
def test_pga_from_json_raises_only_redip_errors(text):
    try:
        pga_from_json(text)
    except RedipError:
        pass


# ----- dot export


def test_dot_output_shape():
    dot = pga_to_dot(sample(), name="demo")
    assert dot.startswith("digraph demo {")
    assert "rankdir=LR;" in dot
    assert '"9/10·r"' in dot  # weighted labeled edge
    assert '"1/2"' in dot  # unlabeled edge keeps just the weight
    assert '"1/3·x"' in dot
    # dangling arrows for entry and exit weights
    assert "__in0 -> q0;" in dot  # weight 1 stays unlabeled
    assert 'q2 -> __out2 [label="2/7"];' in dot
    assert dot.rstrip().endswith("}")


def test_dot_name_is_quoted_unless_a_plain_identifier():
    def header(name):
        return pga_to_dot(sample(), name=name).splitlines()[0]

    assert header("_g1") == "digraph _g1 {"
    assert header("my-graph") == 'digraph "my-graph" {'
    assert header("2x") == 'digraph "2x" {'
    assert header('a"b\\c') == 'digraph "a\\"b\\\\c" {'
    assert header("Node") == 'digraph "Node" {'  # keywords are case-independent


def test_dot_weight_one_label_is_bare_symbol():
    a = make_pga(("x",), 2, [Edge(0, 1, Fraction(1), "x")], {0: Fraction(1)}, {1: Fraction(1)})
    dot = pga_to_dot(a)
    assert '[label="x"]' in dot
