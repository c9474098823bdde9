"""JSON interchange and Graphviz export for automata.

The JSON schema:

    {
      "alphabet": ["x", "r"],
      "states": 4,
      "edges": [{"src": 0, "dst": 1, "weight": "1/2", "symbol": "x"}, ...],
      "initial": {"0": "9/10"},
      "final": {"3": "1/2"}
    }

Weights are decimal-free fraction strings ("3" or "9/10"), never floats. The
"symbol" key is omitted for unlabeled edges.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .errors import InvalidAutomaton, InvalidWeight, PgaParseError
from .pga import Edge, Pga, make_pga
from .rational import format_weight, parse_weight

_TOP_KEYS = {"alphabet", "states", "edges", "initial", "final"}
_EDGE_KEYS = {"src", "dst", "weight", "symbol"}
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def pga_from_dict(data: Any) -> Pga:
    if not isinstance(data, dict):
        raise PgaParseError(f"expected an object, got {type(data).__name__}")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise PgaParseError(f"unknown keys {sorted(extra)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise PgaParseError(f"missing keys {sorted(missing)}")
    alphabet = data["alphabet"]
    if not isinstance(alphabet, list) or not all(isinstance(v, str) for v in alphabet):
        raise PgaParseError("alphabet must be a list of strings")
    states = data["states"]
    if not isinstance(states, int) or isinstance(states, bool) or states < 1:
        raise PgaParseError(f"states must be a positive integer, got {states!r}")
    if not isinstance(data["edges"], list):
        raise PgaParseError("edges must be a list")
    edges = []
    parsed: dict[str, Fraction] = {}  # an automaton repeats a few weights many times
    for pos, item in enumerate(data["edges"]):
        if not isinstance(item, dict):
            raise PgaParseError(f"edge {pos} is not an object")
        if not item.keys() <= _EDGE_KEYS:
            raise PgaParseError(f"edge {pos} has unknown keys {sorted(set(item) - _EDGE_KEYS)}")
        try:
            src, dst = item["src"], item["dst"]
            weight = item["weight"]
        except KeyError as exc:
            raise PgaParseError(f"edge {pos} is missing {exc.args[0]}") from exc
        for name, v in (("src", src), ("dst", dst)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise PgaParseError(f"edge {pos}: {name} must be an integer")
        try:
            w = parsed.get(weight) if isinstance(weight, str) else None
            if w is None:
                w = parsed[weight] = parse_weight(weight)
        except InvalidWeight as exc:
            raise PgaParseError(f"edge {pos}: {exc}") from exc
        edges.append((src, dst, w, item.get("symbol")))

    def weight_map(key: str) -> dict[int, Any]:
        raw = data[key]
        if not isinstance(raw, dict):
            raise PgaParseError(f"{key} must be an object")
        out = {}
        for qs, ws in raw.items():
            try:  # ASCII digits only: int() also takes " 1", "+1", "1_0" and other scripts
                q = int(qs) if qs.isascii() and qs.isdigit() else None
            except (AttributeError, ValueError):  # not a string, or past int()'s digit limit
                q = None
            if q is None:
                raise PgaParseError(f"{key}: state key {qs!r} is not a natural number")
            try:
                out[q] = parse_weight(ws)
            except InvalidWeight as exc:
                raise PgaParseError(f"{key}[{q}]: {exc}") from exc
        return out

    # state ranges, edge symbols and the alphabet itself are checked by make_pga
    try:
        return make_pga(alphabet, states, edges, weight_map("initial"), weight_map("final"))
    except (InvalidAutomaton, InvalidWeight) as exc:
        raise PgaParseError(str(exc)) from exc


def _block(brackets: str, items: list[str], indent: str) -> str:
    """A list or object as json.dumps(indent=2) lays out one with these items."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}{brackets[1]}"


def pga_to_json(a: Pga) -> str:
    """The schema's JSON, byte for byte as `json.dumps(..., indent=2)` writes
    it plus a newline, laid out here: an indent switches json's C encoder off,
    and its Python encoder takes several times as long. Weights and state keys
    are digits and slashes, so only alphabet names need escaping."""
    names = {v: json.dumps(v) for v in a.alphabet}
    label = {None: "", **{v: f',\n      "symbol": {name}' for v, name in names.items()}}
    edges = [
        f'{{\n      "src": {src},\n      "dst": {dst},\n      "weight": "{format_weight(w)}"'
        f"{label[symbol]}\n    }}"
        for src, dst, w, symbol in a.edges
    ]
    top = [
        '"alphabet": ' + _block("[]", list(names.values()), "  "),
        f'"states": {a.num_states}',
        '"edges": ' + _block("[]", edges, "  "),
    ]
    for key, weights in (("initial", a.initial), ("final", a.final)):
        items = [f'"{q}": "{format_weight(w)}"' for q, w in sorted(weights.items())]
        top.append(f'"{key}": ' + _block("{}", items, "  "))
    return _block("{}", top, "") + "\n"


def pga_from_json(text: str) -> Pga:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too long a number, or too deep
        raise PgaParseError(f"invalid JSON: {exc}") from exc
    return pga_from_dict(data)


def load_pga(path: str) -> Pga:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PgaParseError(f"not UTF-8: {exc}") from exc
    return pga_from_json(text)


def save_pga(a: Pga, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pga_to_json(a))


def _edge_label(e: Edge) -> str:
    if e.symbol is None:
        return format_weight(e.weight)
    if e.weight == 1:
        return e.symbol
    return f"{format_weight(e.weight)}·{e.symbol}"


def pga_to_dot(a: Pga, name: str = "pga") -> str:
    """Graphviz rendering: circles for states, dangling arrows for initial and
    final weights (unlabeled when the weight is 1). A graph name that is not a
    plain DOT identifier, or is a DOT keyword, is written as a quoted string."""
    if not re.fullmatch("[A-Za-z_][A-Za-z0-9_]*", name) or name.lower() in _DOT_KEYWORDS:
        name = '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle fontname="monospace"];']
    for q in range(a.num_states):
        lines.append(f"  q{q} [label=\"{q}\"];")
    for q, w in sorted(a.initial.items()):
        lines.append(f"  __in{q} [shape=none label=\"\" width=0 height=0];")
        label = "" if w == 1 else f" [label=\"{format_weight(w)}\"]"
        lines.append(f"  __in{q} -> q{q}{label};")
    for q, w in sorted(a.final.items()):
        lines.append(f"  __out{q} [shape=none label=\"\" width=0 height=0];")
        label = "" if w == 1 else f" [label=\"{format_weight(w)}\"]"
        lines.append(f"  q{q} -> __out{q}{label};")
    for e in a.edges:
        lines.append(f"  q{e.src} -> q{e.dst} [label=\"{_edge_label(e)}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
