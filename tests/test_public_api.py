"""The package's top-level surface: the user API and nothing else."""

import ast
from pathlib import Path

import redip

PUBLIC = [
    # programs: parsing and the statement AST
    "Choice", "Decrement", "IfElse", "IncrConst", "IncrDist", "IncrIid", "IncrVar",
    "Observe", "Seq", "SetZero", "parse_guard", "parse_program", "program_size",
    # guards
    "And", "LessThan", "ModEq", "Not", "build_guard_dfa", "guard_satisfies", "guard_size",
    # distributions
    "Bernoulli", "Binomial", "Custom", "Dirac", "Geometric", "NegBinomial", "Uniform",
    "build_dist_pga",
    # inference and queries
    "coefficient", "coefficient_table", "guard_mass", "infer", "marginal", "mass",
    "translate", "working_alphabet",
    # automata and their constructions
    "Edge", "Pga", "concat", "decrement", "label_subst_one", "label_subst_zero",
    "make_pga", "product", "transition_subst", "weighted_union",
    # automaton files
    "load_pga", "pga_from_json", "pga_to_json", "save_pga",
    # the reference oracle
    "compare", "enumerate_program",
    # errors
    "InfeasibleObservation", "RedipError",
]


def test_exports_are_pinned():
    assert len(PUBLIC) == 54
    assert sorted(redip.__all__) == sorted(PUBLIC)
    assert len(set(redip.__all__)) == len(redip.__all__)


def test_every_export_resolves():
    for name in redip.__all__:
        assert getattr(redip, name) is not None, name
    assert callable(redip.translate)  # the function, not the submodule


def test_exports_are_exactly_the_public_names_bound_in_init():
    tree = ast.parse(Path(redip.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {name for name in bound if not name.startswith("_")} == set(redip.__all__)
