"""Exact posterior inference for a loop-free discrete probabilistic language.

Programs compile, statement by statement, into probability generating
automata: weighted automata whose accepting-path weights, grouped by how
often each counter variable was bumped, form the program's outcome
distribution. Normalizing constants, posterior probabilities, and individual
outcome probabilities then fall out of exact rational linear algebra on the
automaton, with no sampling and no truncation.

The package exports the user API. Everything else (the error subclasses,
result and report records, `trim`, `normalize`, the printers, the oracle's
helpers) is imported from its module: `redip.errors`, `redip.translate`,
`redip.pga`, `redip.analysis`, `redip.lang`, `redip.oracle`, and so on.
Note that `redip.translate` is the function, so code that needs the module
writes `from redip.translate import ...`.
"""

from .analysis import coefficient_table, mass
from .constructions import (
    concat,
    decrement,
    label_subst_one,
    label_subst_zero,
    product,
    transition_subst,
    weighted_union,
)
from .dists import (
    Bernoulli,
    Binomial,
    Custom,
    Dirac,
    Geometric,
    NegBinomial,
    Uniform,
    build_dist_pga,
)
from .errors import InfeasibleObservation, RedipError
from .guards import And, LessThan, ModEq, Not, build_guard_dfa, guard_satisfies, guard_size
from .lang import (
    Choice,
    Decrement,
    IfElse,
    IncrConst,
    IncrDist,
    IncrIid,
    IncrVar,
    Observe,
    Seq,
    SetZero,
    parse_guard,
    parse_program,
    program_size,
)
from .oracle import compare, enumerate_program
from .pga import Edge, Pga, make_pga
from .serialize import load_pga, pga_from_json, pga_to_json, save_pga
from .translate import (
    coefficient,
    guard_mass,
    infer,
    marginal,
    translate,
    working_alphabet,
)

__version__ = "0.1.0"

__all__ = [
    # programs: parsing and the statement AST
    "parse_program", "parse_guard", "program_size",
    "Seq", "IfElse", "Choice", "Observe", "SetZero", "IncrConst", "IncrVar",
    "IncrDist", "IncrIid", "Decrement",
    # guards
    "And", "Not", "LessThan", "ModEq", "build_guard_dfa", "guard_satisfies", "guard_size",
    # distributions
    "Bernoulli", "Binomial", "Custom", "Dirac", "Geometric", "NegBinomial", "Uniform",
    "build_dist_pga",
    # inference and queries
    "translate", "infer", "working_alphabet", "mass", "coefficient", "coefficient_table",
    "guard_mass", "marginal",
    # automata and their constructions
    "Pga", "Edge", "make_pga", "concat", "product", "weighted_union", "transition_subst",
    "decrement", "label_subst_zero", "label_subst_one",
    # automaton files
    "load_pga", "save_pga", "pga_to_json", "pga_from_json",
    # the reference oracle
    "enumerate_program", "compare",
    # errors
    "RedipError", "InfeasibleObservation",
]
