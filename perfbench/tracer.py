"""Per-layer spans around redip's public functions.

The tracer replaces each traced function by a wrapper in every redip module
that binds it, because modules import functions by name (`translate` does
`from .analysis import mass`): patching only the defining module would miss
those calls. The solver's factorization and back-substitution are methods of
`linsolve.FactoredSystem`, so they are patched on the class.

Each call opens a span. A span's self time is its duration minus the time of
the spans nested in it. Time spent computing a layer's counters (such as the
largest denominator in a factorization) is excluded from every open span, so
counting does not show up as a layer's work.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PHASES = ("infer", "query")

# (module, function) pairs traced as spans named "<module>.<function>"
FUNCTIONS = (
    ("lang", "parse_program"),
    ("lang", "parse_guard"),
    ("translate", "translate"),
    ("translate", "infer"),
    ("translate", "guard_mass"),
    ("translate", "marginal"),
    ("analysis", "mass"),
    ("analysis", "normalize"),
    ("analysis", "coefficient_table"),
    ("constructions", "concat"),
    ("constructions", "product"),
    ("constructions", "transition_subst"),
    ("constructions", "decrement"),
    ("constructions", "weighted_union"),
    ("constructions", "label_subst_one"),
    ("pga", "make_pga"),
    ("pga", "trim"),
    ("guards", "build_guard_dfa"),
    ("dists", "build_dist_pga"),
    ("serialize", "pga_to_json"),
    ("serialize", "pga_from_json"),
    ("linsolve", "simplex_min"),
)
# FactoredSystem methods, traced under their own span names
METHODS = (("__init__", "linsolve.factor"), ("solve", "linsolve.solve"))
SPANS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(name for _, name in METHODS)


def _factor_counts(system) -> dict[str, int]:
    entries = [f for _, _, f in system.ops]
    for _, _, row in system.pivots:
        entries.extend(row.values())
    bits = max((v.denominator.bit_length() for v in entries), default=0)
    return {"dim": system.n, "ops": len(system.ops), "max_den_bits": bits}


def _counts(name: str, args: tuple, result) -> dict[str, int]:
    """Work counters of one finished call, keyed by counter name."""
    if name == "linsolve.factor":
        return _factor_counts(args[0])
    if name.startswith("constructions."):
        return {"out_states": result.num_states}
    if name == "pga.trim":
        return {"states_in": args[0].num_states, "states_out": result.num_states}
    if name == "guards.build_guard_dfa":
        return {"dfa_states": result.num_states}
    return {}


class Tracer:
    """Aggregates spans per phase; `install` patches redip, `remove` undoes it."""

    def __init__(self) -> None:
        self.phase = PHASES[0]
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # per phase and span: [calls, inclusive seconds, self seconds]
        self.spans = {p: defaultdict(lambda: [0, 0.0, 0.0]) for p in PHASES}
        self.counts: dict[str, int] = defaultdict(int)
        self.paused = 0.0  # seconds spent counting, excluded from every span
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._depth: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            paused0 = self.paused
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start - (self.paused - paused0)
                self._stack.pop()
                self._depth[name] -= 1
                outermost = self._depth[name] == 0
                if self._stack:
                    self._stack[-1][0] += duration
                stat = self.spans[self.phase][name]
                stat[0] += 1
                stat[2] += duration - frame[0]
                # a recursive call's time is already inside the outer call
                if outermost:
                    stat[1] += duration
            if outermost:
                count_start = perf_counter()
                for key, value in _counts(name, args, result).items():
                    counter = f"{name}.{key}"
                    if key.startswith("max_"):
                        self.counts[counter] = max(self.counts[counter], value)
                    else:
                        self.counts[counter] += value
                self.paused += perf_counter() - count_start
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "redip" or n.startswith("redip.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"redip.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, bound, original))
                        setattr(module, bound, wrapper)
        cls = sys.modules["redip.linsolve"].FactoredSystem
        for method, name in METHODS:
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def remove(self) -> None:
        while self._patched:
            owner, bound, original = self._patched.pop()
            setattr(owner, bound, original)
