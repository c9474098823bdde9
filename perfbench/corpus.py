"""Random core programs as source text.

The grammar is a copy of the one in the repository's differential runner
(itself a mirror of the test suite's generator), rewritten to emit surface
syntax directly, so the engine under test only ever receives program text.
It is copied rather than imported so that the benchmark's inputs stay fixed
while the repository's scripts change.
"""

from __future__ import annotations

import random

PROBS = ("1/2", "1/3", "2/5", "3/4", "9/10")
ALPHABET = ("x", "y")
MAX_CONST = 3
SIZE = 8  # statement-count budget per program


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def var(self) -> str:
        v = self.rng.choice(ALPHABET)
        self.used.add(v)
        return v

    def guard(self, depth: int = 2) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            var = self.var()
            if rng.random() < 0.7:
                return f"{var} < {rng.randint(0, MAX_CONST)}"
            modulus = rng.randint(1, MAX_CONST)
            return f"{var} % {modulus} == {rng.randrange(modulus)}"
        if rng.random() < 0.5:
            return f"({self.guard(depth - 1)} and {self.guard(depth - 1)})"
        inner = self.guard(depth - 1)
        if inner.startswith("not (") and inner.endswith(")"):
            return inner[len("not (") : -1]
        return f"not ({inner})"

    def dist(self) -> str:
        rng = self.rng
        kind = rng.randrange(6)
        if kind == 0:
            return f"geometric({rng.choice(PROBS)})"
        if kind == 1:
            return f"bernoulli({rng.choice(PROBS)})"
        if kind == 2:
            return f"dirac({rng.randint(0, MAX_CONST)})"
        if kind == 3:
            return f"uniform({rng.randint(1, MAX_CONST)})"
        if kind == 4:
            return f"binomial({rng.randint(0, MAX_CONST)}, {rng.choice(PROBS)})"
        return f"negbinomial({rng.randint(0, MAX_CONST)}, {rng.choice(PROBS)})"

    def program(self, budget: int) -> str:
        rng = self.rng
        if budget <= 1:
            var = rng.choice(ALPHABET)
            kind = rng.randrange(7)
            if kind != 5:
                self.used.add(var)
            if kind == 0:
                return f"{var} := 0"
            if kind == 1 or kind == 6:
                return f"{var} += {rng.randint(0, MAX_CONST)}"
            if kind == 2:
                return f"{var} += {self.dist()}"
            if kind == 3:
                return f"{var} += {self.var()}"
            if kind == 4:
                return f"{var}--"
            return f"observe({self.guard()})"
        if budget >= 3 and rng.random() < 0.3:
            left_budget = rng.randint(1, budget - 2)
            left = self.program(left_budget)
            right = self.program(budget - 1 - left_budget)
            if rng.random() < 0.5:
                return f"{{ {left} }} [{rng.choice(PROBS)}] {{ {right} }}"
            return f"if ({self.guard()}) {{ {left} }} else {{ {right} }}"
        first_budget = rng.randint(1, budget - 1)
        return f"{self.program(first_budget)}; {self.program(budget - first_budget)}"


def random_program(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """One program's source and the sorted variables it mentions."""
    gen = _Gen(rng)
    source = gen.program(rng.randint(1, SIZE))
    return source, tuple(sorted(gen.used))
