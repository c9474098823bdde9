"""Exception types shared across the engine."""


class RedipError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWeight(RedipError):
    """An edge, initial, or final weight is negative, non-rational, or malformed."""


class InvalidAutomaton(RedipError):
    """Structural problem in an automaton (bad state index, unknown symbol, ...)."""


class ZeroMass(RedipError):
    """Normalization was requested for an automaton of mass zero."""


class InfiniteMass(RedipError):
    """An operation required finite mass but the automaton diverges."""


class PgaParseError(RedipError):
    """A serialized automaton file does not match the JSON schema."""


class GuardConstraintError(RedipError):
    """A guard violates a structural constraint (e.g. modulus <= residue)."""


class UnknownVariable(RedipError):
    """A variable is referenced that is not part of the alphabet."""


class InvalidParameter(RedipError):
    """A distribution parameter or a count argument is out of range."""


class CustomMassNotOne(RedipError):
    """A user-supplied distribution automaton does not have mass exactly 1."""


class CustomNotNormalized(RedipError):
    """A user-supplied distribution automaton is not a single-variable normalized PGA."""


class RedipSyntaxError(RedipError):
    """Source program could not be parsed. Carries a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ProbabilityRangeError(RedipSyntaxError):
    """A choice probability lies outside [0, 1]."""


class InfeasibleObservation(RedipError):
    """All program runs violate some observation; the posterior is undefined."""


class UnsupportedIid(RedipError):
    """The enumeration oracle does not step iid increments."""
