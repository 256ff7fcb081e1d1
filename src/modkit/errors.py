"""Exception types shared across the package.

Every contract violation raises a subclass of :class:`ModkitError`, so callers
can catch one base type at e.g. a CLI boundary and map it to an exit code.
"""


class ModkitError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(ModkitError):
    """Matrix expected to be Hermitian fails the relative tolerance test."""


class NotPSD(ModkitError):
    """Matrix expected to be positive semidefinite is not."""


class NotSquare(ModkitError):
    """Square matrix required."""


class DomainError(ModkitError):
    """An eigenvalue lies outside the declared domain of a scalar function,
    or a time is not a finite number, or a physical (real) time has a
    non-zero imaginary part."""


class BadExponent(ModkitError):
    """Exponent outside the allowed range (e.g. Schatten p < 1)."""


class BadBeta(ModkitError):
    """Inverse temperature must be strictly positive."""


class ShapeMismatch(ModkitError):
    """Operand shapes do not compose."""


class DimensionMismatch(ModkitError):
    """Bipartite factor dimensions disagree where equality is required."""


class ZeroVector(ModkitError):
    """Nonzero vector required."""


class SingularState(ModkitError):
    """A faithful (nonsingular) state is required."""


class OrderViolation(ModkitError):
    """Operator ordering hypothesis (A >= B) fails."""


class NotJFixed(ModkitError):
    """Vector is not fixed by the modular conjugation."""


class OutsideStrip(ModkitError):
    """Complex argument lies outside the analyticity strip 0 <= Im z <= beta."""


class UsageError(ModkitError):
    """Invalid command-line usage (e.g. a tolerance that is not finite and > 0)."""


class UnknownSuite(UsageError):
    """Campaign suite name not recognized."""


class ParseError(ModkitError):
    """Malformed matrix/vector payload."""
