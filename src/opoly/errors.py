"""Exception types raised by opoly."""


class OpolyError(Exception):
    """Base class for math and state failures raised by this package."""


class HorizonError(OpolyError):
    """An operation needed recurrence or moment data past the stored horizon."""


class DegeneracyError(OpolyError):
    """A quantity that must be nonzero (gamma, pivot, denominator) vanished."""


class ConstraintError(OpolyError, ValueError):
    """Structural parameter constraints are violated (a parameter out of its
    domain, hence also a ``ValueError``)."""


class StateError(OpolyError):
    """The operation requires a passing condition report that is missing."""


class NumericError(OpolyError):
    """A numerical computation failed or left residuals above tolerance."""


class InapplicableError(OpolyError):
    """The requested check is undefined for these inputs (e.g. complex nodes)."""
