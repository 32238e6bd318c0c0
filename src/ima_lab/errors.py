"""Semantic exception hierarchy shared by all modules.

Public functions never raise a bare ValueError for contract violations;
they raise one of these so callers (and the CLI) can map failures to
validation vs. numerical-failure exit codes.
"""


class ImaLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ImaLabError, ValueError):
    """Inputs violate a documented precondition (domain, shape, schema)."""


class DomainError(ValidationError):
    """A numeric parameter lies outside the operation's domain."""


class NonFiniteError(ValidationError):
    """An input array contains NaN or infinity."""


class DimensionMismatchError(ValidationError):
    """Array or stage dimensions do not chain."""


class OutOfDomainError(ValidationError):
    """A point lies outside a map's declared domain."""


class SupportError(ValidationError):
    """A coordinate lies outside the open support of its component law."""


class NonMonotoneError(ValidationError):
    """A supplied element-wise transform fails the monotonicity check."""


class TrivialRotationError(ValidationError):
    """The rotation is a signed permutation, excluded by hypothesis."""


class NumericalError(ImaLabError):
    """A numerical check failed at run time (not an input-schema problem)."""


class RankDeficientError(NumericalError):
    """A matrix failed the relative singular-value rank check."""


class ZeroColumnError(NumericalError):
    """A matrix column has (numerically) zero norm."""


class OnKnotError(NumericalError):
    """Jacobian of an unsmoothed grid map requested exactly at a knot."""


class NearPoleError(NumericalError):
    """Evaluation point falls inside the exclusion radius of an inversion pole."""


class OutOfTableError(NumericalError):
    """Query point lies outside the tabulated rectangle."""


class NonPositiveDensityError(ValidationError):
    """A density is not strictly positive on its bounding rectangle."""


class NormalizationError(NumericalError):
    """Tabulated density mass deviates too far from 1."""


class DegenerateMapError(NumericalError):
    """Too many Monte Carlo draws were rejected for rank deficiency."""


#: errors that reject one Monte Carlo draw rather than the whole run.  The
#: Jacobian batch calls return an int8 code per row: 0 for a kept row, k
#: for a row refused with ``REJECTABLE[k - 1]``
REJECTABLE = (RankDeficientError, OnKnotError, NearPoleError, OutOfTableError)


def reject_codes(rejected, error: type[ImaLabError]):
    """The int8 batch codes of a bool mask of the rows refused with
    ``error``, one of :data:`REJECTABLE`."""
    return rejected.astype("int8") * (REJECTABLE.index(error) + 1)
