"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: schema problems exit 2, mathematical
invariant violations exit 3, indeterminate (insufficient witness) results
exit 4; any exception outside this hierarchy is an internal error, exit 5.
"""

from __future__ import annotations


class PmsvalError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PmsvalError):
    """Malformed or incomplete input data (JSON shape, missing fields)."""


class InvariantError(PmsvalError):
    """Mathematically invalid input: a stated invariant does not hold."""


class DescriptorMismatch(InvariantError):
    """Operands belong to descriptors of different arity."""


class InvalidAdjoin(InvariantError):
    """Attempt to adjoin an element already contained in the component."""


class NotAPms(InvariantError):
    """Pairwise distances fit neither the pcs, pds nor pcts pattern."""


class InvalidConfiguration(InvariantError):
    """A point configuration violates the ultrametric isosceles law or
    contradicts the declared sequence data."""


class KindError(InvariantError):
    """Operation applied to a sequence of the wrong kind."""


class IndeterminateError(PmsvalError):
    """Not enough witness data to decide; distinct from a negative answer."""
