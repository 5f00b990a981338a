"""Exception taxonomy.

Two broad families matter to callers: bad input (CLI exit code 2) and blown
resource limits (CLI exit code 3). The one other error is an
internal-consistency failure; no error is a control-flow signal. There are no
warning classes: a claimed d above the minimum outdegree is a string in
PartitionOutcome.warnings.
"""
from __future__ import annotations


class JudipartError(Exception):
    """Base class for all package errors."""


class InputError(JudipartError):
    """Invalid input data or parameters (CLI exit code 2)."""


class LimitError(JudipartError):
    """An instance is beyond what a computation can hold (CLI exit code 3)."""


# digraph construction / parsing

class LoopArcError(InputError):
    pass


class DuplicateArcError(InputError):
    pass


class VertexOutOfRangeError(InputError):
    pass


class EmptyGraphError(InputError):
    pass


class EdgeListParseError(InputError):
    pass


class PartitionError(InputError):
    """A vertex set names a vertex outside the graph, its parts overlap, or a
    claimed partition does not cover what it splits."""


# digraph construction, oracle

class TooLargeError(LimitError):
    """An instance is too large for the requested computation."""


# certify

class IdentityViolationError(JudipartError):
    """A bookkeeping identity that must hold by construction failed."""


# generators (parameters only: each family's degree contract holds by
# construction)

class GenParamError(InputError):
    """Generator parameters are out of range or infeasible."""


class EvenOrderError(GenParamError):
    """An odd clique order was required."""


class TooSmallError(GenParamError):
    """Requested instance size is below the family's minimum."""


class InfeasibleParamsError(GenParamError):
    """Parameter combination cannot produce a valid instance."""
