"""Exception types shared across the protocol stack."""


class ProtocolError(Exception):
    """Base class for all protocol-level failures."""


class ParameterError(ProtocolError, ValueError):
    """A parameter violates its documented precondition."""


class ParameterOverflow(ParameterError):
    """A parameter is so extreme that a quantity derived from it leaves the float range."""


class InfeasibleParameters(ParameterError):
    """The requested calibration point admits no sound threshold pair."""


class DimensionMismatch(ProtocolError, ValueError):
    """Vector or matrix shapes are inconsistent."""


class MissingReply(ProtocolError):
    """A verifier reply required by the decision step is absent."""


class DuplicateClientId(ProtocolError):
    """Two submissions carry the same client identifier."""


class UnknownParty(ProtocolError):
    """A party id does not occur in the transcript."""


class ScenarioError(ProtocolError, ValueError):
    """A scenario or experiment configuration failed validation."""


class AbortedInput(ProtocolError):
    """An aborted aggregate result was passed where a sum is required."""
