"""Exception types shared across the toolkit."""


class MaccError(Exception):
    """Base class for all toolkit errors."""


class InvalidParametersError(MaccError):
    """Numeric parameters violate a constructor's preconditions."""


class InvalidInputError(MaccError):
    """A structured input object is malformed or fails a required property."""


class UnsupportedParametersError(MaccError):
    """Parameters are legal in principle but outside what this toolkit builds."""


class NotFoundError(MaccError):
    """Unknown catalog entry."""


class NotAPdaError(MaccError):
    """Array statistics requested for an array that is not a PDA."""


class InconsistentDesignError(MaccError):
    """A design, GDD or OA whose blocks or rows do not match its tag."""


class ConfigurationError(MaccError):
    """Runtime configuration cannot support the requested operation."""


class DecodeFailureError(MaccError):
    """A user could not reconstruct its requested file."""

    def __init__(self, user, message_id, reason=""):
        self.user = user
        self.message_id = message_id
        super().__init__(f"user {user} failed on message {message_id}: {reason}")
