"""Exception types shared across the package."""


class UsageError(ValueError):
    """Caller passed malformed or out-of-contract input."""


class IdentityNotAPointError(UsageError):
    """The identity word has no projective image (it encodes to zero)."""


class InternalConsistencyError(RuntimeError):
    """A structural fact the geometry guarantees failed to hold at runtime."""
