"""Exception family for the retention protocol."""


class ExpungeError(Exception):
    """Base class for all protocol errors."""


class DomainError(ExpungeError, ValueError):
    """An argument violates an operation's precondition."""


class EpochMismatchError(ExpungeError):
    """A reading's time falls outside the epoch it was batched into."""


class DuplicateEpochError(ExpungeError):
    """The cloud already holds a record for this epoch."""


class InconsistentRowsError(ExpungeError):
    """SensorData and MetaData rows in one payload disagree."""


class NotAuthorizedError(ExpungeError):
    """Requester is not on the provider-supplied access list."""


class DataExpiredError(ExpungeError):
    """Data for the epoch is past its deletion time and cannot be served."""


class UnavailableError(ExpungeError):
    """Verification material for the epoch has been purged."""


class IntegrityError(ExpungeError):
    """Authenticated decryption failed; distinct from a value mismatch."""


class SignatureRejected(ExpungeError):
    """A query record carried an invalid user signature."""


class WireError(ExpungeError):
    """Malformed or unexpected message on the wire."""
