"""Exception taxonomy shared across the package."""


class StayTimeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StayTimeError):
    """Input data violates a documented requirement."""


class OutOfRangeError(ValidationError):
    """A value falls outside its declared domain."""


class ConfigurationError(StayTimeError):
    """Configuration values are missing, inconsistent, or out of range."""


class ContractError(StayTimeError):
    """An internal invariant that callers rely on was broken."""


class UndefinedResultError(StayTimeError):
    """The requested quantity has no defined value for the given input."""


class DivergenceError(StayTimeError):
    """Training produced a non-finite loss or gradient."""


class WorkerError(StayTimeError):
    """A worker process of a parallel run died before returning its result."""
