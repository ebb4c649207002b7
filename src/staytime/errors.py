"""Exception taxonomy, the size rule every array obeys, and the one copy of each
parameter rule: a require_* helper checks a named value's type and range together."""

import numbers

import numpy as np

_SEQUENCES = (tuple, list, np.ndarray)  # what a parameter of several values may be


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


def require_array_fits(what: str, n_values: int) -> None:
    """Refuse the count what names when its float64 array would pass numpy's
    own limit on one array, np.iinfo(np.intp).max bytes."""
    limit = np.iinfo(np.intp).max
    if n_values * 8 > limit:
        raise ConfigurationError(
            f"{what} is {n_values} values, more than a numpy array can hold ({limit} bytes)")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value, low: int = 1) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def require_count(name: str, value, low: int = 1) -> None:
    """Refuse value, a seed or a count, unless it is an integer of at least low."""
    if not _is_count(value, low):
        raise ConfigurationError(f"{name} must be an integer of at least {low}, got {value!r}")


def require_counts(name: str, value, low: int = 1) -> None:
    """require_count of value, or of each entry of a tuple, list or array value."""
    if not isinstance(value, _SEQUENCES):
        require_count(name, value, low)
    elif not all(_is_count(v, low) for v in value):
        raise ConfigurationError(f"{name} must hold integers of at least {low}, got {value!r}")


def require_positive(name: str, value, zero_ok: bool = False) -> None:
    """Refuse value unless it is a finite number above zero (or zero_ok, at zero)."""
    if not (_is_number(value) and (0 <= value if zero_ok else 0 < value) and value < np.inf):
        sign = "nonnegative" if zero_ok else "positive"
        raise ConfigurationError(f"{name} must be a {sign} finite number, got {value!r}")


def require_fraction(name: str, value) -> None:
    """Refuse value, a rate such as dropout or an Adam beta, outside [0, 1)."""
    if not (_is_number(value) and 0 <= value < 1):
        raise ConfigurationError(f"{name} must lie in [0, 1), got {value!r}")


def require_decay(name: str, value, trainable: bool = False) -> None:
    """Refuse value, a decay factor, unless it is in (0, 1], and below 1 when trainable."""
    if not (_is_number(value) and 0 < value <= 1):
        raise ConfigurationError(f"{name} must lie in (0, 1], got {value!r}")
    if trainable and value == 1:
        raise ConfigurationError(f"a trainable {name} must start strictly below 1")


def _is_pair(value) -> bool:  # a (min, max) pair of numbers
    return isinstance(value, _SEQUENCES) and len(value) == 2 and all(map(_is_number, value))


def require_range(name: str, value, none_ok: bool = False) -> None:
    """Refuse value unless it is one (min, max) pair, one per dimension, or none_ok and None."""
    if not ((none_ok and value is None) or _is_pair(value) or (
            isinstance(value, _SEQUENCES) and len(value) > 0 and all(map(_is_pair, value)))):
        raise ConfigurationError(
            f"{name} must be one (min, max) pair or one per dimension, got {value!r}")


def require_bool(name: str, value) -> None:
    """Refuse value, a switch, unless it is a bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")
