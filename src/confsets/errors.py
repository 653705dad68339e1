"""Shared exception type and the type checks for values read from JSON."""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or invariant.

    The CLI maps this to exit code 1; genuine I/O failures (OSError) map
    to exit code 2.
    """


def is_int(value) -> bool:
    """An int, but not a bool (JSON ``true`` would otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
