"""Shared exception type and the checks for values read from JSON."""


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


def check_keys(obj: dict, allowed, what: str) -> None:
    """Reject keys of a JSON object outside ``allowed``.

    A misspelt key would otherwise load as its default without a word.
    """
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")
