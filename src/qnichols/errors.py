"""Shared exception types with CLI exit-code conventions."""


class InputError(ValueError):
    """Malformed or out-of-range input.  CLI exit code 2."""


class ResourceCapError(RuntimeError):
    """A configured resource cap was exceeded (coset budget, tensor cap, census size).

    CLI exit code 3.
    """


class InvariantViolationError(AssertionError):
    """A structural identity that must hold was falsified.  CLI exit code 4.

    This is always either a bug or a genuine mathematical finding; it is
    never swallowed.
    """
