"""The error raised when the program breaks one of its own invariants."""


class InternalError(RuntimeError):
    """A fault in the program, not in its input.

    Raised where an `assert` would stand, so the check also runs under
    ``python -O``.  The CLI reports it with exit code 4.
    """
