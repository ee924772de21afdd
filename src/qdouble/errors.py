"""The two roots of every exception qdouble raises on purpose.

InputError is bad input from the caller (the CLI exits 2); CheckFailure is a
failed mathematical check (the CLI exits 1). Anything else is a bug.
"""


class InputError(ValueError):
    """The caller's data or arguments are malformed or out of range."""


class CheckFailure(Exception):
    """A mathematical identity or certificate failed on well-formed input."""
