"""Shared exception types, and how their messages quote offending input."""

# an error message quotes at most this many characters of the input at fault
_QUOTE_LIMIT = 40


def quote_input(text: str) -> str:
    """``repr(text)``; past 40 characters, that of its first 40 and its length.

    A parser quotes the input at fault with this, so a huge line in a point
    file cannot flood stderr.
    """
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text):,} characters)"


class ContractError(ValueError):
    """A caller violated an operation's preconditions."""


class DegeneracyError(RuntimeError):
    """A computation hit an affine degeneracy that general position excludes.

    Carries the offending labels when they are known.
    """

    def __init__(self, message, labels=None):
        super().__init__(message)
        self.labels = tuple(labels) if labels is not None else None


class SamplingError(RuntimeError):
    """Random sampling exhausted its attempt budget."""


class CertificateError(ArithmeticError):
    """An exact result failed the check that certifies it: a fault in the program.

    Raised instead of writing output that rests on a wrong sign; never an
    ``assert``, so ``python -O`` keeps it.
    """
