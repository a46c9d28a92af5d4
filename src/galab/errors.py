"""Exception hierarchy shared by the library and the CLI exit-code contract."""

from __future__ import annotations


class GalabError(Exception):
    """Base class for all library errors."""


class DomainError(GalabError):
    """Invalid mathematical input; the CLI maps these to exit code 2."""


class KindMismatch(DomainError):
    """A descriptor of the wrong kind was given to `dual_profinite` or `dual_discrete`."""


class NotFundamental(DomainError):
    """The integer is not a fundamental discriminant of an imaginary quadratic field."""


class DiscriminantMismatch(DomainError):
    """Binary quadratic forms of different discriminants cannot be composed."""


class ExcludedField(DomainError):
    """The two excluded fields (discriminants -4 and -8) have no assigned type."""


class InvalidCharacteristic(DomainError):
    """A function-field characteristic must be a prime number."""


class ContainmentError(DomainError):
    """A supplied split group does not embed into the computed class group."""


class FormatError(DomainError):
    """A structured input document (table, descriptor) failed to parse."""


class SplitDataUnavailable(GalabError):
    """No source (forced-trivial, user table, builtin table) resolves the split group.

    The CLI maps this to exit code 3.
    """


class BoundExceeded(GalabError):
    """An enumeration would exceed the configured search bound; CLI exit code 4."""


def exit_code_for(exc: BaseException) -> int:
    """CLI exit code for a library exception (2 domain, 3 split data, 4 bound)."""
    if isinstance(exc, SplitDataUnavailable):
        return 3
    if isinstance(exc, BoundExceeded):
        return 4
    if isinstance(exc, GalabError):
        return 2
    raise TypeError(f"not a galab error: {exc!r}")
