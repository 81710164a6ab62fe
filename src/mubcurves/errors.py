"""Exception types shared across the package, and `clip` and `reason` for
their messages."""


class MubcError(Exception):
    """Base class for all package-specific errors."""


def clip(value: object) -> str:
    """repr of user input for a one-line error message, cut after 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def reason(exc: Exception) -> str:
    """Why a file could not be read or written, without the path that the
    text of an OSError repeats."""
    return exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)


class UnsupportedDegree(MubcError):
    """Extension degree outside the supported range 1..5."""


class InvalidModulus(MubcError):
    """Modulus polynomial is reducible or has the wrong degree."""


class DivisionByZero(MubcError):
    """Multiplicative inverse of the zero element requested."""


class NoSelfdualFound(MubcError):
    """Internal error: no selfdual basis exists for the field as built."""


class NotAnAdmissibleCurve(MubcError):
    """Point set is not an additive subgroup of order 2^n (a singular curve);
    a subgroup whose monomials do not commute raises NotCommutative."""


class NotCommutative(MubcError):
    """A point set whose labelled monomials fail the pairwise trace test."""


class NoExplicitForm(MubcError):
    """Exceptional curves admit no single explicit equation."""


class NoStructuralEquation(MubcError):
    """Regular curves have nondegenerate coordinates."""


class DegenerateRoots(MubcError):
    """Root tuple for an exceptional curve is linearly dependent or invalid."""


class InconsistentDegeneracy(MubcError):
    """`classify` found projection ranks that disagree with the W-matrix ranks."""


class EmptyResult(MubcError):
    """A search completed with no result (valid but empty outcome)."""


class InputError(MubcError):
    """Unparseable user input (curve spec, ops string, config)."""
