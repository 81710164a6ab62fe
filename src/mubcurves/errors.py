"""Exception types shared across the package, and `clip` for their messages."""


class MubcError(Exception):
    """Base class for all package-specific errors."""


def clip(value: object) -> str:
    """repr of user input for a one-line error message, cut after 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


class UnsupportedDegree(MubcError):
    """Extension degree outside the supported range 1..5."""


class InvalidModulus(MubcError):
    """Modulus polynomial is reducible or has the wrong degree."""


class DivisionByZero(MubcError):
    """Multiplicative inverse of the zero element requested."""


class SingularBasis(MubcError):
    """A supplied basis is linearly dependent over GF(2)."""


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
    """No admissible offset exists for the requested degeneracy pattern."""


class EmptyResult(MubcError):
    """A search completed with no result (valid but empty outcome)."""


class InputError(MubcError):
    """Unparseable user input (curve spec, ops string, config)."""
