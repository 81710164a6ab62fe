"""Pauli monomials as per-qubit coordinate tuples: the model that the tests
hold the package's word-based labels, dense operators and rotations against;
and the square sign of one monomial, which the package computes for every
generator of an atlas at once."""

from __future__ import annotations

from dataclasses import dataclass

from mubcurves.curves import assert_admissible


def coords(F, a):
    """Selfdual coordinates (tr(a theta_1), ..., tr(a theta_n)), qubit 1
    first: the bits of `F.coord_bits[a]`."""
    w = F.coord_bits[a]
    return tuple(w >> k & 1 for k in range(F.n - 1, -1, -1))


@dataclass(frozen=True)
class PauliMonomial:
    """A displacement operator label: field point plus its qubit bit rows."""

    alpha: int
    beta: int
    z_bits: tuple[int, ...]
    x_bits: tuple[int, ...]

    @property
    def point(self):
        return self.alpha, self.beta


def monomial_square_sign(F, alpha, beta):
    """(Z_alpha X_beta)^2 = chi(alpha beta) * identity."""
    return -1 if (F.coord_bits[alpha] & F.coord_bits[beta]).bit_count() & 1 else 1


def monomial(F, alpha, beta):
    return PauliMonomial(alpha, beta, coords(F, alpha), coords(F, beta))


def commuting_set(F, points):
    """The 2^n - 1 nonidentity monomials of an admissible curve, sorted by point."""
    pts = assert_admissible(F, points)
    return [monomial(F, a, b) for a, b in sorted(pts) if (a, b) != (0, 0)]
