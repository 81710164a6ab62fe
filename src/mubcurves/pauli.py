"""Pauli monomials Z_alpha X_beta labelled by phase-space points.

A point (alpha, beta) of GF(2^n) x GF(2^n) labels the operator
Z_alpha X_beta = prod_k sigma_z^{a_k} sigma_x^{b_k} on qubit k, where
a_k = tr(alpha theta_k), b_k = tr(beta theta_k) in the selfdual basis
{theta_k}.  Two monomials commute iff their points are symplectically
orthogonal; an admissible curve therefore labels a maximal commuting set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError, clip
from .curves import Point, PointSet, assert_admissible, point_generators, symplectic_trace
from .field import GF2n

_GLYPHS = {(0, 0): "1", (1, 0): "Z", (0, 1): "X", (1, 1): "Y"}


@dataclass(frozen=True)
class PauliMonomial:
    """A displacement operator label: field point plus its qubit bit rows."""

    alpha: int
    beta: int
    z_bits: tuple[int, ...]
    x_bits: tuple[int, ...]

    @property
    def point(self) -> Point:
        return self.alpha, self.beta

    def glyphs(self) -> tuple[str, ...]:
        """Per-qubit single-letter factors, e.g. ('Z', 'Y', '1')."""
        return tuple(_GLYPHS[zb, xb] for zb, xb in zip(self.z_bits, self.x_bits))

    def label(self) -> str:
        return "".join(self.glyphs())


def monomial(F: GF2n, alpha: int, beta: int) -> PauliMonomial:
    return PauliMonomial(alpha, beta, F.coords(alpha), F.coords(beta))


def commutes(F: GF2n, m1: PauliMonomial, m2: PauliMonomial) -> bool:
    return symplectic_trace(F, m1.point, m2.point) == 0


def commuting_set(F: GF2n, points: Iterable[Point]) -> list[PauliMonomial]:
    """The 2^n - 1 nonidentity monomials of an admissible curve, sorted by point."""
    pts = assert_admissible(F, points)
    return [monomial(F, a, b) for a, b in sorted(pts) if (a, b) != (0, 0)]


# -- factorization structure -----------------------------------------------------


def _set_partitions(items: Sequence[int]) -> Iterable[list[list[int]]]:
    """All partitions of `items` into nonempty blocks (Bell(5) = 52 at most)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def factorization_partition(F: GF2n,
                            points: Iterable[Point]) -> tuple[tuple[int, ...], ...]:
    """Finest qubit partition whose blocks factor the curve's commuting set.

    Returned as a tuple of 1-based qubit index tuples, coarsest block last;
    (1,)(2,)...(n,) means the basis is a product of single-qubit states and
    ((1, ..., n),) means it is fully entangled.

    A block carries a commuting tensor factor when every generator pair's
    clash word (z1 & x2) ^ (z2 & x1) has even parity on its qubit mask.
    """
    words = F.coord_bits
    gens = [(words[a], words[b]) for a, b in point_generators(F, assert_admissible(F, points))]
    clashes = [(z1 & x2) ^ (z2 & x1) for (z1, x1), (z2, x2) in itertools.combinations(gens, 2)]
    best: Optional[list[list[int]]] = None
    for part in _set_partitions(list(range(F.n))):
        masks = [sum(1 << (F.n - 1 - q) for q in block) for block in part]
        if not any((c & m).bit_count() & 1 for c in clashes for m in masks):
            if best is None or len(part) > len(best):
                best = part
    assert best is not None  # the single-block partition is always valid
    blocks = sorted((sorted(q + 1 for q in block) for block in best),
                    key=lambda b: (len(b), b))
    return tuple(tuple(b) for b in blocks)


def canonical_partition_types(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n as sorted block-size tuples, finest first.

    Ordered by decreasing block count, ties broken lexicographically, so
    (1,...,1) is first and (n,) last; the list has p(n) entries.
    """
    parts: list[tuple[int, ...]] = []

    def gen(remaining: int, mx: int, acc: list[int]) -> None:
        if remaining == 0:
            parts.append(tuple(sorted(acc)))
            return
        for k in range(1, min(mx, remaining) + 1):
            gen(remaining - k, k, acc + [k])

    gen(n, n, [])
    parts.sort(key=lambda p: (-len(p), p))
    return parts


def partition_type(partition: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The block-size multiset of a factorization partition."""
    return tuple(sorted(len(b) for b in partition))


def bundle_structure(F: GF2n, curves: Iterable[Iterable[Point]]) -> tuple[int, ...]:
    """Histogram (k_1, ..., k_p(n)) of curve factorization types in a bundle,
    from fully factorized to fully entangled."""
    types = canonical_partition_types(F.n)
    counts = [0] * len(types)
    for c in curves:
        t = partition_type(factorization_partition(F, c))
        counts[types.index(t)] += 1
    return tuple(counts)


# -- local transformations --------------------------------------------------------


_BIT_MAPS = {
    "z": lambda zb, xb: (zb ^ xb, xb),
    "x": lambda zb, xb: (zb, xb ^ zb),
    "y": lambda zb, xb: (xb, zb),
}


def local_transform_bits(kind: str, qubit: int, z_bits: Sequence[int],
                         x_bits: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apply a single-qubit rotation about the z, x or y axis to one bit slot.

    `qubit` is 1-based.  z leaves sigma_z fixed and maps sigma_x -> sigma_y;
    x leaves sigma_x fixed and maps sigma_z -> sigma_y; y swaps z and x.
    """
    if kind not in _BIT_MAPS:
        raise InputError(f"unknown rotation {clip(kind)}; expected z, x or y")
    if not 1 <= qubit <= len(z_bits):
        raise InputError(f"qubit {qubit} out of range 1..{len(z_bits)}")
    k = qubit - 1
    z, x = list(z_bits), list(x_bits)
    z[k], x[k] = _BIT_MAPS[kind](z[k], x[k])
    return tuple(z), tuple(x)


def local_transform_point(F: GF2n, kind: str, qubit: int, p: Point) -> Point:
    """The phase-space action of a local rotation, in field form.

    With theta the qubit's selfdual basis vector,
      z: beta fixed, alpha += theta * tr(beta theta)
      x: alpha fixed, beta += theta * tr(alpha theta)
      y: swap the qubit's contribution between alpha and beta.
    """
    m = monomial(F, *p)
    z, x = local_transform_bits(kind, qubit, m.z_bits, m.x_bits)
    return F.from_coords(z), F.from_coords(x)


def transform_curve(F: GF2n, points: Iterable[Point],
                    ops: Sequence[tuple[str, int]]) -> PointSet:
    """Apply a sequence of (kind, qubit) local rotations to a whole curve."""
    pts = assert_admissible(F, points)
    for kind, qubit in ops:
        pts = frozenset(local_transform_point(F, kind, qubit, p) for p in pts)
    return assert_admissible(F, pts)
