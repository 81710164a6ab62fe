"""Pauli monomials Z_alpha X_beta labelled by phase-space points.

A point (alpha, beta) of GF(2^n) x GF(2^n) labels the operator
Z_alpha X_beta = prod_k sigma_z^{a_k} sigma_x^{b_k} on qubit k, where
a_k = tr(alpha theta_k), b_k = tr(beta theta_k) in the selfdual basis
{theta_k}.  Two monomials commute iff their points are symplectically
orthogonal; an admissible curve therefore labels a maximal commuting set.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from .errors import InputError, clip
from .curves import Point, PointSet, assert_admissible
from .field import GF2n

_GLYPHS = {(0, 0): "1", (1, 0): "Z", (0, 1): "X", (1, 1): "Y"}


def monomial_label(F: GF2n, alpha: int, beta: int) -> str:
    """The single-qubit factors of Z_alpha X_beta as one string, qubit 1
    first (e.g. "ZY1"), read off the selfdual words of alpha and beta."""
    z, x = F.coord_bits[alpha], F.coord_bits[beta]
    return "".join(_GLYPHS[z >> k & 1, x >> k & 1] for k in range(F.n - 1, -1, -1))


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


@functools.cache
def _partition_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """(qubit masks, output blocks) of every set partition of n qubits.

    Stably sorted by decreasing block count, so among partitions with equal
    counts the `_set_partitions` order is kept; the blocks are 1-based and
    sorted by (size, qubits).  Built on first use, once per degree.
    """
    table = []
    for part in sorted(_set_partitions(list(range(n))), key=lambda p: -len(p)):
        masks = tuple(sum(1 << (n - 1 - q) for q in block) for block in part)
        blocks = sorted((sorted(q + 1 for q in block) for block in part),
                        key=lambda b: (len(b), b))
        table.append((masks, tuple(tuple(b) for b in blocks)))
    return tuple(table)


@functools.cache
def _partition_validity(n: int) -> tuple[int, ...]:
    """Entry w: bit i is set when the word w has even parity on every block
    of partition i of `_partition_table(n)`."""
    return tuple(sum(1 << i for i, (masks, _) in enumerate(_partition_table(n))
                     if not any((w & m).bit_count() & 1 for m in masks))
                 for w in range(1 << n))


def factorization_partition(F: GF2n,
                            points: Iterable[Point]) -> tuple[tuple[int, ...], ...]:
    """Finest qubit partition whose blocks factor the curve's commuting set.

    Returned as a tuple of 1-based qubit index tuples, coarsest block last;
    (1,)(2,)...(n,) means the basis is a product of single-qubit states and
    ((1, ..., n),) means it is fully entangled.  Of several finest ones,
    the first in `_set_partitions` order.

    A block carries a commuting tensor factor when every generator pair's
    clash word (z1 & x2) ^ (z2 & x1) has even parity on its qubit mask.
    The parity is bilinear in the pair, so the curve's n generators will
    do: the partitions valid for every clash word are the AND of the
    words' `_partition_validity` masks, and the finest is its lowest bit.
    """
    low, words = F.order - 1, F.coord_bits
    gens = [(words[g >> F.n], words[g & low]) for g in assert_admissible(F, points).gens]
    validity, valid = _partition_validity(F.n), -1
    for (z1, x1), (z2, x2) in itertools.combinations(gens, 2):
        valid &= validity[(z1 & x2) ^ (z2 & x1)]
    # the last entry, one block, is always valid: the curve is isotropic
    return _partition_table(F.n)[(valid & -valid).bit_length() - 1][1]


def canonical_partition_types(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n as sorted block-size tuples, finest first: the
    block-size types of the set partitions in `_partition_table(n)`.

    Ordered by decreasing block count, ties broken lexicographically, so
    (1,...,1) is first and (n,) last; the list has p(n) entries.
    """
    return sorted({partition_type(blocks) for _, blocks in _partition_table(n)},
                  key=lambda p: (-len(p), p))


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


def local_transform_point(F: GF2n, kind: str, qubit: int, p: Point) -> Point:
    """The phase-space action of a single-qubit rotation, in field form.

    `qubit` is 1-based.  With theta the qubit's selfdual basis vector and
    a_q = tr(alpha theta), b_q = tr(beta theta) its z and x bits:
      z: beta fixed, alpha += theta b_q (sigma_x -> sigma_y)
      x: alpha fixed, beta += theta a_q (sigma_z -> sigma_y)
      y: alpha and beta += theta (a_q + b_q), swapping the two bits.
    """
    if kind not in ("z", "x", "y"):
        raise InputError(f"unknown rotation {clip(kind)}; expected z, x or y")
    if not 1 <= qubit <= F.n:
        raise InputError(f"qubit {qubit} out of range 1..{F.n}")
    theta, bit = F.selfdual_basis[qubit - 1], 1 << (F.n - qubit)
    alpha, beta = p
    z, x = F.coord_bits[alpha] & bit, F.coord_bits[beta] & bit
    if kind == "z":
        return (alpha ^ theta if x else alpha), beta
    if kind == "x":
        return alpha, (beta ^ theta if z else beta)
    return (alpha ^ theta, beta ^ theta) if z != x else (alpha, beta)


def transform_curve(F: GF2n, points: Iterable[Point],
                    ops: Sequence[tuple[str, int]]) -> PointSet:
    """Apply a sequence of (kind, qubit) local rotations to a whole curve."""
    pts = assert_admissible(F, points)
    for kind, qubit in ops:
        pts = frozenset(local_transform_point(F, kind, qubit, p) for p in pts)
    return assert_admissible(F, pts)
