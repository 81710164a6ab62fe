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
import operator
from typing import Iterable, Iterator, Sequence

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


@functools.cache
def _even_cuts(n: int) -> tuple[int, ...]:
    """Entry w: bit m is set when the qubit mask m has even parity on the
    word w.  Built on first use, once per degree."""
    return tuple(sum(1 << m for m in range(1 << n) if not (w & m).bit_count() & 1)
                 for w in range(1 << n))


def _cuts(F: GF2n, points: Iterable[Point]) -> int:
    """Bit m is set when the curve's stabilizer state is a product across
    the qubit mask m and its complement: when every generator pair's clash
    word (z1 & x2) ^ (z2 & x1) has even parity on m, so that the generators
    cut down to m commute.  The parity is bilinear in the pair, so the n
    generators will do, and the cuts are the AND of their `_even_cuts`."""
    low, words = F.order - 1, F.coord_bits
    gens = [(words[g >> F.n], words[g & low]) for g in assert_admissible(F, points).gens]
    even = _even_cuts(F.n)
    cuts = even[0]
    for (z1, x1), (z2, x2) in itertools.combinations(gens, 2):
        cuts &= even[(z1 & x2) ^ (z2 & x1)]
    return cuts


@functools.cache
def _atoms(n: int, cuts: int) -> tuple[tuple[int, ...], ...]:
    """The atoms of a cut algebra: qubit q's block is the AND of the cuts
    that hold it (qubit 1 the most significant bit of a mask), as 1-based
    qubit tuples sorted by (size, qubits)."""
    held = [[m for m in range(1 << n) if cuts >> m & 1 and m >> (n - q) & 1]
            for q in range(1, n + 1)]
    blocks = {functools.reduce(operator.and_, ms) for ms in held}
    return tuple(sorted((tuple(q for q in range(1, n + 1) if b >> (n - q) & 1) for b in blocks),
                        key=lambda b: (len(b), b)))


def factorization_partition(F: GF2n,
                            points: Iterable[Point]) -> tuple[tuple[int, ...], ...]:
    """Finest qubit partition whose blocks factor the curve's commuting set.

    Returned as a tuple of 1-based qubit index tuples, coarsest block last;
    (1,)(2,)...(n,) means the basis is a product of single-qubit states and
    ((1, ..., n),) means it is fully entangled.

    It is unique: the atoms of the curve's `_cuts`.  A pure state that is a
    product across two cuts is, reduced to one of them, a product over the
    two pieces of that cut, so both pieces are pure and the state is a
    product across their intersection too.  The cuts are thus closed under
    AND and complement, a Boolean algebra; its atoms are memoised per cut
    set, one per set partition at most.
    """
    return _atoms(F.n, _cuts(F, points))


def canonical_partition_types(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n as sorted block-size tuples, (1,...,1) first
    and (n,) last: by decreasing block count, then lexicographically."""
    def parts(rest: int, least: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield ()
        for k in range(least, rest + 1):
            yield from ((k,) + tail for tail in parts(rest - k, k))

    return sorted(parts(n, 1), key=lambda p: (-len(p), p))


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
