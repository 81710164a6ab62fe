"""Factorization partitions from a scan of every set partition of the
qubits: the oracle that the package's cut algebra is held against."""

from __future__ import annotations

import functools
import itertools

from mubcurves.field import echelon_basis, subgroup_basis


def set_partitions(items):
    """All partitions of `items` into nonempty blocks (Bell(5) = 52 at n = 5)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def clash_basis(F, pts):
    """A reduced basis of the span of the clash words (z1 & x2) ^ (z2 & x1)
    of the generator pairs, the generators found from all 2^n points."""
    words = F.coord_bits
    low = F.order - 1
    gens = [(words[g >> F.n], words[g & low])
            for g in subgroup_basis(a << F.n | b for a, b in pts)]
    return echelon_basis((z1 & x2) ^ (z2 & x1)
                         for (z1, x1), (z2, x2) in itertools.combinations(gens, 2))


def _mask(n, block):
    """The qubit mask of a 0-based block, qubit 1 the most significant bit."""
    return sum(1 << (n - 1 - q) for q in block)


@functools.cache
def _finest_for_clashes(n, clashes):
    """Every finest partition valid for the clash words: a block is valid
    when each clash word has even parity on its qubit mask.  The parity is
    linear in the word, so a basis of the clash span decides it."""
    valid = [part for part in set_partitions(list(range(n)))
             if not any((c & _mask(n, block)).bit_count() & 1
                        for c in clashes for block in part)]
    finest = max(len(part) for part in valid)
    return [tuple(tuple(b) for b in sorted((sorted(q + 1 for q in block) for block in part),
                                           key=lambda b: (len(b), b)))
            for part in valid if len(part) == finest]


def exhaustive_partitions(F, pts):
    """Every finest valid partition of the curve, 1-based blocks sorted by
    (size, qubits), from a scan of all set partitions."""
    return _finest_for_clashes(F.n, clash_basis(F, pts))


def oracle_factorization_partition(F, pts):
    """The finest valid partition, which the scan must find unique."""
    (finest,) = exhaustive_partitions(F, pts)
    return finest


def oracle_cuts(F, pts):
    """The qubit masks on which every clash word has even parity."""
    clashes = clash_basis(F, pts)
    return {m for m in range(F.order) if not any((c & m).bit_count() & 1 for c in clashes)}


def is_boolean_algebra(n, masks):
    """Whether a set of n-qubit masks holds 0 and is closed under AND and
    complement."""
    full = (1 << n) - 1
    return (0 in masks and all(full ^ m in masks for m in masks)
            and all(a & b in masks for a in masks for b in masks))
