"""Bundles: complete sets of 2^n + 1 mutually nonintersecting curves.

The nonzero points of the curves in a bundle partition the 2^{2n} - 1
nonzero phase-space points, so each bundle labels a maximal collection of
d + 1 mutually unbiased bases.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import EmptyResult, InputError, NotCommutative
from .curves import (
    Curve,
    PointSet,
    _sort_key,
    all_nonintersecting,
    assert_admissible,
    commutativity_symmetric,
    curve_from_phi,
    enumerate_curves,
    nonintersecting,  # not called here: bench/spans.py patches bundles.nonintersecting
    point_set,
    require_enumerable,
)
from .field import GF2n


@dataclass(frozen=True)
class Bundle:
    """2^n + 1 pairwise nonintersecting admissible curves, sorted canonically."""

    curves: tuple[Curve, ...]

    def __len__(self) -> int:
        return len(self.curves)


def bundle_candidates(F: GF2n, curves: Iterable[PointSet]) -> tuple[Curve, ...]:
    """The distinct admissible curves in canonical order, 2^n + 1 of them,
    whether or not they intersect."""
    cs = tuple(sorted({assert_admissible(F, c) for c in curves}, key=_sort_key))
    if len(cs) != F.order + 1:
        raise InputError(f"a bundle needs {F.order + 1} distinct curves, got {len(cs)}")
    return cs


def make_bundle(F: GF2n, curves: Iterable[PointSet]) -> Bundle:
    """Validate and canonically order a complete bundle."""
    cs = bundle_candidates(F, curves)
    if not all_nonintersecting(cs):
        raise InputError("bundle curves intersect away from the origin")
    return Bundle(cs)


def vertical_ray(F: GF2n) -> PointSet:
    return frozenset((0, b) for b in F.elements())


def build_regular_bundle(F: GF2n, tail: Sequence[int] = ()) -> Bundle:
    """Sweep the linear coefficient over the field above a fixed tail.

    The 2^n curves beta = phi_0 alpha + sum_{m>=1} tail[m-1] alpha^(2^m)
    are pairwise nonintersecting; the ray alpha = 0 completes the bundle.
    An empty tail gives the ray bundle.
    """
    tail = list(tail) if tail else [0] * (F.n - 1)
    if len(tail) != F.n - 1:
        raise InputError(f"tail needs {F.n - 1} coefficients, got {len(tail)}")
    if not commutativity_symmetric(F, [0] + tail):
        raise NotCommutative(f"tail {tuple(tail)} violates the symmetry constraint")
    curves = [point_set(F, curve_from_phi(F, [phi0] + tail)) for phi0 in F.elements()]
    return make_bundle(F, curves + [vertical_ray(F)])


def ray_bundle(F: GF2n) -> Bundle:
    """The 2^n + 1 rays beta = lambda alpha plus alpha = 0."""
    return build_regular_bundle(F)


def closure_bundle(F: GF2n, seeds: Sequence[Sequence[int]]) -> Bundle:
    """Close three explicit regular curves under coefficientwise addition.

    Given three coefficient tuples phi (full length n, symmetric), the
    nonzero elements of their GF(2) span give seven curves and its zero the
    ray beta = 0; the ray alpha = 0 completes the bundle.  The seeds must
    already be pairwise nonintersecting for the result to validate.
    """
    if len(seeds) != 3:
        raise InputError(f"closure needs exactly 3 seed coefficient tuples, got {len(seeds)}")
    phis: set[tuple[int, ...]] = set()
    for s in map(tuple, seeds):
        phis |= {s} | {tuple(x ^ y for x, y in zip(s, p)) for p in phis}
    phis.add((0,) * F.n)  # the ray beta = 0
    curves = [point_set(F, curve_from_phi(F, list(p))) for p in sorted(phis)]
    curves.append(vertical_ray(F))
    return make_bundle(F, curves)


class _SearchGraph(NamedTuple):
    """One field's clique graph; point (a, b) is bit a << n | b of an int."""
    atlas: list[Curve]
    index: dict[Curve, int]  # curve -> atlas index
    points: list[int]        # points[i]: the points of curve i
    through: list[int]       # through[p]: the curves through the nonzero point p
    later: list[int]         # later[i]: the curves after i that meet it only at the origin


@functools.lru_cache(maxsize=4)
def _search_graph(F: GF2n) -> _SearchGraph:
    atlas = enumerate_curves(F)
    packed = [[a << F.n | b for a, b in c] for c in atlas]
    points, through = [], [0] * (F.order * F.order)
    for i, pts in enumerate(packed):
        bit, mask = 1 << i, 0
        for p in pts:
            through[p] |= bit
            mask |= 1 << p
        points.append(mask)
    through[0] = 0
    later, top = [], 1 << len(atlas)
    for i, pts in enumerate(packed):
        meets = 0
        for p in pts:
            meets |= through[p]
        later.append(top - (2 << i) & ~meets)
    return _SearchGraph(atlas, {c: i for i, c in enumerate(atlas)}, points, through, later)


def search_bundles(F: GF2n, seed_curves: Optional[Sequence[PointSet]] = None,
                   limit: int = 1) -> list[Bundle]:
    """Backtracking completion of seeds to full bundles over the curve atlas.

    A bundle is a maximal clique of the "meets only at the origin" graph on
    the atlas and an exact cover of the nonzero points.  Curves and their
    adjacency are int bitsets (bit i is atlas curve i); candidates are tried
    in ascending atlas order, and a branch ends once none passes through its
    lowest uncovered point.  Raises EmptyResult when no completion exists.
    The last 4 fields' graphs (atlas, curve index, point masks, curves per
    point, adjacency) stay cached, about 3 MB at n = 4.  The adjacency takes
    M^2/8 bytes for M curves, about 717 MB for the 75,735 curves at n = 5,
    so n > 4 raises InputError up front.
    """
    require_enumerable(F)
    if limit < 1:
        raise InputError("limit must be positive")
    seeds = [assert_admissible(F, c) for c in (seed_curves or [])]
    if not all_nonintersecting(seeds):
        raise InputError("seed curves intersect away from the origin")
    g = _search_graph(F)
    covered = functools.reduce(operator.or_, (g.points[g.index[c]] for c in seeds), 1)
    # the curves that meet the seeds only at the origin (bit 0)
    start = sum(1 << i for i, pts in enumerate(g.points) if pts & covered == 1)
    found: list[Bundle] = []
    for chosen in _completions(g, F.order + 1, [g.index[c] for c in seeds], start, covered):
        # the atlas is in canonical order, so sorted indices give a canonical bundle
        found.append(Bundle(tuple(g.atlas[i] for i in sorted(chosen))))
        if len(found) >= limit:
            break
    if not found:
        raise EmptyResult("no bundle completes the given seeds")
    return found


def _completions(g: _SearchGraph, need: int, chosen: list[int], cand: int,
                 covered: int) -> Iterator[list[int]]:
    """Each way to complete the atlas indices `chosen`, whose points are
    `covered`, to `need` curves from the candidate bitset `cand`, lowest
    atlas index first."""
    if len(chosen) == need:
        yield chosen
        return
    # a completion covers the lowest uncovered point with a candidate curve
    hits = g.through[(~covered & (covered + 1)).bit_length() - 1]
    # stop once fewer candidates remain than curves are missing
    while cand & hits and cand.bit_count() >= need - len(chosen):
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        yield from _completions(g, need, chosen + [i], cand & g.later[i],
                                covered | g.points[i])
