"""Bundles: complete sets of 2^n + 1 mutually nonintersecting curves.

The nonzero points of the curves in a bundle partition the 2^{2n} - 1
nonzero phase-space points, so each bundle labels a maximal collection of
d + 1 mutually unbiased bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EmptyResult, InputError, NotCommutative
from .curves import (
    Curve,
    Point,
    PointSet,
    all_nonintersecting,
    assert_admissible,
    commutativity_symmetric,
    curve_from_phi,
    enumerate_curves,
    nonintersecting,
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


def make_bundle(F: GF2n, curves: Iterable[PointSet]) -> Bundle:
    """Validate and canonically order a complete bundle."""
    cs = sorted({assert_admissible(F, c) for c in curves}, key=sorted)
    if len(cs) != F.order + 1:
        raise InputError(f"a bundle needs {F.order + 1} distinct curves, got {len(cs)}")
    if not all(nonintersecting(p, q) for p, q in itertools.combinations(cs, 2)):
        raise InputError("bundle curves intersect away from the origin")
    covered = sum(len(c) - 1 for c in cs)
    if covered != F.order * F.order - 1:  # pragma: no cover - implied by the above
        raise InputError("bundle does not partition the nonzero phase-space points")
    return Bundle(tuple(cs))


def vertical_ray(F: GF2n) -> PointSet:
    return frozenset((0, b) for b in F.elements())


def horizontal_ray(F: GF2n) -> PointSet:
    return frozenset((a, 0) for a in F.elements())


def build_regular_bundle(F: GF2n, tail: Sequence[int] = (),
                         orientation: str = "alpha_form") -> Bundle:
    """Sweep the linear coefficient over the field above a fixed tail.

    The 2^n curves beta = phi_0 alpha + sum_{m>=1} tail[m-1] alpha^(2^m)
    are pairwise nonintersecting; the complementary ray (alpha = 0, or
    beta = 0 for the mirrored orientation) completes the bundle.  An empty
    tail gives the ray bundle.
    """
    tail = list(tail) if tail else [0] * (F.n - 1)
    if len(tail) != F.n - 1:
        raise InputError(f"tail needs {F.n - 1} coefficients, got {len(tail)}")
    if not commutativity_symmetric(F, [0] + tail):
        raise NotCommutative(f"tail {tuple(tail)} violates the symmetry constraint")
    if orientation not in ("alpha_form", "beta_form"):
        raise InputError(f"unknown orientation {orientation!r}")
    curves = []
    for phi0 in F.elements():
        pts = point_set(F, curve_from_phi(F, [phi0] + tail))
        if orientation == "beta_form":
            pts = frozenset((b, a) for a, b in pts)
        curves.append(pts)
    curves.append(vertical_ray(F) if orientation == "alpha_form" else horizontal_ray(F))
    return make_bundle(F, curves)


def ray_bundle(F: GF2n) -> Bundle:
    """The 2^n + 1 rays beta = lambda alpha plus alpha = 0."""
    return build_regular_bundle(F)


def closure_bundle(F: GF2n, seeds: Sequence[Sequence[int]]) -> Bundle:
    """Close three explicit regular curves under coefficientwise addition.

    Given n three coefficient tuples phi (full length n, symmetric), the
    pairwise and triple sums give four further curves; the rays beta = 0
    and alpha = 0 complete the bundle.  The seeds must already be pairwise
    nonintersecting for the result to validate.
    """
    if len(seeds) != 3:
        raise InputError(f"closure needs exactly 3 seed coefficient tuples, got {len(seeds)}")
    phis = {tuple(s) for s in seeds}
    for a, b in itertools.combinations(sorted(phis), 2):
        phis = phis | {tuple(x ^ y for x, y in zip(a, b))}
    phis.add(tuple(x ^ y ^ z for x, y, z in zip(*sorted(seeds))))
    phis.add((0,) * F.n)  # the ray beta = 0
    curves = [point_set(F, curve_from_phi(F, list(p))) for p in sorted(phis)]
    curves.append(vertical_ray(F))
    return make_bundle(F, curves)


def search_bundles(F: GF2n, seed_curves: Optional[Sequence[PointSet]] = None,
                   limit: int = 1) -> list[Bundle]:
    """Backtracking completion of seeds to full bundles over the curve atlas.

    A bundle is a maximal clique of the "meets only at the origin" graph on
    the atlas.  Curves and their adjacency are int bitsets (bit i is atlas
    curve i), and candidates are tried in ascending atlas order, so the
    output is deterministic.  Raises EmptyResult when no completion exists.
    The adjacency takes M^2/8 bytes for an atlas of M curves, about 717 MB
    for the 75,735 curves at n = 5, so n > 4 raises InputError up front.
    """
    require_enumerable(F)
    if limit < 1:
        raise InputError("limit must be positive")
    atlas = enumerate_curves(F)
    seeds = [assert_admissible(F, c) for c in (seed_curves or [])]
    if not all_nonintersecting(seeds):
        raise InputError("seed curves intersect away from the origin")
    need = F.order + 1
    # through[p]: the curves through the nonzero point p
    through: dict[Point, int] = {}
    for i, c in enumerate(atlas):
        for p in c:
            through[p] = through.get(p, 0) | 1 << i
    del through[(0, 0)]

    def meeting(c: PointSet) -> int:
        """The atlas curves that share a nonzero point with c."""
        out = 0
        for p in c:
            out |= through.get(p, 0)
        return out

    everything = (1 << len(atlas)) - 1
    # later[i]: the curves after curve i that meet it only at the origin
    later = [everything & ~meeting(c) & ~((2 << i) - 1) for i, c in enumerate(atlas)]
    start = everything
    for c in seeds:
        start &= ~meeting(c)
    found: list[Bundle] = []
    for chosen in _completions(later, need, [atlas.index(c) for c in seeds], start):
        # the atlas is in canonical order, so sorted indices give a canonical bundle
        found.append(Bundle(tuple(atlas[i] for i in sorted(chosen))))
        if len(found) >= limit:
            break
    if not found:
        raise EmptyResult("no bundle completes the given seeds")
    return found


def _completions(later: Sequence[int], need: int, chosen: list[int],
                 cand: int) -> Iterator[list[int]]:
    """Each way to complete the atlas indices `chosen` to `need` curves from
    the candidate bitset `cand`, lowest atlas index first."""
    if len(chosen) == need:
        yield chosen
        return
    # stop once fewer candidates remain than curves are missing
    while cand and cand.bit_count() >= need - len(chosen):
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        yield from _completions(later, need, chosen + [i], cand & later[i])


def orphan_curves(F: GF2n, bundles: Sequence[Bundle]) -> list[Curve]:
    """Curves of the atlas not covered by any of the given bundles."""
    covered = {c for b in bundles for c in b.curves}
    return [c for c in enumerate_curves(F) if c not in covered]
