"""Bundle construction: sweeps, closures, backtracking search, coverage."""

from __future__ import annotations

import itertools

import pytest

from mubcurves.errors import EmptyResult, InputError, NotCommutative
from mubcurves import bundles as B
from mubcurves import curves as C
from mubcurves import pauli as P
from mubcurves.field import make_field

F4 = make_field(2)
F8 = make_field(3)


def s4(k):
    return F4.sigma_pow(k)


def s8(k):
    return F8.sigma_pow(k)


def acurve(F, phi):
    return C.point_set(F, C.curve_from_phi(F, list(phi)))


def bcurve(F, phi):
    return frozenset((b, a) for a, b in acurve(F, phi))


class TestMakeBundle:
    def test_ray_bundle_gf4(self):
        b = B.ray_bundle(F4)
        assert len(b) == 5
        assert B.vertical_ray(F4) in b.curves
        assert B.horizontal_ray(F4) in b.curves

    def test_partition_of_nonzero_points(self):
        for F in (F4, F8):
            b = B.ray_bundle(F)
            nonzero = [p for c in b.curves for p in c if p != (0, 0)]
            assert len(nonzero) == F.order * F.order - 1
            assert len(set(nonzero)) == len(nonzero)

    def test_rejects_wrong_count(self):
        with pytest.raises(InputError):
            B.make_bundle(F4, [B.vertical_ray(F4), B.horizontal_ray(F4)])

    def test_rejects_intersecting(self):
        curves = list(B.ray_bundle(F4).curves)
        # beta = alpha^2 meets the ray beta = alpha at (1, 1)
        curves[-1] = acurve(F4, (0, 1))
        with pytest.raises(InputError):
            B.make_bundle(F4, curves)

    def test_canonical_order_is_input_independent(self):
        curves = list(B.ray_bundle(F8).curves)
        assert B.make_bundle(F8, reversed(curves)) == B.make_bundle(F8, curves)


class TestRegularSweep:
    def test_bad_tail_length(self):
        with pytest.raises(InputError):
            B.build_regular_bundle(F8, [s8(1)])

    def test_asymmetric_tail_rejected(self):
        # phi_1 = phi_2^2 is required for n = 3
        with pytest.raises(NotCommutative):
            B.build_regular_bundle(F8, [s8(1), s8(1)])

    def test_bad_orientation(self):
        with pytest.raises(InputError):
            B.build_regular_bundle(F4, [0], orientation="sideways")

    def test_gf4_ray_structure(self):
        b = B.ray_bundle(F4)
        assert P.bundle_structure(F4, b.curves) == (3, 2)

    def test_gf8_ray_structure(self):
        b = B.ray_bundle(F8)
        assert P.bundle_structure(F8, b.curves) == (3, 0, 6)

    def test_gf8_trace_zero_tail(self):
        phi = s8(1)
        assert F8.trace(phi) == 0
        b = B.build_regular_bundle(F8, [F8.frobenius(phi, 1), phi])
        assert P.bundle_structure(F8, b.curves) == (3, 0, 6)

    def test_gf8_trace_one_tail(self):
        phi = s8(3)
        assert F8.trace(phi) == 1
        b = B.build_regular_bundle(F8, [F8.frobenius(phi, 1), phi])
        assert P.bundle_structure(F8, b.curves) == (1, 6, 2)

    def test_trace_decides_structure_for_all_tails(self):
        for phi in F8.elements():
            b = B.build_regular_bundle(F8, [F8.frobenius(phi, 1), phi])
            want = (3, 0, 6) if F8.trace(phi) == 0 else (1, 6, 2)
            assert P.bundle_structure(F8, b.curves) == want

    def test_beta_form_orientation(self):
        b = B.build_regular_bundle(F4, [1], orientation="beta_form")
        assert B.horizontal_ray(F4) in b.curves
        assert bcurve(F4, (0, 1)) in b.curves


class TestClosure:
    SEEDS = [(s8(6), s8(3), s8(5)), (s8(2), s8(5), s8(6)), (s8(3), 0, 0)]

    def test_needs_three_seeds(self):
        with pytest.raises(InputError):
            B.closure_bundle(F8, self.SEEDS[:2])

    def test_structure(self):
        b = B.closure_bundle(F8, self.SEEDS)
        assert P.bundle_structure(F8, b.curves) == (2, 3, 4)

    def test_exact_member_curves(self):
        b = B.closure_bundle(F8, self.SEEDS)
        want = {
            B.vertical_ray(F8),
            acurve(F8, (0, 0, 0)),
            acurve(F8, (s8(6), s8(3), s8(5))),
            acurve(F8, (s8(2), s8(5), s8(6))),
            acurve(F8, (s8(4), s8(3), s8(5))),
            acurve(F8, (s8(3), 0, 0)),
            acurve(F8, (s8(5), s8(5), s8(6))),
            acurve(F8, (s8(1), s8(2), s8(1))),
            acurve(F8, (1, s8(2), s8(1))),
        }
        assert set(b.curves) == want


def brute_points(F, eq):
    return frozenset((a, b) for a in F.elements() for b in F.elements() if eq(a, b))


def mixed_nine_bundle():
    """A bundle whose nine bases are all biseparable: structure (0, 9, 0)."""
    exc1 = brute_points(F8, lambda a, b: (
        F8.add(F8.mul(b, b), F8.mul(s8(5), b))
        == F8.add(F8.mul(s8(2), F8.mul(a, a)), F8.mul(s8(6), a))
        and F8.trace(F8.mul(s8(4), b)) == 0 and F8.trace(F8.mul(s8(5), a)) == 0))
    exc2 = brute_points(F8, lambda a, b: (
        F8.add(F8.mul(b, b), F8.mul(s8(2), b))
        == F8.add(F8.mul(s8(6), F8.mul(a, a)), F8.mul(s8(5), a))
        and F8.trace(F8.mul(s8(6), b)) == 0 and F8.trace(F8.mul(s8(2), a)) == 0))
    return B.make_bundle(F8, [
        bcurve(F8, (s8(2), s8(3), s8(5))),
        bcurve(F8, (s8(6), s8(3), s8(5))),
        acurve(F8, (s8(2), s8(3), s8(5))),
        acurve(F8, (0, s8(6), s8(3))),
        bcurve(F8, (1, s8(6), s8(3))),
        acurve(F8, (1, s8(3), s8(5))),
        bcurve(F8, (0, s8(3), s8(5))),
        exc1, exc2])


class TestMixedBundle:
    def test_structure_all_biseparable(self):
        b = mixed_nine_bundle()
        assert P.bundle_structure(F8, b.curves) == (0, 9, 0)

    def test_contains_exceptional_curves(self):
        kinds = [C.classify_points(F8, c).kind for c in mixed_nine_bundle().curves]
        assert kinds.count("exceptional") == 2


class TestSearch:
    def test_deterministic(self):
        a = B.search_bundles(F4, limit=3)
        b = B.search_bundles(F4, limit=3)
        assert a == b and len(a) == 3

    def test_seeded_search(self):
        seed = acurve(F4, (s4(1), 1))
        (b,) = B.search_bundles(F4, [seed])
        assert seed in b.curves

    def test_bad_limit(self):
        with pytest.raises(InputError):
            B.search_bundles(F4, limit=0)

    def test_refused_above_four_qubits_before_enumerating(self, monkeypatch):
        # the n = 5 adjacency alone would take about 717 MB
        def no_enumeration(F):
            raise AssertionError("search_bundles enumerated the n = 5 atlas")
        monkeypatch.setattr(B, "enumerate_curves", no_enumeration)
        with pytest.raises(InputError, match=r"^curve enumeration supported for n <= 4$"):
            B.search_bundles(make_field(5))

    def test_intersecting_seeds_rejected(self):
        # beta = alpha and beta = alpha^2 share the point (1, 1)
        with pytest.raises(InputError):
            B.search_bundles(F4, [acurve(F4, (1, 0)), acurve(F4, (0, 1))])

    def test_every_gf4_curve_lies_in_a_bundle(self):
        all_bundles = B.search_bundles(F4, limit=10 ** 6)
        assert not B.orphan_curves(F4, all_bundles)

    def test_gf4_exhaustive_search_finds_six_bundles(self):
        all_bundles = B.search_bundles(F4, limit=10 ** 6)
        assert len(all_bundles) == 6
        for b in all_bundles:
            assert P.bundle_structure(F4, b.curves) == (3, 2)

    def test_empty_result_raised(self):
        # a maximal pairwise nonintersecting set of only 5 curves: the 14
        # uncovered nonzero points do not split into further atlas curves
        atlas = C.enumerate_curves(F8)
        seeds = [atlas[i] for i in (124, 91, 0, 117, 102)]
        assert C.all_nonintersecting(seeds)
        with pytest.raises(EmptyResult):
            B.search_bundles(F8, seeds)


class TestOrphans:
    def test_gf8_rays_leave_orphans(self):
        orphans = B.orphan_curves(F8, [B.ray_bundle(F8)])
        assert len(orphans) == 135 - 9

    def test_no_orphans_when_atlas_covered(self):
        all_bundles = B.search_bundles(F4, limit=10 ** 6)
        assert B.orphan_curves(F4, all_bundles) == []


def reference_search(F, seeds, limit):
    """Set-intersection backtracker over the atlas, ascending order: the
    oracle for the bitset search.  Returns each bundle's curves in the
    canonical (sorted-points) order."""
    atlas = C.enumerate_curves(F)
    nonzero = [c - {(0, 0)} for c in atlas]
    need = F.order + 1
    found = []

    def extend(chosen, covered, start):
        if len(chosen) == need:
            found.append(tuple(sorted(chosen, key=sorted)))
            return len(found) >= limit
        for i in range(start, len(atlas)):
            if covered.isdisjoint(nonzero[i]):
                if extend(chosen + [atlas[i]], covered | nonzero[i], i + 1):
                    return True
        return False

    extend(list(seeds), frozenset().union(*(c - {(0, 0)} for c in seeds)), 0)
    return found


class TestBitsetSearchOracle:
    ALL = 10 ** 6

    def assert_matches(self, F, seeds, limit):
        want = reference_search(F, seeds, limit)
        if not want:
            with pytest.raises(EmptyResult):
                B.search_bundles(F, seeds, limit=limit)
            return
        got = [b.curves for b in B.search_bundles(F, seeds, limit=limit)]
        assert got == want

    @pytest.mark.parametrize("i", range(15))
    def test_every_gf4_seed(self, i):
        self.assert_matches(F4, [C.enumerate_curves(F4)[i]], self.ALL)

    @pytest.mark.parametrize("i", range(0, 135, 8))
    def test_gf8_seeds(self, i):
        self.assert_matches(F8, [C.enumerate_curves(F8)[i]], self.ALL)

    def test_gf8_seed_pairs(self):
        atlas = C.enumerate_curves(F8)
        pairs = [(atlas[i], atlas[j]) for i, j in itertools.combinations(range(0, 135, 17), 2)
                 if C.nonintersecting(atlas[i], atlas[j])]
        assert len(pairs) >= 5
        for pair in pairs:
            self.assert_matches(F8, list(pair), self.ALL)

    def test_gf8_seeds_without_completion(self):
        atlas = C.enumerate_curves(F8)
        self.assert_matches(F8, [atlas[i] for i in (124, 91, 0, 117, 102)], self.ALL)

    @pytest.mark.parametrize("limit", range(1, 6))
    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_unseeded_limits(self, F, limit):
        self.assert_matches(F, [], limit)
