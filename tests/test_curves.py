"""Curve engine: evaluation, classification, explicit/structural forms,
exceptional constructors, enumeration, nonintersection."""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubcurves.errors import (
    DegenerateRoots,
    InputError,
    NoExplicitForm,
    NoStructuralEquation,
    NotAnAdmissibleCurve,
    NotCommutative,
)
import mubcurves
from mubcurves import bundles as B
from mubcurves import cli
from mubcurves import curves as C
from mubcurves import field as FLD
from mubcurves import pauli as P
from mubcurves import verify as V
from mubcurves.field import (
    echelon_basis,
    make_field,
    mat_rank_det,
    mat_solve,
    modulus_from_bits,
    subgroup_basis,
    subgroup_span,
    trace_orthogonal_complement,
)

from partitions import oracle_factorization_partition
from strategies import lagrangians

F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)


def s4(k):
    return F4.sigma_pow(k)


def s8(k):
    return F8.sigma_pow(k)


# the two eight-dimensional worked regular curves
CURVE_431 = C.ParametricCurve((s8(2), 1, s8(4)), (s8(3), s8(6), s8(6)))
CURVE_432 = C.ParametricCurve((0, 0, s8(2)), (s8(2), 1, s8(1)))


def is_additive_subgroup(points):
    pts = set(points)
    return (0, 0) in pts and all(
        (p[0] ^ q[0], p[1] ^ q[1]) in pts for p in pts for q in pts)


def holds(F, ec, p):
    """Whether the point p satisfies the explicit relation ec."""
    a, b = p if ec.orientation == "alpha_form" else (p[1], p[0])
    return C._additive_eval(F, ec.coeffs, a) == b


class TestEvaluation:
    def test_origin(self):
        assert CURVE_431.eval(F8, 0) == (0, 0)

    @pytest.mark.parametrize("F,curve", [
        (F8, CURVE_431),
        (F8, CURVE_432),
        (F4, C.ParametricCurve((2, 0), (3, 2))),
    ])
    def test_additivity_all_pairs(self, F, curve):
        for k1 in F.elements():
            for k2 in F.elements():
                p1, p2 = curve.eval(F, k1), curve.eval(F, k2)
                p12 = curve.eval(F, k1 ^ k2)
                assert p12 == (p1[0] ^ p2[0], p1[1] ^ p2[1])

    def test_additivity_random_coefficients(self):
        rng = random.Random(11)
        for _ in range(200):
            curve = C.ParametricCurve(
                tuple(rng.randrange(8) for _ in range(3)),
                tuple(rng.randrange(8) for _ in range(3)))
            for k1, k2 in itertools.product(range(8), repeat=2):
                p1, p2 = curve.eval(F8, k1), curve.eval(F8, k2)
                assert curve.eval(F8, k1 ^ k2) == (p1[0] ^ p2[0], p1[1] ^ p2[1])

    def test_point_set_is_subgroup(self):
        pts = C.point_set(F8, CURVE_431)
        assert len(pts) == 8
        assert is_additive_subgroup(pts)

    def test_mismatched_degree(self):
        with pytest.raises(InputError):
            C.point_set(F4, CURVE_431)


class TestCommutativity:
    def test_ray_commutes(self):
        for mu in F4.elements():
            for nu in F4.elements():
                pts = {(F4.mul(mu, k), F4.mul(nu, k)) for k in F4.elements()}
                assert C.is_commutative(F4, pts)

    def test_noncommutative_example(self):
        # alpha = kappa, beta = sigma kappa^2 over GF(4)
        pts = C.point_set(F4, C.ParametricCurve((1, 0), (0, 2)))
        assert not C.is_commutative(F4, pts)

    def test_worked_curves_commute(self):
        assert C.is_commutative(F8, C.point_set(F8, CURVE_431))
        assert C.is_commutative(F8, C.point_set(F8, CURVE_432))

    def test_coefficient_symmetry_matches_pointwise_test(self):
        # explicit-form symmetry constraint agrees with the exhaustive test
        for phi in itertools.product(F4.elements(), repeat=2):
            pts = C.point_set(F4, C.ParametricCurve((1, 0), phi))
            assert (C.is_commutative(F4, pts)
                    == C.commutativity_symmetric(F4, phi))


def pointwise_fault(F, pts):
    """Exception the all-pairs definition predicts for a point set: the
    oracle for the generator-based admissibility check."""
    if len(pts) != F.order or not is_additive_subgroup(pts):
        return NotAnAdmissibleCurve
    if not C.is_commutative(F, pts):
        return NotCommutative
    return None


def subgroup(points):
    span = {(0, 0)}
    for a, b in points:
        span |= {(a ^ x, b ^ y) for x, y in span}
    return frozenset(span)


class TestGeneratorAdmissibility:
    def assert_agrees(self, F, pts):
        fault = pointwise_fault(F, pts)
        assert C.is_admissible(F, pts) == (fault is None)
        if fault is None:
            assert C.assert_admissible(F, pts) == pts
        else:
            with pytest.raises(fault):
                C.assert_admissible(F, pts)
        return fault

    @pytest.mark.parametrize("F", [make_field(1), F4, F8, F16], ids=["n1", "n2", "n3", "n4"])
    def test_atlas_curves(self, F):
        for pts in C.enumerate_curves(F)[::1 if F.n < 4 else 9]:
            assert self.assert_agrees(F, pts) is None

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_one_point_flipped(self, F):
        plane = [(a, b) for a in F.elements() for b in F.elements()]
        for pts in C.enumerate_curves(F):
            p = max(pts)
            for q in [q for q in plane if q not in pts][:3]:
                assert self.assert_agrees(F, (pts - {p}) | {q}) is NotAnAdmissibleCurve

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_origin_dropped(self, F):
        for pts in C.enumerate_curves(F):
            assert self.assert_agrees(F, pts - {(0, 0)}) is NotAnAdmissibleCurve
            q = next((a, b) for a in F.elements() for b in F.elements()
                     if (a, b) not in pts)
            assert self.assert_agrees(F, (pts - {(0, 0)}) | {q}) is NotAnAdmissibleCurve

    def test_every_gf4_subgroup_of_order_4(self):
        points = [(a, b) for a in F4.elements() for b in F4.elements() if (a, b) != (0, 0)]
        groups = {subgroup(g) for g in itertools.combinations(points, 2)}
        groups = {g for g in groups if len(g) == 4}
        faults = [self.assert_agrees(F4, g) for g in groups]
        # 35 subgroups of order 4 in F_2^4, 15 of them Lagrangian
        assert len(groups) == 35
        assert faults.count(None) == 15 and faults.count(NotCommutative) == 20

    def test_random_gf8_subgroups_of_order_8(self):
        rng = random.Random(5)
        faults = set()
        for _ in range(300):
            g = subgroup((rng.randrange(8), rng.randrange(8)) for _ in range(3))
            if len(g) == 8:
                faults.add(self.assert_agrees(F8, g))
        assert faults == {None, NotCommutative}

    def test_random_point_sets(self):
        rng = random.Random(6)
        for F in (F4, F8):
            points = [(a, b) for a in F.elements() for b in F.elements()]
            for _ in range(300):
                self.assert_agrees(F, frozenset(rng.sample(points, F.order)))


class TestWMatrices:
    def test_worked_example_dets(self):
        assert C.w_det(F8, CURVE_431.alpha_coeffs) == 1
        assert C.w_det(F8, CURVE_431.beta_coeffs) == 1
        assert C.w_det(F8, CURVE_432.alpha_coeffs) == 1
        assert C.w_det(F8, CURVE_432.beta_coeffs) == 0

    def test_zero_tuple(self):
        assert C.w_det(F8, (0, 0, 0)) == 0
        assert mat_rank_det(F8, C.w_matrix(F8, (0, 0, 0)))[0] == 0

    def test_det_in_01_exhaustive_gf4(self):
        for coeffs in itertools.product(F4.elements(), repeat=2):
            assert C.w_det(F4, coeffs) in (0, 1)

    def test_det_in_01_random_gf8(self):
        rng = random.Random(3)
        for _ in range(10_000):
            coeffs = tuple(rng.randrange(8) for _ in range(3))
            assert C.w_det(F8, coeffs) in (0, 1)

    def test_rank_full_iff_det_one(self):
        for coeffs in itertools.product(F4.elements(), repeat=2):
            rank, det = mat_rank_det(F4, C.w_matrix(F4, coeffs))[0], C.w_det(F4, coeffs)
            assert (rank == 2) == (det == 1)


class TestClassification:
    def test_regular_both(self):
        cls = C.classify(F8, CURVE_431)
        assert cls.kind == "regular" and cls.variant == "RegularBoth"
        assert cls.rank_alpha == cls.rank_beta == 3

    def test_regular_alpha_only(self):
        cls = C.classify(F8, CURVE_432)
        assert cls.variant == "RegularAlphaOnly"
        assert (cls.degeneracy_alpha, cls.degeneracy_beta) == (1, 2)

    def test_gf4_exceptional(self):
        pts = C.exceptional_equal(F4, [F4.primitive])
        cls = C.classify_points(F4, pts)
        assert cls.variant == "Exceptional"
        assert (cls.rank_alpha, cls.rank_beta) == (1, 1)
        assert (cls.degeneracy_alpha, cls.degeneracy_beta) == (2, 2)

    def test_ray_variant(self):
        ray = frozenset((a, F4.mul(F4.primitive, a)) for a in F4.elements())
        assert C.classify_points(F4, ray).variant == "Ray"

    def test_singular_input_rejected(self):
        # both coordinates collapse: alpha = kappa + kappa^2, beta = sigma alpha
        bad = C.ParametricCurve((1, 1), (2, 2))
        assert len(C.point_set(F4, bad)) < F4.order
        with pytest.raises(NotAnAdmissibleCurve):
            C.classify(F4, bad)

    def test_noncommutative_input_rejected(self):
        with pytest.raises(NotCommutative):
            C.classify(F4, C.ParametricCurve((1, 0), (0, 2)))

    def test_classify_agrees_with_points(self):
        # the W-matrix ranks and determinants match the projections
        rng = random.Random(7)
        seen = set()
        for _ in range(400):
            curve = C.ParametricCurve(tuple(rng.randrange(8) for _ in range(3)),
                                      tuple(rng.randrange(8) for _ in range(3)))
            pts = C.point_set(F8, curve)
            if not C.is_admissible(F8, pts):
                continue
            cls = C.classify(F8, curve)
            assert cls == C.classify_points(F8, pts)
            assert (cls.det_alpha, cls.det_beta) == (
                C.w_det(F8, curve.alpha_coeffs), C.w_det(F8, curve.beta_coeffs))
            seen.add(cls.variant)
        assert {"RegularBoth", "RegularAlphaOnly", "RegularBetaOnly"} <= seen

    def test_exceptional_rank_bound(self):
        # r_alpha + r_beta >= n over the full atlases
        for F in (F4, F8):
            for pts in C.enumerate_exceptional(F):
                cls = C.classify_points(F, pts)
                assert cls.rank_alpha + cls.rank_beta >= F.n


class TestExplicitForms:
    def test_worked_example_431(self):
        assert C.explicit_form(F8, CURVE_431).phi == (s8(6), s8(3), s8(5))

    def test_worked_example_432(self):
        assert C.explicit_form(F8, CURVE_432).phi == (s8(6), s8(5), s8(6))

    def test_ray_form(self):
        lam = s8(4)
        ray = C.ParametricCurve((1, 0, 0), (lam, 0, 0))
        assert C.explicit_form(F8, ray).phi == (lam, 0, 0)

    def test_explicit_form_is_the_alpha_form(self):
        for pts in C.enumerate_curves(F8):
            if len({a for a, _ in pts}) == F8.order:
                phi = C.explicit_curve(F8, pts).coeffs
                assert C.explicit_form(F8, C.curve_from_phi(F8, phi)).phi == phi

    def test_explicit_form_needs_alpha_map(self):
        vertical = C.ParametricCurve((0, 0, 0), (1, 0, 0))
        assert C.explicit_curve(F8, C.point_set(F8, vertical)).orientation == "beta_form"
        with pytest.raises(NoExplicitForm):
            C.explicit_form(F8, vertical)
        with pytest.raises(NoExplicitForm):
            C.explicit_form(F4, C.ParametricCurve((1, 1), (2, 3)))  # exceptional
        with pytest.raises(NotCommutative):
            C.explicit_form(F4, C.ParametricCurve((1, 0), (0, 2)))

    def test_exceptional_has_no_explicit_form(self):
        pts = C.exceptional_equal(F4, [F4.primitive])
        with pytest.raises(NoExplicitForm):
            C.explicit_curve(F4, pts)

    def test_orientation_fallback(self):
        # alpha = beta^2 type curve: beta map invertible, alpha map not
        pts = frozenset((F4.mul(k, k), k) for k in F4.elements())
        pts = C.point_set(F4, C.ParametricCurve((0, 1), (1, 0)))
        ec = C.explicit_curve(F4, pts)
        assert ec.orientation in ("alpha_form", "beta_form")
        assert all(holds(F4, ec, p) for p in pts)

    def test_explicit_roundtrip_regular_both(self):
        # alpha-form and beta-form describe the same point set
        pts = C.point_set(F8, CURVE_431)
        ec = C.explicit_curve(F8, pts)
        assert all(holds(F8, ec, p) for p in pts)
        mirrored = frozenset((b, a) for a, b in pts)
        em = C.explicit_curve(F8, mirrored)
        assert all(holds(F8, em, p) for p in mirrored)


class TestStructuralEquations:
    def test_gf4_example(self):
        # alpha^2 = sigma alpha and beta^2 = sigma^2 beta
        pts = C.exceptional_equal(F4, [F4.primitive])
        assert pts == frozenset({(0, 0), (s4(1), s4(2)), (0, s4(2)), (s4(1), 0)})
        ea, eb = C.structural_equations(F4, pts)
        assert ea.coeffs == (s4(1),) and eb.coeffs == (s4(2),)

    def test_gf8_equal_degeneracy_example(self):
        pts = C.exceptional_equal(F8, [s8(4), s8(3)])
        assert pts == frozenset({
            (0, 0), (s8(4), 0), (s8(4), s8(5)), (s8(3), 1), (s8(3), s8(4)),
            (s8(6), s8(4)), (s8(6), 1), (0, s8(5))})
        ea, eb = C.structural_equations(F8, pts)
        assert ea.coeffs == (s8(6), s8(4))
        assert eb.coeffs == (s8(2), s8(6))

    def test_gf8_unequal_degeneracy_example(self):
        pts = C.exceptional_unequal(F8, [s8(3), s8(5)])
        assert pts == frozenset({
            (0, 0), (s8(3), 0), (s8(5), 0), (s8(2), 0),
            (s8(3), s8(6)), (s8(5), s8(6)), (s8(2), s8(6)), (0, s8(6))})
        ea, eb = C.structural_equations(F8, pts)
        assert ea.coeffs == (s8(3), s8(2))
        assert eb.coeffs == (s8(6),)

    def test_trace_witness_annihilates_exactly(self):
        for F in (F4, F8):
            for pts in C.enumerate_exceptional(F):
                for axis, eq in zip((0, 1), C.structural_equations(F, pts)):
                    admissible = {p[axis] for p in pts}
                    for v in F.elements():
                        assert (eq.eval(F, v) == 0) == (v in admissible)
                        if eq.xi is not None:
                            assert ((F.trace(F.mul(eq.xi, v)) == 0)
                                    == (v in admissible))

    def test_regular_projection_has_no_annihilator(self):
        pts = C.point_set(F8, CURVE_431)
        with pytest.raises(NoStructuralEquation):
            C.annihilator(F8, echelon_basis(a for a, _ in pts))


class TestExceptionalConstructors:
    def test_gf8_beta1_formula(self):
        # beta_1 = 1/(a1+a2) + 1/a1 + 1/a2 = sigma^5 for (sigma^4, sigma^3)
        a1, a2 = s8(4), s8(3)
        b1 = F8.inv(a1 ^ a2) ^ F8.inv(a1) ^ F8.inv(a2)
        assert b1 == s8(5)
        assert (0, s8(5)) in C.exceptional_equal(F8, [a1, a2])

    def test_equal_count_21(self):
        curves = {C.exceptional_equal(F8, [a, b])
                  for a, b in itertools.permutations(range(1, 8), 2)}
        assert len(curves) == 21

    def test_root_permutation_symmetry(self):
        # alpha_2 and alpha_1 + alpha_2 give the same curve
        a1, a2 = s8(4), s8(3)
        assert (C.exceptional_equal(F8, [a1, a2])
                == C.exceptional_equal(F8, [a1, a1 ^ a2]))

    def test_unequal_count_14(self):
        curves = set()
        for r1, r2 in itertools.combinations(range(1, 8), 2):
            pts = C.exceptional_unequal(F8, [r1, r2])
            curves |= {pts, C.assert_admissible(F8, {(b, a) for a, b in pts})}
        assert len(curves) == 14

    def test_unequal_beta_values(self):
        pts = C.exceptional_unequal(F8, [s8(3), s8(5)])
        assert {b for _, b in pts} == {0, s8(6)}

    def test_dependent_roots_rejected(self):
        with pytest.raises(DegenerateRoots):
            C.exceptional_equal(F8, [s8(1), s8(1)])
        with pytest.raises(DegenerateRoots):
            C.exceptional_unequal(F8, [3, 3])


class TestEnumeration:
    def test_gf4_census(self):
        atlas = C.enumerate_curves(F4)
        kinds = [C.classify_points(F4, pts).kind for pts in atlas]
        assert len(atlas) == 15
        assert kinds.count("regular") == 12
        assert kinds.count("exceptional") == 3

    def test_gf8_census(self):
        atlas = C.enumerate_curves(F8)
        assert len(atlas) == 135
        regular = [p for p in atlas if C.classify_points(F8, p).kind == "regular"]
        exceptional = [p for p in atlas if C.classify_points(F8, p).kind == "exceptional"]
        assert len(regular) == 100
        equal = [p for p in exceptional
                 if C.classify_points(F8, p).degeneracy_alpha
                 == C.classify_points(F8, p).degeneracy_beta]
        assert len(equal) == 21 and len(exceptional) - len(equal) == 14

    def test_atlas_size_formula(self):
        assert [C.atlas_size(n) for n in (1, 2, 3, 4)] == [3, 15, 135, 2295]
        assert len(C.enumerate_curves(F16)) == 2295

    def test_every_curve_is_admissible(self):
        for F in (F4, F8):
            for pts in C.enumerate_curves(F):
                assert C.is_admissible(F, pts)

    def test_enumeration_is_deterministic(self):
        assert C.enumerate_curves(F8) == C.enumerate_curves(F8)


def selfdual_subspaces(F):
    """Every n-dimensional subspace of F_2^{2n}, as phase-space point sets,
    each tagged with whether it is isotropic.

    A vector (u, v) of two n-bit coordinate vectors is the point
    (sum u_k theta_k, sum v_k theta_k) in the selfdual basis theta, where
    the trace form tr(a b') + tr(a' b) is the standard symplectic form
    u.v' + u'.v; so isotropy is a parity of bit counts, and nothing here
    uses the curve engine or the field's trace.
    """
    n, mask = F.n, (1 << F.n) - 1

    def element(bits):
        out = 0
        for k, theta in enumerate(F.selfdual_basis):
            if bits >> k & 1:
                out ^= theta
        return out

    def form(w, z):
        return ((w & mask & (z >> n)).bit_count() + ((w >> n) & z & mask).bit_count()) & 1

    spaces = set()
    for gens in itertools.combinations(range(1, 1 << 2 * n), n):
        span = {0}
        for g in gens:
            span |= {g ^ s for s in span}
        if len(span) == 1 << n:
            spaces.add(frozenset(span))
    for space in spaces:
        isotropic = all(form(w, z) == 0 for w in space for z in space)
        yield frozenset((element(w & mask), element(w >> n)) for w in space), isotropic


def gaussian_binomial(n, r):
    num = den = 1
    for i in range(r):
        num *= (1 << n) - (1 << i)
        den *= (1 << r) - (1 << i)
    return num // den


class TestEnumerationOracle:
    """The (A, M) enumerator against a brute-force sweep of F_2^{2n}."""

    @pytest.mark.parametrize(
        "F", [make_field(1), F4, F8, make_field(3, modulus_from_bits("1011"))],
        ids=["n1", "n2", "n3", "n3-1011"])
    def test_isotropic_subspaces_are_the_atlas(self, F):
        lagrangians, others = set(), []
        for pts, isotropic in selfdual_subspaces(F):
            if isotropic:
                lagrangians.add(pts)
            else:
                others.append(pts)
        atlas = C.enumerate_curves(F)
        assert len(atlas) == len(set(atlas)) == C.atlas_size(F.n)
        assert set(atlas) == lagrangians
        assert gaussian_binomial(2 * F.n, F.n) == len(lagrangians) + len(others)
        # negative control: no subspace off the atlas passes the check (at
        # n = 1 every line is isotropic, so there is none)
        assert len(others) > 0 or F.n == 1
        assert not any(C.is_admissible(F, pts) for pts in others)

    @pytest.mark.parametrize(
        "F", [F16, make_field(4, modulus_from_bits("10011")), make_field(5)],
        ids=["n4", "n4-10011", "n5"])
    def test_count_per_alpha_rank(self, F):
        atlas = C.enumerate_curves(F)
        ranks = [len({a for a, _ in pts}).bit_length() - 1 for pts in atlas]
        for r in range(F.n + 1):
            assert ranks.count(r) == gaussian_binomial(F.n, r) << (r * (r + 1) // 2)
        assert len(atlas) == C.atlas_size(F.n)
        assert all(C.is_admissible(F, pts) for pts in atlas[::97])

    @pytest.mark.parametrize("F", [F4, F8, F16], ids=["n2", "n3", "n4"])
    def test_kind_filter(self, F):
        atlas = C.enumerate_curves(F)
        regular = C.enumerate_regular(F)
        exceptional = C.enumerate_exceptional(F)
        assert sorted(regular + exceptional, key=sorted) == atlas
        assert all(C.classify_points(F, p).kind == "regular" for p in regular)
        assert all(C.classify_points(F, p).kind == "exceptional" for p in exceptional)


class TestNonintersection:
    def test_same_tail_fast_path_agrees(self):
        # det(W_phi + W_phi') = (phi0+phi0')^(2^n - 1) = 1 for phi0 != phi0'
        tail = (s8(2), s8(1))
        for p0, q0 in itertools.combinations(F8.elements(), 2):
            c1 = C.point_set(F8, C.curve_from_phi(F8, (p0,) + tail))
            c2 = C.point_set(F8, C.curve_from_phi(F8, (q0,) + tail))
            diff = [p0 ^ q0, 0, 0]
            det = C.w_det(F8, diff)
            assert det == 1
            assert C.nonintersecting(c1, c2)

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_cover_count_equals_pairwise_definition(self, F):
        atlas = C.enumerate_curves(F)
        rng = random.Random(F.n)
        lists = [[], [atlas[0]], [atlas[0], atlas[0]], list(B.ray_bundle(F).curves)]
        lists += [rng.sample(atlas, rng.randrange(2, F.order + 2)) for _ in range(200)]
        lists += [c + [rng.choice(c)] for c in lists[4:24]]
        seen = set()
        for curves in lists:
            pairwise = all(C.nonintersecting(p, q) for p, q in itertools.combinations(curves, 2))
            assert C.all_nonintersecting(curves) == pairwise
            seen.add(pairwise)
        assert seen == {False, True}

    def test_identical_curves_intersect(self):
        pts = C.point_set(F8, CURVE_431)
        assert not C.nonintersecting(pts, pts)

    def test_mixed_regular_exceptional_pair(self):
        regular = C.point_set(F8, C.curve_from_phi(F8, (s8(2), s8(6), s8(3))))
        mirrored = frozenset((b, a) for a, b in regular)
        exceptional = C.exceptional_unequal(F8, [s8(3), s8(5)])
        assert C.nonintersecting(mirrored, exceptional)


@pytest.fixture
def full_checks(monkeypatch):
    """Counts the admissibility checks that reach the isotropy test of the
    generators, that is every `assert_admissible` call not answered by a
    validated Curve, each recorded as the span of its generators."""
    calls = []
    isotropic = C.is_commutative

    def counted(F, gens):
        gens = list(gens)
        calls.append(subgroup(gens))
        return isotropic(F, gens)

    monkeypatch.setattr(C, "is_commutative", counted)
    return calls


class TestValidatedCurve:
    def test_enumerated_curves_are_trusted(self, full_checks):
        for F in (F4, F8):
            for c in C.enumerate_curves(F):
                assert isinstance(c, C.Curve) and c.field == F
                assert C.assert_admissible(F, c) is c
                assert C.assert_admissible(make_field(F.n), c) is c   # an equal field
        assert full_checks == []

    def test_validated_once(self, full_checks):
        pts = C.point_set(F8, CURVE_431)
        curve = C.assert_admissible(F8, pts)
        assert type(pts) is frozenset and isinstance(curve, C.Curve)
        assert curve == pts and curve.field == F8
        assert C.assert_admissible(F8, curve) is curve
        assert len(full_checks) == 1

    def test_other_modulus_rechecked(self, full_checks):
        F1011, F1101 = (make_field(3, modulus_from_bits(m)) for m in ("1011", "1101"))
        other = set(C.enumerate_curves(F1101))
        curve = next(c for c in C.enumerate_curves(F1011) if c not in other)
        assert curve.field == F1011 and curve.field != F1101
        with pytest.raises(NotCommutative):
            C.assert_admissible(F1101, curve)
        assert full_checks == [curve]
        shared = next(c for c in C.enumerate_curves(F1011) if c in other)
        rechecked = C.assert_admissible(F1101, shared)
        assert rechecked == shared and rechecked.field == F1101
        assert len(full_checks) == 2

    def test_equal_field_object(self, full_checks):
        """A Curve validated for one field object is returned as is for a
        second, equal one, and checked afresh under another modulus."""
        F10011, F11001 = (make_field(4, modulus_from_bits(m)) for m in ("10011", "11001"))
        curve = C.assert_admissible(F10011, frozenset(C.enumerate_curves(F10011)[1000]))
        assert len(full_checks) == 1
        full_checks.clear()
        again = make_field(4, modulus_from_bits("10011"))
        assert again is not F10011 and again == F10011
        assert C.assert_admissible(again, curve) is curve
        assert full_checks == []
        other = set(C.enumerate_curves(F11001))
        shared = next(c for c in C.enumerate_curves(F10011) if c in other)
        rechecked = C.assert_admissible(F11001, shared)
        assert rechecked == shared and rechecked is not shared and rechecked.field is F11001
        assert full_checks == [shared]

    def test_set_operations_are_not_trusted(self, full_checks):
        atlas = C.enumerate_curves(F8)
        curve, other = atlas[5], atlas[70]
        same = [curve | curve, curve & curve, curve - frozenset(), curve ^ frozenset(),
                curve.union(), curve.intersection(curve), curve.copy(), frozenset(curve)]
        changed = [(curve - {max(curve)}) | {max(other)}, curve | other, curve - other]
        for r in same + changed:
            assert type(r) is frozenset
        for r in same:
            assert C.assert_admissible(F8, r) == curve
        assert full_checks == same
        for r in changed:
            with pytest.raises(NotAnAdmissibleCurve):
                C.assert_admissible(F8, r)

    def test_unvalidated_curve_is_checked(self, full_checks):
        # a Curve made without a field, as a caller outside the module could
        pts = C.Curve(C.point_set(F8, CURVE_431))
        assert C.assert_admissible(F8, pts) == pts
        assert len(full_checks) == 1

    def test_is_admissible_always_checks(self, full_checks):
        # negative control: a trusted Curve that is not admissible
        fake = C._trusted(F4, {(0, 0), (1, 2), (2, 1), (3, 3)}, (0b0110, 0b1001))
        assert C.assert_admissible(F4, fake) is fake
        assert not C.is_admissible(F4, fake)
        assert C.is_admissible(F4, C.enumerate_curves(F4)[0])
        assert len(full_checks) == 2

    def test_points_outside_the_field(self):
        # packed as a << n | b these are 0, 4, 5, 5: spanned by the isotropic
        # pair (1, 0), (1, 1), although (0, 4) and (1, 5) are not field points
        with pytest.raises(NotAnAdmissibleCurve):
            C.assert_admissible(F4, {(0, 0), (0, 4), (1, 1), (1, 5)})
        assert not C.is_admissible(F4, {(0, 0), (0, 4), (1, 1), (1, 5)})

    def test_generators_are_curve_points_in_sorted_order(self):
        for F in (F4, F8, F16):
            for c in C.enumerate_curves(F)[::7]:
                gens = [(g >> F.n, g & F.order - 1) for g in c.gens]
                assert gens == sorted(gens) and set(gens) <= c and len(gens) == F.n
                assert subgroup(gens) == c

    def test_full_check_counts(self, capsys, full_checks):
        assert cli.main(["verify", "--n", "5"]) == 0
        assert len(full_checks) == 33   # the ray bundle's curves, once each
        full_checks.clear()
        assert cli.main(["curves", "--n", "4"]) == 0
        assert full_checks == []
        seed = frozenset(C.enumerate_curves(F8)[17])
        bundles = B.search_bundles(F8, [seed], limit=sys.maxsize)
        assert len(bundles) == 64 and full_checks == [seed]
        capsys.readouterr()


# every atlas at n = 1..4, under the default modulus and one other for n >= 3
ORACLE_FIELDS = [make_field(n, modulus_from_bits(bits) if bits else None)
                 for n, bits in ((1, None), (2, None), (3, None), (3, "1101"),
                                 (4, None), (4, "11001"))]
ORACLE_IDS = ["n1", "n2", "n3", "n3-1101", "n4", "n4-11001"]


def moore_explicit(F, pts):
    """The Moore-matrix route: solve sum_m phi_m x^(2^m) = L(x) on a basis
    of the invertible axis; None when neither axis is invertible."""
    for orientation, axis in (("alpha_form", 0), ("beta_form", 1)):
        if len({p[axis] for p in pts}) != F.order:
            continue
        value_of = dict(pts) if axis == 0 else {b: a for a, b in pts}
        basis = subgroup_basis(value_of)
        rows = [[F.frobenius(x, m) for m in range(F.n)] for x in basis]
        phi = mat_solve(F, rows, [value_of[x] for x in basis])
        return C.ExplicitCurve(orientation, tuple(phi))
    return None


def moore_annihilator(F, group):
    """Coefficients c of the monic x^(2^r) + sum_m c_m x^(2^m) vanishing on
    a basis of the group, from the r x r Moore system."""
    basis = subgroup_basis(group)
    r = len(basis)
    rows = [[F.frobenius(a, m) for m in range(r)] for a in basis]
    return tuple(mat_solve(F, rows, [F.frobenius(a, r) for a in basis]))


def scaling_closed(F, pts):
    """(a, b) in the curve implies (la, lb) for every l: all d^2 products."""
    return all((F.mul(lam, a), F.mul(lam, b)) in pts for a, b in pts for lam in F.elements())


class TestClosedForms:
    """The closed forms behind `curve_record` against the routes they replaced."""

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_explicit_curve_against_moore_system(self, F):
        for pts in C.enumerate_curves(F):
            want = moore_explicit(F, pts)
            if want is None:
                with pytest.raises(NoExplicitForm):
                    C.explicit_curve(F, pts)
                continue
            got = C.explicit_curve(F, pts)
            assert got == want
            assert all(holds(F, got, p) for p in pts)

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_annihilator_against_moore_system(self, F):
        for pts in C.enumerate_curves(F):
            for axis in (0, 1):
                group = {p[axis] for p in pts}
                if len(group) == F.order:
                    with pytest.raises(NoStructuralEquation):
                        C.annihilator(F, echelon_basis(group))
                    continue
                eq = C.annihilator(F, echelon_basis(group))
                assert eq.coeffs == moore_annihilator(F, group)
                assert {x for x in F.elements() if eq.eval(F, x) == 0} == group

    @pytest.mark.parametrize("warm,cold", [("10011", "11001"), ("11001", "10011")])
    def test_annihilator_memo_is_per_field(self, warm, cold):
        """With every proper subgroup's structural equation memoised under
        one n = 4 modulus, the other modulus still gets its own
        Moore-system annihilators."""
        C._projection_equation.cache_clear()
        F_warm, F_cold = (make_field(4, modulus_from_bits(bits)) for bits in (warm, cold))
        bases = [b for r in range(4) for b in C._subspace_bases(4, r)]
        assert len(bases) == 66 and all(echelon_basis(b) == b for b in bases)
        warmed = [C._projection_equation(F_warm, b) for b in bases]
        assert C._projection_equation.cache_info().currsize == 66
        cold_eqs = [C._projection_equation(F_cold, b) for b in bases]
        assert all(eq.coeffs == moore_annihilator(F_cold, subgroup_span(b))
                   for eq, b in zip(cold_eqs, bases))
        assert warmed != cold_eqs   # the memo must not hand one field's polynomials to the other

    def test_annihilator_needs_a_reduced_echelon_basis(self):
        assert echelon_basis([1, 3]) == (1, 2)
        with pytest.raises(InputError):
            C.annihilator(F16, (1, 3))

    @pytest.mark.parametrize("F", ORACLE_FIELDS + [make_field(5)], ids=ORACLE_IDS + ["n5"])
    def test_atlas_order_is_the_sorted_point_order(self, F):
        """Sorting on the packed words of the span gives the order of
        `key=sorted` over the (a, b) points, at n <= 4 and at n = 5."""
        atlas = C.enumerate_curves(F)
        assert atlas == sorted(atlas, key=sorted)
        assert len({C._sort_key(c) for c in atlas}) == len(atlas)   # no ties

    @pytest.mark.parametrize("F", ORACLE_FIELDS + [make_field(5)], ids=ORACLE_IDS + ["n5"])
    def test_is_ray_against_scaling_closure(self, F):
        atlas = C.enumerate_curves(F)
        rays = [pts for pts in atlas if C._is_ray(F, pts)]
        assert rays == [pts for pts in atlas if scaling_closed(F, pts)]
        assert len(rays) == F.order + 1

    def test_curves_command_work_counts(self, capsys, monkeypatch):
        """No Moore system is solved, and the parity table of a degree is
        built once."""
        solves, builds = [], []
        solve, even_cuts = FLD.mat_solve, P._even_cuts.__wrapped__
        for mod in (mubcurves, FLD, C, P, V, B, cli):
            if getattr(mod, "mat_solve", None) is solve:
                monkeypatch.setattr(mod, "mat_solve",
                                    lambda *args: solves.append(args) or solve(*args))
        monkeypatch.setattr(P, "_even_cuts",
                            functools.cache(lambda n: builds.append(n) or even_cuts(n)))
        C._projection_equation.cache_clear()
        C._explicit_table.cache_clear()
        assert cli.main(["curves", "--n", "4"]) == 0
        assert cli.main(["curves", "--n", "4", "--modulus", "11001"]) == 0
        assert cli.main(["curves", "--n", "3"]) == 0
        assert solves == [] and builds == [4, 3]
        capsys.readouterr()


# -- point-based oracles: the record functions as they were before curves
# carried their generators, reading all 2^n points; copied unchanged


def oracle_classify_points(F, points):
    pts = C.assert_admissible(F, points)
    ra = len(subgroup_basis({a for a, _ in pts}))
    rb = len(subgroup_basis({b for _, b in pts}))
    if ra == F.n and rb == F.n:
        variant = "RegularBoth"
    elif ra == F.n:
        variant = "RegularAlphaOnly"
    elif rb == F.n:
        variant = "RegularBetaOnly"
    else:
        variant = "Exceptional"
    kind = "exceptional" if variant == "Exceptional" else "regular"
    if kind == "regular" and C._is_ray(F, pts):
        variant = "Ray"
    return C.CurveClassification(kind, variant, int(ra == F.n), int(rb == F.n), ra, rb,
                                 1 << (F.n - ra), 1 << (F.n - rb))


def oracle_trace_witness(F, group):
    gens = subgroup_basis(group)
    if len(gens) != F.n - 1:
        raise NoStructuralEquation(
            f"trace witness needs a corank-1 subgroup, got size {1 << len(gens)}")
    return max(trace_orthogonal_complement(F, gens))


def oracle_structural_equations(F, points):
    pts = C.assert_admissible(F, points)
    out = []
    for axis in (0, 1):
        proj = {p[axis] for p in pts}
        eq = C.annihilator(F, echelon_basis(proj))
        if len(proj) == F.order // 2:
            eq = C.StructuralEquation(eq.coeffs, oracle_trace_witness(F, proj))
        out.append(eq)
    return out[0], out[1]


def outcome(f, *args):
    """The result of f(*args), or the type of the MubcError it raises."""
    try:
        return f(*args)
    except NoStructuralEquation as exc:
        return type(exc)


def assert_records_match_oracle(F, curve):
    """`curve.gens` spans the curve, and every record function that reads
    the generators agrees with its point-based oracle."""
    low = F.order - 1
    assert len(curve.gens) == F.n
    assert {(g >> F.n, g & low) for g in subgroup_span(curve.gens)} == curve
    assert C.classify_points(F, curve) == oracle_classify_points(F, curve)
    assert P.factorization_partition(F, curve) == oracle_factorization_partition(F, curve)
    assert (outcome(C.structural_equations, F, curve)
            == outcome(oracle_structural_equations, F, curve))


class TestGeneratorRecords:
    """Records read off `Curve.gens` against the point-based oracles."""

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_enumerated_curves(self, F):
        for curve in C.enumerate_curves(F):
            assert_records_match_oracle(F, curve)

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_shared_classifications(self, F):
        """Every atlas curve's classification equals the oracle's, and curves
        with the same ranks and variant share one instance."""
        shared = {}
        for curve in C.enumerate_curves(F):
            cls = C.classify_points(F, curve)
            assert cls == oracle_classify_points(F, curve)
            assert shared.setdefault((cls.rank_alpha, cls.rank_beta, cls.variant), cls) is cls

    def test_classify_leaves_the_shared_classification_unchanged(self):
        """`classify` attaches the W determinants to a copy; the instance
        that `classify_points` hands to every curve of its class stays as it
        was, and refuses to be changed in place."""
        for curve in (CURVE_431, CURVE_432):
            pts = C.point_set(F8, curve)
            shared = C.classify_points(F8, pts)
            before = dataclasses.astuple(shared)
            cls = C.classify(F8, curve)
            assert cls is not shared
            assert cls == dataclasses.replace(shared, det_alpha=cls.det_alpha,
                                              det_beta=cls.det_beta)
            assert C.classify_points(F8, pts) is shared
            assert dataclasses.astuple(shared) == before
            with pytest.raises(dataclasses.FrozenInstanceError):
                shared.det_alpha = 7

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_validated_point_sets(self, F):
        # plain point sets get their generators from `assert_admissible`
        for pts in C.enumerate_curves(F)[::5]:
            curve = C.assert_admissible(F, frozenset(pts))
            assert curve == pts and curve is not pts
            assert_records_match_oracle(F, curve)
            assert C.classify_points(F, frozenset(pts)) == C.classify_points(F, pts)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([make_field(5), make_field(5, modulus_from_bits("110111"))]),
           st.data())
    def test_random_five_qubit_lagrangians(self, F, data):
        assert_records_match_oracle(F, data.draw(lagrangians(F)))

    @pytest.mark.parametrize("n,bits", [(1, None), (2, None), (3, None), (3, "1101"),
                                        (4, None), (4, "11001"), (5, None), (5, "110111")])
    def test_trace_witness_closed_form(self, n, bits):
        """Every corank-1 subgroup H: xi = c_1 / c_0 of its annihilator is the
        nonzero element of the trace complement of H (at n = 1, H = {0} has
        no c_1 and xi = 1)."""
        F = make_field(n, modulus_from_bits(bits) if bits else None)
        hyperplanes = [subgroup_span(basis) for basis in C._subspace_bases(n, n - 1)]
        assert len(set(hyperplanes)) == F.order - 1
        for H in hyperplanes:
            eq = C.annihilator(F, echelon_basis(H))
            xi = C.trace_witness(F, eq)
            assert xi == oracle_trace_witness(F, H)
            assert {x for x in F.elements() if F.trace(F.mul(xi, x)) == 0} == H
        if n > 1:  # negative control: a corank-2 annihilator has no witness
            with pytest.raises(NoStructuralEquation):
                C.trace_witness(F, C.StructuralEquation(eq.coeffs[1:]))

    def test_curves_command_reads_generators(self, capsys, monkeypatch):
        """`mubc curves --n 4` makes no `trace_orthogonal_complement` call,
        and no `subgroup_basis` or `echelon_basis` call on more than n
        elements, also with cold memos."""
        calls = collections.defaultdict(list)
        C._projection_equation.cache_clear()
        C._explicit_table.cache_clear()

        def counting(name, f):
            def counted(*args):
                args = args[:-1] + (list(args[-1]),)
                calls[name].append(len(args[-1]))
                return f(*args)
            return counted

        for name in ("trace_orthogonal_complement", "subgroup_basis", "echelon_basis"):
            original = getattr(FLD, name)
            for mod in (mubcurves, FLD, C, P, V, B, cli):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting(name, original))
        assert cli.main(["curves", "--n", "4"]) == 0
        assert calls["trace_orthogonal_complement"] == []
        assert calls["echelon_basis"] and max(calls["echelon_basis"]) <= 4
        assert max(calls["subgroup_basis"], default=0) <= 4
        # negative control: a plain point set still goes through the points
        C.classify_points(F16, frozenset(C.enumerate_curves(F16)[0]))
        assert calls["echelon_basis"].count(16) == 1 and max(calls["echelon_basis"]) == 16
        capsys.readouterr()

    def test_record_reduces_each_curve_once(self, monkeypatch):
        """A Curve's generators are reduced when it is made: an enumerated
        one only in the swapped packing, as its rows come out reduced, after
        one reduction of T per alpha-subgroup A; classification, explicit
        form and structural equations read them and reduce nothing."""
        for curve in C.enumerate_curves(F16):
            cli.curve_record(F16, curve)    # warm the annihilator memo
        calls = []
        original = C.echelon_basis
        monkeypatch.setattr(C, "echelon_basis", lambda words: calls.append(1) or original(words))
        atlas = C.enumerate_curves(F16)
        subgroups = sum(1 for r in range(5) for _ in C._subspace_bases(4, r))
        assert subgroups == 67 and len(calls) == len(atlas) + subgroups
        calls.clear()
        records = [cli.curve_record(F16, curve) for curve in atlas]
        assert [cli.curve_record(F16, curve) for curve in atlas] == records
        assert calls == []
        # the reduced generators span their curve
        for curve in atlas:
            assert {(g >> 4, g & 15) for g in subgroup_span(curve.gens)} == curve
        # a plain point set becomes one Curve per record: one reduction of
        # its points, which are its rows, then one of the swapped packing
        cli.curve_record(F16, frozenset(atlas[0]))
        assert len(calls) == 2


def assert_canonical(F, curve):
    """A Curve's generators are the reduced echelon bases of its points,
    packed a << n | b in `gens` and b << n | a in `cogens`."""
    assert isinstance(curve, C.Curve) and curve.field == F
    assert curve.gens == echelon_basis(a << F.n | b for a, b in curve)
    assert curve.cogens == echelon_basis(b << F.n | a for a, b in curve)


class TestCanonicalGenerators:
    """One generator basis per Curve, whichever route made it."""

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_enumerated_and_validated_curves(self, F):
        atlas = C.enumerate_curves(F)
        for curve in atlas:
            assert_canonical(F, curve)
        for curve in atlas[::3]:
            assert_canonical(F, C.assert_admissible(F, frozenset(curve)))

    def test_five_qubit_atlas(self):
        """The enumerator's reduced rows at n = 5, on every 7th curve."""
        F = make_field(5)
        atlas = C.enumerate_curves(F)
        assert len(atlas) == C.atlas_size(5) == 75735
        for curve in atlas[::7]:
            assert_canonical(F, curve)

    def test_transform_images(self):
        for F in (F4, F8, F16):
            for curve in C.enumerate_curves(F)[::11]:
                for kind in "zxy":
                    for qubit in range(1, F.n + 1):
                        assert_canonical(F, P.transform_curve(F, curve, [(kind, qubit)]))

    def test_exceptional_constructors(self):
        assert_canonical(F4, C.exceptional_equal(F4, [F4.primitive]))
        for a, b in itertools.permutations(range(1, 8), 2):
            assert_canonical(F8, C.exceptional_equal(F8, [a, b]))
        for roots in itertools.combinations(range(1, 8), 2):
            assert_canonical(F8, C.exceptional_unequal(F8, roots))
        for roots in ([1], [3], [1, 2], [5, 6, 9]):
            assert_canonical(F16, C.exceptional_unequal(F16, roots))

    def test_bundle_curves(self):
        bundles = [B.ray_bundle(make_field(n)) for n in range(1, 6)]
        bundles.append(B.closure_bundle(F8, [(s8(6), s8(3), s8(5)), (s8(2), s8(5), s8(6)),
                                             (s8(3), 0, 0)]))
        for bundle in bundles:
            F = bundle.curves[0].field
            for curve in bundle.curves:
                assert_canonical(F, curve)

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_eigenbasis_same_before_and_after_a_record(self, F):
        for curve in C.enumerate_curves(F):
            before = V.eigenbasis(F, curve)
            cli.curve_record(F, curve)
            for basis in (V.eigenbasis(F, curve), V.eigenbasis(F, frozenset(curve))):
                assert basis.labels == before.labels
                assert np.array_equal(basis.re, before.re)
                assert np.array_equal(basis.im, before.im)
