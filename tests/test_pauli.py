"""Pauli monomials: bit maps, commutation, factorization, local rotations."""

from __future__ import annotations

import itertools

import pytest

from mubcurves.errors import InputError, clip
from mubcurves import bundles as B
from mubcurves import curves as C
from mubcurves import pauli as P
from mubcurves.field import make_field, modulus_from_bits

from monomials import PauliMonomial, commuting_set, coords, monomial
from partitions import exhaustive_partitions, is_boolean_algebra, oracle_cuts

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)
F32 = make_field(5)


def glyphs(m):
    """The label of a PauliMonomial, from its coordinate tuples."""
    names = {(0, 0): "1", (1, 0): "Z", (0, 1): "X", (1, 1): "Y"}
    return "".join(names[zx] for zx in zip(m.z_bits, m.x_bits))


def s4(k):
    return F4.sigma_pow(k)


def s8(k):
    return F8.sigma_pow(k)


def ray(F, lam=None):
    """beta = lam * alpha, or alpha = 0 when lam is None."""
    if lam is None:
        return frozenset((0, b) for b in F.elements())
    return frozenset((a, F.mul(lam, a)) for a in F.elements())


class TestMonomials:
    def test_gf4_single_z_factors(self):
        # Z_sigma = sigma_z x 1, Z_sigma^2 = 1 x sigma_z, Z_1 = sigma_z x sigma_z
        assert P.monomial_label(F4, s4(1), 0) == "Z1"
        assert P.monomial_label(F4, s4(2), 0) == "1Z"
        assert P.monomial_label(F4, 1, 0) == "ZZ"

    def test_identity(self):
        assert P.monomial_label(F8, 0, 0) == "111"

    def test_bits_are_selfdual_coords(self):
        for a in F8.elements():
            for b in F8.elements():
                m = monomial(F8, a, b)
                assert m.z_bits == coords(F8, a)
                assert m.x_bits == coords(F8, b)

    def test_label(self):
        assert P.monomial_label(F4, s4(1), s4(1)) == "Y1"

    @pytest.mark.parametrize("F", [F2, F4, F8, make_field(3, modulus_from_bits("1101"))])
    def test_label_is_the_monomial_glyphs(self, F):
        for a in F.elements():
            for b in F.elements():
                assert P.monomial_label(F, a, b) == glyphs(monomial(F, a, b))


def all_pairs_commute(F, pts):
    """Oracle: every pair of the nonidentity points, one trace form each."""
    labels = sorted(set(pts) - {(0, 0)})
    return all(C.symplectic_trace(F, p, q) == 0 for p, q in itertools.combinations(labels, 2))


def regular_tail(F):
    """The tail of `mubc bundle --strategy regular-tail`, with --phi 1 at
    n = 2 and --phi s above."""
    phi = F.primitive
    return [1] if F.n == 2 else [F.mul(phi, phi)] + [0] * (F.n - 3) + [phi]


BUNDLES = {
    **{f"rays-n{n}": (n, B.ray_bundle) for n in range(1, 5)},
    **{f"tail-n{n}": (n, lambda F: B.build_regular_bundle(F, regular_tail(F)))
       for n in range(2, 5)},
    "closure-n3": (3, lambda F: B.closure_bundle(
        F, [(s8(6), s8(3), s8(5)), (s8(2), s8(5), s8(6)), (s8(3), 0, 0)])),
    **{f"search-n{n}": (n, lambda F: B.search_bundles(F)[0]) for n in range(1, 5)},
}


class TestCommutation:
    def test_self_commutes(self):
        m = monomial(F4, s4(1), s4(2))
        assert C.symplectic_trace(F4, m.point, m.point) == 0

    def test_anticommuting_example(self):
        # tr(sigma * sigma) = tr(sigma^2) = 1
        assert C.symplectic_trace(F4, (s4(1), 0), (0, s4(1))) == 1
        assert not all_pairs_commute(F4, {(0, 0), (s4(1), 0), (0, s4(1)), (s4(1), s4(1))})

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_field_test_equals_bitwise_test(self, F):
        for a1, b1, a2, b2 in itertools.product(F.elements(), repeat=4):
            m1, m2 = monomial(F, a1, b1), monomial(F, a2, b2)
            bitwise = sum((z1 & x2) ^ (z2 & x1)
                          for z1, x1, z2, x2
                          in zip(m1.z_bits, m1.x_bits, m2.z_bits, m2.x_bits)) % 2
            assert (C.symplectic_trace(F, m1.point, m2.point) == 0) == (bitwise == 0)

    def test_worked_example_set_431(self):
        curve = C.ParametricCurve((s8(2), 1, s8(4)), (s8(3), s8(6), s8(6)))
        mons = commuting_set(F8, C.point_set(F8, curve))
        points = {m.point for m in mons}
        assert points == {
            (s8(6), s8(5)), (s8(5), s8(6)), (s8(4), s8(2)), (s8(1), s8(1)),
            (1, 1), (s8(2), s8(4)), (s8(3), s8(3))}
        assert all_pairs_commute(F8, points)

    @pytest.mark.parametrize("name", list(BUNDLES))
    def test_bundle_curves_commute_all_pairs(self, name):
        # `verify_bundle` checks isotropy on generator pairs only
        n, build = BUNDLES[name]
        F = make_field(n)
        for pts in build(F).curves:
            assert all_pairs_commute(F, pts)

    def test_worked_example_set_432(self):
        curve = C.ParametricCurve((0, 0, s8(2)), (s8(2), 1, s8(1)))
        points = {m.point for m in commuting_set(F8, C.point_set(F8, curve))}
        assert points == {
            (s8(6), 0), (s8(3), s8(2)), (1, s8(5)), (s8(4), s8(2)),
            (s8(1), s8(3)), (s8(5), s8(3)), (s8(2), s8(5))}

    def test_gf4_z_ray_set(self):
        mons = commuting_set(F4, ray(F4, 0))
        assert {glyphs(m) for m in mons} == {"Z1", "1Z", "ZZ"}


class TestFactorization:
    def test_gf4_rays(self):
        assert P.partition_type(P.factorization_partition(F4, ray(F4, 0))) == (1, 1)
        assert P.partition_type(P.factorization_partition(F4, ray(F4, s4(1)))) == (2,)

    def test_gf8_examples(self):
        assert P.partition_type(P.factorization_partition(F8, ray(F8, 0))) == (1, 1, 1)
        entangled = ray(F8, s8(3))
        assert P.partition_type(P.factorization_partition(F8, entangled)) == (3,)
        mixed = C.point_set(F8, C.curve_from_phi(F8, (0, s8(6), s8(3))))
        assert P.partition_type(P.factorization_partition(F8, mixed)) == (1, 2)

    def test_partition_blocks_are_a_partition(self):
        for pts in C.enumerate_curves(F8):
            blocks = P.factorization_partition(F8, pts)
            flat = sorted(q for b in blocks for q in b)
            assert flat == [1, 2, 3]

    def test_gf8_partition_census(self):
        counts = {}
        for pts in C.enumerate_curves(F8):
            t = P.partition_type(P.factorization_partition(F8, pts))
            counts[t] = counts.get(t, 0) + 1
        assert counts == {(1, 1, 1): 27, (1, 2): 54, (3,): 54}

    def test_canonical_partition_types(self):
        assert P.canonical_partition_types(2) == [(1, 1), (2,)]
        assert P.canonical_partition_types(3) == [(1, 1, 1), (1, 2), (3,)]
        types4 = P.canonical_partition_types(4)
        assert types4[0] == (1, 1, 1, 1) and types4[-1] == (4,)
        assert len(types4) == 5

    @pytest.mark.parametrize("n", range(1, 10))
    def test_partition_types_against_integer_partitions(self, n):
        assert P.canonical_partition_types(n) == integer_partitions(n)


def integer_partitions(n):
    """The integer partitions of n by recursion on the largest part, sorted
    by decreasing part count, then lexicographically."""
    parts = []

    def gen(remaining, mx, acc):
        if remaining == 0:
            parts.append(tuple(sorted(acc)))
            return
        for k in range(1, min(mx, remaining) + 1):
            gen(remaining - k, k, acc + [k])

    gen(n, n, [])
    parts.sort(key=lambda p: (-len(p), p))
    return parts


_BIT_MAPS = {
    "z": lambda zb, xb: (zb ^ xb, xb),
    "x": lambda zb, xb: (zb, xb ^ zb),
    "y": lambda zb, xb: (xb, zb),
}


def local_transform_bits(kind, qubit, z_bits, x_bits):
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


# n = 1..5 under the default moduli, and one other modulus for n = 3, 4, 5
POINT_FORM_FIELDS = [make_field(n) for n in range(1, 6)] + [
    make_field(len(bits) - 1, modulus_from_bits(bits)) for bits in ("1101", "11001", "111101")]
POINT_FORM_IDS = ["n1", "n2", "n3", "n4", "n5", "n3-1101", "n4-11001", "n5-111101"]


class TestLocalTransforms:
    def test_bit_maps(self):
        # one qubit: theta = 1, so the z and x bits are alpha and beta
        assert P.local_transform_point(F2, "z", 1, (1, 0)) == (1, 0)
        assert P.local_transform_point(F2, "z", 1, (0, 1)) == (1, 1)
        assert P.local_transform_point(F2, "x", 1, (1, 0)) == (1, 1)
        assert P.local_transform_point(F2, "y", 1, (1, 0)) == (0, 1)
        assert P.local_transform_point(F2, "y", 1, (0, 0)) == (0, 0)

    def test_bad_inputs(self):
        with pytest.raises(InputError, match="unknown rotation 'q'"):
            P.local_transform_point(F2, "q", 1, (0, 0))
        with pytest.raises(InputError, match=r"qubit 3 out of range 1\.\.2"):
            P.local_transform_point(F4, "x", 3, (0, 0))
        with pytest.raises(InputError, match=r"qubit 0 out of range 1\.\.2"):
            P.local_transform_point(F4, "x", 0, (0, 0))

    @pytest.mark.parametrize("F", POINT_FORM_FIELDS, ids=POINT_FORM_IDS)
    def test_point_and_bit_forms_agree(self, F):
        for a, b in itertools.product(F.elements(), repeat=2):
            m = monomial(F, a, b)
            for kind in "zxy":
                for qubit in range(1, F.n + 1):
                    pt = P.local_transform_point(F, kind, qubit, (a, b))
                    z, x = local_transform_bits(kind, qubit, m.z_bits, m.x_bits)
                    assert monomial(F, *pt) == PauliMonomial(pt[0], pt[1], z, x)

    def test_transforms_preserve_commutation(self):
        pairs = list(itertools.product(F4.elements(), repeat=2))
        for kind in "zxy":
            for qubit in (1, 2):
                for p1, p2 in itertools.combinations(pairs, 2):
                    before = C.symplectic_trace(F4, p1, p2)
                    q1 = P.local_transform_point(F4, kind, qubit, p1)
                    q2 = P.local_transform_point(F4, kind, qubit, p2)
                    assert C.symplectic_trace(F4, q1, q2) == before

    def test_double_x_rotation_gives_diagonal(self):
        got = P.transform_curve(F4, ray(F4, 0), [("x", 1), ("x", 2)])
        assert got == ray(F4, 1)

    def test_double_y_rotation_swaps_axes(self):
        got = P.transform_curve(F4, ray(F4, 0), [("y", 1), ("y", 2)])
        assert got == ray(F4)

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_partition_preserved(self, F):
        for pts in C.enumerate_curves(F):
            part = P.factorization_partition(F, pts)
            for kind in "zxy":
                for qubit in range(1, F.n + 1):
                    image = P.transform_curve(F, pts, [(kind, qubit)])
                    assert P.factorization_partition(F, image) == part

    def test_gf4_all_curves_reachable_from_rays(self):
        # closure of the 5 rays under single-qubit rotations covers the atlas
        seen = {ray(F4), ray(F4, 0), ray(F4, 1), ray(F4, s4(1)), ray(F4, s4(2))}
        frontier = set(seen)
        while frontier:
            nxt = set()
            for pts in frontier:
                for kind in "zxy":
                    for qubit in (1, 2):
                        image = P.transform_curve(F4, pts, [(kind, qubit)])
                        if image not in seen:
                            seen.add(image)
                            nxt.add(image)
            frontier = nxt
        assert seen == set(C.enumerate_curves(F4))


ORACLE_FIELDS = [make_field(n, modulus_from_bits(bits) if bits else None)
                 for n, bits in ((1, None), (2, None), (3, None), (3, "1101"),
                                 (4, None), (4, "11001"))]
ORACLE_IDS = ["n1", "n2", "n3", "n3-1101", "n4", "n4-11001"]


class TestPartitionTable:
    @pytest.mark.parametrize("F", ORACLE_FIELDS + [F32], ids=ORACLE_IDS + ["n5"])
    def test_against_exhaustive_scan(self, F):
        for pts in C.enumerate_curves(F):
            finest = exhaustive_partitions(F, pts)
            # one finest partition per curve: the atoms of its cut algebra
            assert finest == [P.factorization_partition(F, pts)]

    @pytest.mark.parametrize("F", ORACLE_FIELDS + [F32], ids=ORACLE_IDS + ["n5"])
    def test_cuts_form_a_boolean_algebra(self, F):
        """The lemma: a curve's cuts are closed under AND and complement,
        and they are the masks on which every clash word is even."""
        seen = {}
        for k, pts in enumerate(C.enumerate_curves(F)):
            cuts = P._cuts(F, pts)
            masks = seen.setdefault(cuts, {m for m in range(F.order) if cuts >> m & 1})
            if F.n < 5 or k % 7 == 0:
                assert masks == oracle_cuts(F, pts)
        assert all(is_boolean_algebra(F.n, masks) for masks in seen.values())
        # as many cut sets as the set partitions that some curve has
        assert len(seen) == [1, 2, 5, 15, 52][F.n - 1]

    def test_lemma_check_catches_a_set_not_closed_under_and(self):
        masks = {int(m, 2) for m in ("0000", "1100", "0011", "1010", "0101", "0110", "1001",
                                     "1111")}
        full = 0b1111
        assert all(full ^ m in masks for m in masks)   # closed under complement
        assert 0b1100 & 0b1010 not in masks
        assert not is_boolean_algebra(4, masks)
        assert is_boolean_algebra(4, masks | {0b1000, 0b0100, 0b0010, 0b0001, 0b0111, 0b1011,
                                              0b1101, 0b1110})


class TestBundleStructureSignature:
    def test_counts_sum(self):
        from mubcurves.bundles import ray_bundle
        for F in (F4, F8):
            b = ray_bundle(F)
            assert sum(P.bundle_structure(F, b.curves)) == F.order + 1
