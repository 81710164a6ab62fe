"""Exact dense-matrix verification: operators, eigenbases, unbiasedness."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubcurves.errors import InputError, NotAnAdmissibleCurve, NotCommutative
from mubcurves import bundles as B
from mubcurves import curves as C
from mubcurves import pauli as P
from mubcurves import verify as V
from mubcurves.field import make_field, trace_pairing

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)


def s4(k):
    return F4.sigma_pow(k)


def s8(k):
    return F8.sigma_pow(k)


ATLASES = {F.n: C.enumerate_curves(F) for F in (F2, F4, F8)}


def ray(F, lam=None):
    if lam is None:
        return frozenset((0, b) for b in F.elements())
    return frozenset((a, F.mul(lam, a)) for a in F.elements())


class TestDenseOperators:
    def test_single_qubit(self):
        assert np.array_equal(V.dense_z(F2, 1), [[1, 0], [0, -1]])
        assert np.array_equal(V.dense_x(F2, 1), [[0, 1], [1, 0]])

    def test_z_is_diagonal_x_is_permutation(self):
        for F in (F4, F8):
            for a in F.elements():
                Z = V.dense_z(F, a)
                assert np.array_equal(Z, np.diag(np.diag(Z)))
                X = np.abs(V.dense_x(F, a))
                assert np.array_equal(X @ X.T, np.eye(F.order, dtype=np.int64))

    def test_monomial_is_z_times_x(self):
        for F in (F4, F8):
            for a, b in itertools.product(F.elements(), repeat=2):
                got = V.dense_monomial(F, a, b)
                assert np.array_equal(got, V.dense_z(F, a) @ V.dense_x(F, b))

    def test_unitary(self):
        for a, b in itertools.product(F8.elements(), repeat=2):
            M = V.dense_monomial(F8, a, b)
            assert np.array_equal(M @ M.T, np.eye(8, dtype=np.int64))

    def test_square_sign(self):
        for a, b in itertools.product(F8.elements(), repeat=2):
            M = V.dense_monomial(F8, a, b)
            s = V.monomial_square_sign(F8, a, b)
            assert np.array_equal(M @ M, s * np.eye(8, dtype=np.int64))

    @pytest.mark.parametrize("F", [F2, F4, F8], ids=["n1", "n2", "n3"])
    def test_weyl_commutation_rule(self, F):
        # D(a,b) D(a',b') = chi(tr-form asymmetry) D(a',b') D(a,b)
        d = F.order
        for a1, b1, a2, b2 in itertools.product(F.elements(), repeat=4):
            M1 = V.dense_monomial(F, a1, b1)
            M2 = V.dense_monomial(F, a2, b2)
            sign = (-1) ** C.symplectic_trace(F, (a1, b1), (a2, b2))
            assert np.array_equal(M1 @ M2, sign * (M2 @ M1))

    def test_tensor_phase_is_sign(self):
        for F in (F4, F8):
            for a, b in itertools.product(F.elements(), repeat=2):
                assert V.tensor_phase(F, a, b) in (-1, 1)

    def test_tensor_phase_examples(self):
        # Z_sigma X_sigma^2 acts as sigma_z (x) sigma_x with no extra sign
        assert V.tensor_phase(F4, s4(1), s4(2)) == 1

    def test_basis_index_msb(self):
        # qubit 1 is the most significant coordinate bit
        for c in F4.elements():
            bits = F4.coords(c)
            assert V.basis_index(F4, c) == 2 * bits[0] + bits[1]


class TestExactVectors:
    def test_overlap_sq(self):
        u = V.ExactVector((1, 1), (0, 0), 1)
        v = V.ExactVector((1, -1), (0, 0), 1)
        w = V.ExactVector((1, 0), (0, 1), 1)
        assert u.overlap_sq(v) == 0
        assert u.overlap_sq(u) == 1
        assert u.overlap_sq(w) == Fraction(1, 2)

    def test_to_complex(self):
        u = V.ExactVector((1, 1), (0, 0), 1)
        assert np.allclose(u.to_complex(), [2 ** -0.5, 2 ** -0.5])


class TestEigenbasis:
    def test_beta_zero_gives_computational_basis(self):
        basis = V.eigenbasis(F4, frozenset((a, 0) for a in F4.elements()))
        mat = np.abs(np.array([v.to_complex() for v in basis.vectors]).T)
        # columns are standard basis vectors, ordered by eigenvalue labels
        assert np.allclose(mat @ mat.T, np.eye(4))
        assert set(np.round(mat.ravel())) == {0.0, 1.0}

    def test_alpha_zero_gives_flat_basis(self):
        basis = V.eigenbasis(F8, ray(F8))
        for v in basis.vectors:
            assert all(abs(z) ** 2 == pytest.approx(1 / 8) for z in v.to_complex())

    def test_diagonal_ray_is_maximally_entangled(self):
        # eigenvectors of the beta = sigma alpha curve have EPR-flat marginals
        basis = V.eigenbasis(F4, ray(F4, s4(1)))
        for v in basis.vectors:
            psi = v.to_complex().reshape(2, 2)
            rho = psi @ psi.conj().T
            assert np.allclose(rho, np.eye(2) / 2)

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_completeness(self, F):
        for pts in [ray(F), ray(F, 0), ray(F, s8(1) if F is F8 else s4(1))]:
            basis = V.eigenbasis(F, pts)
            mat = np.array([v.to_complex() for v in basis.vectors]).T
            assert np.allclose(mat @ mat.conj().T, np.eye(F.order))

    def test_entries_are_scaled_gaussian_units(self):
        for pts in C.enumerate_curves(F8):
            basis = V.eigenbasis(F8, pts)
            for v in basis.vectors:
                assert all(x in (-1, 0, 1) for x in v.re)
                assert all(x in (-1, 0, 1) for x in v.im)

    def test_vectors_are_joint_eigenvectors(self):
        pts = C.point_set(F8, C.ParametricCurve((s8(2), 1, s8(4)),
                                                (s8(3), s8(6), s8(6))))
        basis = V.eigenbasis(F8, pts)
        for v in basis.vectors:
            for p in sorted(pts):
                if p != (0, 0):
                    assert V.eigenphase_exponent(F8, v, p) in range(4)

    @pytest.mark.parametrize("F", [F2, F4, F8], ids=["n1", "n2", "n3"])
    def test_atlas_against_exact_oracle(self, F):
        # oracle: Python-integer eigenphases and overlaps, not the numpy Gram
        for pts in ATLASES[F.n]:
            basis = V.eigenbasis(F, pts)
            gens = C.point_generators(F, pts)
            vecs = basis.vectors
            assert len(vecs) == F.order
            for v, label in zip(vecs, basis.labels):
                assert tuple(V.eigenphase_exponent(F, v, g) for g in gens) == label
                assert sum(a * a + b * b for a, b in zip(v.re, v.im)) == 1 << v.norm_exp
            for u, v in itertools.combinations(vecs, 2):
                assert u.overlap_sq(v) == 0

    @pytest.mark.parametrize("checked", [False, True])
    def test_non_isotropic_subgroup_rejected(self, checked):
        # an additive subgroup of order 4 whose monomials anticommute
        pts = frozenset({(0, 0), (1, 2), (2, 1), (3, 3)})
        assert not C.is_commutative(F4, pts)
        if checked:
            # passed as if already validated: only eigenbasis's own checks see it
            pts = C._trusted(F4, pts)
            assert C.assert_admissible(F4, pts) is pts
        with pytest.raises(NotCommutative):
            V.eigenbasis(F4, pts)

    def test_labels_sorted_and_distinct(self):
        basis = V.eigenbasis(F4, ray(F4, 1))
        assert list(basis.labels) == sorted(set(basis.labels))


def dense_trace_violations(F, curves):
    """Reference: Tr(D_p D_q^T) of dense matrices for every pair of labels."""
    labelled = [(i, p) for i, c in enumerate(curves) for p in sorted(c) if p != (0, 0)]
    dense = {p: V.dense_monomial(F, *p) for _, p in labelled}
    bad = []
    for (i, p), (j, q) in itertools.combinations_with_replacement(labelled, 2):
        t = int(np.trace(dense[p] @ dense[q].T))
        if t != (F.order if (i, p) == (j, q) else 0):
            bad.append((p, q))
    return bad


class TestTraceOrthogonality:
    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_grouped_matches_dense_reference(self, F):
        rng = random.Random(F.n)
        atlas = ATLASES[F.n]
        lists = [B.ray_bundle(F).curves, B.ray_bundle(F).curves[:2] * 2]
        lists += [rng.sample(atlas, rng.randrange(1, F.order + 2)) for _ in range(40)]
        failing = 0
        for curves in lists:
            want = dense_trace_violations(F, curves)
            assert V.check_trace_orthogonality(F, curves) == want
            failing += bool(want)
            # intersecting curves share a nonidentity label: a negative control
            assert bool(want) == (not C.all_nonintersecting(curves)
                                  or len(set(curves)) < len(curves))
        assert 0 < failing < len(lists)

    def test_bundle_passes(self):
        assert V.check_trace_orthogonality(F4, B.ray_bundle(F4).curves) == []

    def test_intersecting_pair_detected(self):
        # beta = alpha and beta = alpha^2 share (1, 1): Tr(D D^T) = d across
        # the two curves, which violates cross-set orthogonality
        bad = V.check_trace_orthogonality(
            F4, [ray(F4, 1), C.point_set(F4, C.curve_from_phi(F4, [0, 1]))])
        assert ((1, 1), (1, 1)) in bad


class TestUnbiasedness:
    def test_gf4_atlas_exact(self):
        bundle = B.ray_bundle(F4)
        for c1, c2 in itertools.combinations(bundle.curves, 2):
            b1, b2 = V.eigenbasis(F4, c1), V.eigenbasis(F4, c2)
            assert V.check_unbiased(F4, b1, b2)
            assert set(V.unbiasedness_overlaps(b1, b2)) == {Fraction(1, 4)}

    def test_gram_refuses_possible_int64_overflow(self):
        small = np.ones((4, 4), dtype=np.int64)
        big = small << 20           # 8 d^3 (2^20 * 2^20)^2 >= 2^63 at d = 4
        assert V._gram(small, small, small, small)[0].tolist() == [[8] * 4] * 4
        with pytest.raises(OverflowError):
            V._gram(big, small, big, small)

    def test_same_basis_delta_pattern(self):
        b1 = V.eigenbasis(F4, ray(F4, 1))
        got = [u.overlap_sq(v) for u in b1.vectors for v in b1.vectors]
        assert got.count(1) == 4 and got.count(0) == 12

    def test_verify_atlas_report(self):
        # the beta = 0 ray, whose eigenbasis is the computational basis, is one of the curves
        curves = B.ray_bundle(F4).curves
        assert ray(F4, 0) in curves
        rep = V.verify_atlas(F4, curves)
        assert rep.ok and rep.num_bases == 5 and rep.failures == ()

    def test_verify_atlas_flags_biased_pair(self):
        # beta = alpha and beta = alpha^2 share the point (1, 1), so the two
        # bases share an eigenvector and cannot be unbiased
        rep = V.verify_atlas(
            F4, [ray(F4, 1), C.point_set(F4, C.curve_from_phi(F4, [0, 1]))])
        assert not rep.trace_orthogonal
        assert not rep.unbiased and rep.failures == ((0, 1),)

    def test_verify_atlas_skips_identical_point_sets(self):
        rep = V.verify_atlas(F4, [ray(F4, 0), ray(F4, 0)])
        # a repeated curve is not compared with itself; its labels still collide
        assert rep.unbiased and rep.failures == () and rep.num_bases == 2
        assert not rep.trace_orthogonal


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([F4, F8]), st.booleans(), st.data())
def test_pairs_unbiased_exactly_when_disjoint(F, disjoint, data):
    # intersecting pairs are the negative control: they must fail
    atlas = ATLASES[F.n]
    c1 = data.draw(st.sampled_from(atlas))
    c2 = data.draw(st.sampled_from(
        [c for c in atlas if c != c1 and C.nonintersecting(c1, c) == disjoint]))
    b1, b2 = V.eigenbasis(F, c1), V.eigenbasis(F, c2)
    assert V.check_unbiased(F, b1, b2) == disjoint
    overlaps = set(V.unbiasedness_overlaps(b1, b2))
    assert (overlaps == {Fraction(1, F.order)}) == disjoint


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([F2, F4, F8, make_field(4), make_field(5)]), st.data())
def test_random_lagrangians_give_exact_eigenbases(F, data):
    """(A, M) drawn directly, not from the atlas: A from an echelon basis with
    random lower bits, M a random symmetric binary matrix, T and the dual
    lifts g_i from one trace pairing, curve {(a, f_M(a) + t)}."""
    d = F.order
    r = data.draw(st.integers(0, F.n))
    pivots = sorted(data.draw(st.permutations(range(F.n)))[:r])
    basis = [1 << p | data.draw(st.integers(0, (1 << p) - 1)) for p in pivots]
    M = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            M[i][j] = M[j][i] = data.draw(st.integers(0, 1))
    pairing = trace_pairing(F, basis)
    g = [pairing.index(1 << i) for i in range(r)]
    pts = {(0, t) for t, word in enumerate(pairing) if not word}
    for j, a in enumerate(basis):
        fa = 0
        for i in range(r):
            fa ^= g[i] if M[i][j] else 0
        pts |= {(x ^ a, y ^ fa) for x, y in pts}
    curve = C.assert_admissible(F, pts)
    b = V.eigenbasis(F, curve)
    assert b.re.shape == b.im.shape == (d, d)
    norms = (b.re * b.re + b.im * b.im).sum(axis=0)
    assert norms.tolist() == [1 << int(e) for e in b.norm_exps]
    assert not (b.re.T @ b.im - b.im.T @ b.re).any()
    assert np.array_equal(b.re.T @ b.re + b.im.T @ b.im, np.diag(norms))
    if F.n > 1:  # at n = 1 every 2-point set {0, q} is a Lagrangian
        p = data.draw(st.sampled_from(sorted(curve - {(0, 0)})))
        q = data.draw(st.sampled_from(
            [(x, y) for x in F.elements() for y in F.elements() if (x, y) not in curve]))
        with pytest.raises((NotAnAdmissibleCurve, NotCommutative)):
            V.eigenbasis(F, (curve - {p}) | {q})


class TestVerifyBundle:
    def test_gf4_report(self):
        rep = V.verify_bundle(F4, B.ray_bundle(F4).curves)
        assert rep.ok
        assert rep.n == 2
        assert rep.structure == (3, 2)
        assert len(rep.operator_table) == 3
        assert all(len(row) == 5 for row in rep.operator_table)

    def test_gf8_report(self):
        rep = V.verify_bundle(F8, B.ray_bundle(F8).curves)
        assert rep.ok
        assert rep.structure == (3, 0, 6)
        assert len(rep.operator_table) == 7
        assert all(len(row) == 9 for row in rep.operator_table)

    def test_table_glyphs(self):
        rep = V.verify_bundle(F4, B.ray_bundle(F4).curves)
        flat = {g for row in rep.operator_table for g in row}
        assert flat <= {a + b for a in "1ZXY" for b in "1ZXY"} - {"11"}
