"""Exact dense-matrix verification: operators, eigenbases, unbiasedness."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mubcurves.errors import InputError, NotAnAdmissibleCurve, NotCommutative
from mubcurves import bundles as B
from mubcurves import curves as C
from mubcurves import pauli as P
from mubcurves import verify as V
from mubcurves.field import echelon_basis, make_field, modulus_from_bits, subgroup_span

from monomials import coords, monomial, monomial_square_sign
from strategies import lagrangians
from test_pauli import BUNDLES, regular_tail

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


def basis_index(F, c):
    """Computational-basis index of field element c: its selfdual-coordinate
    word, qubit 1 the most significant bit."""
    return F.coord_bits[c]


def loop_dense_monomial(F, alpha, beta):
    """Oracle: Z_alpha X_beta as a signed permutation matrix, entry by entry
    with `F.mul` and `F.character`:
    Z_alpha X_beta |c> = chi((c + beta) alpha) |c + beta>."""
    d = F.order
    M = np.zeros((d, d), dtype=np.int64)
    for c in F.elements():
        M[basis_index(F, c ^ beta), basis_index(F, c)] = F.character(F.mul(c ^ beta, alpha))
    return M


# n = 1..5 under the default moduli, and one other modulus for n = 3 and 4
ORACLE_FIELDS = [F2, F4, F8, make_field(4), make_field(5),
                 make_field(3, modulus_from_bits("1101")), make_field(4, modulus_from_bits("11001"))]
ORACLE_IDS = ["n1", "n2", "n3", "n4", "n5", "n3-1101", "n4-11001"]
# the atlas fields among them: n = 1..4, both moduli at n = 3 and 4
ATLAS_FIELDS = [F for F in ORACLE_FIELDS if F.n < 5]
ATLAS_IDS = [i for i, F in zip(ORACLE_IDS, ORACLE_FIELDS) if F.n < 5]


_SZ = np.array([[1, 0], [0, -1]], dtype=np.int64)
_SX = np.array([[0, 1], [1, 0]], dtype=np.int64)


def dense_from_bits(z_bits, x_bits):
    """Tensor product of per-qubit sigma_z^a sigma_x^b factors (no i phases)."""
    M = np.array([[1]], dtype=np.int64)
    for zb, xb in zip(z_bits, x_bits):
        f = np.eye(2, dtype=np.int64)
        if zb:
            f = f @ _SZ
        if xb:
            f = f @ _SX
        M = np.kron(M, f)
    return M


def tensor_phase(F, alpha, beta):
    """Sign s with Z_alpha X_beta = s * (tensor product of per-qubit factors).

    Both sides are real signed permutations, so the only possible global
    phases are +1 and -1.
    """
    m = monomial(F, alpha, beta)
    M1 = loop_dense_monomial(F, alpha, beta)
    M2 = dense_from_bits(m.z_bits, m.x_bits)
    if np.array_equal(M1, M2):
        return 1
    if np.array_equal(M1, -M2):
        return -1
    raise InputError(f"monomial {(alpha, beta)} is not proportional to its tensor form")


def eigenphase_exponent(F, vec, p):
    """The exponent e in 0..3 with Z_alpha X_beta v = i^e v."""
    D = loop_dense_monomial(F, *p)
    re = np.asarray(vec.re, dtype=object)
    im = np.asarray(vec.im, dtype=object)
    wre = D @ re
    wim = D @ im
    for e, (fr, fi) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
        if (np.array_equal(wre, fr * re - fi * im)
                and np.array_equal(wim, fr * im + fi * re)):
            return e
    raise NotCommutative(f"vector is not an eigenvector of monomial {p}")


# -- oracles: the splitting eigenbasis and the int64 Gram --------------------------


def splitting_signs(F, alphas):
    """Row k, column r: (-1)^popcount(r & w), w the selfdual word of
    alphas[k]; the diagonal of Z_alphas[k], qubit 1 the most significant bit."""
    words = np.array([F.coord_bits[a] for a in alphas], dtype=np.int64)
    # bitwise_count gives uint8, in which 1 - 2 * 1 would wrap to 255
    odd = (np.bitwise_count(words[:, None] & np.arange(F.order)) & 1).astype(np.int64)
    return 1 - 2 * odd


def int64_gram(ar, ai, br, bi, a, b):
    """Real and imaginary parts of A^dag B for integer column matrices whose
    entries are at most a and b in absolute value, in int64 arithmetic.

    Refuses inputs whose Gram entries g could overflow int64, including the
    later d * |g|^2 of the unbiasedness test: |Re g|, |Im g| <= 2 d a b, so
    d |g|^2 <= 8 d^3 a^2 b^2.
    """
    d = ar.shape[0]
    if 8 * d ** 3 * (a * b) ** 2 >= 1 << 63:
        raise OverflowError(f"Gram entries of {d}-dimensional vectors could overflow int64")
    return ar.T @ br + ai.T @ bi, ar.T @ bi - ai.T @ br


def splitting_eigenbasis(F, points):
    """Oracle for `eigenbasis`: the identity split by one generator at a time.

    The identity is split by one generator monomial at a time: for D with
    D^2 = I each column v gives v +- D v, for D^2 = -I it gives v -+ i D v.
    After k generators every column is 2^k P e_j for a joint eigenprojector
    P and a basis vector e_j, so two columns with the same label are either
    proportional or supported on disjoint cosets; one column per label and
    leading row is kept.  Columns are reduced by the gcd of their entries and
    sorted by their tuple of eigenvalue exponents, so the result is
    deterministic.  The result is checked exactly: d one-dimensional
    eigenspaces, power-of-2 norms, orthogonal columns, and each column a
    joint eigenvector with its label.
    """
    pts = C.assert_admissible(F, points)
    d = F.order
    re = np.eye(d, dtype=np.int64)
    im = np.zeros((d, d), dtype=np.int64)
    codes = np.zeros(d, dtype=np.int64)     # labels as base-4 numbers
    gens = [(g >> F.n, g & F.order - 1) for g in pts.gens]
    # generator j maps the columns x to sign[j] * x[perm[j]]
    sign = splitting_signs(F, [a for a, _ in gens])[:, :, None]
    perm = np.arange(d) ^ np.array([F.coord_bits[b] for _, b in gens])[:, None]
    # entries stay within 2^len(gens) = d in absolute value: no int64 overflow
    for j, g in enumerate(gens):
        dre, dim = sign[j] * re[perm[j]], sign[j] * im[perm[j]]
        if monomial_square_sign(F, *g) == 1:
            # D^2 = I: v + Dv has eigenvalue +1, v - Dv has -1
            re = np.hstack([re + dre, re - dre])
            im = np.hstack([im + dim, im - dim])
            exps = (0, 2)
        else:
            # D^2 = -I: v + iDv has eigenvalue -i, v - iDv has +i
            re = np.hstack([re - dim, re + dim])
            im = np.hstack([im + dre, im - dre])
            exps = (3, 1)
        codes = np.concatenate([4 * codes + exps[0], 4 * codes + exps[1]])
        re, im, codes = distinct_columns(re, im, codes)
    codes, order, dims = np.unique(codes, return_index=True, return_counts=True)
    if len(codes) != d or dims.max() != 1:
        raise NotCommutative(f"{len(codes)} common eigenspaces, of dimension up to "
                             f"{dims.max()}; generators do not split fully")
    re, im = re[:, order], im[:, order]
    g = np.gcd.reduce(np.vstack([re, im]), axis=0)
    re, im = re // g, im // g
    norm_exps = []
    for norm2 in (re * re + im * im).sum(axis=0).tolist():
        e = norm2.bit_length() - 1
        if norm2 != 1 << e:
            raise InputError(f"eigenvector norm^2 = {norm2} is not a power of 2")
        norm_exps.append(e)
    norm_exps = np.array(norm_exps, dtype=np.int64)
    # row j: the exponent e with D_j v = i^e v, per column v
    labels = (codes >> 2 * np.arange(len(gens) - 1, -1, -1)[:, None]) & 3
    basis = V.MubBasis(pts, tuple(map(tuple, labels.T.tolist())), re, im, norm_exps)
    gre, gim = int64_gram(re, im, re, im, basis.entry_bound, basis.entry_bound)
    if gim.any() or not np.array_equal(gre, np.diag(np.left_shift(1, norm_exps))):
        raise NotCommutative("eigenbasis columns are not orthogonal")
    for j, e in enumerate(labels):
        cos, sin = np.array([1, 0, -1, 0])[e], np.array([0, 1, 0, -1])[e]
        if not (np.array_equal(sign[j] * re[perm[j]], cos * re - sin * im)
                and np.array_equal(sign[j] * im[perm[j]], sin * re + cos * im)):
            raise NotCommutative("eigenbasis columns are not joint eigenvectors")
    return basis


def distinct_columns(re, im, codes):
    """Drop zero columns and all but the first column per (label, leading row)."""
    nonzero = (re != 0) | (im != 0)
    live = np.flatnonzero(nonzero.any(axis=0))
    key = codes[live] * re.shape[0] + nonzero[:, live].argmax(axis=0)
    keep = live[np.sort(np.unique(key, return_index=True)[1])]
    return re[:, keep], im[:, keep], codes[keep]


def int64_unbiased(F, b1, b2):
    """Oracle for `check_unbiased`: the cross Gram in int64 arithmetic."""
    re, im = int64_gram(b1.re, b1.im, b2.re, b2.im, b1.entry_bound, b2.entry_bound)
    want = np.left_shift(1, b1.norm_exps[:, None] + b2.norm_exps[None, :])
    return bool(np.array_equal(F.order * (re * re + im * im), want))


def pairwise_failures(F, curves):
    """Oracle for `verify_atlas(...).failures`: one int64 product per pair,
    identical point sets skipped."""
    bases = [V.eigenbasis(F, c) for c in curves]
    return tuple((i, j) for i, j in itertools.combinations(range(len(bases)), 2)
                 if bases[i].points != bases[j].points
                 and not int64_unbiased(F, bases[i], bases[j]))


def assert_same_basis(got, want):
    """Equal labels in the same order, equal norm exponents, and each column
    the oracle's times one unit in {1, -1, i, -i}."""
    assert got.labels == want.labels
    assert np.array_equal(got.norm_exps, want.norm_exps)
    units = [(want.re, want.im), (-want.re, -want.im), (-want.im, want.re), (want.im, -want.re)]
    match = [((got.re == re) & (got.im == im)).all(axis=0) for re, im in units]
    assert np.logical_or.reduce(match).all()


class TestDenseOperators:
    def test_single_qubit(self):
        assert np.array_equal(V.dense_monomial(F2, 1, 0), [[1, 0], [0, -1]])
        assert np.array_equal(V.dense_monomial(F2, 0, 1), [[0, 1], [1, 0]])

    def test_z_is_diagonal_x_is_permutation(self):
        for F in (F4, F8):
            for a in F.elements():
                Z = V.dense_monomial(F, a, 0)
                assert np.array_equal(Z, np.diag(np.diag(Z)))
                X = np.abs(V.dense_monomial(F, 0, a))
                assert np.array_equal(X @ X.T, np.eye(F.order, dtype=np.int64))

    def test_monomial_is_z_times_x(self):
        for F in (F4, F8):
            for a, b in itertools.product(F.elements(), repeat=2):
                got = V.dense_monomial(F, a, b)
                assert np.array_equal(got, V.dense_monomial(F, a, 0) @ V.dense_monomial(F, 0, b))

    def test_unitary(self):
        for a, b in itertools.product(F8.elements(), repeat=2):
            M = V.dense_monomial(F8, a, b)
            assert np.array_equal(M @ M.T, np.eye(8, dtype=np.int64))

    def test_square_sign(self):
        for a, b in itertools.product(F8.elements(), repeat=2):
            M = V.dense_monomial(F8, a, b)
            s = monomial_square_sign(F8, a, b)
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
                assert tensor_phase(F, a, b) in (-1, 1)

    def test_tensor_phase_examples(self):
        # Z_sigma X_sigma^2 acts as sigma_z (x) sigma_x with no extra sign
        assert tensor_phase(F4, s4(1), s4(2)) == 1

    def test_basis_index_msb(self):
        # qubit 1 is the most significant coordinate bit
        for c in F4.elements():
            bits = coords(F4, c)
            assert basis_index(F4, c) == 2 * bits[0] + bits[1]
        # so Z on qubit q flips the sign of the rows with bit n - q set
        for q, theta in enumerate(F4.selfdual_basis):
            assert np.diag(V.dense_monomial(F4, theta, 0)).tolist() == [
                1 - 2 * (r >> (1 - q) & 1) for r in range(4)]

    @pytest.mark.parametrize("F", ORACLE_FIELDS, ids=ORACLE_IDS)
    def test_signed_permutation_matches_loop_oracle(self, F):
        for a, b in itertools.product(F.elements(), repeat=2):
            assert np.array_equal(V.dense_monomial(F, a, b), loop_dense_monomial(F, a, b))


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
                    assert eigenphase_exponent(F8, v, p) in range(4)

    @pytest.mark.parametrize("F", [F2, F4, F8, make_field(4, modulus_from_bits("10011")),
                                   make_field(4, modulus_from_bits("11001"))],
                             ids=["n1", "n2", "n3", "n4-10011", "n4-11001"])
    def test_atlas_against_exact_oracle(self, F):
        """Python-integer eigenphases, norms and overlaps of every column,
        not the numpy Gram: what `eigenbasis` proves of its translates
        rather than checks.  At n = 4, 300 of the 2,295 curves, seeded."""
        atlas = ATLASES[F.n] if F.n < 4 else random.Random(4).sample(C.enumerate_curves(F), 300)
        for pts in atlas:
            basis = V.eigenbasis(F, pts)
            gens = [(g >> F.n, g & F.order - 1) for g in C.assert_admissible(F, pts).gens]
            vecs = basis.vectors
            assert len(vecs) == F.order
            for v, label in zip(vecs, basis.labels):
                assert tuple(eigenphase_exponent(F, v, g) for g in gens) == label
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
            pts = C._trusted(F4, pts, (0b0110, 0b1001))
            assert C.assert_admissible(F4, pts) is pts
        with pytest.raises(NotCommutative):
            V.eigenbasis(F4, pts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_non_isotropic_subgroup_rejected(self, n):
        """Every subgroup of order 2^n that is not isotropic, passed as if
        validated.  Some pass the labels check and only the joint-eigenvector
        check on the cut-out vector rejects them, such as {(0, 0), (1, 0), (2, 2),
        (3, 2)} at n = 2, generated by ZZ and Y1: e_0 is cut down to
        (|0> - i|1>)|0>, whose translates by the complement are orthogonal and
        distinctly labelled, but which is no eigenvector of ZZ."""
        F = make_field(n)
        low, found = F.order - 1, 0
        for basis in {echelon_basis(g) for g in itertools.combinations(range(1, 1 << 2 * n), n)}:
            pts = frozenset((w >> n, w & low) for w in subgroup_span(basis))
            if len(basis) < n or C.is_commutative(F, pts):
                continue
            found += 1
            with pytest.raises(NotCommutative):
                V.eigenbasis(F, C._trusted(F, pts, basis))
        assert found == {2: 20, 3: 1260}[n]

    @pytest.mark.parametrize("n", [2, 3])
    def test_dependent_generators_fail_the_label_check(self, n):
        """Negative control for the distinct-labels check: an isotropic
        curve whose generator rows are passed with one row repeated.  Its
        cut-out vector is a joint eigenvector of a good norm, so only the
        labels, too few to tell the d translates apart, reject it."""
        F = make_field(n)
        pts = C.assert_admissible(F, ray(F, 1))
        gens = pts.gens[:-1] + pts.gens[:1]
        with pytest.raises(NotCommutative, match="distinct labels"):
            V.eigenbasis(F, C._trusted(F, pts, gens))

    def test_labels_sorted_and_distinct(self):
        basis = V.eigenbasis(F4, ray(F4, 1))
        assert list(basis.labels) == sorted(set(basis.labels))

    @pytest.mark.parametrize("F", ATLAS_FIELDS, ids=ATLAS_IDS)
    def test_closed_form_matches_splitting_oracle(self, F):
        for pts in C.enumerate_curves(F):
            assert_same_basis(V.eigenbasis(F, pts), splitting_eigenbasis(F, pts))


F32 = make_field(5)
# the bundles of `test_pauli` and the two built at n = 5
BUNDLES_TO_N5 = {**BUNDLES, "rays-n5": (5, B.ray_bundle),
                 "tail-n5": (5, lambda F: B.build_regular_bundle(F, regular_tail(F)))}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lagrangians(F32))
def test_closed_form_matches_splitting_oracle_at_n5(curve):
    assert_same_basis(V.eigenbasis(F32, curve), splitting_eigenbasis(F32, curve))


def batch_bases(F, curves):
    """Per curve: the labels, re, im and norm exponent that the batched pass
    over all of `curves` gives, put together as `eigenbasis` does."""
    table = V._signs(np.arange(F.order), F.order)
    v, w, e, codes, u, t = V._stabilizer_states(F, curves, table)
    shifts = 2 * np.arange(F.n - 1, -1, -1)
    for k in range(len(curves)):
        labels = tuple(map(tuple, (codes[k, :, None] >> shifts & 3).tolist()))
        yield (labels, *V._translates(table, v[k], w[k], u[k], t[k]), int(e[k]))


def non_isotropic_curves(F, rng):
    """Subgroups of order 2^n that are not isotropic, passed as if validated,
    from random reduced echelon bases."""
    low = F.order - 1
    while True:
        basis = echelon_basis(rng.randrange(1, 1 << 2 * F.n) for _ in range(F.n))
        pts = frozenset((w >> F.n, w & low) for w in subgroup_span(basis))
        if len(basis) == F.n and not C.is_commutative(F, pts):
            yield C._trusted(F, pts, basis)


NOT_EIGEN = "the cut-out vector is not a joint eigenvector"


def raised(f, *args):
    """The exception type and message of a call that must raise."""
    with pytest.raises((NotCommutative, InputError)) as info:
        f(*args)
    return type(info.value), str(info.value)


class TestBatchedStates:
    @pytest.mark.parametrize("F", ATLAS_FIELDS, ids=ATLAS_IDS)
    def test_batch_over_the_atlas_equals_eigenbasis(self, F):
        """One pass over the whole atlas gives every curve the labels,
        columns and norm of `eigenbasis` on that curve alone."""
        atlas = C.enumerate_curves(F)
        for c, (labels, re, im, e) in zip(atlas, batch_bases(F, atlas), strict=True):
            b = V.eigenbasis(F, c)
            assert labels == b.labels
            assert np.array_equal(re, b.re) and np.array_equal(im, b.im)
            assert (b.norm_exps == e).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bad_curve_mid_list_raises_as_alone(self, n):
        """A `_trusted` curve with a repeated generator row, and a
        non-isotropic one, each in the middle of a 2^n + 1 list: the
        batch raises what `eigenbasis` raises on that curve alone."""
        F, rng = make_field(n), random.Random(n)
        bundle = list(B.ray_bundle(F).curves)
        mid = len(bundle) // 2
        ray = bundle[mid]
        dependent = C._trusted(F, ray, ray.gens[:-1] + ray.gens[:1])
        for bad in (dependent, *itertools.islice(non_isotropic_curves(F, rng), 20)):
            alone = raised(V.eigenbasis, F, bad)
            assert raised(V.verify_atlas, F, bundle[:mid] + [bad] + bundle[mid + 1:]) == alone

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_bad_curve_in_list_order_raises(self, n):
        """Two bad curves in one list, failing different checks: whichever
        comes first raises, as `eigenbasis` does on it alone."""
        F, rng = make_field(n), random.Random(10 + n)
        bundle = list(B.ray_bundle(F).curves)
        ray = bundle[1]
        dependent = C._trusted(F, ray, ray.gens[:-1] + ray.gens[:1])
        assert "distinct labels" in raised(V.eigenbasis, F, dependent)[1]
        anticommuting = next(c for c in non_isotropic_curves(F, rng)
                             if raised(V.eigenbasis, F, c)[1] == NOT_EIGEN)
        for first, second in ((dependent, anticommuting), (anticommuting, dependent)):
            curves = [first if k == 2 else second if k == len(bundle) - 2 else c
                      for k, c in enumerate(bundle)]
            assert raised(V.verify_atlas, F, curves) == raised(V.eigenbasis, F, first)

    @pytest.mark.parametrize("n", [3, 4])
    def test_eigenvector_check_comes_before_the_labels_check(self, n):
        """Generator rows (g0, g1, g0, ...) with g0 and g1 anticommuting: the
        last cut by g0 leaves no eigenvector of g1, and the repeated row
        leaves too few labels; the eigenvector check raises."""
        F, rng = make_field(n), random.Random(20 + n)
        low = F.order - 1
        pts = next(c for c in non_isotropic_curves(F, rng)
                   if C.symplectic_trace(F, *((g >> n, g & low) for g in c.gens[:2])))
        both = C._trusted(F, pts, pts.gens[:2] + pts.gens[:1] + pts.gens[3:])
        bundle = list(B.ray_bundle(F).curves)
        for f, args in ((V.eigenbasis, both), (V.verify_atlas, bundle[:3] + [both] + bundle[4:])):
            assert raised(f, F, args) == (NotCommutative, NOT_EIGEN)


def dense_trace_violations(F, curves):
    """Reference: Tr(D_p D_q^T) of dense matrices for every pair of labels."""
    labelled = [(i, p) for i, c in enumerate(curves) for p in sorted(c) if p != (0, 0)]
    dense = {p: loop_dense_monomial(F, *p) for _, p in labelled}
    bad = []
    for (i, p), (j, q) in itertools.combinations_with_replacement(labelled, 2):
        t = int(np.trace(dense[p] @ dense[q].T))
        if t != (F.order if (i, p) == (j, q) else 0):
            bad.append((p, q))
    return bad


def sign_gram_trace_violations(F, curves):
    """Oracle: the traces as integer Gram matrices of sign rows, one per
    X-part beta.  Z_alpha X_beta is the sign row of Z_alpha on the
    permutation of X_beta, so monomials with different beta have disjoint
    supports and trace 0; within one beta, Tr(D D'^dag) is the dot product
    of the two sign rows, which must be d on the diagonal and 0 off it.
    Violating label pairs come in (a, b) order of their positions."""
    d = F.order
    labelled = [p for c in curves for p in sorted(c) if p != (0, 0)]
    by_beta = {}
    for k, (_, beta) in enumerate(labelled):
        by_beta.setdefault(beta, []).append(k)
    bad = []
    for ks in by_beta.values():
        signs = V._signs([F.coord_bits[labelled[k][0]] for k in ks], d)
        wrong = signs @ signs.T != d * np.eye(len(ks), dtype=np.int64)
        bad += [(ks[r], ks[c]) for r, c in zip(*np.nonzero(np.triu(wrong)))]
    return [(labelled[a], labelled[b]) for a, b in sorted(bad)]


def genuine_bundles(F):
    """The ray bundle, and the regular-tail bundle where one exists (n >= 2)."""
    bundles = [list(B.ray_bundle(F).curves)]
    if F.n > 1:
        bundles.append(list(B.build_regular_bundle(F, regular_tail(F)).curves))
    return bundles


def intersecting_controls(F, atlas, rng, count):
    """Negative controls from genuine bundles: one curve swapped for a copy
    of another member, and one swapped for an atlas curve that meets another
    member away from the origin (at n = 1 the ray bundle is the atlas, so
    there is no such curve)."""
    out, bundles = [], genuine_bundles(F)
    for _ in range(count):
        curves = rng.choice(bundles)
        swap = rng.randrange(len(curves))
        rest = curves[:swap] + curves[swap + 1:]
        out.append(rest[:swap] + [rng.choice(rest)] + rest[swap:])
        if F.n > 1:
            intruder = rng.choice(atlas)
            while intruder in curves or C.all_nonintersecting(rest + [intruder]):
                intruder = rng.choice(atlas)
            out.append(rest[:swap] + [intruder] + rest[swap:])
    return out


class TestTraceOrthogonality:
    @pytest.mark.parametrize("F", [F4, F8, make_field(4)], ids=["n2", "n3", "n4"])
    def test_grouped_matches_dense_reference(self, F):
        rng = random.Random(F.n)
        atlas = ATLASES.get(F.n) or C.enumerate_curves(F)
        lists = [B.ray_bundle(F).curves, B.ray_bundle(F).curves[:2] * 2]
        if F.n < 4:
            lists += [rng.sample(atlas, rng.randrange(1, F.order + 2)) for _ in range(40)]
        else:   # the dense products cost d^3 per label pair: a few lists
            lists += [rng.sample(atlas, rng.randrange(2, 6)) for _ in range(3)]
            lists += intersecting_controls(F, atlas, rng, 1)
        failing = 0
        for curves in lists:
            want = dense_trace_violations(F, curves)
            assert V.check_trace_orthogonality(F, curves) == want
            failing += bool(want)
            # intersecting curves share a nonidentity label: a negative control
            assert bool(want) == (not C.all_nonintersecting(curves)
                                  or len(set(curves)) < len(curves))
        assert 0 < failing < len(lists)

    @pytest.mark.parametrize("F", ATLAS_FIELDS, ids=ATLAS_IDS)
    def test_label_count_matches_sign_gram(self, F):
        """Bundles, the empty list, seeded atlas samples and negative
        controls: the label count gives the sign-row Gram's list."""
        rng = random.Random(30 + F.n)
        atlas = ATLASES.get(F.n) or C.enumerate_curves(F)
        lists = [[], *genuine_bundles(F), *intersecting_controls(F, atlas, rng, 10)]
        lists += [rng.sample(atlas, rng.randrange(1, min(len(atlas), F.order + 2) + 1))
                  for _ in range(20)]
        failing = 0
        for curves in lists:
            want = sign_gram_trace_violations(F, curves)
            assert V.check_trace_orthogonality(F, curves) == want
            failing += bool(want)
        assert failing >= (20 if F.n > 1 else 10)

    def test_bundle_passes(self):
        assert V.check_trace_orthogonality(F4, B.ray_bundle(F4).curves) == []

    def test_intersecting_pair_detected(self):
        # beta = alpha and beta = alpha^2 share (1, 1): Tr(D D^T) = d across
        # the two curves, which violates cross-set orthogonality
        bad = V.check_trace_orthogonality(
            F4, [ray(F4, 1), C.point_set(F4, C.curve_from_phi(F4, [0, 1]))])
        assert ((1, 1), (1, 1)) in bad


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_label_count_matches_sign_gram_at_n5(data):
    """n = 5, where the atlas is too large to sample: a genuine bundle, the
    same with drawn Lagrangians inserted, and with a member repeated."""
    bundle = data.draw(st.sampled_from(genuine_bundles(F32)))
    curves = list(bundle)
    for c in data.draw(st.lists(lagrangians(F32), min_size=1, max_size=3)):
        curves.insert(data.draw(st.integers(0, len(curves))), c)
    repeated = list(bundle)
    repeated.insert(data.draw(st.integers(0, len(bundle))), data.draw(st.sampled_from(bundle)))
    assert V.check_trace_orthogonality(F32, bundle) == sign_gram_trace_violations(F32, bundle) == []
    for controls in (curves, repeated):
        want = sign_gram_trace_violations(F32, controls)
        assert want and V.check_trace_orthogonality(F32, controls) == want


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
        assert V._gram(small, small, small, small, 1, 1)[0].tolist() == [[8] * 4] * 4
        with pytest.raises(OverflowError):
            V._gram(big, small, big, small, 1 << 20, 1 << 20)

    def test_entry_bound_is_the_largest_entry(self):
        for F in (F4, F8):
            for c in B.ray_bundle(F).curves:
                b = V.eigenbasis(F, c)
                assert b.entry_bound == max(np.abs(b.re).max(), np.abs(b.im).max())

    def test_hand_built_basis_cannot_slip_past_the_overflow_check(self):
        """The bound is read off the entries, never supplied, so a MubBasis
        built outside `eigenbasis` with huge entries is still refused."""
        b = V.eigenbasis(F4, ray(F4, 1))
        with pytest.raises(TypeError):
            V.MubBasis(b.points, b.labels, b.re, b.im, b.norm_exps, 1)
        big = V.MubBasis(b.points, b.labels, b.re << 20, -(b.im << 20), b.norm_exps)
        assert big.entry_bound == b.entry_bound << 20
        with pytest.raises(OverflowError):
            V.check_unbiased(F4, big, big)

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
        curves = [ray(F4, 0), ray(F4, 0)]
        rep = V.verify_atlas(F4, curves)
        # a repeated curve is not compared with itself; its labels still collide
        assert rep.unbiased and rep.failures == () and rep.num_bases == 2
        assert not rep.trace_orthogonal
        assert rep.failures == pairwise_failures(F4, curves)

    @pytest.mark.parametrize("d", range(2, 33))
    def test_float_gram_is_exact_at_the_bound(self, d):
        """Entries at the largest bounds `_gram` admits, equal and lopsided:
        every Gram entry equals the Python-integer product, and one step past
        the bound is refused."""
        rng = np.random.default_rng(d)
        most = math.isqrt(((1 << 63) - 1) // (8 * d ** 3))    # the largest a b admitted
        for a in (math.isqrt(most), 1):
            b = most // a
            assert 8 * d ** 3 * (a * b) ** 2 < 1 << 63 <= 8 * d ** 3 * (a * (b + 1)) ** 2
            mats = [a * rng.choice([-1, 1], (d, d)), a * rng.choice([-1, 1], (d, d)),
                    b * rng.choice([-1, 1], (d, d)), b * rng.choice([-1, 1], (d, d))]
            # all entries +a and +b: every partial sum is as large as it can be
            for ar, ai, br, bi in (mats, [np.full((d, d), a)] * 2 + [np.full((d, d), b)] * 2):
                re, im = V._gram(ar, ai, br, bi, a, b)
                assert re.dtype == im.dtype == np.int64
                o = [m.astype(object) for m in (ar, ai, br, bi)]
                assert (re == o[0].T @ o[2] + o[1].T @ o[3]).all()
                assert (im == o[0].T @ o[3] - o[1].T @ o[2]).all()
            with pytest.raises(OverflowError):
                V._gram(ar, ai, br, bi, a, b + 1)

    @pytest.mark.parametrize("case", BUNDLES_TO_N5)
    def test_row_blocks_match_int64_pairs(self, case):
        n, build = BUNDLES_TO_N5[case]
        F = make_field(n)
        curves = build(F).curves
        rep = V.verify_atlas(F, curves)
        assert rep.failures == pairwise_failures(F, curves) == ()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_row_blocks_match_int64_pairs_on_negative_controls(self, n):
        """A genuine bundle with one curve swapped for an atlas curve that
        meets another member: the failures name the same pairs.  Intruders
        are drawn from the whole atlas until one qualifies, as listing the
        qualifying curves of the n = 5 atlas would be slow."""
        F, rng = make_field(n), random.Random(n)
        atlas = ATLASES.get(n) or C.enumerate_curves(F)
        builds = [build for m, build in BUNDLES_TO_N5.values() if m == n]
        for _ in range(20):
            curves = list(rng.choice(builds)(F).curves)
            swap = rng.randrange(len(curves))
            rest = curves[:swap] + curves[swap + 1:]
            intruder = rng.choice(atlas)
            while intruder in curves or C.all_nonintersecting(rest + [intruder]):
                intruder = rng.choice(atlas)
            curves[swap] = intruder
            rep = V.verify_atlas(F, curves)
            assert rep.failures and rep.failures == pairwise_failures(F, curves)

    def test_failures_in_combinations_order(self):
        """Many biased pairs with different second indices, so a list kept
        in the order the pairs are found would differ from the oracle's."""
        curves = ATLASES[3][:16]
        rep = V.verify_atlas(F8, curves)
        assert len({j for _, j in rep.failures}) > 5
        assert rep.failures == pairwise_failures(F8, curves)

    @pytest.mark.parametrize("F", [F4, F8], ids=["n2", "n3"])
    def test_one_row_decides_a_pair(self, F):
        """The lemma behind `verify_atlas`: for every ordered pair of atlas
        curves, each column of the first basis alone (its row of the int64
        cross Gram) gives the verdict of the full `check_unbiased`."""
        bases = [V.eigenbasis(F, c) for c in ATLASES[F.n]]
        re, im = np.hstack([b.re for b in bases]), np.hstack([b.im for b in bases])
        exps = np.concatenate([b.norm_exps for b in bases])
        bound = max(b.entry_bound for b in bases)
        for b1 in bases:
            gre, gim = int64_gram(b1.re, b1.im, re, im, b1.entry_bound, bound)
            ok = F.order * (gre * gre + gim * gim) == np.left_shift(1, b1.norm_exps[:, None] + exps)
            # rows[k, j]: column k of b1 is unbiased to every column of basis j
            rows = ok.reshape(F.order, len(bases), F.order).all(axis=2)
            full = np.array([V.check_unbiased(F, b1, b2) for b2 in bases])
            assert (rows == full).all()

    def test_verify_atlas_keeps_one_basis_at_a_time(self):
        """Peak traced memory of one n = 5 call stays below what the re and
        im of all M bases take together, 2 M d^2 int64 words: no design that
        keeps every basis, or stacks them, meets it."""
        curves = B.ray_bundle(F32).curves
        V.verify_atlas(F32, curves)   # first-call set-up out of the measurement
        tracemalloc.start()
        try:
            assert V.verify_atlas(F32, curves).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(curves) * F32.order ** 2 * 8


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
    """(A, M) drawn directly, not from the atlas, by `lagrangians`."""
    d = F.order
    curve = data.draw(lagrangians(F))
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

    def test_non_isotropic_curve_raises(self):
        # Z and X on qubit 1 span an additive subgroup of order 4 whose
        # generators anticommute; no all-pairs re-check runs after this one
        theta = F4.selfdual_basis[0]
        bad = frozenset({(0, 0), (theta, 0), (0, theta), (theta, theta)})
        assert C.symplectic_trace(F4, (theta, 0), (0, theta)) == 1
        curves = list(B.ray_bundle(F4).curves)
        for i in range(len(curves)):
            with pytest.raises(NotCommutative):
                V.verify_bundle(F4, curves[:i] + [bad] + curves[i + 1:])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_disjointness_is_the_trace_verdict(self, n):
        """`nonintersecting` is read off the label count, and it agrees with
        `trace_orthogonal` and with `all_nonintersecting`, the independent
        union count, on bundles and on negative controls."""
        F, rng = make_field(n), random.Random(40 + n)
        atlas = ATLASES.get(n) or C.enumerate_curves(F)
        lists = genuine_bundles(F) + intersecting_controls(F, atlas, rng, 4)
        verdicts = []
        for curves in lists:
            rep = V.verify_bundle(F, curves)
            assert rep.nonintersecting == rep.trace_orthogonal == C.all_nonintersecting(curves)
            verdicts.append(rep.nonintersecting)
        assert verdicts == [True, True] + [False] * 8

    def test_table_glyphs(self):
        rep = V.verify_bundle(F4, B.ray_bundle(F4).curves)
        flat = {g for row in rep.operator_table for g in row}
        assert flat <= {a + b for a in "1ZXY" for b in "1ZXY"} - {"11"}
