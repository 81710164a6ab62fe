"""Exact dense-matrix verification of MUB atlases built from curves.

Operators are 2^n x 2^n signed permutation matrices held as numpy int64
arrays.  Every joint eigenvector of a curve's commuting set is a stabilizer
state: a Gaussian-integer vector whose squared norm is a power of 2
(Dehaene & De Moor, PRA 68, 042318, 2003).  Eigenbases are therefore built
by integer projector splitting on (real, imaginary) int64 matrices, and
unbiasedness is the integer identity d |<u|v>|^2 == |u|^2 |v|^2, tested on
whole cross-Gram matrices at once.  No verdict rests on a float.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NotCommutative
from .curves import Point, PointSet, all_nonintersecting, assert_admissible, point_generators
from .field import GF2n
from .pauli import bundle_structure, commutes, commuting_set, monomial

# -- dense operators ---------------------------------------------------------------


def basis_index(F: GF2n, c: int) -> int:
    """Computational-basis index of field element c: its selfdual-coordinate
    word, qubit 1 the most significant bit."""
    return F.coord_bits[c]


def dense_monomial(F: GF2n, alpha: int, beta: int) -> np.ndarray:
    """Z_alpha X_beta as a signed permutation matrix:
    Z_alpha X_beta |c> = chi((c + beta) alpha) |c + beta>."""
    d = F.order
    M = np.zeros((d, d), dtype=np.int64)
    for c in F.elements():
        M[basis_index(F, c ^ beta), basis_index(F, c)] = F.character(F.mul(c ^ beta, alpha))
    return M


def dense_z(F: GF2n, alpha: int) -> np.ndarray:
    return dense_monomial(F, alpha, 0)


def dense_x(F: GF2n, beta: int) -> np.ndarray:
    return dense_monomial(F, 0, beta)


_SZ = np.array([[1, 0], [0, -1]], dtype=np.int64)
_SX = np.array([[0, 1], [1, 0]], dtype=np.int64)


def dense_from_bits(z_bits: Sequence[int], x_bits: Sequence[int]) -> np.ndarray:
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


def monomial_square_sign(F: GF2n, alpha: int, beta: int) -> int:
    """(Z_alpha X_beta)^2 = chi(alpha beta) * identity."""
    return -1 if (F.coord_bits[alpha] & F.coord_bits[beta]).bit_count() & 1 else 1


def tensor_phase(F: GF2n, alpha: int, beta: int) -> int:
    """Sign s with Z_alpha X_beta = s * (tensor product of per-qubit factors).

    Both sides are real signed permutations, so the only possible global
    phases are +1 and -1.
    """
    m = monomial(F, alpha, beta)
    M1 = dense_monomial(F, alpha, beta)
    M2 = dense_from_bits(m.z_bits, m.x_bits)
    if np.array_equal(M1, M2):
        return 1
    if np.array_equal(M1, -M2):
        return -1
    raise InputError(f"monomial {(alpha, beta)} is not proportional to its tensor form")


# -- exact stabilizer vectors ------------------------------------------------------


@dataclass(frozen=True)
class ExactVector:
    """An integer Gaussian vector plus binary norm exponent: norm^2 = 2^e.

    The normalised state is this vector divided by 2^(e/2); keeping the
    exponent instead of the root keeps every later overlap rational.
    """

    re: tuple[int, ...]
    im: tuple[int, ...]
    norm_exp: int

    def overlap_sq(self, other: "ExactVector") -> Fraction:
        """|<self|other>|^2 as an exact Fraction."""
        re = im = 0
        for a, b, c, d in zip(self.re, self.im, other.re, other.im):
            re += a * c + b * d
            im += a * d - b * c
        return Fraction(re * re + im * im, 1 << (self.norm_exp + other.norm_exp))

    def to_complex(self) -> np.ndarray:
        scale = 2.0 ** (-self.norm_exp / 2)
        return (np.array(self.re) + 1j * np.array(self.im)) * scale


def _gram(ar: np.ndarray, ai: np.ndarray,
          br: np.ndarray, bi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of A^dag B for integer column matrices.

    Refuses inputs whose Gram entries g could overflow int64, including the
    later d * |g|^2 of the unbiasedness test: with entries at most a and b in
    absolute value, |Re g|, |Im g| <= 2 d a b, so d |g|^2 <= 8 d^3 a^2 b^2.
    """
    d = ar.shape[0]
    a = max(int(np.abs(ar).max()), int(np.abs(ai).max()))
    b = max(int(np.abs(br).max()), int(np.abs(bi).max()))
    if 8 * d ** 3 * (a * b) ** 2 >= 1 << 63:
        raise OverflowError(f"Gram entries of {d}-dimensional vectors could overflow int64")
    return ar.T @ br + ai.T @ bi, ar.T @ bi - ai.T @ br


# -- eigenbasis construction -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MubBasis:
    """An orthonormal eigenbasis of one curve's commuting monomial set.

    Column k of `re + i im` is the k-th basis vector times 2^(norm_exps[k]/2).
    """

    points: PointSet
    # per column: eigenvalue exponent tuple, one i-power per generator monomial
    labels: tuple[tuple[int, ...], ...]
    re: np.ndarray
    im: np.ndarray
    norm_exps: np.ndarray

    @property
    def vectors(self) -> tuple[ExactVector, ...]:
        return tuple(ExactVector(tuple(int(x) for x in self.re[:, k]),
                                 tuple(int(x) for x in self.im[:, k]), int(e))
                     for k, e in enumerate(self.norm_exps))


def eigenbasis(F: GF2n, points: Iterable[Point]) -> MubBasis:
    """Exact common eigenbasis of the curve's nonidentity monomials.

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
    pts = assert_admissible(F, points)
    d = F.order
    re = np.eye(d, dtype=np.int64)
    im = np.zeros((d, d), dtype=np.int64)
    codes = np.zeros(d, dtype=np.int64)     # labels as base-4 numbers
    gens = point_generators(F, pts)
    dense = [dense_monomial(F, *g) for g in gens]
    # entries stay within 2^len(gens) = d in absolute value: no int64 overflow
    for g, D in zip(gens, dense):
        dre, dim = D @ re, D @ im
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
        re, im, codes = _distinct_columns(re, im, codes)
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
    gre, gim = _gram(re, im, re, im)
    if gim.any() or not np.array_equal(gre, np.diag(np.left_shift(1, norm_exps))):
        raise NotCommutative("eigenbasis columns are not orthogonal")
    # row j: the exponent e with D_j v = i^e v, per column v
    labels = (codes >> 2 * np.arange(len(gens) - 1, -1, -1)[:, None]) & 3
    for D, e in zip(dense, labels):
        cos, sin = np.array([1, 0, -1, 0])[e], np.array([0, 1, 0, -1])[e]
        if not (np.array_equal(D @ re, cos * re - sin * im)
                and np.array_equal(D @ im, sin * re + cos * im)):
            raise NotCommutative("eigenbasis columns are not joint eigenvectors")
    return MubBasis(pts, tuple(map(tuple, labels.T.tolist())), re, im, norm_exps)


def _distinct_columns(re: np.ndarray, im: np.ndarray,
                      codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop zero columns and all but the first column per (label, leading row)."""
    nonzero = (re != 0) | (im != 0)
    live = np.flatnonzero(nonzero.any(axis=0))
    key = codes[live] * re.shape[0] + nonzero[:, live].argmax(axis=0)
    keep = live[np.sort(np.unique(key, return_index=True)[1])]
    return re[:, keep], im[:, keep], codes[keep]


def eigenphase_exponent(F: GF2n, vec: ExactVector, p: Point) -> int:
    """The exponent e in 0..3 with Z_alpha X_beta v = i^e v."""
    D = dense_monomial(F, *p)
    re = np.asarray(vec.re, dtype=object)
    im = np.asarray(vec.im, dtype=object)
    wre = D @ re
    wim = D @ im
    for e, (fr, fi) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
        if (np.array_equal(wre, fr * re - fi * im)
                and np.array_equal(wim, fr * im + fi * re)):
            return e
    raise NotCommutative(f"vector is not an eigenvector of monomial {p}")


# -- MUB checks --------------------------------------------------------------------


def check_trace_orthogonality(F: GF2n,
                              curves: Sequence[PointSet]) -> list[tuple[Point, Point]]:
    """Hilbert-Schmidt orthogonality of all monomials, within and across sets.

    Tr(D D'^dag) must equal d exactly when the two labels coincide and 0
    otherwise; the returned list holds the violating label pairs (empty on
    success), in the order of `itertools.combinations_with_replacement` over
    the labels.  Z_alpha X_beta has one nonzero entry per column c, the sign
    chi((c + beta) alpha) in row c + beta, so monomials with different beta
    have disjoint supports and trace 0, and within one beta the traces are
    the integer Gram matrix of the sign vectors.
    """
    d = F.order
    labelled = [p for c in curves for p in sorted(c) if p != (0, 0)]
    # chi(a x) = (-1)^tr(a x), the parity of the AND of the coordinate words
    chi = np.array([[1 - 2 * ((wa & wx).bit_count() & 1) for wx in F.coord_bits]
                    for wa in F.coord_bits], dtype=np.int64)
    shifts = np.arange(d)
    by_beta: dict[int, list[int]] = {}
    for k, (_, beta) in enumerate(labelled):
        by_beta.setdefault(beta, []).append(k)
    bad = []
    for beta, ks in by_beta.items():
        signs = chi[[labelled[k][0] for k in ks]][:, shifts ^ beta]
        wrong = signs @ signs.T != d * np.eye(len(ks), dtype=np.int64)
        bad += [(ks[r], ks[c]) for r, c in zip(*np.nonzero(np.triu(wrong)))]
    return [(labelled[a], labelled[b]) for a, b in sorted(bad)]


def unbiasedness_overlaps(b1: MubBasis, b2: MubBasis) -> list[Fraction]:
    return [u.overlap_sq(v) for u in b1.vectors for v in b2.vectors]


def check_unbiased(F: GF2n, b1: MubBasis, b2: MubBasis) -> bool:
    """Every cross overlap |<u|v>|^2 must equal exactly 1/2^n, tested as the
    integer identity d |<u|v>|^2 == |u|^2 |v|^2 = 2^(e_u + e_v)."""
    re, im = _gram(b1.re, b1.im, b2.re, b2.im)
    want = np.left_shift(1, b1.norm_exps[:, None] + b2.norm_exps[None, :])
    return bool(np.array_equal(F.order * (re * re + im * im), want))


@dataclass(frozen=True)
class VerificationReport:
    n: int
    num_bases: int
    trace_orthogonal: bool
    unbiased: bool
    failures: tuple[tuple[int, int], ...]   # pairs of basis indices

    @property
    def ok(self) -> bool:
        return self.trace_orthogonal and self.unbiased


@dataclass(frozen=True)
class BundleReport:
    n: int
    nonintersecting: bool
    commuting_sets_valid: bool
    trace_orthogonal: bool
    unbiased: bool
    structure: tuple[int, ...]
    operator_table: tuple[tuple[str, ...], ...]   # (2^n - 1) rows x (2^n + 1) cols

    @property
    def ok(self) -> bool:
        return (self.nonintersecting and self.commuting_sets_valid
                and self.trace_orthogonal and self.unbiased)


def verify_bundle(F: GF2n, curves: Sequence[PointSet]) -> BundleReport:
    """Full verification of a complete bundle: geometry, algebra, unbiasedness.

    The operator table lists, column per curve, the glyph labels of its
    2^n - 1 nonidentity monomials in point order.
    """
    curves = [assert_admissible(F, c) for c in curves]
    disjoint = all_nonintersecting(curves)
    sets = [commuting_set(F, c) for c in curves]
    commuting_ok = all(commutes(F, a, b)
                       for mons in sets
                       for a, b in itertools.combinations(mons, 2))
    report = verify_atlas(F, curves)
    table = tuple(tuple(m.label() for m in mons) for mons in sets)
    # transpose: one row per monomial slot, one column per curve
    table = tuple(zip(*table)) if table else ()
    return BundleReport(F.n, disjoint, commuting_ok, report.trace_orthogonal,
                        report.unbiased, bundle_structure(F, curves),
                        tuple(tuple(r) for r in table))


def verify_atlas(F: GF2n, curves: Sequence[PointSet]) -> VerificationReport:
    """Build every eigenbasis exactly and check pairwise unbiasedness."""
    curves = [assert_admissible(F, c) for c in curves]
    trace_orthogonal = not check_trace_orthogonality(F, curves)
    bases = [eigenbasis(F, c) for c in curves]
    failures = []
    for i, j in itertools.combinations(range(len(bases)), 2):
        if bases[i].points == bases[j].points:
            continue
        if not check_unbiased(F, bases[i], bases[j]):
            failures.append((i, j))
    return VerificationReport(F.n, len(bases), trace_orthogonal, not failures,
                              tuple(failures))
