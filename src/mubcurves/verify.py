"""Exact dense-matrix verification of MUB atlases built from curves.

Z_alpha X_beta is a signed permutation read off the selfdual words of alpha
and beta.  Every joint eigenvector of a curve's commuting set is a stabilizer
state: a Gaussian-integer vector whose squared norm is a power of 2
(Dehaene & De Moor, PRA 68, 042318, 2003).  Eigenbases are therefore built
by integer projector splitting on (real, imaginary) int64 matrices, and
unbiasedness is the integer identity d |<u|v>|^2 == |u|^2 |v|^2, tested on
whole cross-Gram matrices at once.  No verdict rests on a float.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NotCommutative
from .curves import Point, PointSet, all_nonintersecting, assert_admissible, point_generators
from .field import GF2n
from .pauli import bundle_structure, monomial_label

# -- dense operators ---------------------------------------------------------------


def _signs(F: GF2n, alphas: Sequence[int]) -> np.ndarray:
    """Row k, column r: (-1)^popcount(r & w), w the selfdual word of
    alphas[k]; the diagonal of Z_alphas[k], qubit 1 the most significant bit."""
    words = np.array([F.coord_bits[a] for a in alphas], dtype=np.int64)
    # bitwise_count gives uint8, in which 1 - 2 * 1 would wrap to 255
    odd = (np.bitwise_count(words[:, None] & np.arange(F.order)) & 1).astype(np.int64)
    return 1 - 2 * odd


def dense_monomial(F: GF2n, alpha: int, beta: int) -> np.ndarray:
    """Z_alpha X_beta |c> = chi((c + beta) alpha) |c + beta>: row r holds the
    sign of Z_alpha at r in column r ^ w, w the selfdual word of beta."""
    rows = np.arange(F.order)
    M = np.zeros((F.order, F.order), dtype=np.int64)
    M[rows, rows ^ F.coord_bits[beta]] = _signs(F, [alpha])[0]
    return M


def monomial_square_sign(F: GF2n, alpha: int, beta: int) -> int:
    """(Z_alpha X_beta)^2 = chi(alpha beta) * identity."""
    return -1 if (F.coord_bits[alpha] & F.coord_bits[beta]).bit_count() & 1 else 1


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


def _gram(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray,
          a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of A^dag B for integer column matrices whose
    entries are at most a and b in absolute value.

    Refuses inputs whose Gram entries g could overflow int64, including the
    later d * |g|^2 of the unbiasedness test: |Re g|, |Im g| <= 2 d a b, so
    d |g|^2 <= 8 d^3 a^2 b^2.
    """
    d = ar.shape[0]
    if 8 * d ** 3 * (a * b) ** 2 >= 1 << 63:
        raise OverflowError(f"Gram entries of {d}-dimensional vectors could overflow int64")
    return ar.T @ br + ai.T @ bi, ar.T @ bi - ai.T @ br


# -- eigenbasis construction -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MubBasis:
    """An orthonormal eigenbasis of one curve's commuting monomial set.

    Column k of `re + i im` is the k-th basis vector times 2^(norm_exps[k]/2).
    `entry_bound`, the largest absolute entry of `re` and `im`, is read off
    them once, on construction.
    """

    points: PointSet
    # per column: eigenvalue exponent tuple, one i-power per generator monomial
    labels: tuple[tuple[int, ...], ...]
    re: np.ndarray
    im: np.ndarray
    norm_exps: np.ndarray
    entry_bound: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entry_bound",
                           max(int(np.abs(self.re).max()), int(np.abs(self.im).max())))

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
    # generator j maps the columns x to sign[j] * x[perm[j]]
    sign = _signs(F, [a for a, _ in gens])[:, :, None]
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
    # row j: the exponent e with D_j v = i^e v, per column v
    labels = (codes >> 2 * np.arange(len(gens) - 1, -1, -1)[:, None]) & 3
    basis = MubBasis(pts, tuple(map(tuple, labels.T.tolist())), re, im, norm_exps)
    gre, gim = _gram(re, im, re, im, basis.entry_bound, basis.entry_bound)
    if gim.any() or not np.array_equal(gre, np.diag(np.left_shift(1, norm_exps))):
        raise NotCommutative("eigenbasis columns are not orthogonal")
    for j, e in enumerate(labels):
        cos, sin = np.array([1, 0, -1, 0])[e], np.array([0, 1, 0, -1])[e]
        if not (np.array_equal(sign[j] * re[perm[j]], cos * re - sin * im)
                and np.array_equal(sign[j] * im[perm[j]], sin * re + cos * im)):
            raise NotCommutative("eigenbasis columns are not joint eigenvectors")
    return basis


def _distinct_columns(re: np.ndarray, im: np.ndarray,
                      codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop zero columns and all but the first column per (label, leading row)."""
    nonzero = (re != 0) | (im != 0)
    live = np.flatnonzero(nonzero.any(axis=0))
    key = codes[live] * re.shape[0] + nonzero[:, live].argmax(axis=0)
    keep = live[np.sort(np.unique(key, return_index=True)[1])]
    return re[:, keep], im[:, keep], codes[keep]


# -- MUB checks --------------------------------------------------------------------


def check_trace_orthogonality(F: GF2n,
                              curves: Sequence[PointSet]) -> list[tuple[Point, Point]]:
    """Hilbert-Schmidt orthogonality of all monomials, within and across sets.

    Tr(D D'^dag) must equal d exactly when the two labels coincide and 0
    otherwise; the returned list holds the violating label pairs (empty on
    success), in the order of `itertools.combinations_with_replacement` over
    the labels.  Z_alpha X_beta is the sign row of Z_alpha on the permutation
    of X_beta, so monomials with different beta have disjoint supports and
    trace 0, and within one beta the traces are the integer Gram matrix of
    the sign rows.
    """
    d = F.order
    labelled = [p for c in curves for p in sorted(c) if p != (0, 0)]
    by_beta: dict[int, list[int]] = {}
    for k, (_, beta) in enumerate(labelled):
        by_beta.setdefault(beta, []).append(k)
    bad = []
    for ks in by_beta.values():
        signs = _signs(F, [labelled[k][0] for k in ks])
        wrong = signs @ signs.T != d * np.eye(len(ks), dtype=np.int64)
        bad += [(ks[r], ks[c]) for r, c in zip(*np.nonzero(np.triu(wrong)))]
    return [(labelled[a], labelled[b]) for a, b in sorted(bad)]


def unbiasedness_overlaps(b1: MubBasis, b2: MubBasis) -> list[Fraction]:
    return [u.overlap_sq(v) for u in b1.vectors for v in b2.vectors]


def check_unbiased(F: GF2n, b1: MubBasis, b2: MubBasis) -> bool:
    """Every cross overlap |<u|v>|^2 must equal exactly 1/2^n, tested as the
    integer identity d |<u|v>|^2 == |u|^2 |v|^2 = 2^(e_u + e_v)."""
    re, im = _gram(b1.re, b1.im, b2.re, b2.im, b1.entry_bound, b2.entry_bound)
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
    """`commuting_sets_valid` is True whenever a report exists: a curve whose
    monomials do not commute fails `assert_admissible` on its generator
    pairs, and `verify_bundle` raises NotCommutative instead."""

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
    report = verify_atlas(F, curves)
    table = tuple(tuple(monomial_label(F, a, b) for a, b in sorted(c) if (a, b) != (0, 0))
                  for c in curves)
    # transpose: one row per monomial slot, one column per curve
    table = tuple(zip(*table)) if table else ()
    return BundleReport(F.n, disjoint, True, report.trace_orthogonal,
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
