"""Exact dense-matrix verification of MUB atlases built from curves.

Z_alpha X_beta is a signed permutation read off the selfdual words of alpha
and beta.  Every joint eigenvector of a curve's commuting set is a stabilizer
state: a Gaussian-integer vector whose squared norm is a power of 2
(Dehaene & De Moor, PRA 68, 042318, 2003).  An eigenbasis is therefore built
in closed form, as one such vector and its translates by the monomials of a
complement of the curve (Aaronson & Gottesman, PRA 70, 052328, 2004), on
(real, imaginary) int64 matrices: the one vector and the labels are checked,
the Pauli commutation rule proves the rest.  The vectors, their checks and
their labels are built for all M curves of an atlas in one batched pass on
M x d arrays, looping over the n generators (`_stabilizer_states`).
Unbiasedness is the integer identity d |<u|v>|^2 == |u|^2 |v|^2, which one
row of overlaps decides for two such bases: after the batched pass an atlas
is checked one basis at a time, in one product against the first column of
every earlier basis, in O(d^2 + M d) memory (see `verify_atlas`).  The
products run in float64 BLAS under an asserted bound that keeps every
partial sum an integer below 2^53, hence exact, and are cast to int64
before any comparison: no verdict rests on a float.  Distinct monomials are
trace-orthogonal, so trace orthogonality is a count of repeated labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NotCommutative
from .curves import Curve, Point, PointSet, assert_admissible
from .field import GF2n
from .pauli import bundle_structure, monomial_label

# -- dense operators ---------------------------------------------------------------


def _signs(words: np.ndarray, d: int) -> np.ndarray:
    """Row k, column r < d: (-1)^popcount(r & words[k]); for the selfdual
    word of alpha, the diagonal of Z_alpha, qubit 1 the most significant bit."""
    # bitwise_count gives uint8, in which 1 - 2 * 1 would wrap to 255
    odd = (np.bitwise_count(np.asarray(words)[:, None] & np.arange(d)) & 1).astype(np.int64)
    return 1 - 2 * odd


def dense_monomial(F: GF2n, alpha: int, beta: int) -> np.ndarray:
    """Z_alpha X_beta |c> = chi((c + beta) alpha) |c + beta>: row r holds the
    sign of Z_alpha at r in column r ^ w, w the selfdual word of beta."""
    rows = np.arange(F.order)
    M = np.zeros((F.order, F.order), dtype=np.int64)
    M[rows, rows ^ F.coord_bits[beta]] = _signs([F.coord_bits[alpha]], F.order)[0]
    return M


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
    """Real and imaginary parts of A^dag B, as int64, for integer column
    matrices whose entries are at most a and b in absolute value.

    Refuses inputs whose Gram entries g could overflow int64, including the
    later d * |g|^2 of the unbiasedness test: |Re g|, |Im g| <= 2 d a b, so
    d |g|^2 <= 8 d^3 a^2 b^2.  Below that bound 2 d a b < 2^31, so every
    partial sum of the float64 BLAS products is an integer below 2^53 and
    exact in any order; the sums are cast back to int64 before any caller
    compares them.
    """
    d = ar.shape[0]
    if 8 * d ** 3 * (a * b) ** 2 >= 1 << 63:
        raise OverflowError(f"Gram entries of {d}-dimensional vectors could overflow int64")
    ar, ai, br, bi = (m.astype(np.float64) for m in (ar, ai, br, bi))
    return ((ar.T @ br + ai.T @ bi).astype(np.int64),
            (ar.T @ bi - ai.T @ br).astype(np.int64))


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


def _stabilizer_states(F: GF2n, curves: Sequence[Curve], table: np.ndarray
                       ) -> tuple[np.ndarray, ...]:
    """One joint eigenvector v0 = v + i w of each curve's monomials, checked,
    with the label codes and complement words of its translates; all M
    curves at once, in one loop over the n generators per stage, on M x d
    arrays (`table` is `_signs(np.arange(d), d)`, row z the diagonal of Z_z).

    The generators are each Curve's `gens`, its one reduced echelon basis,
    unpacked in ascending order, so label entry j belongs to row j of
    `gens`; no pass over the d points looks for generators.  v0 is cut out
    of e_0 by one generator monomial D at a time: for D^2 = I it keeps
    whichever of v + Dv (eigenvalue +1) and v - Dv (-1) is nonzero, for
    D^2 = -I whichever of v + iDv (-i) and v - iDv (+i), and is then
    reduced by the gcd of its entries.  The translates are P v0,
    P = Z_u X_t, (u | t) running over the 2^n words spanned by the unit
    words that are not pivots of the echelon basis of the generators'
    (z | x) words: a complement of the curve.  Translate k carries v0's
    label plus 2 s, s the symplectic parities of P and the D_j, and the
    columns are sorted by their labels (as base-4 codes, entry 0 the most
    significant), so the result is deterministic.

    Checked exactly, per curve: D_j v0 == i^label_j v0 for every generator
    j (no nonzero vector passes for two anticommuting D_j), a power-of-2
    norm^2, and d distinct labels (dependent generator rows fail).  The
    first curve in list order that fails raises, for the first of these
    checks it fails.  Proven: D_j P = (-1)^s P D_j, so P v0 is a joint
    eigenvector of v0's norm with the shifted label, and columns with
    different labels differ in the eigenvalue of some unitary D_j, so they
    are orthogonal.

    Returns v and w (M x d), the norm exponents (M), and the label codes
    and the words u and t of the translates (M x d, in label order).
    """
    d, n, m = F.order, F.n, len(curves)
    gens = np.array([c.gens for c in curves], dtype=np.int64).reshape(m, n)
    coords = np.array(F.coord_bits)
    z, x = coords[gens >> n], coords[gens & d - 1]
    cell, rows = np.arange(d), np.arange(m)[:, None]
    odd_square = (np.bitwise_count(z & x) & 1).astype(bool)      # D_j^2 = -I
    v, w = np.zeros((m, d), dtype=np.int64), np.zeros((m, d), dtype=np.int64)
    v[:, 0] = 1
    exps = np.empty((m, n), dtype=np.int64)
    # the (z | x) words, reduced row by row: row j loses the leading bits of
    # rows < j, so the leading bits of the nonzero rows are the pivots
    echelon, pivots = z << n | x, np.zeros(m, dtype=np.int64)
    # entries stay within 2^n = d in absolute value: no int64 overflow
    for j in range(n):
        # generator j maps v to sign * v[perm]
        sign, perm = table[z[:, j]], cell ^ x[:, j, None]
        dv, dw = sign * v[rows, perm], sign * w[rows, perm]
        odd = odd_square[:, j, None]
        # v + p, w + q is v + Dv, or v + iDv when D^2 = -I
        p, q = np.where(odd, -dw, dv), np.where(odd, dv, dw)
        plus = (v + p).any(axis=1) | (w + q).any(axis=1)
        step = np.where(plus, 1, -1)[:, None]
        v, w = v + step * p, w + step * q
        exps[:, j] = (2 * ~plus + 3 * odd[:, 0]) & 3
        row = echelon[:, j]
        lead = np.left_shift(1, np.frexp(row)[1]) >> 1
        pivots |= lead
        later = echelon[:, j + 1:]
        later ^= np.where(later & lead[:, None], row[:, None], 0)
    g = np.gcd.reduce(np.concatenate([v, w], axis=1), axis=1)[:, None]
    v, w = v // g, w // g
    norm2 = (v * v + w * w).sum(axis=1)
    e = np.frexp(norm2)[1] - 1
    # translate k by the complement word k: the bits of k go to the lowest n
    # free (non-pivot) bits, z part u, x part t
    free, words = (1 << 2 * n) - 1 & ~pivots, np.zeros((m, d), dtype=np.int64)
    for i in range(n):
        low = free & -free
        free ^= low
        words += (cell >> i & 1) * low[:, None]
    u, t = words >> n, words & d - 1
    cos, sin = np.array([1, 0, -1, 0])[exps], np.array([0, 1, 0, -1])[exps]
    eigen, codes = np.ones(m, dtype=bool), np.zeros((m, d), dtype=np.int64)
    for j in range(n):
        sign, perm = table[z[:, j]], cell ^ x[:, j, None]
        c, s = cos[:, j, None], sin[:, j, None]
        eigen &= ((sign * v[rows, perm] == c * v - s * w).all(axis=1)
                  & (sign * w[rows, perm] == s * v + c * w).all(axis=1))
        parity = np.bitwise_count(u & x[:, j, None] ^ t & z[:, j, None]) & 1
        codes = 4 * codes + ((exps[:, j, None] + 2 * parity) & 3)
    order = np.argsort(codes, axis=1)
    codes, u, t = (np.take_along_axis(a, order, axis=1) for a in (codes, u, t))
    power_of_2 = norm2 == np.left_shift(1, e)
    split = (np.diff(codes, axis=1) != 0).all(axis=1)
    bad = ~(eigen & power_of_2 & split)
    if bad.any():
        k = int(bad.argmax())
        if not eigen[k]:
            raise NotCommutative("the cut-out vector is not a joint eigenvector")
        if not power_of_2[k]:
            raise InputError(f"eigenvector norm^2 = {norm2[k]} is not a power of 2")
        raise NotCommutative(f"{1 + np.count_nonzero(np.diff(codes[k]))} distinct labels "
                             f"among {d} columns; generators do not split fully")
    return v, w, e, codes, u, t


def _translates(table: np.ndarray, v: np.ndarray, w: np.ndarray,
                u: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column k is Z_u[k] X_t[k] v0, v0 = v + i w: a signed permutation of
    v0, as (real, imaginary) d x d int64 matrices."""
    at = np.arange(len(v))[:, None] ^ t      # column k reads row r of v at r ^ t[k]
    flip = table[u].T
    return flip * v[at], flip * w[at]


def eigenbasis(F: GF2n, points: Iterable[Point]) -> MubBasis:
    """Exact common eigenbasis of the curve's nonidentity monomials: the
    joint eigenvector of `_stabilizer_states`, run on this one curve, and
    its translates, with the same checks and errors."""
    pts = assert_admissible(F, points)
    table = _signs(np.arange(F.order), F.order)
    v, w, e, codes, u, t = _stabilizer_states(F, [pts], table)
    labels = codes[0, :, None] >> 2 * np.arange(F.n - 1, -1, -1) & 3
    return MubBasis(pts, tuple(map(tuple, labels.tolist())),
                    *_translates(table, v[0], w[0], u[0], t[0]),
                    np.full(F.order, e[0], dtype=np.int64))


# -- MUB checks --------------------------------------------------------------------


def check_trace_orthogonality(F: GF2n,
                              curves: Sequence[PointSet]) -> list[tuple[Point, Point]]:
    """Hilbert-Schmidt orthogonality of all monomials, within and across sets.

    Tr(D_p D_q^dag) = d if p = q, else 0 (Bandyopadhyay et al., Algorithmica
    34, 512, 2002): monomials with different beta have disjoint supports, and
    for one beta the sign rows of different alpha are distinct characters.
    So only a label that appears twice fails, and `F` is not used.  Labels
    are each curve's sorted points without the origin; the result holds
    (p, p) per pair of positions a < b with the same point p, in (a, b) order.
    """
    labelled = [p for c in curves for p in sorted(c) if p != (0, 0)]
    ordered = sorted(labelled)      # finds the repeats with no object per label
    at: dict[Point, list[int]] = {p: [] for p, q in zip(ordered, ordered[1:]) if p == q}
    for k, p in enumerate(labelled):
        if p in at:
            at[p].append(k)
    pairs = sorted(pair for ks in at.values() for pair in combinations(ks, 2))
    return [(labelled[a], labelled[b]) for a, b in pairs]


def unbiasedness_overlaps(b1: MubBasis, b2: MubBasis) -> list[Fraction]:
    return [u.overlap_sq(v) for u in b1.vectors for v in b2.vectors]


def _unbiased_rows(F: GF2n, a: tuple, b: tuple) -> np.ndarray:
    """Per column u of a, whether d |<u|v>|^2 == 2^(e_u + e_v) for every
    column v of b; a and b are (re, im, norm_exps, entry bound) column sets,
    column k of re + i im being a vector of norm^2 2^norm_exps[k]."""
    (are, aim, a_exps, a_bound), (bre, bim, b_exps, b_bound) = a, b
    gre, gim = _gram(are, aim, bre, bim, a_bound, b_bound)
    want = np.left_shift(1, a_exps[:, None] + b_exps[None, :])
    return (F.order * (gre * gre + gim * gim) == want).all(axis=1)


def check_unbiased(F: GF2n, b1: MubBasis, b2: MubBasis) -> bool:
    """Every cross overlap |<u|v>|^2 must equal exactly 1/2^n: the full
    cross Gram, which assumes nothing about how the bases were built."""
    a, b = ((x.re, x.im, x.norm_exps, x.entry_bound) for x in (b1, b2))
    return bool(_unbiased_rows(F, a, b).all())


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

    For validated curves a shared nonzero point or a repeated curve is a
    repeated label, so `nonintersecting` is the trace-orthogonality verdict:
    disjointness is decided once.  The operator table lists, column per
    curve, the glyph labels of its 2^n - 1 nonidentity monomials in point order.
    """
    curves = [assert_admissible(F, c) for c in curves]
    report = verify_atlas(F, curves)
    table = tuple(tuple(monomial_label(F, a, b) for a, b in sorted(c) if (a, b) != (0, 0))
                  for c in curves)
    # transpose: one row per monomial slot, one column per curve
    table = tuple(zip(*table)) if table else ()
    return BundleReport(F.n, report.trace_orthogonal, True, report.trace_orthogonal,
                        report.unbiased, bundle_structure(F, curves),
                        tuple(tuple(r) for r in table))


def verify_atlas(F: GF2n, curves: Sequence[PointSet]) -> VerificationReport:
    """Build every eigenbasis exactly and check pairwise unbiasedness.

    One row decides a pair.  Its premises, that basis j holds orthogonal
    joint eigenvectors of one norm with d distinct labels (so each joint
    eigenspace of curve j is one column) and that column k of basis i is
    P v0_i times a phase for a Pauli P, are what `_stabilizer_states`
    checks on v0 and its labels and proves of the translates.  P commutes
    or anticommutes with each generator of curve j, so it maps each column
    of basis j to another times a phase: the overlaps |<P v0_i|w>| over the
    columns w of basis j permute |<v0_i|w>|, and the row v0_i^dag B_j
    fails exactly where the full cross Gram fails.

    One batched pass builds and checks every curve's v0, labels and
    complement words (M x d arrays); then basis j is built from them in its
    turn, checked in one product against the first columns v0_i, i < j,
    and dropped: O(d^2 + M d) memory for M curves.  A translate is a signed
    permutation of v0, so each basis's entry bound is read off v0.
    Identical point sets are skipped (a basis is not unbiased to itself);
    `failures` lists index pairs in `itertools.combinations` order.
    """
    curves = [assert_admissible(F, c) for c in curves]
    trace_orthogonal = not check_trace_orthogonality(F, curves)
    table = _signs(np.arange(F.order), F.order)
    v, w, e, _, u, t = _stabilizer_states(F, curves, table)
    bound = np.maximum(np.abs(v).max(axis=1), np.abs(w).max(axis=1))
    earlier = np.maximum.accumulate(bound)      # entry i: the bound of v0_0..v0_i
    failures = []
    for j in range(1, len(curves)):
        re, im = _translates(table, v[j], w[j], u[j], t[j])
        ok = _unbiased_rows(F, (v[:j].T, w[:j].T, e[:j], int(earlier[j - 1])),
                            (re, im, e[j:j + 1], int(bound[j])))
        failures += [(i, j) for i in np.flatnonzero(~ok).tolist() if curves[i] != curves[j]]
    failures.sort()
    return VerificationReport(F.n, len(curves), trace_orthogonal, not failures, tuple(failures))
