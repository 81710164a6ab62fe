"""Exact dense-matrix verification of MUB atlases built from curves.

Z_alpha X_beta is a signed permutation read off the selfdual words of alpha
and beta.  Every joint eigenvector of a curve's commuting set is a stabilizer
state: a Gaussian-integer vector whose squared norm is a power of 2
(Dehaene & De Moor, PRA 68, 042318, 2003).  An eigenbasis is therefore built
in closed form, as one such vector and its translates by the monomials of a
complement of the curve (Aaronson & Gottesman, PRA 70, 052328, 2004), on
(real, imaginary) int64 matrices: the one vector and the labels are checked,
the Pauli commutation rule proves the rest.  Unbiasedness is the integer
identity d |<u|v>|^2 == |u|^2 |v|^2, which one row of overlaps decides for
two such bases: an atlas is checked one basis at a time against the first
column of every earlier basis (see `verify_atlas`).  The products run in
float64 BLAS under an asserted bound that keeps every partial sum an integer
below 2^53, hence exact, and are cast to int64 before any comparison: no
verdict rests on a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NotCommutative
from .curves import Point, PointSet, all_nonintersecting, assert_admissible
from .field import GF2n, echelon_basis
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


def eigenbasis(F: GF2n, points: Iterable[Point]) -> MubBasis:
    """Exact common eigenbasis of the curve's nonidentity monomials.

    The generators are the Curve's `gens`, its one reduced echelon basis,
    unpacked in ascending order, so a label's entry j belongs to row j of
    `gens`; no pass over the d points looks for generators.  One joint
    eigenvector v0 is cut out of e_0 by one generator monomial D
    at a time: for D^2 = I it keeps whichever of v + Dv (eigenvalue +1) and
    v - Dv (-1) is nonzero, for D^2 = -I whichever of v + iDv (-i) and
    v - iDv (+i).  v0 is reduced by the gcd of its entries.  The other
    columns are its translates P v0, P = Z_u X_x, (u | x) running over the
    2^n words spanned by the unit words that are not pivots of the echelon
    basis of the generators' (z | x) words: a complement of the curve.
    Columns are sorted by their labels, so the result is deterministic.
    Checked exactly: D_j v0 == i^label_j v0 for every generator j (no
    nonzero vector passes for two anticommuting D_j), a power-of-2 norm^2,
    and d distinct labels (dependent generator rows fail).  Proven: D_j P =
    (-1)^s P D_j, s the symplectic parity of P and D_j, so P v0 is a joint
    eigenvector of v0's norm with v0's label plus 2 s, and columns with
    different labels differ in the eigenvalue of some unitary D_j, so they
    are orthogonal.
    """
    pts = assert_admissible(F, points)
    d, n = F.order, F.n
    gens = [(g >> n, g & d - 1) for g in pts.gens]
    z = np.array([F.coord_bits[a] for a, _ in gens])
    x = np.array([F.coord_bits[b] for _, b in gens])
    # generator j maps a vector v to sign[j] * v[perm[j]]
    sign, perm = _signs(z, d), np.arange(d) ^ x[:, None]
    # v0 = v + i w, kept as its integer real and imaginary parts
    v, w = np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int64)
    v[0] = 1
    exps = []
    # entries stay within 2^n = d in absolute value: no int64 overflow
    for j, g in enumerate(gens):
        dv, dw = sign[j] * v[perm[j]], sign[j] * w[perm[j]]
        if monomial_square_sign(F, *g) == 1:
            branches = ((v + dv, w + dw, 0), (v - dv, w - dw, 2))
        else:
            branches = ((v - dw, w + dv, 3), (v + dw, w - dv, 1))
        v, w, e = next(b for b in branches if b[0].any() or b[1].any())
        exps.append(e)
    g = np.gcd.reduce(np.concatenate([v, w]))
    v, w = v // g, w // g
    cos, sin = np.array([1, 0, -1, 0])[exps][:, None], np.array([0, 1, 0, -1])[exps][:, None]
    if not (np.array_equal(sign * v[perm], cos * v - sin * w)
            and np.array_equal(sign * w[perm], sin * v + cos * w)):
        raise NotCommutative("the cut-out vector is not a joint eigenvector")
    norm2 = int((v * v + w * w).sum())
    e = norm2.bit_length() - 1
    if norm2 != 1 << e:
        raise InputError(f"eigenvector norm^2 = {norm2} is not a power of 2")
    # column k translates v by the complement word k: z part u[k], x part t[k]
    pivots = {r.bit_length() - 1 for r in echelon_basis((z << n | x).tolist())}
    free = [q for q in range(2 * n) if q not in pivots]
    words = sum((np.arange(d) >> i & 1) << q for i, q in enumerate(free))
    u, t = words >> n, words & d - 1
    odd = np.bitwise_count((u[:, None] & x) ^ (t[:, None] & z)) & 1
    labels = (np.array(exps) + 2 * odd.astype(np.int64)) & 3
    codes = labels @ (4 ** np.arange(len(gens) - 1, -1, -1))    # labels as base-4 numbers
    order = np.argsort(codes)
    if not np.diff(codes[order]).all():
        raise NotCommutative(f"{len(set(codes.tolist()))} distinct labels among {d} columns; "
                             "generators do not split fully")
    u, t, labels = u[order], t[order], labels[order]
    at = np.arange(d)[:, None] ^ t      # column k reads row r of v at r ^ t[k]
    flip = _signs(u, d).T
    return MubBasis(pts, tuple(map(tuple, labels.tolist())), flip * v[at], flip * w[at],
                    np.full(d, e, dtype=np.int64))


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
        signs = _signs([F.coord_bits[labelled[k][0]] for k in ks], d)
        wrong = signs @ signs.T != d * np.eye(len(ks), dtype=np.int64)
        bad += [(ks[r], ks[c]) for r, c in zip(*np.nonzero(np.triu(wrong)))]
    return [(labelled[a], labelled[b]) for a, b in sorted(bad)]


def unbiasedness_overlaps(b1: MubBasis, b2: MubBasis) -> list[Fraction]:
    return [u.overlap_sq(v) for u in b1.vectors for v in b2.vectors]


def _unbiased_rows(F: GF2n, re: np.ndarray, im: np.ndarray, norm_exps: np.ndarray,
                   bound: int, b: MubBasis) -> np.ndarray:
    """Per column u of re + i im (norm^2 2^norm_exps[u], entries at most
    `bound`), whether d |<u|v>|^2 == 2^(e_u + e_v) for every column v of b."""
    gre, gim = _gram(re, im, b.re, b.im, bound, b.entry_bound)
    want = np.left_shift(1, norm_exps[:, None] + b.norm_exps[None, :])
    return (F.order * (gre * gre + gim * gim) == want).all(axis=1)


def check_unbiased(F: GF2n, b1: MubBasis, b2: MubBasis) -> bool:
    """Every cross overlap |<u|v>|^2 must equal exactly 1/2^n: the full
    cross Gram, which assumes nothing about how the bases were built."""
    return bool(_unbiased_rows(F, b1.re, b1.im, b1.norm_exps, b1.entry_bound, b2).all())


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
    """Build every eigenbasis exactly and check pairwise unbiasedness.

    One row decides a pair.  Its premises, that basis j holds orthogonal
    joint eigenvectors of one norm with d distinct labels (so each joint
    eigenspace of curve j is one column) and that column k of basis i is
    P v0_i times a phase for a Pauli P, are what `eigenbasis` checks on v0
    and its labels and proves of the translates.  P commutes or
    anticommutes with each generator of curve j, so it maps each column of
    basis j to another times a phase: the overlaps |<P v0_i|w>| over the
    columns w of basis j permute |<v0_i|w>|, and the row v0_i^dag B_j
    fails exactly where the full cross Gram fails.  Basis j is
    built in its turn, checked in one product against the first columns of
    all earlier bases, and dropped: O(d^2 + M d) memory for M curves.
    Identical point sets are skipped (a basis is not unbiased to itself);
    `failures` lists index pairs in `itertools.combinations` order.
    """
    curves = [assert_admissible(F, c) for c in curves]
    trace_orthogonal = not check_trace_orthogonality(F, curves)
    d, m = F.order, len(curves)
    # column i: the first column of basis i and its norm exponent
    re, im = np.empty((d, m), dtype=np.int64), np.empty((d, m), dtype=np.int64)
    norm_exps = np.empty(m, dtype=np.int64)
    bound, failures = 0, []
    for j, c in enumerate(curves):
        b = eigenbasis(F, c)
        if j:
            ok = _unbiased_rows(F, re[:, :j], im[:, :j], norm_exps[:j], bound, b)
            failures += [(i, j) for i in np.flatnonzero(~ok).tolist() if curves[i] != c]
        re[:, j], im[:, j], norm_exps[j] = b.re[:, 0], b.im[:, 0], b.norm_exps[0]
        bound = max(bound, b.entry_bound)
    failures.sort()
    return VerificationReport(F.n, m, trace_orthogonal, not failures, tuple(failures))
