"""Additive commutative curves in the discrete phase space of n qubits.

A curve is the image of kappa |-> (alpha(kappa), beta(kappa)) where alpha
and beta are linearised (additive) polynomials over GF(2^n).  Admissible
curves are exactly the Lagrangian subgroups of GF(2^n) x GF(2^n) under the
symplectic trace form tr(alpha beta') + tr(alpha' beta); each one labels a
maximal set of commuting displacement operators, hence a basis of a
complete MUB atlas.

Every Lagrangian is fixed by a pair (A, M).  A is its alpha-projection, an
r-dimensional additive subgroup with basis a_1..a_r, and isotropy forces
the points over alpha = 0 to be the trace complement T of A.  With dual
lifts g_i (tr(a_j g_i) = delta_ij) the curve is
{(a, f_M(a) + t) : a in A, t in T}, f_M(a_j) = sum_i M_ij g_i, for a
symmetric r x r binary matrix M; so there are prod_k (2^k + 1) of them.
The curve is regular when alpha or beta projects onto the whole field
(r = n, or M invertible), and exceptional otherwise.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegenerateRoots,
    InconsistentDegeneracy,
    InputError,
    NoExplicitForm,
    NoStructuralEquation,
    NotAnAdmissibleCurve,
    NotCommutative,
    clip,
)
from .field import (
    GF2n,
    echelon_basis,
    mat_rank_det,
    subgroup_span,
    trace_orthogonal_complement,
    trace_pairing,
)

Point = tuple[int, int]
PointSet = frozenset[Point]


@dataclass(frozen=True)
class ParametricCurve:
    """Coefficient tuples of the pair of additive polynomials.

    alpha(kappa) = sum_m alpha_coeffs[m] * kappa^(2^m), likewise beta.
    """

    alpha_coeffs: tuple[int, ...]
    beta_coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.alpha_coeffs) != len(self.beta_coeffs):
            raise InputError("alpha and beta need one coefficient per Frobenius power")

    @property
    def n(self) -> int:
        return len(self.alpha_coeffs)

    def eval_alpha(self, F: GF2n, kappa: int) -> int:
        return _additive_eval(F, self.alpha_coeffs, kappa)

    def eval_beta(self, F: GF2n, kappa: int) -> int:
        return _additive_eval(F, self.beta_coeffs, kappa)

    def eval(self, F: GF2n, kappa: int) -> Point:
        return self.eval_alpha(F, kappa), self.eval_beta(F, kappa)


def _additive_eval(F: GF2n, coeffs: Sequence[int], kappa: int) -> int:
    out = 0
    x = kappa
    for c in coeffs:
        out ^= F.mul(c, x)
        x = F.squares[x]
    return out


def point_set(F: GF2n, curve: ParametricCurve) -> PointSet:
    """Canonical identity of a curve: its set of phase-space points."""
    if curve.n != F.n:
        raise InputError(f"curve has {curve.n} coefficients, field degree is {F.n}")
    return frozenset(curve.eval(F, k) for k in F.elements())


def symplectic_trace(F: GF2n, p: Point, q: Point) -> int:
    """tr(alpha beta') + tr(alpha' beta) for points (alpha,beta),(alpha',beta'):
    the parity of the qubit-wise clash word of the two selfdual bit rows."""
    b = F.coord_bits
    return ((b[p[0]] & b[q[1]]) ^ (b[p[1]] & b[q[0]])).bit_count() & 1


def is_commutative(F: GF2n, points: Iterable[Point]) -> bool:
    """Whether the point set is isotropic for the symplectic trace form."""
    pts = list(points)
    return all(symplectic_trace(F, p, q) == 0
               for p, q in itertools.combinations(pts, 2))


class Curve(frozenset):
    """The point set of an admissible curve, validated once for `field` by
    `assert_admissible` or built admissible by `enumerate_curves`.  `gens`
    is the reduced echelon basis of its points packed as a << n | b, and
    `cogens` that of the same points packed b << n | a: one basis each,
    fixed when the Curve is made.  The rows at or above 2^n give each
    projection's rank and reduced echelon basis (`_top`); when they span
    the field, row j is s^j over its image under the curve's map to the
    other axis.  Set operations on a Curve give plain frozensets, which are
    checked afresh."""

    __slots__ = ("field", "gens", "cogens")


def _trusted(F: GF2n, points: Iterable[Point], gens: tuple[int, ...]) -> Curve:
    """A Curve for F without any check: for points admissible by
    construction, whose reduced echelon basis packed a << n | b is `gens`
    (a precondition, not checked); only the swapped packing is reduced."""
    curve = Curve(points)
    curve.field = F
    curve.gens = gens
    curve.cogens = echelon_basis((g & F.order - 1) << F.n | g >> F.n for g in gens)
    return curve


def _top(F: GF2n, rows: Sequence[int]) -> tuple[int, ...]:
    """The nonzero top halves of ascending reduced echelon rows (`gens` or
    `cogens`): the rows from the first one at or above 2^n on, shifted down.
    They are the reduced echelon basis of that projection."""
    return tuple(map(F.n.__rrshift__, rows[bisect.bisect_left(rows, F.order):]))


def is_admissible(F: GF2n, points: Iterable[Point]) -> bool:
    """A Lagrangian subgroup: additive, isotropic, of full size 2^n.
    Always decided from the points, even for a validated Curve."""
    try:
        return bool(assert_admissible(F, frozenset(points)))
    except (NotAnAdmissibleCurve, NotCommutative):
        return False


def assert_admissible(F: GF2n, points: Iterable[Point]) -> Curve:
    """The points as a Curve for F; a Curve validated for F is returned as is.

    O(d n): the reduced echelon basis of the 2^n field points packed as
    a << n | b has n rows exactly when they form a subgroup, and the rows
    are isotropic in pairs, which suffices because the trace form is
    bilinear and alternating.  The rows become the Curve's `gens`.
    """
    field = getattr(points, "field", None)
    if isinstance(points, Curve) and (field is F or field == F):
        return points
    pts = frozenset(points)
    d = F.order
    in_field = len(pts) == d and all(0 <= a < d and 0 <= b < d for a, b in pts)
    gens = echelon_basis(a << F.n | b for a, b in pts) if in_field else ()
    if len(gens) != F.n:
        raise NotAnAdmissibleCurve(
            f"point set of size {len(pts)} is not an additive subgroup of order {F.order}")
    if not is_commutative(F, ((g >> F.n, g & d - 1) for g in gens)):
        raise NotCommutative("point set is not isotropic under the symplectic trace form")
    return _trusted(F, pts, gens)


# -- W matrices, rank and degeneracy -------------------------------------------


def w_matrix(F: GF2n, coeffs: Sequence[int]) -> list[list[int]]:
    """W[m][j] = c_{(j-m) mod n}^(2^m); det(W) vanishes iff the map is singular."""
    n = F.n
    return [[F.frobenius(coeffs[(j - m) % n], m) for j in range(n)] for m in range(n)]


def w_det(F: GF2n, coeffs: Sequence[int]) -> int:
    return mat_rank_det(F, w_matrix(F, coeffs))[1]


@dataclass(frozen=True, slots=True)
class CurveClassification:
    kind: str               # "regular" or "exceptional"
    variant: str            # Ray / RegularBoth / RegularAlphaOnly / RegularBetaOnly / Exceptional
    det_alpha: int
    det_beta: int
    rank_alpha: int
    rank_beta: int
    degeneracy_alpha: int   # points per alpha value, 2^(n - rank_alpha)
    degeneracy_beta: int


def _is_ray(F: GF2n, curve: Curve) -> bool:
    """A ray is stable under field scaling: (a,b) in it implies (la,lb).

    So it is a line over the field: b = c a, or a = 0.  If the alpha map is
    onto, row j of `gens` is s^j << n | L(s^j), and L(s^j) = c s^j with
    c = L(1) decides; otherwise the rank of the alpha map must be 0."""
    rows, low = curve.gens, F.order - 1
    if rows[0] >> F.n:
        c = rows[0] & low
        return all(row & low == F.mul(c, 1 << j) for j, row in enumerate(rows))
    return rows[-1] < F.order


def classify_points(F: GF2n, points: Iterable[Point]) -> CurveClassification:
    """Regular vs exceptional, with the per-axis ranks and degeneracies.

    The ranks are the dimensions of the two projections, read off the
    Curve's `gens` and `cogens`: the count of rows at or above 2^n.
    Regular means at least one of them is the whole field (its
    parametrising additive map is a bijection); exceptional means both are
    singular while the curve itself still has 2^n distinct points.  Curves
    with the same degree, ranks and ray test share one classification.
    """
    pts = assert_admissible(F, points)
    gens, cogens, n = pts.gens, pts.cogens, F.n
    ra = len(gens) - bisect.bisect_left(gens, F.order)
    rb = len(cogens) - bisect.bisect_left(cogens, F.order)
    return _classification(n, ra, rb, (ra == n or rb == n) and _is_ray(F, pts))


@functools.lru_cache(maxsize=256)
def _classification(n: int, ra: int, rb: int, ray: bool) -> CurveClassification:
    """The classification of a curve of degree n with projection ranks ra
    and rb; `ray` is whether a regular one is stable under field scaling."""
    variant = ("Exceptional", "RegularBetaOnly", "RegularAlphaOnly",
               "RegularBoth")[2 * (ra == n) + (rb == n)]
    kind = "exceptional" if variant == "Exceptional" else "regular"
    if ray:
        variant = "Ray"
    return CurveClassification(kind, variant, int(ra == n), int(rb == n), ra, rb,
                               1 << (n - ra), 1 << (n - rb))


def classify(F: GF2n, curve: ParametricCurve) -> CurveClassification:
    """`classify_points` of the image, with the ranks cross-checked against
    the W matrices of the coefficients and their determinants attached."""
    cls = classify_points(F, point_set(F, curve))
    ra, da = mat_rank_det(F, w_matrix(F, curve.alpha_coeffs))
    rb, db = mat_rank_det(F, w_matrix(F, curve.beta_coeffs))
    if (ra, rb) != (cls.rank_alpha, cls.rank_beta):
        raise InconsistentDegeneracy(
            f"projection ranks {cls.rank_alpha},{cls.rank_beta} disagree "
            f"with W ranks {ra},{rb}")
    return replace(cls, det_alpha=da, det_beta=db)


# -- explicit forms ------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitForm:
    """beta = sum_m phi[m] alpha^(2^m), valid on the alpha-projection."""

    phi: tuple[int, ...]

    def eval(self, F: GF2n, alpha: int) -> int:
        return _additive_eval(F, self.phi, alpha)


def commutativity_symmetric(F: GF2n, phi: Sequence[int]) -> bool:
    """phi_j = phi_{n-j}^(2^j) for j = 1..n-1 (j = n/2 self-paired)."""
    n = F.n
    return all(phi[j] == F.frobenius(phi[(n - j) % n], j) for j in range(1, n))


@dataclass(frozen=True, slots=True)
class ExplicitCurve:
    """An explicit relation beta = f(alpha) (alpha_form) or alpha = g(beta)
    (beta_form), with additive-polynomial coefficients."""

    orientation: str        # "alpha_form" or "beta_form"
    coeffs: tuple[int, ...]


@functools.lru_cache(maxsize=16)
def _explicit_table(F: GF2n) -> tuple[tuple[int, ...], ...]:
    """Row j, entry y: the products y d_j^(2^m), m = 0..n-1, packed as one
    word with product m at bit m n, for the trace-dual basis d_j of the
    polynomial basis (tr(d_j s^i) = delta_ij).  Built once per field."""
    pairing = trace_pairing(F, [1 << j for j in range(F.n)])
    duals = [pairing.index(1 << j) for j in range(F.n)]
    return tuple(tuple(sum(F.mul(y, F.frobenius(d, m)) << m * F.n for m in range(F.n))
                       for y in F.elements()) for d in duals)


def explicit_curve(F: GF2n, points: Iterable[Point]) -> ExplicitCurve:
    """Explicit form of a regular curve, preferring beta = f(alpha).

    Closed form: with d_j the trace-dual basis of 1, s, ..., s^(n-1), an
    additive map is L(x) = sum_j L(s^j) tr(d_j x), and tr(y) =
    sum_m y^(2^m), so phi_m = sum_j L(s^j) d_j^(2^m): the XOR of n
    `_explicit_table` words, read at the images L(s^j) that the rows of the
    Curve's `gens` (beta = f(alpha)) or `cogens` (alpha = g(beta)) carry.
    No product is left.
    """
    pts = assert_admissible(F, points)
    low = F.order - 1
    for orientation, rows in zip(("alpha_form", "beta_form"), (pts.gens, pts.cogens)):
        if rows[0] >> F.n:
            word = 0
            for table, row in zip(_explicit_table(F), rows):
                word ^= table[row & low]
            return ExplicitCurve(orientation, tuple(word >> m * F.n & low for m in range(F.n)))
    raise NoExplicitForm("neither coordinate map is invertible; curve is exceptional")


def explicit_form(F: GF2n, curve: ParametricCurve) -> ExplicitForm:
    """The alpha-form of `explicit_curve`; needs a nonsingular alpha map."""
    ec = explicit_curve(F, point_set(F, curve))
    if ec.orientation != "alpha_form":
        raise NoExplicitForm("alpha map is singular; beta is not a function of alpha")
    if not commutativity_symmetric(F, ec.coeffs):
        raise NotCommutative("explicit coefficients violate the symmetry constraint")
    return ExplicitForm(ec.coeffs)


def curve_from_phi(F: GF2n, phi: Sequence[int]) -> ParametricCurve:
    """The regular curve alpha = kappa, beta = sum phi_m kappa^(2^m)."""
    n = F.n
    if len(phi) != n:
        raise InputError(f"need {n} coefficients, got {len(phi)}")
    if not commutativity_symmetric(F, phi):
        raise NotCommutative(f"phi = {tuple(phi)} violates phi_j = phi_(n-j)^(2^j)")
    alpha = tuple([1] + [0] * (n - 1))
    return ParametricCurve(alpha, tuple(phi))


# -- structural equations --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StructuralEquation:
    """Monic additive annihilator sum_m c[m] x^(2^m) + x^(2^r) = 0 on a subgroup,
    optionally sharpened by a trace condition tr(xi * x) = 0."""

    coeffs: tuple[int, ...]     # c[0..r-1]; degree term x^(2^r) is monic
    xi: Optional[int] = None

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def eval(self, F: GF2n, x: int) -> int:
        out = _additive_eval(F, self.coeffs, x)
        return out ^ F.frobenius(x, self.rank)


def annihilator(F: GF2n, basis: tuple[int, ...]) -> StructuralEquation:
    """The monic additive polynomial of degree 2^r whose roots are the
    subgroup with this reduced echelon basis (`echelon_basis` of any
    generating set), the key of `_projection_equation`'s memo.

    Closed form: the subspace polynomial, built over the basis g_1..g_r by
    P <- P^2 + P(g) P from P = x; each step doubles the roots to the span
    with g, so the result is prod_{a in the subgroup} (x - a), with O(r^2)
    multiplications.  As P is additive, vanishing on the basis is vanishing
    on the whole subgroup.
    """
    if echelon_basis(basis) != basis:
        raise InputError(f"{clip(basis)} is not a reduced echelon basis")
    if len(basis) == F.n:
        raise NoStructuralEquation("the whole field has no nontrivial annihilator")
    coeffs = [1]            # c[m] of x^(2^m), monic term last
    for g in basis:
        value = _additive_eval(F, coeffs, g)
        squares = [0] + [F.squares[c] for c in coeffs]
        coeffs = [s ^ F.mul(value, c) for s, c in zip(squares, coeffs + [0])]
    eq = StructuralEquation(tuple(coeffs[:-1]))
    if any(eq.eval(F, g) for g in basis):  # pragma: no cover
        raise NoStructuralEquation("annihilator fails on the subgroup")
    return eq


def trace_witness(F: GF2n, eq: StructuralEquation) -> int:
    """xi with tr(xi x) = 0 exactly on the roots H of a corank-1 annihilator.

    Closed form: tr(xi x) = sum_m xi^(2^m) x^(2^m) has degree 2^(n-1) and
    vanishes on H, so it is xi^(2^(n-1)) times the monic annihilator, whose
    coefficients are then c_m = xi^(2^m - 2^(n-1)); hence xi = c_1 / c_0,
    with c_(n-1) = 1 the monic term.  At n = 1, H = {0} and xi = 1.
    """
    if eq.rank != F.n - 1:
        raise NoStructuralEquation(
            f"trace witness needs a corank-1 subgroup, got size {1 << eq.rank}")
    if F.n == 1:
        return 1
    coeffs = eq.coeffs + (1,)
    return F.div(coeffs[1], coeffs[0])


def structural_equations(
        F: GF2n, points: Iterable[Point]
) -> tuple[StructuralEquation, StructuralEquation]:
    """Annihilators of the alpha- and beta-projections, with trace witnesses
    attached when the corresponding degeneracy is exactly 2: one look-up
    each, keyed by their reduced echelon bases, the `_top` of the Curve's
    `gens` and `cogens`."""
    pts = assert_admissible(F, points)
    return (_projection_equation(F, _top(F, pts.gens)),
            _projection_equation(F, _top(F, pts.cogens)))


@functools.lru_cache(maxsize=4096)
def _projection_equation(F: GF2n, basis: tuple[int, ...]) -> StructuralEquation:
    """The annihilator of the subgroup with this reduced echelon basis, with
    its trace witness attached when the subgroup has index 2; built once
    per field and subgroup."""
    eq = annihilator(F, basis)
    if eq.rank == F.n - 1:
        eq = StructuralEquation(eq.coeffs, trace_witness(F, eq))
    return eq


# -- exceptional-curve constructors ----------------------------------------------


def exceptional_equal(F: GF2n, roots: Sequence[int]) -> Curve:
    """Doubly degenerate curve (both degeneracies 2) from a basis of the
    alpha-projection subgroup.

    beta runs over {lam*a, lam*a + b1} with b1 = sum of inverses of the
    nonzero subgroup elements and lam = b1 / roots[0].
    """
    roots = list(roots)
    if len(roots) != F.n - 1:
        raise InputError(f"need {F.n - 1} independent roots, got {len(roots)}")
    A = subgroup_span(roots)
    if len(A) != F.order // 2 or 0 in roots:
        raise DegenerateRoots(f"roots {roots} are not independent")
    b1 = 0
    for a in A:
        if a:
            b1 ^= F.inv(a)
    if b1 == 0:
        raise DegenerateRoots("inverse-sum offset vanishes; curve would collapse")
    lam = F.div(b1, roots[0])
    pts = set()
    for a in A:
        pts.add((a, F.mul(lam, a)))
        pts.add((a, F.mul(lam, a) ^ b1))
    return assert_admissible(F, pts)


def exceptional_unequal(F: GF2n, roots: Sequence[int]) -> Curve:
    """Product curve A x A_perp with dim A + dim A_perp = n (both < n)."""
    roots = list(roots)
    r = len(roots)
    if not 1 <= r <= F.n - 1:
        raise InputError(f"need between 1 and {F.n - 1} roots, got {r}")
    A = subgroup_span(roots)
    if len(A) != 1 << r:
        raise DegenerateRoots(f"roots {roots} are not independent")
    B = trace_orthogonal_complement(F, A)
    return assert_admissible(F, {(a, b) for a in A for b in B})


# -- enumeration ------------------------------------------------------------------


def atlas_size(n: int) -> int:
    """Number of Lagrangian subgroups of GF(2^n)^2: prod_{k=1}^n (2^k + 1)."""
    out = 1
    for k in range(1, n + 1):
        out *= (1 << k) + 1
    return out


def require_enumerable(F: GF2n) -> None:
    """Refuse n > 4 for atlas-wide work: 75,735 curves at n = 5."""
    if F.n > 4:
        raise InputError("curve enumeration supported for n <= 4")


def _subspace_bases(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """One basis of every r-dimensional subspace of GF(2)^n: the rows of
    its reduced echelon form, each row's leading bit clear in the others."""
    for pivots in itertools.combinations(range(n), r):
        free = [sum(1 << b for b in range(p) if b not in pivots) for p in pivots]
        for rows in itertools.product(*([x for x in range(m + 1) if x & m == x]
                                        for m in free)):
            yield tuple(1 << p | x for p, x in zip(pivots, rows))


def enumerate_curves(F: GF2n) -> list[Curve]:
    """Every admissible curve, as Curves, in the order of their sorted points.

    Each curve is built once from its (A, M) parameters (see the module
    docstring), so none needs an admissibility test or a duplicate check.
    Its `gens` are T's reduced echelon basis, as (0, t), then the
    (a_j, f_M(a_j)), already reduced: reduction modulo T is linear, so it
    is done once per A, on the lifts.

    The list is sorted by `gens`.  The doubling span of ascending reduced
    echelon rows g_0 < g_1 < ... is ascending: two elements of the span of
    the rows below g_k first differ in a pivot bit, where g_k is 0.  So
    entry 2^k of the sorted points is g_k, entries below it span g_0..g_(k-1),
    and comparing sorted point lists compares the `gens` tuples.
    """
    # one tuple per phase-space point, at its packed word a << n | b, shared
    # by every curve through it
    point = [(x, y) for x in F.elements() for y in F.elements()]
    atlas: list[Curve] = []
    for r in range(F.n + 1):
        for basis in _subspace_bases(F.n, r):
            # the unit words off the pivots complete A's echelon basis to a
            # basis of the field; its dual basis is the lifts g_i
            # (tr(a_j g_i) = delta_ij), then a basis of T, which pairs to 0
            # with A
            pivots = [a.bit_length() - 1 for a in basis]
            full = basis + tuple(1 << q for q in range(F.n) if q not in pivots)
            pairing = trace_pairing(F, full)
            dual = [pairing.index(1 << i) for i in range(F.n)]
            t_rows = echelon_basis(dual[r:])
            g = [functools.reduce(lambda x, t: min(x, x ^ t), t_rows, x) for x in dual[:r]]
            # the packed rows (a_1, f_M(a_1)), ..., (a_r, f_M(a_r)) for every
            # symmetric M, doubling the list once per entry pair M_ij = M_ji;
            # a step changes only the f_M halves
            images = [tuple(a << F.n for a in basis)]
            for i in range(r):
                for j in range(i, r):
                    step = [0] * r
                    step[j] = g[i]
                    step[i] = g[j]
                    images += [tuple(x ^ y for x, y in zip(f, step)) for f in images]
            for f in images:
                gens = t_rows + f
                span = [0]
                for g in gens:
                    span += [x ^ g for x in span]
                atlas.append(_trusted(F, map(point.__getitem__, span), gens))
    atlas.sort(key=operator.attrgetter("gens"))
    return atlas


def enumerate_regular(F: GF2n) -> list[Curve]:
    return [c for c in enumerate_curves(F) if classify_points(F, c).kind == "regular"]


def enumerate_exceptional(F: GF2n) -> list[Curve]:
    return [c for c in enumerate_curves(F) if classify_points(F, c).kind == "exceptional"]


def nonintersecting(c1: PointSet, c2: PointSet) -> bool:
    """Whether two distinct curves share only the origin."""
    return len(c1 & c2) == 1


def all_nonintersecting(curves: Sequence[PointSet]) -> bool:
    """Pairwise intersection exactly at the origin, for curves that hold it:
    a shared nonzero point, or a repeated curve, leaves the union short."""
    return not curves or sum(len(c) - 1 for c in curves) == len(set().union(*curves)) - 1
