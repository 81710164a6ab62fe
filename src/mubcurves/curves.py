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

import itertools
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
)
from .field import (
    GF2n,
    mat_rank_det,
    mat_solve,
    subgroup_basis,
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
        x = F.mul(x, x)
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


def is_additive_subgroup(points: Iterable[Point]) -> bool:
    pts = set(points)
    return (0, 0) in pts and all(
        (p[0] ^ q[0], p[1] ^ q[1]) in pts for p in pts for q in pts)


def is_commutative(F: GF2n, points: Iterable[Point]) -> bool:
    """Whether the point set is isotropic for the symplectic trace form."""
    pts = list(points)
    return all(symplectic_trace(F, p, q) == 0
               for p, q in itertools.combinations(pts, 2))


def point_generators(F: GF2n, pts: Iterable[Point]) -> list[Point]:
    """`subgroup_basis` of the points packed as a << n | b: generators chosen
    greedily in sorted point order.  A set of 2^k points is a subgroup
    exactly when it has k generators."""
    low = F.order - 1
    return [(g >> F.n, g & low) for g in subgroup_basis(a << F.n | b for a, b in pts)]


class Curve(frozenset):
    """The point set of an admissible curve, validated once for `field` by
    `assert_admissible` or built admissible by `enumerate_curves`.  Set
    operations on a Curve give plain frozensets, which are checked afresh."""

    __slots__ = ("field",)


def _trusted(F: GF2n, points: Iterable[Point]) -> Curve:
    """A Curve for F without any check: for points admissible by construction."""
    curve = Curve(points)
    curve.field = F
    return curve


def is_admissible(F: GF2n, points: Iterable[Point]) -> bool:
    """A Lagrangian subgroup: additive, isotropic, of full size 2^n.
    Always decided from the points, even for a validated Curve."""
    try:
        return bool(assert_admissible(F, frozenset(points)))
    except (NotAnAdmissibleCurve, NotCommutative):
        return False


def assert_admissible(F: GF2n, points: Iterable[Point]) -> Curve:
    """The points as a Curve for F; a Curve validated for F is returned as is.

    O(d n): 2^n field points spanned by n generators, isotropic on generator
    pairs, which suffices because the trace form is bilinear and alternating.
    """
    if isinstance(points, Curve) and getattr(points, "field", None) == F:
        return points
    pts = frozenset(points)
    d = F.order
    in_field = len(pts) == d and all(0 <= a < d and 0 <= b < d for a, b in pts)
    gens = point_generators(F, pts) if in_field else []
    if len(gens) != F.n:
        raise NotAnAdmissibleCurve(
            f"point set of size {len(pts)} is not an additive subgroup of order {F.order}")
    if not is_commutative(F, gens):
        raise NotCommutative("point set is not isotropic under the symplectic trace form")
    return _trusted(F, pts)


# -- W matrices, rank and degeneracy -------------------------------------------


def w_matrix(F: GF2n, coeffs: Sequence[int]) -> list[list[int]]:
    """W[m][j] = c_{(j-m) mod n}^(2^m); det(W) vanishes iff the map is singular."""
    n = F.n
    return [[F.frobenius(coeffs[(j - m) % n], m) for j in range(n)] for m in range(n)]


def w_det(F: GF2n, coeffs: Sequence[int]) -> int:
    return mat_rank_det(F, w_matrix(F, coeffs))[1]


def w_rank(F: GF2n, coeffs: Sequence[int]) -> int:
    return mat_rank_det(F, w_matrix(F, coeffs))[0]


@dataclass(frozen=True)
class CurveClassification:
    kind: str               # "regular" or "exceptional"
    variant: str            # Ray / RegularBoth / RegularAlphaOnly / RegularBetaOnly / Exceptional
    det_alpha: int
    det_beta: int
    rank_alpha: int
    rank_beta: int
    degeneracy_alpha: int   # points per alpha value, 2^(n - rank_alpha)
    degeneracy_beta: int


def _is_ray(F: GF2n, pts: PointSet) -> bool:
    """A ray is stable under field scaling: (a,b) in it implies (la,lb)."""
    return all((F.mul(lam, a), F.mul(lam, b)) in pts
               for a, b in pts for lam in F.elements())


def classify_points(F: GF2n, points: Iterable[Point]) -> CurveClassification:
    """Regular vs exceptional, with the per-axis ranks and degeneracies.

    The ranks are the dimensions of the two projections.  Regular means at
    least one of them is the whole field (its parametrising additive map is
    a bijection); exceptional means both are singular while the curve
    itself still has 2^n distinct points.
    """
    pts = assert_admissible(F, points)
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
    if kind == "regular" and _is_ray(F, pts):
        variant = "Ray"
    return CurveClassification(kind, variant, int(ra == F.n), int(rb == F.n), ra, rb,
                               1 << (F.n - ra), 1 << (F.n - rb))


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


def is_nonsingular(F: GF2n, curve: ParametricCurve) -> bool:
    """Injectivity of the parametrisation, decided on the full image."""
    return len(point_set(F, curve)) == F.order


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


@dataclass(frozen=True)
class ExplicitCurve:
    """An explicit relation beta = f(alpha) (alpha_form) or alpha = g(beta)
    (beta_form), with additive-polynomial coefficients."""

    orientation: str        # "alpha_form" or "beta_form"
    coeffs: tuple[int, ...]

    def holds(self, F: GF2n, p: Point) -> bool:
        a, b = p if self.orientation == "alpha_form" else (p[1], p[0])
        return _additive_eval(F, self.coeffs, a) == b


def explicit_curve(F: GF2n, points: Iterable[Point]) -> ExplicitCurve:
    """Explicit form of a regular curve, preferring beta = f(alpha)."""
    pts = assert_admissible(F, points)
    for orientation, axis in (("alpha_form", 0), ("beta_form", 1)):
        if len({p[axis] for p in pts}) != F.order:
            continue
        value_of = dict(pts) if axis == 0 else {b: a for a, b in pts}
        basis = subgroup_basis(value_of)
        rows = [[F.frobenius(x, m) for m in range(F.n)] for x in basis]
        sol = mat_solve(F, rows, [value_of[x] for x in basis])
        if sol is not None:
            return ExplicitCurve(orientation, tuple(sol))
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


@dataclass(frozen=True)
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


def annihilator(F: GF2n, group: Iterable[int]) -> StructuralEquation:
    """The monic additive polynomial of degree 2^r whose roots are the group."""
    basis = subgroup_basis(group)
    r = len(basis)
    if r == F.n:
        raise NoStructuralEquation("the whole field has no nontrivial annihilator")
    if r == 0:
        return StructuralEquation(())
    rows = [[F.frobenius(a, m) for m in range(r)] for a in basis]
    rhs = [F.frobenius(a, r) for a in basis]
    sol = mat_solve(F, rows, rhs)
    if sol is None:  # pragma: no cover - Moore matrix of a basis is invertible
        raise NoStructuralEquation("annihilator system is singular")
    eq = StructuralEquation(tuple(sol))
    full = subgroup_span(basis)
    if any(eq.eval(F, a) != 0 for a in full):  # pragma: no cover
        raise NoStructuralEquation("annihilator fails on the subgroup")
    return eq


def trace_witness(F: GF2n, group: Iterable[int]) -> int:
    """xi with tr(xi x) = 0 exactly on a corank-1 subgroup: its complement is {0, xi}."""
    gens = subgroup_basis(group)
    if len(gens) != F.n - 1:
        raise NoStructuralEquation(
            f"trace witness needs a corank-1 subgroup, got size {1 << len(gens)}")
    return max(trace_orthogonal_complement(F, gens))


def structural_equations(
        F: GF2n, points: Iterable[Point]
) -> tuple[StructuralEquation, StructuralEquation]:
    """Annihilators of the alpha- and beta-projections, with trace witnesses
    attached when the corresponding degeneracy is exactly 2."""
    pts = assert_admissible(F, points)
    out = []
    for axis in (0, 1):
        proj = {p[axis] for p in pts}
        eq = annihilator(F, proj)
        if len(proj) == F.order // 2:
            eq = StructuralEquation(eq.coeffs, trace_witness(F, proj))
        out.append(eq)
    return out[0], out[1]


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


def exceptional_unequal(F: GF2n, roots: Sequence[int],
                        swap: bool = False) -> Curve:
    """Product curve A x A_perp with dim A + dim A_perp = n (both < n).

    `swap` exchanges the roles of the two axes.
    """
    roots = list(roots)
    r = len(roots)
    if not 1 <= r <= F.n - 1:
        raise InputError(f"need between 1 and {F.n - 1} roots, got {r}")
    A = subgroup_span(roots)
    if len(A) != 1 << r:
        raise DegenerateRoots(f"roots {roots} are not independent")
    B = trace_orthogonal_complement(F, A)
    pts = {(a, b) for a in A for b in B}
    if swap:
        pts = {(b, a) for a, b in pts}
    return assert_admissible(F, pts)


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


def enumerate_curves(F: GF2n, kind: Optional[str] = None) -> list[Curve]:
    """Every admissible curve, as Curves, in a fixed sorted order.

    Each curve is built once from its (A, M) parameters (see the module
    docstring), so none needs an admissibility test or a duplicate check.
    `kind` keeps only the "regular" or only the "exceptional" curves.
    """
    # one tuple per phase-space point, shared by every curve through it:
    # half the memory of a tuple per curve and point at n = 4
    plane = [[(x, y) for y in F.elements()] for x in F.elements()]
    curves: list[Curve] = []
    for r in range(F.n + 1):
        for basis in _subspace_bases(F.n, r):
            # T pairs to 0 with A; the dual lift g_i (tr(a_j g_i) = delta_ij)
            # is the first x that pairs to the unit word 1 << i
            pairing = trace_pairing(F, basis)
            T = [t for t, word in enumerate(pairing) if not word]
            g = [pairing.index(1 << i) for i in range(r)]
            # (f_M(a_1), ..., f_M(a_r)) for every symmetric M, doubling the
            # list once per entry pair M_ij = M_ji
            images = [(0,) * r]
            for i in range(r):
                for j in range(i, r):
                    step = [0] * r
                    step[j] = g[i]
                    step[i] = g[j]
                    images += [tuple(x ^ y for x, y in zip(f, step)) for f in images]
            fibre = [plane[0][t] for t in T]
            for f in images:
                pts = fibre
                for a, fa in zip(basis, f):
                    pts = pts + [plane[x ^ a][y ^ fa] for x, y in pts]
                curve = _trusted(F, pts)
                if kind is None or kind == _kind(F, r, curve):
                    curves.append(curve)
    return sorted(curves, key=sorted)


def _kind(F: GF2n, r: int, pts: PointSet) -> str:
    """Regular when alpha (dimension r) or beta projects onto the field."""
    regular = r == F.n or len({b for _, b in pts}) == F.order
    return "regular" if regular else "exceptional"


def enumerate_regular(F: GF2n) -> list[Curve]:
    return enumerate_curves(F, "regular")


def enumerate_exceptional(F: GF2n) -> list[Curve]:
    return enumerate_curves(F, "exceptional")


def nonintersecting(c1: PointSet, c2: PointSet) -> bool:
    """Whether two distinct curves share only the origin."""
    return len(c1 & c2) == 1


def all_nonintersecting(curves: Sequence[PointSet]) -> bool:
    """Pairwise intersection exactly at the origin."""
    return all(nonintersecting(p, q) for p, q in itertools.combinations(curves, 2))
