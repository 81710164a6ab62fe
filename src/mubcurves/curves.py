"""Additive commutative curves in the discrete phase space of n qubits.

A curve is the image of kappa |-> (alpha(kappa), beta(kappa)) where alpha
and beta are linearised (additive) polynomials over GF(2^n).  Admissible
curves are exactly the Lagrangian subgroups of GF(2^n) x GF(2^n) under the
symplectic trace form tr(alpha beta') + tr(alpha' beta); each one labels a
maximal set of commuting displacement operators, hence a basis of a
complete MUB atlas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
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
    """tr(alpha beta') + tr(alpha' beta) for points (alpha,beta),(alpha',beta')."""
    return F.trace(F.mul(p[0], q[1])) ^ F.trace(F.mul(p[1], q[0]))


def is_additive_subgroup(points: Iterable[Point]) -> bool:
    pts = set(points)
    return (0, 0) in pts and all(
        (p[0] ^ q[0], p[1] ^ q[1]) in pts for p in pts for q in pts)


def is_commutative(F: GF2n, points: Iterable[Point]) -> bool:
    """Whether the point set is isotropic for the symplectic trace form."""
    pts = list(points)
    return all(symplectic_trace(F, p, q) == 0
               for p, q in itertools.combinations(pts, 2))


def point_generators(pts: PointSet) -> list[Point]:
    """Generators of an additive subgroup: greedily, in sorted point order.

    Every point lies in the span of the result, and the span has
    2^len(result) points; so a set of 2^k points is a subgroup exactly
    when it has k generators.
    """
    gens: list[Point] = []
    span = {(0, 0)}
    for p in sorted(pts):
        if p not in span:
            gens.append(p)
            span |= {(p[0] ^ a, p[1] ^ b) for a, b in span}
    return gens


def _subgroup_generators(F: GF2n, pts: PointSet) -> Optional[list[Point]]:
    """n generators when the points form an additive subgroup of order 2^n."""
    if len(pts) != F.order:
        return None
    gens = point_generators(pts)
    return gens if len(gens) == F.n else None


def is_admissible(F: GF2n, points: Iterable[Point]) -> bool:
    """A Lagrangian subgroup: additive, isotropic, of full size 2^n.

    O(d n): isotropy is checked on generator pairs only, which suffices
    because the trace form is bilinear and alternating.
    """
    gens = _subgroup_generators(F, frozenset(points))
    return gens is not None and is_commutative(F, gens)


def assert_admissible(F: GF2n, points: Iterable[Point]) -> PointSet:
    pts = frozenset(points)
    gens = _subgroup_generators(F, pts)
    if gens is None:
        raise NotAnAdmissibleCurve(
            f"point set of size {len(pts)} is not an additive subgroup of order {F.order}")
    if not is_commutative(F, gens):
        raise NotCommutative("point set is not isotropic under the symplectic trace form")
    return pts


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


def _classification(F: GF2n, pts: PointSet, ra: int, rb: int,
                    da: int, db: int) -> CurveClassification:
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
    return CurveClassification(kind, variant, da, db, ra, rb,
                               1 << (F.n - ra), 1 << (F.n - rb))


def classify(F: GF2n, curve: ParametricCurve) -> CurveClassification:
    """Regular vs exceptional, with the per-axis ranks and degeneracies.

    Regular means at least one of the parametrising additive maps is a
    bijection; exceptional means both are singular while the curve itself
    still has 2^n distinct points.
    """
    pts = assert_admissible(F, point_set(F, curve))
    ra, da = mat_rank_det(F, w_matrix(F, curve.alpha_coeffs))
    rb, db = mat_rank_det(F, w_matrix(F, curve.beta_coeffs))
    # cross-check the algebraic rank against the geometric projection size
    n_alpha = len({a for a, _ in pts})
    n_beta = len({b for _, b in pts})
    if n_alpha != 1 << ra or n_beta != 1 << rb:
        raise InconsistentDegeneracy(
            f"projection sizes {n_alpha},{n_beta} disagree with ranks {ra},{rb}")
    return _classification(F, pts, ra, rb, da, db)


def classify_points(F: GF2n, points: Iterable[Point]) -> CurveClassification:
    """Classification straight from the point set (projection dimensions)."""
    pts = assert_admissible(F, points)
    ra = len(subgroup_basis({a for a, _ in pts}))
    rb = len(subgroup_basis({b for _, b in pts}))
    return _classification(F, pts, ra, rb,
                           1 if ra == F.n else 0, 1 if rb == F.n else 0)


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


def explicit_form(F: GF2n, curve: ParametricCurve) -> ExplicitForm:
    """Solve for phi from the curve's points; needs a nonsingular alpha map."""
    pts = point_set(F, curve)
    cls = classify(F, curve)
    if cls.degeneracy_alpha != 1:
        raise NoExplicitForm(
            f"alpha map has degeneracy {cls.degeneracy_alpha}; beta is not a function of alpha")
    n = F.n
    beta_of = dict(pts)
    alphas = subgroup_basis(a for a, _ in pts)
    rows = [[F.frobenius(a, m) for m in range(n)] for a in alphas]
    rhs = [beta_of[a] for a in alphas]
    phi = mat_solve(F, rows, rhs)
    if phi is None:  # pragma: no cover - full-rank Moore system always solves
        raise NoExplicitForm("no additive polynomial interpolates beta(alpha)")
    form = ExplicitForm(tuple(phi))
    if any(form.eval(F, a) != b for a, b in pts):
        raise NoExplicitForm("interpolant fails on the curve")  # pragma: no cover
    if not commutativity_symmetric(F, phi):
        raise NotCommutative("explicit coefficients violate the symmetry constraint")
    return form


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
    for orientation in ("alpha_form", "beta_form"):
        axis = 0 if orientation == "alpha_form" else 1
        if len({p[axis] for p in pts}) != F.order:
            continue
        if axis == 1:
            pts_o = frozenset((b, a) for a, b in pts)
        else:
            pts_o = pts
        beta_of = dict(pts_o)
        basis = subgroup_basis(beta_of)
        rows = [[F.frobenius(a, m) for m in range(F.n)] for a in basis]
        sol = mat_solve(F, rows, [beta_of[a] for a in basis])
        if sol is not None:
            return ExplicitCurve(orientation, tuple(sol))
    raise NoExplicitForm("neither coordinate map is invertible; curve is exceptional")


def curve_from_phi(F: GF2n, phi: Sequence[int]) -> ParametricCurve:
    """The regular curve alpha = kappa, beta = sum phi_m kappa^(2^m)."""
    n = F.n
    if len(phi) != n:
        raise InputError(f"need {n} coefficients, got {len(phi)}")
    if not commutativity_symmetric(F, phi):
        raise NotCommutative(f"phi = {tuple(phi)} violates phi_j = phi_(n-j)^(2^j)")
    alpha = tuple([1] + [0] * (n - 1))
    return ParametricCurve(alpha, tuple(phi))


def phi_pair_curve(F: GF2n, phi0: int, phi: int) -> ParametricCurve:
    """n = 3 regular curve beta = phi0*alpha + phi^2*alpha^2 + phi*alpha^4."""
    if F.n != 3:
        raise InputError("the (phi0, phi) parametrisation is specific to three qubits")
    return curve_from_phi(F, (phi0, F.mul(phi, phi), phi))


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
    """xi with tr(xi x) = 0 exactly on a corank-1 subgroup."""
    span = subgroup_span(subgroup_basis(group))
    if len(span) != F.order // 2:
        raise NoStructuralEquation(
            f"trace witness needs a corank-1 subgroup, got size {len(span)}")
    for xi in range(1, F.order):
        if all(F.trace(F.mul(xi, a)) == 0 for a in span):
            return xi
    raise NoStructuralEquation("no trace witness found")  # pragma: no cover


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


def exceptional_equal(F: GF2n, roots: Sequence[int]) -> PointSet:
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
                        swap: bool = False) -> PointSet:
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


def _all_subgroups(F: GF2n, dim: int) -> Iterator[frozenset[int]]:
    """All additive subgroups of GF(2^n) of the given GF(2)-dimension."""
    seen = set()
    for gens in itertools.combinations(range(1, F.order), dim):
        span = subgroup_span(gens)
        if len(span) == 1 << dim and span not in seen:
            seen.add(span)
            yield span


def enumerate_curves(F: GF2n, kind: Optional[str] = None) -> list[PointSet]:
    """Every admissible curve, as canonical point sets, in a fixed sorted order.

    Regular curves are swept directly from their explicit coefficients
    (phi tuples satisfying the commutativity symmetry, plus the vertical
    ray alpha = 0).  Exceptional curves are found by completing each
    proper alpha-projection subgroup A with its trace complement and every
    admissible additive section A -> GF(2^n)/A_perp.
    """
    curves: set[PointSet] = set()
    if kind in (None, "regular"):
        curves.update(enumerate_regular(F))
    if kind in (None, "exceptional"):
        curves.update(enumerate_exceptional(F))
    return sorted(curves, key=lambda s: sorted(s))


def enumerate_regular(F: GF2n) -> list[PointSet]:
    """All curves with a nonsingular axis map.

    Every such curve is either the vertical ray alpha = 0 or has
    nonsingular alpha map, i.e. is beta = sum phi_m alpha^(2^m) for a
    symmetric phi; the tail phi_1..phi_{n-1} is determined by its first
    half, with the middle coefficient (even n) confined to the subfield
    GF(2^(n/2)).
    """
    n = F.n
    curves: set[PointSet] = {frozenset((0, b) for b in F.elements())}
    free = list(range(1, (n + 1) // 2))
    mid = [n // 2] if n % 2 == 0 and n > 1 else []
    for choice in itertools.product(F.elements(), repeat=1 + len(free) + len(mid)):
        phi = [0] * n
        phi[0] = choice[0]
        for val, j in zip(choice[1:], free):
            phi[j] = val
            phi[n - j] = F.frobenius(val, n - j)
        if mid:
            m = mid[0]
            val = choice[-1]
            if F.frobenius(val, m) != val:
                continue
            phi[m] = val
        pts = point_set(F, curve_from_phi(F, phi))
        curves.add(pts)
        # mirrored family alpha = g(beta), for singular alpha / nonsingular beta
        curves.add(frozenset((b, a) for a, b in pts))
    return sorted(curves, key=lambda s: sorted(s))


def enumerate_exceptional(F: GF2n) -> list[PointSet]:
    curves: set[PointSet] = set()
    n = F.n
    for r in range(1, n):
        for A in _all_subgroups(F, r):
            basisA = subgroup_basis(A)
            T = trace_orthogonal_complement(F, A)
            reps = _coset_reps(F, T)
            for images in itertools.product(reps, repeat=r):
                pts = _section_curve(F, basisA, images, T)
                if pts is not None:
                    curves.add(pts)
    return sorted(curves, key=lambda s: sorted(s))


def _coset_reps(F: GF2n, T: frozenset[int]) -> list[int]:
    reps, seen = [], set()
    for x in F.elements():
        if x not in seen:
            reps.append(x)
            seen |= {x ^ t for t in T}
    return reps


def _section_curve(F: GF2n, basisA: Sequence[int], images: Sequence[int],
                   T: frozenset[int]) -> Optional[PointSet]:
    """Curve {(a, f(a) + t)} for the additive section with f(basisA) = images,
    if symmetric, genuinely exceptional, and admissible."""
    r = len(basisA)
    f = {0: 0}
    for bits in range(1, 1 << r):
        a = fa = 0
        for k in range(r):
            if bits >> k & 1:
                a ^= basisA[k]
                fa ^= images[k]
        f[a] = fa
    # symmetry of the section: tr(a f(a')) = tr(a' f(a))
    for i in range(r):
        for j in range(i + 1, r):
            if (F.trace(F.mul(basisA[i], images[j]))
                    != F.trace(F.mul(basisA[j], images[i]))):
                return None
    beta_span = subgroup_span(list(images) + list(subgroup_basis(T)))
    if len(beta_span) == F.order:
        return None  # beta map is onto, so the curve is regular
    pts = frozenset((a, fa ^ t) for a, fa in f.items() for t in T)
    return pts if is_admissible(F, pts) else None


def nonintersecting(c1: PointSet, c2: PointSet) -> bool:
    """Whether two distinct curves share only the origin."""
    return len(c1 & c2) == 1


def all_nonintersecting(curves: Sequence[PointSet]) -> bool:
    """Pairwise intersection exactly at the origin."""
    return all(nonintersecting(p, q) for p, q in itertools.combinations(curves, 2))
