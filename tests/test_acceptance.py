"""Acceptance gate: one pass/fail line per criterion.

Each criterion prints exactly one `ACCEPTANCE k: PASS|FAIL` line through the
capture-disabled channel so the verdicts are visible in any pytest run.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from mubcurves import bundles as B
from mubcurves import cli
from mubcurves import curves as C
from mubcurves import pauli as P
from mubcurves import verify as V
from mubcurves.field import make_field

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)


def s4(k):
    return F4.sigma_pow(k)


def s8(k):
    return F8.sigma_pow(k)


def _line(capsys, text):
    with capsys.disabled():
        print(text)


def _verdict(capsys, k, body):
    try:
        detail = body()
    except BaseException:
        _line(capsys, f"ACCEPTANCE {k}: FAIL")
        raise
    _line(capsys, f"ACCEPTANCE {k}: PASS" + (f" ({detail})" if detail else ""))


# -- 1. curve census, n = 2 ---------------------------------------------------------


def test_acceptance_1_census_two_qubits(capsys):
    def body():
        atlas = C.enumerate_curves(F4)
        kinds = [C.classify_points(F4, pts).kind for pts in atlas]
        assert len(atlas) == 15
        assert kinds.count("regular") == 12
        assert kinds.count("exceptional") == 3
        return "15 curves: 12 regular + 3 exceptional"
    _verdict(capsys, 1, body)


# -- 2. curve census, n = 3 ---------------------------------------------------------


def test_acceptance_2_census_three_qubits(capsys):
    def body():
        atlas = C.enumerate_curves(F8)
        regular = equal = mixed = 0
        for pts in atlas:
            cls = C.classify_points(F8, pts)
            if cls.kind == "regular":
                regular += 1
            elif cls.degeneracy_alpha == cls.degeneracy_beta:
                equal += 1
            else:
                mixed += 1
        assert (regular, equal, mixed) == (100, 21, 14)
        return "100 regular + 21 equal-degeneracy + 14 mixed exceptional"
    _verdict(capsys, 2, body)


# -- 3. independent oracle: maximal commuting cliques -------------------------------


def _maximal_commuting_cliques(F):
    """Count maximal sets of pairwise-commuting nonidentity monomials via a
    graph-clique oracle that never touches the curve machinery."""
    points = [(a, b) for a in F.elements() for b in F.elements() if (a, b) != (0, 0)]
    g = nx.Graph()
    g.add_nodes_from(points)
    for p, q in itertools.combinations(points, 2):
        if C.symplectic_trace(F, p, q) == 0:
            g.add_edge(p, q)
    return sum(1 for _ in nx.find_cliques(g))


def test_acceptance_3_clique_oracle(capsys):
    def body():
        for F, want in ((F4, 15), (F8, 135)):
            assert _maximal_commuting_cliques(F) == want
            assert len(C.enumerate_curves(F)) == want
        return "atlas sizes 15 and 135 match the clique oracle"
    _verdict(capsys, 3, body)


# -- 4. worked-example regression ----------------------------------------------------


def test_acceptance_4_worked_examples(capsys):
    def body():
        # three-qubit regular curve with explicit form b = s^6 a + s^3 a^2 + s^5 a^4
        curve = C.ParametricCurve((s8(2), 1, s8(4)), (s8(3), s8(6), s8(6)))
        assert C.explicit_form(F8, curve).phi == (s8(6), s8(3), s8(5))
        pts = set(C.assert_admissible(F8, C.point_set(F8, curve))) - {(0, 0)}
        assert pts == {(s8(6), s8(5)), (s8(5), s8(6)), (s8(4), s8(2)),
                       (s8(1), s8(1)), (1, 1), (s8(2), s8(4)), (s8(3), s8(3))}

        # companion curve whose alpha map is singular: a bare Z_{s^6} appears
        curve2 = C.ParametricCurve((0, 0, s8(2)), (s8(2), 1, s8(1)))
        pts2 = set(C.assert_admissible(F8, C.point_set(F8, curve2))) - {(0, 0)}
        assert pts2 == {(s8(6), 0), (s8(3), s8(2)), (1, s8(5)), (s8(4), s8(2)),
                        (s8(1), s8(3)), (s8(5), s8(3)), (s8(2), s8(5))}

        # two-qubit exceptional curve and its structural equations
        exc4 = frozenset({(0, 0), (s4(1), s4(2)), (0, s4(2)), (s4(1), 0)})
        assert C.classify_points(F4, exc4).kind == "exceptional"
        ea, eb = C.structural_equations(F4, exc4)
        assert ea.coeffs == (s4(1),) and eb.coeffs == (s4(2),)

        # three-qubit equal-degeneracy exceptional: roots s^4, s^3 give the
        # beta offset b1 = s^5 (the sum of inverses over the alpha subgroup)
        pts_eq = C.exceptional_equal(F8, (s8(4), s8(3)))
        offsets = {b for a, b in pts_eq if a == 0}
        assert offsets == {0, s8(5)}
        assert pts_eq == frozenset({
            (0, 0), (s8(4), 0), (s8(4), s8(5)), (s8(3), 1), (s8(3), s8(4)),
            (s8(6), s8(4)), (s8(6), 1), (0, s8(5))})
        e1, e2 = C.structural_equations(F8, pts_eq)
        assert e1.coeffs == (s8(6), s8(4)) and e2.coeffs == (s8(2), s8(6))

        # three-qubit mixed-degeneracy exceptional: delta = s^6, beta in {0, s^6}
        pts_mx = C.exceptional_unequal(F8, (s8(3), s8(5)))
        assert {b for _, b in pts_mx} == {0, s8(6)}
        m1, m2 = C.structural_equations(F8, pts_mx)
        assert m1.coeffs == (s8(3), s8(2)) and m2.coeffs == (s8(6),)
        return "all five worked examples reproduced"
    _verdict(capsys, 4, body)


# -- 5. two-qubit rotation table -----------------------------------------------------

BETA_ZERO = frozenset((a, 0) for a in F4.elements())

# (row id, per-qubit rotations in slot order, expected point set)
TABLE_ROWS = [
    ("x.1", ("x", None), {(0, 0), (1, 3), (2, 0), (3, 3)}),
    ("y.1", ("y", None), {(0, 0), (0, 2), (3, 0), (3, 2)}),
    ("1.x", (None, "x"), {(0, 0), (1, 2), (2, 2), (3, 0)}),
    ("1.y", (None, "y"), {(0, 0), (0, 3), (2, 0), (2, 3)}),
    ("x.x", ("x", "x"), {(0, 0), (1, 1), (2, 2), (3, 3)}),
    ("y.y", ("y", "y"), {(0, 0), (1, 2), (2, 2), (3, 0)}),
    ("x.y", ("x", "y"), {(0, 0), (2, 0)}),
    ("y.x", ("y", "x"), {(0, 0), (3, 1), (0, 2), (3, 3)}),
]

INCONSISTENT_ROWS = {
    # the stated image duplicates the 1.x row; the actual image of a double
    # y rotation of beta = 0 is the ray alpha = 0 under every qubit labeling
    "y.y",
    # the stated relations admit only two points, so they describe no
    # admissible curve at all
    "x.y",
}


def _row_images(rotations):
    """Images of beta = 0 under the row's rotations, for both ways of
    assigning table slots to qubit positions."""
    images = []
    for slots in (rotations, rotations[::-1]):
        ops = [(kind, q + 1) for q, kind in enumerate(slots) if kind]
        images.append(P.transform_curve(F4, BETA_ZERO, ops))
    return images


@pytest.mark.parametrize(
    "row,rotations,expected",
    [pytest.param(*r, id=r[0],
                  marks=[pytest.mark.xfail(
                      reason="stated curve contradicts the rotation algebra",
                      strict=True)] if r[0] in INCONSISTENT_ROWS else [])
     for r in TABLE_ROWS])
def test_acceptance_5_rotation_table_row(row, rotations, expected):
    assert frozenset(expected) in _row_images(rotations)


def test_acceptance_5_rotation_table_summary(capsys):
    try:
        matched = [r for r, rot, exp in TABLE_ROWS
                   if frozenset(exp) in _row_images(rot)]
        assert set(matched) == {r for r, _, _ in TABLE_ROWS} - INCONSISTENT_ROWS
        # the y.y row's true image is the ray alpha = 0
        assert _row_images(("y", "y"))[0] == frozenset(
            (0, b) for b in F4.elements())
    except BaseException:
        _line(capsys, "ACCEPTANCE 5: FAIL")
        raise
    _line(capsys, "ACCEPTANCE 5: FAIL (6/8 rows exact; rows y.y and x.y "
                  "are internally inconsistent in the source table and are "
                  "tracked as strict expected failures)")


# -- 6. bundle structures --------------------------------------------------------------


def _mixed_nine_bundle():
    def acurve(phi):
        return C.point_set(F8, C.curve_from_phi(F8, list(phi)))

    def bcurve(phi):
        return frozenset((b, a) for a, b in acurve(phi))

    def brute(eq):
        return frozenset((a, b) for a in F8.elements()
                         for b in F8.elements() if eq(a, b))

    exc1 = brute(lambda a, b: (
        F8.add(F8.mul(b, b), F8.mul(s8(5), b))
        == F8.add(F8.mul(s8(2), F8.mul(a, a)), F8.mul(s8(6), a))
        and F8.trace(F8.mul(s8(4), b)) == 0 and F8.trace(F8.mul(s8(5), a)) == 0))
    exc2 = brute(lambda a, b: (
        F8.add(F8.mul(b, b), F8.mul(s8(2), b))
        == F8.add(F8.mul(s8(6), F8.mul(a, a)), F8.mul(s8(5), a))
        and F8.trace(F8.mul(s8(6), b)) == 0 and F8.trace(F8.mul(s8(2), a)) == 0))
    return B.make_bundle(F8, [
        bcurve((s8(2), s8(3), s8(5))), bcurve((s8(6), s8(3), s8(5))),
        acurve((s8(2), s8(3), s8(5))), acurve((0, s8(6), s8(3))),
        bcurve((1, s8(6), s8(3))), acurve((1, s8(3), s8(5))),
        bcurve((0, s8(3), s8(5))), exc1, exc2])


CLOSURE_SEEDS = [(s8(6), s8(3), s8(5)), (s8(2), s8(5), s8(6)), (s8(3), 0, 0)]


def _all_gf4_bundles():
    return B.search_bundles(F4, limit=10 ** 6)


def test_acceptance_6_bundle_structures(capsys):
    def body():
        assert P.bundle_structure(F4, B.ray_bundle(F4).curves) == (3, 2)
        gf4 = _all_gf4_bundles()
        assert all(P.bundle_structure(F4, b.curves) == (3, 2) for b in gf4)
        for phi in F8.elements():
            tail = [F8.frobenius(phi, 1), phi]
            got = P.bundle_structure(F8, B.build_regular_bundle(F8, tail).curves)
            assert got == ((3, 0, 6) if F8.trace(phi) == 0 else (1, 6, 2))
        closure = B.closure_bundle(F8, CLOSURE_SEEDS)
        assert P.bundle_structure(F8, closure.curves) == (2, 3, 4)
        assert P.bundle_structure(F8, _mixed_nine_bundle().curves) == (0, 9, 0)
        return "(3,2) x%d, (3,0,6), (1,6,2), (2,3,4), (0,9,0)" % len(gf4)
    _verdict(capsys, 6, body)


# -- 7. exact mutual unbiasedness -------------------------------------------------------


def test_acceptance_7_unbiasedness(capsys):
    def body():
        cases = [(F4, b) for b in _all_gf4_bundles()]
        cases += [(F8, B.ray_bundle(F8)),
                  (F8, B.build_regular_bundle(F8, [s8(6), s8(3)])),
                  (F8, B.closure_bundle(F8, CLOSURE_SEEDS)),
                  (F8, _mixed_nine_bundle())]
        for F, bundle in cases:
            assert len(bundle) == F.order + 1
            bases = [V.eigenbasis(F, c) for c in bundle.curves]
            want = Fraction(1, F.order)
            for b1, b2 in itertools.combinations(bases, 2):
                assert set(V.unbiasedness_overlaps(b1, b2)) == {want}
        return "%d bundles, every cross overlap exactly 1/d" % len(cases)
    _verdict(capsys, 7, body)


# -- 8. property suites ------------------------------------------------------------------


def test_acceptance_8_property_suites(capsys):
    def body():
        rng = random.Random(20260826)

        # curve additivity on all parameter pairs
        for F in (F4, F8):
            for pts in C.enumerate_curves(F):
                for p, q in itertools.product(sorted(pts), repeat=2):
                    assert (p[0] ^ q[0], p[1] ^ q[1]) in pts

        # det W in {0, 1}: exhaustive for n = 2, >= 10^4 random for n = 3
        for coeffs in itertools.product(F4.elements(), repeat=2):
            assert C.w_det(F4, coeffs) in (0, 1)
        for _ in range(10 ** 4):
            coeffs = tuple(rng.randrange(8) for _ in range(3))
            assert C.w_det(F8, coeffs) in (0, 1)

        # trace balancedness and character orthogonality (field core: n <= 4)
        for F in (F2, F4, F8, F16):
            traces = [F.trace(a) for a in F.elements()]
            assert traces.count(0) == traces.count(1) == F.order // 2
            for a in F.elements():
                total = sum(F.character(F.mul(a, b)) for b in F.elements())
                assert total == (F.order if a == 0 else 0)

        # Weyl commutation as an exact dense identity
        for F in (F4, F8):
            for p, q in itertools.combinations_with_replacement(
                    [(a, b) for a in F.elements() for b in F.elements()], 2):
                M1, M2 = V.dense_monomial(F, *p), V.dense_monomial(F, *q)
                sign = (-1) ** C.symplectic_trace(F, p, q)
                assert np.array_equal(M1 @ M2, sign * (M2 @ M1))

        # eigenbasis completeness: sum of projectors is the identity
        for F in (F4, F8):
            for c in B.ray_bundle(F).curves:
                mat = np.array([v.to_complex()
                                for v in V.eigenbasis(F, c).vectors]).T
                assert np.allclose(mat @ mat.conj().T, np.eye(F.order))

        # local transformations preserve factorization partitions
        for F in (F4, F8):
            for pts in C.enumerate_curves(F):
                part = P.factorization_partition(F, pts)
                for kind in "zxy":
                    for qubit in range(1, F.n + 1):
                        image = P.transform_curve(F, pts, [(kind, qubit)])
                        assert P.factorization_partition(F, image) == part
        return "additivity, det, trace, character, Weyl, completeness, partitions"
    _verdict(capsys, 8, body)


# -- 9. CLI determinism --------------------------------------------------------------------


def test_acceptance_9_cli_determinism(capsys):
    def body():
        commands = [
            ["field", "--n", "3", "--format", "json"],
            ["curves", "--n", "2", "--format", "tsv"],
            ["transform", "--n", "2", "--curve", "b = 0", "--ops", "x@1;x@2"],
            ["bundle", "--n", "3", "--strategy", "regular-tail", "--phi", "s^3"],
            ["verify", "--n", "2"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                code = cli.main(argv)
                out = capsys.readouterr()
                runs.append((code, out.out.encode(), out.err.encode()))
            assert runs[0] == runs[1]
            assert runs[0][0] == 0
        return "%d commands byte-identical across repeated runs" % len(commands)
    _verdict(capsys, 9, body)
