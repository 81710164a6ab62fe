"""Field core: tables, trace/character, bases, Jacobi logarithm."""

from __future__ import annotations

import random

import pytest

from mubcurves.errors import (
    DivisionByZero,
    InvalidModulus,
    SingularBasis,
    UnsupportedDegree,
)
from mubcurves.field import (
    is_irreducible,
    make_field,
    mat_rank_det,
    mat_solve,
    modulus_from_bits,
    modulus_to_bits,
    subgroup_basis,
    subgroup_span,
    trace_orthogonal_complement,
    trace_pairing,
)

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)
F32 = make_field(5)
ALL = [F2, F4, F8, F16, F32]


def s4(k):
    return F4.sigma_pow(k)


def s8(k):
    return F8.sigma_pow(k)


class TestConstruction:
    def test_default_moduli(self):
        assert [F.modulus for F in ALL] == [0b11, 0b111, 0b1011, 0b10011, 0b100101]

    def test_sigma_is_x_for_default_moduli(self):
        # element 2 encodes the polynomial x
        assert all(F.primitive == 2 for F in ALL[1:])

    def test_degree_out_of_range(self):
        with pytest.raises(UnsupportedDegree):
            make_field(6)
        with pytest.raises(UnsupportedDegree):
            make_field(0)

    def test_reducible_modulus_rejected(self):
        # x^2 + 1 = (x+1)^2
        with pytest.raises(InvalidModulus):
            make_field(2, 0b101)

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            make_field(3, 0b111)

    def test_nonprimitive_override_rejected(self):
        # 1 never generates the multiplicative group for n >= 2
        with pytest.raises(InvalidModulus):
            make_field(2, primitive=1)

    def test_irreducibility_oracle(self):
        # all irreducible polynomials of degree 2 and 3 over GF(2)
        assert [p for p in range(4, 8) if is_irreducible(p)] == [0b111]
        assert [p for p in range(8, 16) if is_irreducible(p)] == [0b1011, 0b1101]


class TestArithmetic:
    def test_gf4_structure(self):
        # sigma^2 = sigma + 1 = sigma^-1
        assert F4.add(F4.primitive, 1) == F4.mul(F4.primitive, F4.primitive)
        assert F4.mul(F4.primitive, F4.sigma_pow(2)) == 1
        assert F4.inv(F4.primitive) == F4.sigma_pow(2)

    def test_gf8_power_table(self):
        assert [F8.sigma_pow(k) for k in range(7)] == [1, 2, 4, 3, 6, 7, 5]
        assert F8.pow(F8.primitive, 7) == 1

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_log_antilog_roundtrip(self, F):
        for x in range(1, F.order):
            assert F.antilog_table[F.log_table[x]] == x

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_group_axioms(self, F):
        for a in F.elements():
            assert F.add(a, a) == 0
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            if a:
                assert F.mul(a, F.inv(a)) == 1

    def test_div_and_inv_of_zero(self):
        with pytest.raises(DivisionByZero):
            F8.inv(0)
        with pytest.raises(DivisionByZero):
            F8.div(1, 0)
        with pytest.raises(DivisionByZero):
            F8.log(0)

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_frobenius_is_automorphism(self, F):
        for a in F.elements():
            assert F.frobenius(a, F.n) == a
            assert F.frobenius(a, 0) == a
            for b in F.elements():
                assert (F.frobenius(F.mul(a, b), 1)
                        == F.mul(F.frobenius(a, 1), F.frobenius(b, 1)))
                assert F.frobenius(a ^ b, 1) == F.frobenius(a, 1) ^ F.frobenius(b, 1)

    def test_frobenius_examples(self):
        assert F4.frobenius(F4.primitive, 1) == F4.sigma_pow(2)
        assert all(F.frobenius(1, k) == 1 for F in ALL for k in range(F.n))


class TestTraceAndCharacter:
    def test_gf4_traces(self):
        assert F4.trace(F4.primitive) == 1
        assert F4.trace(1) == 0
        assert F4.trace(0) == 0

    def test_gf8_trace_one_elements(self):
        assert sorted(a for a in F8.elements() if F8.trace(a)) == [1, 3, 5, 7]
        assert F8.trace(1) == 1

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_trace_additive_and_balanced(self, F):
        for a in F.elements():
            for b in F.elements():
                assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)
        assert sum(F.trace_table) == F.order // 2

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_character_orthogonality(self, F):
        assert F.character(0) == 1
        for beta in F.elements():
            total = sum(F.character(F.mul(a, beta)) for a in F.elements())
            assert total == (F.order if beta == 0 else 0)

    def test_character_example(self):
        assert F4.character(F4.primitive) == -1


class TestBases:
    def test_gf4_selfdual(self):
        assert F4.selfdual_basis == (F4.primitive, F4.sigma_pow(2))

    def test_gf4_dual_of_polynomial_basis(self):
        assert F4.dual_basis((1, F4.primitive)) == (F4.sigma_pow(2), 1)

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_selfdual_gram_identity(self, F):
        basis = F.selfdual_basis
        for k, tk in enumerate(basis):
            for l, tl in enumerate(basis):
                assert F.trace(F.mul(tk, tl)) == (1 if k == l else 0)

    @pytest.mark.parametrize("F", ALL, ids=lambda F: f"n{F.n}")
    def test_coords_roundtrip(self, F):
        for a in F.elements():
            assert F.from_coords(F.coords(a)) == a

    def test_coords_examples(self):
        assert F4.coords(F4.primitive) == (1, 0)
        assert F4.coords(0) == (0, 0)
        assert F4.coords(1) == (1, 1)  # 1 = sigma + sigma^2

    def test_dependent_basis_rejected(self):
        with pytest.raises(SingularBasis):
            F4.dual_basis((1, 1))
        with pytest.raises(SingularBasis):
            F8.coords(1, basis=(1, 2, 3))


COORD_FIELDS = [make_field(n) for n in range(1, 6)] + [
    make_field(len(bits) - 1, modulus_from_bits(bits)) for bits in ("1011", "10011", "100101")]


@pytest.mark.parametrize("F", COORD_FIELDS, ids=lambda F: f"n{F.n}-{modulus_to_bits(F.modulus)}")
class TestSelfdualCoordinates:
    """`coord_bits` against brute-force traces of products, every pair."""

    def test_parity_is_trace_of_product(self, F):
        b = F.coord_bits
        for x in F.elements():
            for y in F.elements():
                assert (b[x] & b[y]).bit_count() % 2 == F.trace(F.mul(x, y))

    def test_coords_are_msb_first_bits(self, F):
        for x in F.elements():
            assert F.coords(x) == tuple(int(c) for c in format(F.coord_bits[x], f"0{F.n}b"))
            assert F.coords(x) == tuple(F.trace(F.mul(x, t)) for t in F.selfdual_basis)

    def test_coords_in_polynomial_basis_are_the_element_bits(self, F):
        basis = [1 << k for k in range(F.n)]
        for x in F.elements():
            assert F.coords(x, basis) == tuple(x >> k & 1 for k in range(F.n))

    def test_trace_pairing_matches_brute_force(self, F):
        gen_lists = [[g] for g in F.elements()] + [
            list(F.selfdual_basis), [F.sigma_pow(k) for k in range(F.n)], [3 % F.order, 0, 1]]
        for gens in gen_lists:
            want = [sum(F.trace(F.mul(g, x)) << j for j, g in enumerate(gens))
                    for x in F.elements()]
            assert trace_pairing(F, gens) == want


class TestJacobi:
    def test_L1_values(self):
        assert F4.jacobi_L1 == 2
        assert F8.jacobi_L1 == 3
        assert F2.jacobi_L1 is None

    def test_add_step_examples(self):
        # sigma + sigma^2 = 1 in GF(4); = sigma^4 in GF(8)
        assert F4.jacobi_add_step(1) % 3 == 0
        assert F8.jacobi_add_step(1) == 4
        assert F8.jacobi_add_step(5) == 8 % 7

    @pytest.mark.parametrize("F", ALL[1:], ids=lambda F: f"n{F.n}")
    def test_add_step_is_consecutive_sum(self, F):
        for k in range(F.order - 1):
            lhs = F.sigma_pow(k) ^ F.sigma_pow(k + 1)
            assert lhs == F.sigma_pow(F.jacobi_add_step(k))

    def test_gf2_has_no_jacobi(self):
        with pytest.raises(DivisionByZero):
            F2.jacobi_add_step(0)


class TestRendering:
    def test_format(self):
        assert F8.format_element(0) == "0"
        assert F8.format_element(1) == "1"
        assert F8.format_element(2) == "s"
        assert F8.format_element(5) == "s^6"

    def test_parse_roundtrip(self):
        for a in F8.elements():
            assert F8.parse_element(F8.format_element(a)) == a

    def test_modulus_bits(self):
        assert modulus_from_bits("111") == 0b111
        assert modulus_from_bits("1101") == 0b1011
        assert modulus_to_bits(0b1011) == "1101"


class TestLinearAlgebra:
    def test_rank_det_identity(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert mat_rank_det(F8, eye) == (3, 1)

    def test_singular_matrix(self):
        rows = [[1, 2, 4], [1, 2, 4], [0, 0, 1]]
        rank, det = mat_rank_det(F8, rows)
        assert det == 0 and rank == 2

    def test_solve_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [[rng.randrange(8) for _ in range(3)] for _ in range(3)]
            x = [rng.randrange(8) for _ in range(3)]
            rhs = []
            for r in rows:
                acc = 0
                for c, v in zip(r, x):
                    acc ^= F8.mul(c, v)
                rhs.append(acc)
            sol = mat_solve(F8, rows, rhs)
            assert sol is not None
            for r, b in zip(rows, rhs):
                acc = 0
                for c, v in zip(r, sol):
                    acc ^= F8.mul(c, v)
                assert acc == b

    def test_solve_inconsistent(self):
        assert mat_solve(F8, [[1, 1], [1, 1]], [1, 0]) is None

    def test_subgroup_basis_keeps_the_greedy_elements(self):
        # against 3 and 4, 6 reduces to 1; the basis holds 6 itself
        assert subgroup_basis([6, 4, 3]) == [3, 4, 6]
        assert subgroup_basis([5, 3, 6, 0, 5]) == [3, 5]
        rng = random.Random(3)
        for _ in range(200):
            group = [rng.randrange(32) for _ in range(rng.randrange(7))]
            basis = subgroup_basis(group)
            assert basis == sorted(basis) and set(basis) <= set(group)
            assert subgroup_span(basis) == subgroup_span(group)
            assert len(subgroup_span(basis)) == 1 << len(basis)

    def test_subgroup_helpers(self):
        span = subgroup_span([2, 4])
        assert span == frozenset({0, 2, 4, 6})
        assert subgroup_basis(span) == [2, 4]
        comp = trace_orthogonal_complement(F8, span)
        assert len(comp) == 2 and 0 in comp
