"""Independent oracles for the benchmark: none of this imports mubcurves.

Field elements use the same integer encoding as the package (bit i is the
coefficient of s^i), so point sets can be handed to the library and its
answers compared directly. Everything here is recomputed from definitions:
carry-less multiplication, the trace as a sum of Frobenius powers, the
symplectic form tr(a b') + tr(a' b), and counting formulas.
"""

from __future__ import annotations

import itertools
import random

Point = tuple[int, int]

# Complete bundles at n = 3 (9 pairwise disjoint curves covering the 63
# nonzero points); every search run re-derives it as a networkx clique count.
BUNDLES_N3 = 960

# The package's documented default moduli, as little-endian bit strings.
DEFAULT_MODULUS_BITS = {1: "11", 2: "111", 3: "1101", 4: "11001"}


def bits_to_int(bits: str) -> int:
    return int(bits[::-1], 2)


def _clmul_mod(a: int, b: int, mod: int, n: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= mod
    return r


def irreducible_bits(n: int) -> list[str]:
    """Little-endian bit strings of every irreducible polynomial of degree n."""
    out = []
    for p in range(1 << n, 1 << (n + 1)):
        if n > 1 and not p & 1:
            continue
        if all(_polymod(p, q) for d in range(1, n // 2 + 1)
               for q in range(1 << d, 1 << (d + 1))):
            out.append(format(p, "b")[::-1])
    return out


def _polymod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


class Field:
    """GF(2^n) from a modulus, with the package's naming conventions:
    `s` is the least element of full multiplicative order, and the selfdual
    basis is the lexicographically least tuple with tr(t_k t_l) = delta."""

    def __init__(self, n: int, modulus_bits: str | None = None) -> None:
        self.n = n
        self.bits = modulus_bits or DEFAULT_MODULUS_BITS[n]
        self.modulus = bits_to_int(self.bits)
        self.order = q = 1 << n
        self.mul_table = [[_clmul_mod(a, b, self.modulus, n) for b in range(q)]
                          for a in range(q)]
        self.trace_table = []
        for a in range(q):
            t, x = 0, a
            for _ in range(n):
                t ^= x
                x = self.mul(x, x)
            self.trace_table.append(t)
        self.primitive = next(a for a in range(1, q) if self._order(a) == q - 1)
        self.antilog = [1]
        for _ in range(q - 2):
            self.antilog.append(self.mul(self.antilog[-1], self.primitive))
        self.log = {a: k for k, a in enumerate(self.antilog)}
        self.selfdual = self._selfdual()

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def tr(self, a: int) -> int:
        return self.trace_table[a]

    def frob(self, a: int, k: int) -> int:
        for _ in range(k):
            a = self.mul(a, a)
        return a

    def _order(self, a: int) -> int:
        k, x = 1, a
        while x != 1:
            x, k = self.mul(x, a), k + 1
        return k

    def _selfdual(self) -> tuple[int, ...]:
        def extend(partial: tuple[int, ...]):
            if len(partial) == self.n:
                return partial
            for c in range(1, self.order):
                if self.tr(self.mul(c, c)) == 1 and not any(
                        self.tr(self.mul(c, t)) for t in partial):
                    found = extend(partial + (c,))
                    if found:
                        return found
            return None
        return extend(())

    def name(self, a: int) -> str:
        """Element name as the package prints it: 0, 1, s, s^k."""
        if a in (0, 1):
            return str(a)
        k = self.log[a]
        return "s" if k == 1 else f"s^{k}"

    def sym(self, p: Point, q: Point) -> int:
        return self.tr(self.mul(p[0], q[1])) ^ self.tr(self.mul(p[1], q[0]))

    # -- curves --------------------------------------------------------------

    def span(self, gens) -> frozenset[Point]:
        pts = {(0, 0)}
        for g in gens:
            if g not in pts:
                pts |= {(g[0] ^ a, g[1] ^ b) for a, b in pts}
        return frozenset(pts)

    def is_lagrangian(self, pts: frozenset[Point]) -> bool:
        """Additive subgroup of size 2^n on which the symplectic form vanishes."""
        if len(pts) != self.order or (0, 0) not in pts:
            return False
        if any((p[0] ^ q[0], p[1] ^ q[1]) not in pts for p in pts for q in pts):
            return False
        gens = _basis(pts)
        return all(self.sym(p, q) == 0 for p, q in itertools.combinations(gens, 2))

    def random_lagrangian(self, rng: random.Random) -> frozenset[Point]:
        """Grow an isotropic basis one random orthogonal point at a time."""
        gens: list[Point] = []
        pts = frozenset({(0, 0)})
        while len(gens) < self.n:
            p = (rng.randrange(self.order), rng.randrange(self.order))
            if p not in pts and all(self.sym(p, g) == 0 for g in gens):
                gens.append(p)
                pts = self.span(gens)
        return pts

    def explicit_points(self, phi) -> frozenset[Point]:
        """Points of beta = sum_m phi[m] alpha^(2^m)."""
        return frozenset(
            (a, _xor(self.mul(c, self.frob(a, m)) for m, c in enumerate(phi)))
            for a in range(self.order))

    def random_symmetric_phi(self, rng: random.Random) -> tuple[int, ...]:
        """phi with phi_j = phi_(n-j)^(2^j): a random regular curve's coefficients."""
        n = self.n
        while True:
            phi = [rng.randrange(self.order) for _ in range(n)]
            for j in range(1, n):
                if j > n - j:
                    phi[j] = self.frob(phi[n - j], j)
            if all(phi[j] == self.frob(phi[(n - j) % n], j) for j in range(1, n)):
                return tuple(phi)

    def transform(self, pts: frozenset[Point], ops) -> frozenset[Point]:
        """Local pi/2 rotations acting on the selfdual z/x bits of every point."""
        maps = {"z": lambda z, x: (z ^ x, x), "x": lambda z, x: (z, x ^ z),
                "y": lambda z, x: (x, z)}
        for axis, qubit in ops:
            out = set()
            for a, b in pts:
                z = [self.tr(self.mul(a, t)) for t in self.selfdual]
                x = [self.tr(self.mul(b, t)) for t in self.selfdual]
                z[qubit - 1], x[qubit - 1] = maps[axis](z[qubit - 1], x[qubit - 1])
                out.add((_combine(z, self.selfdual), _combine(x, self.selfdual)))
            pts = frozenset(out)
        return pts

    def fmt_points(self, pts) -> str:
        return "{" + ", ".join(f"({self.name(a)}, {self.name(b)})"
                               for a, b in sorted(pts)) + "}"

    def field_text(self) -> list[str]:
        """The text lines `mubc field` prints for this field."""
        q, sd = self.order, self.selfdual
        one_plus_s = 1 ^ self.primitive
        return [
            f"GF(2^{self.n}): {q} elements, modulus bits {self.bits}",
            f"primitive s = element {self.primitive}",
            "powers: " + ", ".join(f"s^{k}={a}" for k, a in enumerate(self.antilog)),
            "trace-1 elements: " + ", ".join(self.name(a) for a in range(q) if self.tr(a)),
            "selfdual basis: (" + ", ".join(self.name(t) for t in sd) + ")",
            f"L(1) = {self.log[one_plus_s]}" if one_plus_s else "L(1) undefined (1+s=0)",
        ]


def _xor(values) -> int:
    out = 0
    for v in values:
        out ^= v
    return out


def _combine(bits, basis) -> int:
    return _xor(t for bit, t in zip(bits, basis) if bit)


def _basis(pts) -> list[Point]:
    gens: list[Point] = []
    span = {(0, 0)}
    for p in sorted(pts):
        if p not in span:
            gens.append(p)
            span |= {(p[0] ^ a, p[1] ^ b) for a, b in span}
    return gens


def is_regular(F: Field, pts) -> bool:
    """A curve is regular when one of its two projections is onto."""
    return (len({a for a, _ in pts}) == F.order
            or len({b for _, b in pts}) == F.order)


def disjoint(c1, c2) -> bool:
    return len(c1 & c2) == 1


# -- counting formulas ---------------------------------------------------------


def atlas_size(n: int) -> int:
    """Lagrangian subspaces of F_2^(2n): prod_{k=1}^n (2^k + 1)."""
    out = 1
    for k in range(1, n + 1):
        out *= (1 << k) + 1
    return out


def regular_count(n: int) -> int:
    """Curves with an onto projection: graphs of symmetric maps over either
    axis, 2 * 2^(n(n+1)/2), less the doubly counted invertible ones, which
    are counted here by brute force over all symmetric n x n GF(2) matrices."""
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    invertible = 0
    for mask in range(1 << len(entries)):
        rows = [0] * n
        for k, (i, j) in enumerate(entries):
            if mask >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        invertible += _gf2_rank(rows) == n
    return 2 * (1 << len(entries)) - invertible


def _gf2_rank(rows: list[int]) -> int:
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def lagrangians_n3(F: Field) -> list[frozenset[Point]]:
    """Every Lagrangian at n = 3, from all isotropic triples of points."""
    assert F.n == 3
    pts = [(a, b) for a in range(8) for b in range(8) if (a, b) != (0, 0)]
    found = set()
    for p, q in itertools.combinations(pts, 2):
        if F.sym(p, q):
            continue
        pq = F.span([p, q])
        for r in pts:
            if r not in pq and not F.sym(p, r) and not F.sym(q, r):
                found.add(F.span([p, q, r]))
    return sorted(found, key=sorted)


def bundle_cliques(curves) -> list[frozenset]:
    """Complete bundles as the 2^n + 1 cliques of the disjointness graph,
    found by networkx (an implementation independent of the package)."""
    import networkx as nx

    need = len(next(iter(curves)))  # 2^n points per curve, 2^n + 1 curves
    G = nx.Graph()
    G.add_nodes_from(range(len(curves)))
    G.add_edges_from((i, j) for i, j in itertools.combinations(range(len(curves)), 2)
                     if disjoint(curves[i], curves[j]))
    return [frozenset(curves[i] for i in clique) for clique in nx.find_cliques(G)
            if len(clique) == need + 1]
