"""Exact arithmetic and structure theory of GF(2^n) for 1 <= n <= 5.

Field elements are plain integers whose binary digits are the coordinates
in the polynomial basis {1, s, s^2, ..., s^{n-1}}, where s is the class of
x modulo the defining polynomial.  Addition is XOR; multiplication and
squaring go through precomputed discrete-log and square tables (the fields
have at most 32 elements, so every table is built eagerly at construction).
Qubits read the selfdual coordinates a_k = tr(a theta_k), packed in
`coord_bits[a]` with qubit 1 as the top bit; as tr(theta_k theta_l) =
delta_kl, the trace form is tr(a b) = parity(coord_bits[a] & coord_bits[b]),
and every pairing reads it.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Sequence

from .errors import (
    DivisionByZero,
    InputError,
    InvalidModulus,
    NoSelfdualFound,
    UnsupportedDegree,
    clip,
    reason,
)

MAX_DEGREE = 5

# Default modulus per degree, encoded with bit i = coefficient of x^i.
# n=2 and n=3 are the polynomials x^2+x+1 and x^3+x+1; n=4, n=5 are the
# lexicographically least primitive polynomials x^4+x+1 and x^5+x^2+1.
DEFAULT_MODULI = {
    1: 0b11,        # x + 1
    2: 0b111,       # x^2 + x + 1
    3: 0b1011,      # x^3 + x + 1
    4: 0b10011,     # x^4 + x + 1
    5: 0b100101,    # x^5 + x^2 + 1
}


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    """Carry-less multiply of GF(2) polynomials, reduced modulo `mod`."""
    deg = _poly_degree(mod)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= mod
    return r


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_degree(m)
    while _poly_degree(a) >= dm and a:
        a ^= m << (_poly_degree(a) - dm)
    return a


def is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2) by trial division up to degree n/2."""
    n = _poly_degree(p)
    if n < 1:
        return False
    if n == 1:
        return True
    if not p & 1:  # divisible by x
        return False
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(p, q) == 0:
                return False
    return True


class GF2n:
    """A fully materialised GF(2^n): tables, trace, selfdual basis, L(1).

    Attributes
    ----------
    n : extension degree.
    modulus : defining irreducible polynomial (bit i = coeff of x^i).
    order : number of elements, 2^n.
    primitive : generator of the multiplicative group.
    log_table / antilog_table : discrete logs base `primitive`.
    squares : squares[a] = a^2, the Frobenius as a table.
    trace_table : per-element trace in {0, 1}.
    selfdual_basis : tuple (theta_1, ..., theta_n) with tr(t_k t_l) = delta.
    coord_bits : selfdual coordinate words; bit n-k of coord_bits[a] is
        tr(a theta_k), so qubit 1 is the top bit and tr(a b) is the parity
        of coord_bits[a] & coord_bits[b].
    jacobi_L1 : exponent L with 1 + sigma = sigma^L (None for n = 1).
    """

    def __init__(self, n: int, modulus: Optional[int] = None,
                 primitive: Optional[int] = None) -> None:
        if not 1 <= n <= MAX_DEGREE:
            raise UnsupportedDegree(f"extension degree must be in 1..{MAX_DEGREE}, got {n}")
        if modulus is None:
            modulus = DEFAULT_MODULI[n]
        if _poly_degree(modulus) != n:
            raise InvalidModulus(f"modulus {clip(f'{modulus:#b}')} has degree "
                                 f"{_poly_degree(modulus)}, expected {n}")
        if not is_irreducible(modulus):
            raise InvalidModulus(f"modulus {modulus:#b} is reducible over GF(2)")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n

        self.primitive = self._pick_primitive(primitive)
        self._hash = hash((n, modulus, self.primitive))  # the memos hash it on every call
        self.log_table = [0] * self.order          # log_table[0] unused
        self.antilog_table = [0] * (self.order - 1)
        x = 1
        for k in range(self.order - 1):
            self.antilog_table[k] = x
            self.log_table[x] = k
            x = _poly_mulmod(x, self.primitive, self.modulus)
        if x != 1:
            raise InvalidModulus(f"element {self.primitive} is not primitive for modulus {modulus:#b}")
        self.squares = [self.mul(a, a) for a in range(self.order)]

        self.trace_table = [self._trace_slow(a) for a in range(self.order)]
        if sum(self.trace_table) != self.order // 2:
            raise NoSelfdualFound("trace is not balanced; field tables corrupt")

        self.selfdual_basis = self.find_selfdual_basis()
        # coords(theta_k) is the k-th unit word, so the words follow the span
        self.coord_bits = [0] * self.order
        span = [0]
        for k, t in enumerate(self.selfdual_basis):
            for x in span[:]:
                span.append(x ^ t)
                self.coord_bits[x ^ t] = self.coord_bits[x] | 1 << (self.n - 1 - k)
        one_plus_sigma = 1 ^ self.primitive
        self.jacobi_L1 = self.log_table[one_plus_sigma] if one_plus_sigma else None

    # -- construction helpers ------------------------------------------------

    def _element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 1:
            x = _poly_mulmod(x, a, self.modulus)
            k += 1
        return k

    def _pick_primitive(self, override: Optional[int]) -> int:
        if override is not None:
            if not 0 < override < self.order:
                raise InvalidModulus(f"primitive override {clip(override)} outside field")
            if self._element_order(override) != self.order - 1:
                raise InvalidModulus(f"element {clip(override)} does not generate "
                                     "the multiplicative group")
            return override
        if self.n == 1:
            return 1
        for a in range(2, self.order):
            if self._element_order(a) == self.order - 1:
                return a
        raise InvalidModulus("no primitive element found")  # pragma: no cover

    def _trace_slow(self, a: int) -> int:
        t, x = 0, a
        for _ in range(self.n):
            t ^= x
            x = _poly_mulmod(x, x, self.modulus)
        if t not in (0, 1):
            raise NoSelfdualFound(f"trace of {a} is {t}, not in the prime field")
        return t

    # -- element arithmetic --------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog_table[(self.log_table[a] + self.log_table[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self.antilog_table[(-self.log_table[a]) % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: int, k: int = 1) -> int:
        for _ in range(k % self.n):
            a = self.squares[a]
        return a

    def trace(self, a: int) -> int:
        return self.trace_table[a]

    def character(self, a: int) -> int:
        return -1 if self.trace_table[a] else 1

    def sigma_pow(self, k: int) -> int:
        return self.antilog_table[k % (self.order - 1)]

    # -- bases and coordinates -----------------------------------------------

    def find_selfdual_basis(self) -> tuple[int, ...]:
        """Exhaustive search for tr(theta_k theta_l) = delta_{k,l}.

        Candidates are extended in increasing element order, so the result
        is the lexicographically least valid tuple.
        """
        partial: list[int] = []

        def extend() -> bool:
            if len(partial) == self.n:
                return True
            for cand in range(1, self.order):
                if self.trace(self.mul(cand, cand)) != 1:
                    continue
                if any(self.trace(self.mul(cand, t)) for t in partial):
                    continue
                partial.append(cand)
                if extend():
                    return True
                partial.pop()
            return False

        if not extend():
            raise NoSelfdualFound(f"no selfdual basis for n={self.n}, modulus {self.modulus:#b}")
        return tuple(partial)

    # -- rendering -----------------------------------------------------------

    def format_element(self, a: int) -> str:
        if a == 0:
            return "0"
        if a == 1:
            return "1"
        k = self.log_table[a]
        return "s" if k == 1 else f"s^{k}"

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if text == "0":
            return 0
        if text == "1":
            return 1
        if text in ("s", "sigma"):
            return self.primitive
        for prefix in ("s^", "sigma^"):
            if text.startswith(prefix):
                try:
                    k = int(text[len(prefix):])
                except ValueError as exc:
                    raise InputError(f"bad element {clip(text)}") from exc
                return self.sigma_pow(k)
        raise InputError(f"bad element {clip(text)}")

    def __repr__(self) -> str:
        return f"GF2n(n={self.n}, modulus={self.modulus:#b})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GF2n) and other.n == self.n
                and other.modulus == self.modulus and other.primitive == self.primitive)

    def __hash__(self) -> int:
        return self._hash


def make_field(n: int, modulus: Optional[int] = None,
               primitive: Optional[int] = None) -> GF2n:
    """Build a validated GF(2^n) with all tables populated."""
    return GF2n(n, modulus, primitive)


def modulus_from_bits(bits: str) -> int:
    """Parse a little-endian coefficient string, e.g. "111" -> x^2+x+1."""
    if not isinstance(bits, str) or not bits or any(c not in "01" for c in bits):
        raise InputError(f"bad modulus bit string {clip(bits)}")
    return int(bits[::-1], 2)


def modulus_to_bits(modulus: int) -> str:
    return format(modulus, "b")[::-1]


def load_field_config(path: str) -> dict[int, dict]:
    """Field presets: {"2": {"modulus": "111", "primitive": 2}, ...}."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read field config {clip(path)}: {reason(exc)}") from None
    if not isinstance(raw, dict):
        raise InputError(f"field config {clip(path)} must be a JSON object keyed by degree")
    presets = {}
    for key, entry in raw.items():
        try:
            degree = int(key) if key.isdecimal() and isinstance(entry, dict) else None
        except ValueError:  # more digits than int() converts
            degree = None
        if degree is None:
            raise InputError(f"bad field config entry {clip(key)}: {clip(entry)}; expected "
                             '"<n>": {"modulus": "<bits>", "primitive": <int>}')
        primitive = entry.get("primitive")
        if primitive is not None and type(primitive) is not int:
            raise InputError(f"field config primitive {clip(primitive)} is not an integer")
        presets[degree] = {
            "modulus": modulus_from_bits(entry["modulus"]) if "modulus" in entry else None,
            "primitive": primitive,
        }
    return presets


# -- linear algebra over the field --------------------------------------------


def _gauss_jordan(F: GF2n, m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce the rows `m` in place on their first `ncols` columns: each
    pivot 1 and alone in its column.  Returns the pivot columns and the
    product of the pivots (a row swap changes no sign in characteristic 2)."""
    pivots: list[int] = []
    det = 1
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        det = F.mul(det, m[rank][col])
        inv = F.inv(m[rank][col])
        m[rank] = [F.mul(inv, v) for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [v ^ F.mul(f, w) for v, w in zip(m[r], m[rank])]
        pivots.append(col)
    return pivots, det


def mat_rank_det(F: GF2n, rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, det) of a square matrix of field elements, by elimination."""
    m = [list(r) for r in rows]
    pivots, det = _gauss_jordan(F, m, len(m))
    return len(pivots), det if len(pivots) == len(m) else 0


def mat_solve(F: GF2n, rows: Sequence[Sequence[int]],
              rhs: Sequence[int]) -> Optional[list[int]]:
    """Solve A x = b over the field; None if the system is inconsistent.

    For underdetermined systems the free variables are set to 0.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, _ = _gauss_jordan(F, aug, ncols)
    if any(r[ncols] for r in aug[len(pivots):]):
        return None
    x = [0] * ncols
    for r, col in enumerate(pivots):
        x[col] = aug[r][ncols]
    return x


def subgroup_span(gens: Iterable[int]) -> frozenset[int]:
    """Additive span of the given elements (a subgroup of (GF(2^n), +))."""
    span = {0}
    for g in gens:
        if g not in span:
            span |= {g ^ s for s in span}
    return frozenset(span)


def subgroup_basis(group: Iterable[int]) -> list[int]:
    """A GF(2)-basis of the span of `group`: in sorted order, each element
    not in the span of those before it, found by bitwise elimination."""
    basis: list[int] = []
    reduced: list[int] = []
    for g in sorted(group):
        x = g
        for b in reduced:
            x = min(x, x ^ b)
        if x:
            reduced.append(x)
            basis.append(g)
    return basis


def echelon_basis(words: Iterable[int]) -> tuple[int, ...]:
    """The reduced echelon basis of the span of `words`, ascending: no row
    holds another row's leading bit, so each subgroup has exactly one."""
    rows: list[int] = []
    for x in words:
        for r in rows:
            if x ^ r < x:       # x holds the leading bit of r
                x ^= r
        if x:
            rows = [r ^ x if r ^ x < r else r for r in rows]
            rows.append(x)
    rows.sort()
    return tuple(rows)


def trace_pairing(F: GF2n, gens: Sequence[int]) -> list[int]:
    """Entry x is the word sum_j tr(g_j x) << j, read off the selfdual
    coordinate words: tr(g x) is the parity of their AND."""
    words = [F.coord_bits[g] for g in gens]
    return [sum(((w & v).bit_count() & 1) << j for j, w in enumerate(words))
            for v in F.coord_bits]


def trace_orthogonal_complement(F: GF2n, group: Iterable[int]) -> frozenset[int]:
    """All t with tr(t a) = 0 for every a in the subgroup."""
    pairing = trace_pairing(F, subgroup_basis(group))
    return frozenset(t for t, word in enumerate(pairing) if not word)


def field_from_config(n: int, path: str) -> GF2n:
    presets = load_field_config(path)
    if n not in presets:
        return make_field(n)
    p = presets[n]
    return make_field(n, p["modulus"], p["primitive"])
