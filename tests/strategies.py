"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from mubcurves import curves as C
from mubcurves.field import trace_pairing


@st.composite
def lagrangians(draw, F):
    """(A, M) drawn directly, not from the atlas: A from an echelon basis with
    random lower bits, M a random symmetric binary matrix, T and the dual
    lifts g_i from one trace pairing, curve {(a, f_M(a) + t)}, validated by
    `assert_admissible`."""
    r = draw(st.integers(0, F.n))
    pivots = sorted(draw(st.permutations(range(F.n)))[:r])
    basis = [1 << p | draw(st.integers(0, (1 << p) - 1)) for p in pivots]
    M = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            M[i][j] = M[j][i] = draw(st.integers(0, 1))
    pairing = trace_pairing(F, basis)
    g = [pairing.index(1 << i) for i in range(r)]
    pts = {(0, t) for t, word in enumerate(pairing) if not word}
    for j, a in enumerate(basis):
        fa = 0
        for i in range(r):
            fa ^= g[i] if M[i][j] else 0
        pts |= {(x ^ a, y ^ fa) for x, y in pts}
    return C.assert_admissible(F, pts)
