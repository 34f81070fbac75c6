"""Brute-force reference computations used to cross-check the fast paths.

Everything in this module is deliberately naive and shares no code with the
normal-form machinery it checks: rational linear algebra runs on
``fractions.Fraction`` via plain Gaussian elimination, indices are counted
by walking coset representatives, cliques are enumerated over bitmask
subsets, and invariant factors come from gcds of minors.  Desk scale only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .lattice import Sublattice
from .matrix import IntMatrix

__all__ = [
    "fraction_det",
    "fraction_inverse",
    "fraction_solve_left",
    "rational_row_space",
    "in_rational_span",
    "coset_representatives",
    "coset_count",
    "coordinates_matrix",
    "box_vectors",
    "max_clique_bitmask",
    "clique_counts_bitmask",
    "invariant_factors_by_minors",
    "binomial",
]


Rows = list[list[Fraction]]


def _to_fraction_rows(m: IntMatrix) -> Rows:
    return [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]


def fraction_det(m: IntMatrix) -> Fraction:
    """Determinant by rational Gaussian elimination with partial pivoting."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    a = _to_fraction_rows(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(col + 1, n):
            factor = a[i][col]
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    return det


def fraction_inverse(m: IntMatrix) -> Rows:
    """Inverse of a nonsingular square matrix, as Fraction rows."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    a = _to_fraction_rows(m)
    inv: Rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = 1 / a[col][col]
        a[col] = [x * scale for x in a[col]]
        inv[col] = [x * scale for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - factor * y for x, y in zip(inv[i], inv[col])]
    return inv


def fraction_solve_left(basis_rows: Sequence[Sequence[int]], vector: Sequence[int]) -> list[Fraction] | None:
    """Solve ``x @ basis == vector`` over the rationals, or None if unsolvable.

    The basis rows must be linearly independent.
    """
    rows = [[Fraction(x) for x in r] for r in basis_rows]
    v = [Fraction(x) for x in vector]
    coeffs: list[list[Fraction]] = []  # elimination record: row i of echelon in terms of inputs
    ech: Rows = []
    ident = [[Fraction(int(i == j)) for j in range(len(rows))] for i in range(len(rows))]
    for i, row in enumerate(rows):
        ech.append(list(row))
        coeffs.append(list(ident[i]))
    # forward eliminate to row echelon, tracking the transform
    pivots: list[int] = []
    r = 0
    width = len(v)
    for col in range(width):
        pivot = next((i for i in range(r, len(ech)) if ech[i][col] != 0), None)
        if pivot is None:
            continue
        ech[r], ech[pivot] = ech[pivot], ech[r]
        coeffs[r], coeffs[pivot] = coeffs[pivot], coeffs[r]
        scale = 1 / ech[r][col]
        ech[r] = [x * scale for x in ech[r]]
        coeffs[r] = [x * scale for x in coeffs[r]]
        for i in range(len(ech)):
            if i != r and ech[i][col]:
                factor = ech[i][col]
                ech[i] = [x - factor * y for x, y in zip(ech[i], ech[r])]
                coeffs[i] = [x - factor * y for x, y in zip(coeffs[i], coeffs[r])]
        pivots.append(col)
        r += 1
    # express v in the echelon rows
    x = [Fraction(0)] * len(rows)
    residual = list(v)
    for i, col in enumerate(pivots):
        factor = residual[col]
        if factor:
            residual = [a - factor * b for a, b in zip(residual, ech[i])]
            x = [a + factor * b for a, b in zip(x, coeffs[i])]
    if any(residual):
        return None
    return x


class rational_row_space:
    """Prepared membership tests for the rational span of integer rows."""

    def __init__(self, basis_rows: Sequence[Sequence[int]]):
        self.width = len(basis_rows[0]) if basis_rows else 0
        ech: Rows = []
        for row in basis_rows:
            ech.append([Fraction(x) for x in row])
        self.pivots: list[int] = []
        r = 0
        for col in range(self.width):
            pivot = next((i for i in range(r, len(ech)) if ech[i][col] != 0), None)
            if pivot is None:
                continue
            ech[r], ech[pivot] = ech[pivot], ech[r]
            scale = 1 / ech[r][col]
            ech[r] = [x * scale for x in ech[r]]
            for i in range(len(ech)):
                if i != r and ech[i][col]:
                    factor = ech[i][col]
                    ech[i] = [a - factor * b for a, b in zip(ech[i], ech[r])]
            self.pivots.append(col)
            r += 1
        self.ech = ech[:r]

    def contains(self, vector: Sequence[int]) -> bool:
        residual = [Fraction(x) for x in vector]
        for row, col in zip(self.ech, self.pivots):
            factor = residual[col]
            if factor:
                residual = [a - factor * b for a, b in zip(residual, row)]
        return not any(residual)


def in_rational_span(basis_rows: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    if not basis_rows:
        return not any(vector)
    return rational_row_space(basis_rows).contains(vector)


def coordinates_matrix(sub: Sublattice, sup: Sublattice) -> IntMatrix | None:
    """Integer coordinates of ``sub``'s basis in ``sup``'s, via Fractions.

    None when some basis vector falls outside ``sup`` over the integers.
    """
    rows = []
    sup_rows = sup.basis.to_rows()
    for i in range(sub.rank):
        x = fraction_solve_left(sup_rows, sub.basis.row(i))
        if x is None or any(c.denominator != 1 for c in x):
            return None
        rows.append([int(c) for c in x])
    return IntMatrix.from_rows(rows, cols=sup.rank)


def coset_representatives(coeffs: IntMatrix) -> list[tuple[int, ...]]:
    """One vector per coset of Z^r modulo the row span of a nonsingular r x r
    matrix, sorted.

    Walks the quotient from 0 along unit steps; a coset is named by the
    fractional parts of its representative in the basis of the subgroup,
    which is a complete invariant.
    """
    r = coeffs.rows
    if r == 0:
        return [()]
    inv = fraction_inverse(coeffs)

    def signature(vec: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(
            sum(v * inv[i][j] for i, v in enumerate(vec)) % 1 for j in range(r)
        )

    start = (0,) * r
    seen = {signature(start): start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for axis in range(r):
            for step in (1, -1):
                nxt = list(current)
                nxt[axis] += step
                candidate = tuple(nxt)
                sig = signature(candidate)
                if sig not in seen:
                    seen[sig] = candidate
                    frontier.append(candidate)
    return sorted(seen.values())


def coset_count(coeffs: IntMatrix) -> int:
    """Order of Z^r modulo the row span of a nonsingular r x r matrix."""
    return len(coset_representatives(coeffs))


def box_vectors(ambient_dim: int, radius: int) -> Iterable[tuple[int, ...]]:
    """All integer vectors with coordinates in [-radius, radius]."""
    if ambient_dim == 0:
        yield ()
        return
    span = range(-radius, radius + 1)

    def rec(prefix: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        if len(prefix) == ambient_dim:
            yield prefix
            return
        for x in span:
            yield from rec(prefix + (x,))

    yield from rec(())


def max_clique_bitmask(vertex_count: int, edges: Iterable[tuple[int, int]]) -> int:
    """Largest clique size by checking every vertex subset (bitmask walk)."""
    return len(clique_counts_bitmask(vertex_count, edges)) - 1


def clique_counts_bitmask(vertex_count: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Number of cliques of each size, by checking every subset."""
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = [0]
    for mask in range(1, 1 << vertex_count):
        rest = mask
        ok = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (mask & ~adj[v]) != (1 << v):
                ok = False
                break
        if ok:
            size = mask.bit_count()
            while len(counts) <= size:
                counts.append(0)
            counts[size] += 1
    counts[0] = 1
    return counts


def invariant_factors_by_minors(m: IntMatrix) -> list[int]:
    """Invariant factors from gcds of k x k minors (for small matrices).

    ``d_k = g_k / g_{k-1}`` where ``g_k`` is the gcd of all k x k minors
    (``g_0 = 1``); the determinants are computed rationally.
    """
    from math import gcd

    limit = min(m.rows, m.cols)
    factors = []
    g_prev = 1
    for k in range(1, limit + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows(
                    [[m.at(i, j) for j in cols] for i in rows], cols=k
                )
                d = fraction_det(sub)
                g = gcd(g, int(d))
        if g == 0:
            break
        factors.append(g // g_prev)
        g_prev = g
    return factors


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
