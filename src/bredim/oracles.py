"""Brute-force reference computations used to cross-check the fast paths.

Everything in this module is deliberately naive and shares no code with the
normal-form machinery it checks.  Rational linear algebra (determinants,
inverses, solving, span membership) runs on one fraction-free integer
Gauss–Jordan elimination, and ``fractions.Fraction`` appears only in the
values returned.  Indices are counted by walking coset representatives,
cliques are enumerated over bitmask subsets, and invariant factors come from
gcds of minors.  Desk scale only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from typing import Callable, Iterable, Sequence

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


Rows = list[list[int]]


def _eliminate(rows: Sequence[Sequence[int]], width: int) -> tuple[Rows, list[int], Fraction]:
    """Fraction-free Gauss–Jordan elimination on the first ``width`` columns.

    A pivot column is cleared in every other row by cross-multiplying with
    the pivot row, and each changed row is divided by the gcd of its entries.
    Returns the rows, pivot rows first, each pivot the only nonzero entry of
    its column; the pivot columns; and the scale ``s`` with ``det(input) ==
    s * det(output)`` for square input.  Columns past ``width`` are carried
    along, never pivoted on.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    sign, divided, multiplied = 1, 1, 1
    for col in range(width):
        r = len(pivots)
        # the smallest pivot keeps the cross-multiplied entries small
        pivot = min((i for i in range(r, len(a)) if a[i][col]), key=lambda i: abs(a[i][col]), default=None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        head = a[r]
        p = head[col]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, head)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    divided *= g
                multiplied *= p
                a[i] = row
        pivots.append(col)
    return a, pivots, Fraction(sign * divided, multiplied)


def _residual(ech: Rows, pivots: list[int], vector: Sequence[int]) -> tuple[int, list[int]]:
    """``(s, s * vector - c @ ech)``, with integers ``s != 0`` and ``c`` chosen
    to clear every pivot column of eliminated rows ``ech``."""
    residual, s = list(vector), 1
    for row, col in zip(ech, pivots):
        f = residual[col]
        if f:
            p = row[col]
            residual = [p * x - f * y for x, y in zip(residual, row)]
            s *= p
    return s, residual


def _with_identity(rows: Sequence[Sequence[int]]) -> Rows:
    """``[rows | I]``: the right block records row operations."""
    return [[*row, *(int(i == j) for j in range(len(rows)))] for i, row in enumerate(rows)]


def fraction_det(m: IntMatrix) -> Fraction:
    """Determinant by integer Gauss–Jordan elimination."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    rows, pivots, scale = _eliminate(m.to_rows(), m.cols)
    if len(pivots) < m.rows:
        return Fraction(0)
    return scale * prod(row[i] for i, row in enumerate(rows))


def _scaled_inverse(m: IntMatrix) -> tuple[int, Rows]:
    """``(d, N)`` with ``N / d`` the inverse of a nonsingular square matrix."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    rows, pivots, _ = _eliminate(_with_identity(m.to_rows()), n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    d = lcm(*(row[i] for i, row in enumerate(rows)))
    return d, [[x * (d // row[i]) for x in row[n:]] for i, row in enumerate(rows)]


def fraction_inverse(m: IntMatrix) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix, as Fraction rows."""
    d, scaled = _scaled_inverse(m)
    return [[Fraction(x, d) for x in row] for row in scaled]


def _left_solver(
    basis_rows: Sequence[Sequence[int]], width: int
) -> Callable[[Sequence[int]], tuple[int, list[int]] | None]:
    """Prepare ``x @ basis == vector`` for many vectors of ``width`` entries.

    The solver returns ``(s, y)`` with ``x == y / s``, or None when the vector
    is outside the rational span.  The basis rows must be linearly
    independent.
    """
    r = len(basis_rows)
    ech, pivots, _ = _eliminate(_with_identity(basis_rows), width)

    def solve(vector: Sequence[int]) -> tuple[int, list[int]] | None:
        s, residual = _residual(ech, pivots, [*vector, *[0] * r])
        if any(residual[:width]):
            return None
        return s, [-y for y in residual[width:]]

    return solve


def fraction_solve_left(basis_rows: Sequence[Sequence[int]], vector: Sequence[int]) -> list[Fraction] | None:
    """Solve ``x @ basis == vector`` over the rationals, or None if unsolvable.

    The basis rows must be linearly independent.
    """
    found = _left_solver(basis_rows, len(vector))(vector)
    if found is None:
        return None
    s, y = found
    return [Fraction(c, s) for c in y]


class rational_row_space:
    """Prepared membership tests for the rational span of integer rows."""

    def __init__(self, basis_rows: Sequence[Sequence[int]]):
        self.width = len(basis_rows[0]) if basis_rows else 0
        ech, self.pivots, _ = _eliminate(basis_rows, self.width)
        self.ech = ech[: len(self.pivots)]

    def contains(self, vector: Sequence[int]) -> bool:
        return not any(_residual(self.ech, self.pivots, vector)[1])


def in_rational_span(basis_rows: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    return rational_row_space(basis_rows).contains(vector)


def coordinates_matrix(sub: Sublattice, sup: Sublattice) -> IntMatrix | None:
    """Integer coordinates of ``sub``'s basis in ``sup``'s.

    None when some basis vector falls outside ``sup`` over the integers.
    """
    solve = _left_solver(sup.basis.to_rows(), sup.ambient_dim)
    rows = []
    for i in range(sub.rank):
        found = solve(sub.basis.row(i))
        if found is None or any(c % found[0] for c in found[1]):
            return None
        s, y = found
        rows.append([c // s for c in y])
    return IntMatrix.from_rows(rows, cols=sup.rank)


def coset_representatives(coeffs: IntMatrix) -> list[tuple[int, ...]]:
    """One vector per coset of Z^r modulo the row span of a nonsingular r x r
    matrix, sorted.

    Walks the quotient from 0 along unit steps; a coset is named by the
    fractional parts of its representative in the basis of the subgroup,
    which is a complete invariant.  With the inverse written as ``N / d``,
    those are the residues of ``vec @ N`` modulo ``d``, updated one step at a
    time.
    """
    r = coeffs.rows
    if r == 0:
        return [()]
    d, scaled = _scaled_inverse(coeffs)
    origin = (0,) * r
    seen = {origin: origin}  # signature -> representative
    frontier = [(origin, origin)]  # (representative, signature)
    while frontier:
        current, signature = frontier.pop()
        for axis in range(r):
            for step in (1, -1):
                sig = tuple((s + step * x) % d for s, x in zip(signature, scaled[axis]))
                if sig not in seen:
                    nxt = list(current)
                    nxt[axis] += step
                    candidate = tuple(nxt)
                    seen[sig] = candidate
                    frontier.append((candidate, sig))
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
    (``g_0 = 1``); the determinants come from :func:`fraction_det`.
    """
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
