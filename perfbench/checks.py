"""Answer checks for the benchmark, run outside the timed region.

Every check decides correctness without the fast paths it checks: it uses
plain integer arithmetic written here and, where the scale allows,
``bredim.oracles`` (coset walks, bitmask clique counts).  ``IntMatrix`` is
used only as the container the oracles accept.

A failed check raises :class:`CheckError` with a one-line reason.
"""

from __future__ import annotations

import random
from math import gcd

from bredim import oracles
from bredim.matrix import IntMatrix

Rows = list[list[int]]


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Integer helpers.
# ---------------------------------------------------------------------------


def matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a: Rows) -> Rows:
    return [list(col) for col in zip(*a)]


# Checks run on every request, thousands per run, so they use fraction-free
# (Bareiss) integer elimination written here rather than the Fraction-based
# oracles, which are several times slower on the same matrices; smoke.py
# compares int_det with oracles.fraction_det.  Every division below is exact
# by Sylvester's identity.


def int_det(rows: Rows) -> int:
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        head = a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k]
            a[i] = [(head * x - factor * y) // prev for x, y in zip(a[i], a[k])]
        prev = head
    return sign * prev


def pivot_columns(rows: Rows) -> list[int]:
    """Pivot columns of the row echelon form; their count is the rank."""
    a = [list(r) for r in rows]
    found: list[int] = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        top = len(found)
        pivot = next((i for i in range(top, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[top], a[pivot] = a[pivot], a[top]
        head = a[top][col]
        for i in range(top + 1, len(a)):
            factor = a[i][col]
            a[i] = [(head * x - factor * y) // prev for x, y in zip(a[i], a[top])]
        prev = head
        found.append(col)
    return found


def rank(rows: Rows) -> int:
    return len(pivot_columns(rows))


def int_coords(basis: Rows, vectors: Rows) -> Rows | None:
    """Integer coordinates of each vector in the independent rows ``basis``.

    None when some vector lies outside the lattice the rows span.  Solves on
    the basis's pivot columns by fraction-free Gauss-Jordan elimination, then
    confirms each solution on every column.
    """
    if not basis:
        return None if any(any(v) for v in vectors) else [[] for _ in vectors]
    cols = pivot_columns(basis)
    require(len(cols) == len(basis), "basis rows are dependent")
    r = len(basis)
    aug = [[basis[j][c] for j in range(r)] + [v[c] for v in vectors] for c in cols]
    prev = 1
    for k in range(r):
        pivot = next(i for i in range(k, r) if aug[i][k])
        aug[k], aug[pivot] = aug[pivot], aug[k]
        head = aug[k][k]
        for i in range(r):
            if i != k:
                factor = aug[i][k]
                aug[i] = [(head * x - factor * y) // prev for x, y in zip(aug[i], aug[k])]
        prev = head
    # The left block is now prev * I and the right block prev * coordinates.
    coords = []
    for j, vector in enumerate(vectors):
        numerators = [aug[i][r + j] for i in range(r)]
        if any(x % prev for x in numerators):
            return None
        x = [v // prev for v in numerators]
        if [sum(c * b[col] for c, b in zip(x, basis)) for col in range(len(vector))] != list(vector):
            return None
        coords.append(x)
    return coords


def contains(basis: Rows, vectors: Rows) -> bool:
    return int_coords(basis, vectors) is not None


def minors_gcd_is_one(wide: Rows, rng: random.Random) -> bool:
    """Whether the r x r minors of an r x c integer matrix have gcd 1.

    By Cauchy-Binet, ``det(wide @ R)`` is an integer combination of those
    minors, so a gcd of 1 over random ``R`` proves the claim; if the minors
    share a factor, every such determinant has it too.  When ``wide`` has
    full rank modulo p, ``wide @ R`` is uniform modulo p and singular with
    probability below 0.72, so 200 draws leave no realistic false alarm.
    """
    r, c = len(wide), len(wide[0]) if wide else 0
    if r == 0:
        return True
    if r == c:
        return abs(int_det(wide)) == 1
    g = 0
    for _ in range(200):
        mix = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(c)]
        g = gcd(g, int_det(matmul(wide, mix)))
        if g == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# Normal forms.
# ---------------------------------------------------------------------------


def check_hermite_shape(h: Rows) -> None:
    last_pivot = -1
    for i, row in enumerate(h):
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            require(all(not any(r) for r in h[i:]), "zero row above a nonzero row")
            break
        require(col > last_pivot, f"row {i} breaks the echelon shape")
        require(row[col] > 0, f"pivot of row {i} is not positive")
        for above in range(i):
            require(0 <= h[above][col] < row[col], f"entry above pivot {i} is not reduced")
        last_pivot = col


def check_hnf(m: Rows, h: Rows, u: Rows) -> None:
    """``u @ m == h``, ``h`` canonical, ``u`` unimodular."""
    require(len(u) == len(m) and all(len(row) == len(m) for row in u), "U has the wrong shape")
    require(matmul(u, m) == h, "U @ M != H")
    check_hermite_shape(h)
    square_det = int_det(m) if m and len(m) == len(m[0]) else 0
    if square_det:
        # det(H) = det(U) det(M), and H is triangular with the pivots on its
        # diagonal, so equal absolute values force |det U| = 1.
        product = 1
        for i in range(len(h)):
            product *= h[i][i]
        require(abs(product) == abs(square_det), "U is not unimodular")
    else:
        require(abs(int_det(u)) == 1, "U is not unimodular")


def check_snf(m: Rows, d: Rows, s: Rows, t: Rows) -> None:
    """``s @ m @ t == d``, ``d`` in Smith form, ``s`` and ``t`` unimodular."""
    require(matmul(matmul(s, m), t) == d, "S @ M @ T != D")
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            require(i == j or x == 0, "D is not diagonal")
    require(all(x >= 0 for x in diag), "D has a negative entry")
    for a, b in zip(diag, diag[1:]):
        require(b % a == 0 if a else b == 0, "diagonal is not a divisibility chain")
    square_det = int_det(m) if m and len(m) == len(m[0]) else 0
    if square_det:
        product = 1
        for x in diag:
            product *= x
        require(product == abs(square_det), "S or T is not unimodular")
    else:
        require(abs(int_det(s)) == 1 and abs(int_det(t)) == 1, "S or T is not unimodular")


# ---------------------------------------------------------------------------
# Lattices.  Bases are integer row lists; generator lists may be dependent.
# ---------------------------------------------------------------------------


def check_same_lattice(expected: Rows, got: Rows, what: str) -> None:
    require(rank(got) == len(got), f"{what}: basis rows are dependent")
    require(rank(expected) == len(got), f"{what}: wrong rank")
    require(contains(got, expected), f"{what}: misses an expected vector")
    require(contains(expected, got), f"{what}: has a vector outside the expected lattice")


def check_sum(gens_a: Rows, gens_b: Rows, got: Rows, rng: random.Random) -> None:
    gens = gens_a + gens_b
    require(rank(got) == len(got) == rank(gens), "sum: wrong rank")
    coords = int_coords(got, gens)
    require(coords is not None, "sum: a summand is not contained")
    # The generators span the answer over Z iff their coordinate rows have
    # maximal minors with gcd 1.
    require(minors_gcd_is_one(transpose(coords), rng) if got else True, "sum: answer too large")


def check_intersect(a: Rows, b: Rows, got: Rows) -> None:
    """Containment in both bases and the rank rank(a) + rank(b) - rank(a + b)."""
    require(rank(got) == len(got), "intersect: basis rows are dependent")
    require(len(got) == len(a) + len(b) - rank(a + b), "intersect: wrong rank")
    require(contains(a, got) and contains(b, got), "intersect: answer not in both lattices")


def check_index(expected: int | None, got, rng: random.Random, coeffs: Rows) -> None:
    require(str(got) == ("infinite" if expected is None else str(expected)), "index: wrong value")
    if expected is not None and expected <= 16 and len(coeffs) <= 4:
        require(oracles.coset_count(IntMatrix.from_rows(coeffs)) == expected, "index: coset walk disagrees")


def check_complement(gens_a: Rows, got: Rows) -> None:
    n = len(gens_a[0])
    require(len(gens_a) + len(got) == n, "complement: wrong rank")
    require(abs(int_det(gens_a + got)) == 1, "complement: lattices do not split Z^n")


def check_automorphism(src: Rows, dst: Rows, auto: Rows) -> None:
    require(abs(int_det(auto)) == 1, "automorphism: not unimodular")
    images = transpose(matmul(auto, transpose(src)))
    require(rank(images) == len(src), "automorphism: image has the wrong rank")
    # A unimodular image of a saturated lattice is saturated; inside the
    # saturated dst of the same rank it must be all of dst.
    require(contains(dst, images), "automorphism: image leaves dst")


def commensurable(a: Rows, b: Rows) -> bool:
    return rank(a) == rank(b) == rank(a + b)


# ---------------------------------------------------------------------------
# Cliques.
# ---------------------------------------------------------------------------


def clique_counts(vertex_count: int, edges) -> list[int]:
    """Number of cliques of each size, by extending cliques in vertex order."""
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = [1]

    def extend(size: int, candidates: int) -> None:
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            if len(counts) <= size + 1:
                counts.append(0)
            counts[size + 1] += 1
            extend(size + 1, candidates & adj[v])

    extend(0, (1 << vertex_count) - 1)
    return counts


def clique_counts_oracle(vertex_count: int, edges) -> list[int]:
    return oracles.clique_counts_bitmask(vertex_count, list(edges))


# ---------------------------------------------------------------------------
# CLI output.
# ---------------------------------------------------------------------------


MATRIX_LABELS = ("H", "U", "D", "S", "T", "A")


def parse_report(text: str) -> tuple[dict[str, str], dict[str, Rows]]:
    """Key-value results and labelled matrix blocks of a human-format report."""
    values: dict[str, str] = {}
    blocks: dict[str, Rows] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("#"):
            continue
        if line[:-1] in MATRIX_LABELS and line.endswith(":"):
            cols, count = (int(x) for x in lines[i].split())
            blocks[line[:-1]] = [[int(x) for x in row.split()] for row in lines[i + 1 : i + 1 + count]]
            require(all(len(row) == cols for row in blocks[line[:-1]]), f"block {line} has ragged rows")
            i += 1 + count
            continue
        if " = " in line:
            key, value = line.split(" = ", 1)
            values.setdefault(key, value)
    return values, blocks


def parse_structured(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if key.startswith("result."):
            values[key[len("result."):]] = value
    return values


def parse_lattice_output(text: str) -> Rows:
    payload = [line for line in text.splitlines() if line and not line.startswith("#")]
    cols, count = (int(x) for x in payload[0].split())
    rows = [[int(x) for x in line.split()] for line in payload[1 : 1 + count]]
    require(len(rows) == count and all(len(r) == cols for r in rows), "lattice output is malformed")
    return rows
