"""Exact integer matrices and their normal forms.

Entries are plain Python integers, so every operation is exact at any size;
there is no overflow to detect and no fallback path.

Conventions used throughout the package:

* Hermite normal form is row-style: ``u @ m == h`` with ``u`` unimodular,
  pivots positive, every entry above a pivot reduced into ``[0, pivot)``,
  and zero rows collected at the bottom.  This form is unique, so two
  matrices have equal row span over the integers exactly when their Hermite
  forms agree after dropping zero rows.
* Smith normal form is two-sided: ``s @ m @ t == d`` with ``s`` and ``t``
  unimodular and ``d`` diagonal, ``d[0] | d[1] | ...``, all entries >= 0.

Answers that are unique (the Hermite basis of a row span, the rank, the
canonical kernel basis, the inverse of a unimodular matrix) come from
:func:`hermite_basis`, which never builds a transform.  The transform-tracking
:func:`hermite_normal_form` is kept for callers that read ``u`` itself, which
is not unique when ``m`` has dependent rows.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

__all__ = [
    "IntMatrix",
    "ext_gcd",
    "hermite_normal_form",
    "hermite_basis",
    "smith_normal_form",
    "determinant",
    "rank",
    "left_kernel",
    "inverse_unimodular",
]


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored row-major as a flat tuple."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatchError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatchError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, data: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build a matrix from an iterable of rows.

        ``cols`` is required when ``data`` is empty; otherwise it is checked
        against the row width.
        """
        rows = [list(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatchError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"rows have {width} entries, expected {cols}")
        else:
            if cols is None:
                raise DimensionMismatchError("column count required for an empty matrix")
            width = cols
        flat = tuple(map(int, chain.from_iterable(rows)))
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        # A zero matrix's row-major entries are the same in either shape.
        if not any(self.entries):
            return IntMatrix(self.cols, self.rows, self.entries)
        # Column j of the row-major entries is the strided slice entries[j::cols].
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(chain.from_iterable(self.entries[j :: self.cols] for j in range(self.cols))),
        )

    def take_rows(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_rows([self.row(i) for i in indices], cols=self.cols)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("cannot stack matrices of different widths")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Row i of the product is the sum of a_ik * (row k of other) over the
        # nonzero a_ik; compress() skips the zero entries of the left factor
        # without a Python-level step each.
        width = other.cols
        zero_row = (0,) * width
        out: list[int] = []
        for i in range(self.rows):
            row_i = self.row(i)
            acc: Sequence[int] = zero_row
            for k in compress(range(self.cols), row_i):
                a, row_k = row_i[k], other.entries[k * width : (k + 1) * width]
                acc = [x + a * y for x, y in zip(acc, row_k)]
            out.extend(acc)
        return IntMatrix(self.rows, width, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def format_rows(self) -> str:
        # One %-format per row converts its integers without a str() call each.
        line = " ".join(["%d"] * self.cols)
        return "\n".join(line % self.row(i) for i in range(self.rows))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.format_rows() if self.rows else f"(empty {self.rows}x{self.cols})"


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b == g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _clear_below(a: list[list[int]], u: list[list[int]], pr: int, col: int) -> None:
    # Zero a[i][col] for every i > pr, repeating each row operation on u.
    # A pivot that divides the entry clears it by a plain shear; a full
    # Bezout transform there would leak the other row back into the pivot
    # row, and the Smith form's alternating clearing can then oscillate.
    for i in range(pr + 1, len(a)):
        if a[i][col] == 0:
            continue
        if a[i][col] % a[pr][col] == 0:
            d = a[i][col] // a[pr][col]
            a[i] = [v - d * w for v, w in zip(a[i], a[pr])]
            u[i] = [v - d * w for v, w in zip(u[i], u[pr])]
            continue
        g, x, y = ext_gcd(a[pr][col], a[i][col])
        p, q = a[pr][col] // g, a[i][col] // g
        # Rows pr and i go through [[x, y], [-q, p]], of determinant 1.
        for mat in (a, u):
            top, bottom = mat[pr], mat[i]
            mat[pr] = [x * v + y * w for v, w in zip(top, bottom)]
            mat[i] = [-q * v + p * w for v, w in zip(top, bottom)]


def _combine_cols(mat: list[list[int]], i: int, j: int, x: int, y: int, p: int, q: int) -> None:
    # col_i <- x*col_i + y*col_j ; col_j <- -q*col_i + p*col_j.
    for row in mat:
        a, b = row[i], row[j]
        row[i] = x * a + y * b
        row[j] = -q * a + p * b


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form with its left transform.

    Returns ``(h, u)`` where ``u`` is unimodular, ``u @ m == h``, and ``h``
    is canonical: pivots positive, entries above each pivot reduced into
    ``[0, pivot)``, zero rows at the bottom.  ``h`` keeps the shape of ``m``;
    callers that want a lattice basis drop the zero rows.
    """
    a = m.to_rows()
    n_rows, n_cols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]
    pr = 0
    for col in range(n_cols):
        if pr == n_rows:
            break
        piv = next((i for i in range(pr, n_rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != pr:
            a[pr], a[piv] = a[piv], a[pr]
            u[pr], u[piv] = u[piv], u[pr]
        _clear_below(a, u, pr, col)
        if a[pr][col] < 0:
            a[pr] = [-v for v in a[pr]]
            u[pr] = [-v for v in u[pr]]
        piv_val = a[pr][col]
        for i in range(pr):
            q = a[i][col] // piv_val
            if q:
                a[i] = [v - q * w for v, w in zip(a[i], a[pr])]
                u[i] = [v - q * w for v, w in zip(u[i], u[pr])]
        pr += 1
    return IntMatrix.from_rows(a, n_cols), IntMatrix.from_rows(u, n_rows)


def hermite_basis(m: IntMatrix) -> IntMatrix:
    """The nonzero rows of the Hermite normal form of ``m``, without a transform.

    Rows are inserted one at a time into an echelon basis keyed by pivot
    column: a row meeting an occupied pivot is sheared by it when the pivot
    divides its entry, and otherwise the two are replaced by one Bezout step
    whose new pivot is their gcd; a row reaching a free column becomes that
    column's pivot, made positive.  Both rows a Bezout step writes are reduced
    modulo the pivots right of its column, which keeps entries small on dense
    input (Kannan and Bachem 1979), and a last pass reduces each row modulo
    the pivots right of its own.  Each reduction subtracts a lattice vector
    and the Hermite form is unique, so this equals
    ``hermite_normal_form(m)[0]`` with its zero rows dropped.
    """
    n_cols = m.cols
    basis: dict[int, list[int]] = {}
    pivots: list[int] = []

    def reduce(row: list[int], start: int) -> list[int]:
        # Bring the entries at the pivot columns >= start into [0, pivot).
        # Reducing by a pivot changes only columns at and right of it, so
        # going left to right never undoes an earlier column.
        for col in pivots[bisect_left(pivots, start) :]:
            piv_row = basis[col]
            q = row[col] // piv_row[col]
            if q:
                row = [v - q * w for v, w in zip(row, piv_row)]
        return row

    for i in range(m.rows):
        row = list(m.row(i))
        for col in range(n_cols):
            b = row[col]
            if not b:
                continue
            piv = basis.get(col)
            if piv is None:
                basis[col] = [-v for v in row] if b < 0 else row
                insort(pivots, col)
                break
            a = piv[col]
            if b % a == 0:
                d = b // a
                row = [v - d * w for v, w in zip(row, piv)]
            else:
                g, x, y = ext_gcd(a, b)
                p, q = a // g, b // g
                basis[col] = reduce([x * v + y * w for v, w in zip(piv, row)], col + 1)
                row = reduce([p * w - q * v for v, w in zip(piv, row)], col + 1)
    rows = [reduce(basis[c], c + 1) for c in pivots]
    return IntMatrix(len(rows), n_cols, tuple(chain.from_iterable(rows)))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with both transforms.

    Returns ``(d, s, t)`` with ``s @ m @ t == d``; ``s`` and ``t`` are
    unimodular, ``d`` is diagonal with nonnegative entries forming a
    divisibility chain ``d[0] | d[1] | ...``.
    """
    n_rows, n_cols = m.rows, m.cols
    a = m.to_rows()
    s = [[1 if i == j else 0 for j in range(n_rows)] for i in range(n_rows)]
    t = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    for k in range(min(n_rows, n_cols)):
        pivot_pos = next(
            ((i, j) for i in range(k, n_rows) for j in range(k, n_cols) if a[i][j] != 0),
            None,
        )
        if pivot_pos is None:
            break
        if pivot_pos[0] != k:
            swap_rows(k, pivot_pos[0])
        if pivot_pos[1] != k:
            swap_cols(k, pivot_pos[1])
        while True:
            _clear_below(a, s, k, k)
            for j in range(k + 1, n_cols):
                if a[k][j] == 0:
                    continue
                if a[k][j] % a[k][k] == 0:
                    d = a[k][j] // a[k][k]
                    for row in a:
                        row[j] -= d * row[k]
                    for row in t:
                        row[j] -= d * row[k]
                    continue
                g, x, y = ext_gcd(a[k][k], a[k][j])
                p, q = a[k][k] // g, a[k][j] // g
                _combine_cols(a, k, j, x, y, p, q)
                _combine_cols(t, k, j, x, y, p, q)
            if any(a[i][k] != 0 for i in range(k + 1, n_rows)):
                continue
            # Pivot must divide the whole remaining block; if not, fold the
            # offending row into row k and clear again.  Each pass replaces
            # the pivot by a proper divisor, so this terminates.
            piv = a[k][k]
            bad = next(
                (
                    i
                    for i in range(k + 1, n_rows)
                    for j in range(k + 1, n_cols)
                    if a[i][j] % piv != 0
                ),
                None,
            )
            if bad is None:
                break
            a[k] = [v + w for v, w in zip(a[k], a[bad])]
            s[k] = [v + w for v, w in zip(s[k], s[bad])]
    for k in range(min(n_rows, n_cols)):
        if a[k][k] < 0:
            a[k] = [-v for v in a[k]]
            s[k] = [-v for v in s[k]]
    return IntMatrix.from_rows(a, n_cols), IntMatrix.from_rows(s, n_rows), IntMatrix.from_rows(t, n_cols)


def determinant(m: IntMatrix) -> int:
    """Exact determinant of a square matrix (fraction-free Bareiss elimination)."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m: IntMatrix) -> int:
    """Rank over the rationals (= number of nonzero rows of the Hermite form)."""
    return hermite_basis(m).rows


def _hermite_basis_with_identity(m: IntMatrix) -> IntMatrix:
    """``hermite_basis`` of ``[m | I]``: its rows are ``(x @ m, x)`` for a basis of x."""
    ident = IntMatrix.identity(m.rows)
    rows = chain.from_iterable(m.row(i) + ident.row(i) for i in range(m.rows))
    return hermite_basis(IntMatrix(m.rows, m.cols + m.rows, tuple(rows)))


def left_kernel(m: IntMatrix) -> IntMatrix:
    """The canonical basis of the left kernel ``{x : x @ m == 0}`` as matrix rows.

    The rows of ``[m | I]`` span the pairs ``(x @ m, x)``; the rows of its
    Hermite basis whose ``m``-part vanishes come last and carry, in their
    identity part, the Hermite basis of the kernel.  The kernel is the full
    integer kernel (a direct summand of Z^rows), and equal kernels give equal
    bases.
    """
    h = _hermite_basis_with_identity(m)
    kernel = [h.row(i)[m.cols :] for i in range(h.rows) if not any(h.row(i)[: m.cols])]
    return IntMatrix.from_rows(kernel, cols=m.rows)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix.

    The Hermite basis of ``[m | I]`` is ``[I | m^-1]`` exactly when ``m`` is
    unimodular.  Raises if ``m`` is not unimodular.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be unimodular")
    n = m.rows
    ident = IntMatrix.identity(n)
    # [m | I] has rank n, so h has n rows.
    h = _hermite_basis_with_identity(m)
    if any(h.row(i)[:n] != ident.row(i) for i in range(n)):
        raise DimensionMismatchError("matrix is not unimodular")
    return IntMatrix(n, n, tuple(chain.from_iterable(h.row(i)[n:] for i in range(n))))
