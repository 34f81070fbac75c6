"""Exact arithmetic on subgroups of Z^n.

A :class:`Sublattice` is a finite-rank subgroup of Z^n stored by its
canonical basis: the row-style Hermite normal form of any generating set,
with zero rows dropped.  Canonical bases make equality of subgroups a plain
value comparison.  A basis is put into Hermite form once, when the lattice
is built from generators; the raw constructor only checks the defining
conditions of that form.

The operations here are the subgroup combinatorics the dimension formulas
rest on: indices, intersections, sums, commensurability, saturation
(the unique direct summand a finite-index overgroup lives in), direct
complements of saturated sublattices, and unimodular automorphisms carrying
one saturated sublattice onto another of the same rank.

Every answer that is unique comes from transform-free Hermite bases
(:func:`bredim.matrix.hermite_basis`): canonical bases, intersections (one
Hermite basis of a Zassenhaus stack), and saturation (the integer kernel of
the integer kernel), so ``is_maximal`` is a comparison with the saturation.
Complements and automorphisms are not unique; they are read from the
Hermite transform of the transposed basis, which also tests saturation
once.

All values are immutable and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatchError,
    ContainmentError,
    DimensionMismatchError,
    InputError,
    MaximalityRequiredError,
    ParseError,
    RankMismatchError,
)
from .matrix import (
    IntMatrix,
    determinant,
    hermite_basis,
    hermite_normal_form,
    inverse_unimodular,
    left_kernel,
)

__all__ = [
    "IndexResult",
    "Sublattice",
    "sublattice_from_generators",
    "index",
    "intersect",
    "lattice_sum",
    "commensurable",
    "saturation",
    "is_maximal",
    "direct_complement",
    "mapping_automorphism",
    "unimodular_completion",
    "read_lattice",
    "write_lattice",
    "read_matrix",
    "write_matrix",
]


@dataclass(frozen=True)
class IndexResult:
    """The index of one sublattice in another: a positive integer or infinite."""

    value: int | None  # None means infinite

    def __post_init__(self) -> None:
        if self.value is not None and self.value < 1:
            raise InputError("a finite index is at least 1")

    @classmethod
    def finite(cls, value: int) -> "IndexResult":
        return cls(value)

    @classmethod
    def infinite(cls) -> "IndexResult":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return "infinite" if self.value is None else str(self.value)


def _canonical_basis(ambient_dim: int, generators: IntMatrix) -> IntMatrix:
    """The Hermite basis of the span of ``generators`` (``ambient_dim`` columns)."""
    return hermite_basis(generators)


def _is_canonical(basis: IntMatrix) -> bool:
    """Whether ``basis`` is a Hermite normal form without zero rows.

    Checks the defining conditions in one pass: every row has a positive
    pivot strictly right of the pivot above it, and the entries above each
    pivot lie in ``[0, pivot)``.  Such a matrix is the unique canonical
    basis of its row span.
    """
    last = -1
    for i in range(basis.rows):
        row = basis.row(i)
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None or col <= last or row[col] < 0:
            return False
        # Column ``col`` of the rows above, as a strided slice.
        above = basis.entries[col : i * basis.cols : basis.cols]
        if any(not 0 <= x < row[col] for x in above):
            return False
        last = col
    return True


@dataclass(frozen=True)
class Sublattice:
    """A subgroup of Z^n in canonical Hermite-normal-form basis.

    ``basis`` has ``rank`` rows and ``ambient_dim`` columns; rows are
    linearly independent.  Use :meth:`from_generators` rather than the raw
    constructor, which insists on an already-canonical basis.
    """

    ambient_dim: int
    basis: IntMatrix

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise DimensionMismatchError("ambient dimension must be nonnegative")
        if self.basis.cols != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis has {self.basis.cols} columns, ambient dimension is {self.ambient_dim}"
            )
        if not _is_canonical(self.basis):
            raise InputError("basis is not in canonical Hermite normal form")

    @classmethod
    def from_generators(
        cls, ambient_dim: int, generators: Iterable[Sequence[int]]
    ) -> "Sublattice":
        gens = [list(v) for v in generators]
        for v in gens:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"generator {v} has length {len(v)}, ambient dimension is {ambient_dim}"
                )
        mat = IntMatrix.from_rows(gens, cols=ambient_dim)
        return cls(ambient_dim, _canonical_basis(ambient_dim, mat))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Sublattice":
        return cls.from_generators(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Sublattice":
        return cls(ambient_dim, IntMatrix.identity(ambient_dim))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def coordinates_of(self, vector: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of ``vector`` in this basis, or None if outside.

        Works by successive elimination against the echelon basis: each basis
        row is the only one with a nonzero entry at its pivot column among the
        later rows, so coordinates are forced.
        """
        if len(vector) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector has length {len(vector)}, ambient dimension is {self.ambient_dim}"
            )
        v = [int(x) for x in vector]
        coords = []
        for i in range(self.rank):
            row = self.basis.row(i)
            pivot_col = next(j for j, x in enumerate(row) if x)
            if v[pivot_col] % row[pivot_col] != 0:
                return None
            c = v[pivot_col] // row[pivot_col]
            coords.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)

    def contains_vector(self, vector: Sequence[int]) -> bool:
        return self.coordinates_of(vector) is not None

    def contains(self, other: "Sublattice") -> bool:
        """Whether ``other`` is a subgroup of this lattice."""
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        return all(self.contains_vector(other.basis.row(i)) for i in range(other.rank))


def sublattice_from_generators(
    ambient_dim: int, generators: Iterable[Sequence[int]]
) -> Sublattice:
    """Canonical sublattice spanned by the given integer vectors."""
    return Sublattice.from_generators(ambient_dim, generators)


def _require_same_ambient(a: Sublattice, b: Sublattice) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def index(sub: Sublattice, sup: Sublattice) -> IndexResult:
    """Index ``[sup : sub]``; requires ``sub`` to be contained in ``sup``.

    Finite exactly when the ranks agree, in which case it is the absolute
    determinant of the matrix expressing ``sub``'s basis in ``sup``'s basis.

    >>> print(index(sublattice_from_generators(2, [(2, 0), (0, 2)]), Sublattice.full(2)))
    4
    >>> print(index(sublattice_from_generators(2, [(1, 0)]), Sublattice.full(2)))
    infinite
    """
    _require_same_ambient(sub, sup)
    coord_rows = []
    for i in range(sub.rank):
        coords = sup.coordinates_of(sub.basis.row(i))
        if coords is None:
            raise ContainmentError("first lattice is not contained in the second")
        coord_rows.append(list(coords))
    if sub.rank < sup.rank:
        return IndexResult.infinite()
    x = IntMatrix.from_rows(coord_rows, cols=sup.rank)
    return IndexResult.finite(abs(determinant(x)))


def intersect(a: Sublattice, b: Sublattice) -> Sublattice:
    """Intersection of two sublattices of the same ambient group.

    Zassenhaus: the rows of ``[[A, A], [B, 0]]`` span the pairs
    ``(x @ A + y @ B, x @ A)``, and those with zero left half are exactly
    ``(0, v)`` for ``v`` in both lattices.  In the Hermite basis of the stack
    these rows come last, and their right halves are the intersection's
    canonical basis.
    """
    _require_same_ambient(a, b)
    n = a.ambient_dim
    rows = [a.basis.row(i) * 2 for i in range(a.rank)]
    rows += [b.basis.row(i) + (0,) * n for i in range(b.rank)]
    h = hermite_basis(IntMatrix.from_rows(rows, cols=2 * n))
    meet = [h.row(i)[n:] for i in range(h.rows) if not any(h.row(i)[:n])]
    return Sublattice(n, IntMatrix.from_rows(meet, cols=n))


def lattice_sum(a: Sublattice, b: Sublattice) -> Sublattice:
    """Smallest sublattice containing both summands."""
    _require_same_ambient(a, b)
    rows = a.basis.to_rows() + b.basis.to_rows()
    return Sublattice.from_generators(a.ambient_dim, rows)


def commensurable(a: Sublattice, b: Sublattice) -> bool:
    """Whether the intersection has finite index in both lattices.

    For subgroups of Z^n this happens exactly when both have the rank of
    their intersection.
    """
    _require_same_ambient(a, b)
    if a.rank != b.rank:
        return False
    return intersect(a, b).rank == a.rank


def saturation(a: Sublattice) -> Sublattice:
    """The unique direct summand of Z^n containing ``a`` with finite index.

    It is the kernel of a kernel: the integer vectors orthogonal to every
    integer vector orthogonal to ``a``, which is the rational span of ``a``
    met with Z^n.  Both kernels are Hermite bases, so the outer one is
    already the canonical basis of the saturation.

    >>> saturation(sublattice_from_generators(2, [(2, 4)])).basis.to_rows()
    [[1, 2]]
    >>> saturation(sublattice_from_generators(3, [(2, 0, 0), (0, 2, 0)])).basis.to_rows()
    [[1, 0, 0], [0, 1, 0]]
    """
    orthogonal = left_kernel(a.basis.transpose())
    return Sublattice(a.ambient_dim, left_kernel(orthogonal.transpose()))


def is_maximal(a: Sublattice) -> bool:
    """Whether ``a`` is a direct summand of Z^n (saturated).

    Tested as ``saturation(a) == a``; canonical bases make that a value
    comparison.  Note this is not a condition on any single maximal minor:
    a saturated rank-k lattice can have every k x k minor of absolute value
    larger than one, as long as the minors are coprime overall.

    Undefined for the zero lattice, whose commensurability class has no
    maximal member to speak of; raises InputError there.
    """
    if a.rank == 0:
        raise InputError("maximality is undefined for the rank-0 lattice")
    return saturation(a) == a


def _completion_transform(a: Sublattice) -> IntMatrix:
    """The Hermite transform ``u`` with ``u @ a.basis^T == [I; 0]``.

    That Hermite form is reached exactly when ``a`` is saturated (the gcd of
    its maximal minors is 1), so this is the saturation test of the
    completion routines; it raises MaximalityRequiredError otherwise.
    """
    n, r = a.ambient_dim, a.rank
    h, u = hermite_normal_form(a.basis.transpose())
    if h != IntMatrix.identity(r).vstack(IntMatrix.zero(n - r, r)):
        raise MaximalityRequiredError("the sublattice must be saturated (a direct summand of Z^n)")
    return u


def unimodular_completion(a: Sublattice) -> IntMatrix:
    """Extend the basis of a saturated sublattice to a basis of Z^n.

    Returns an n x n unimodular matrix whose first ``rank`` rows are exactly
    ``a.basis``.  Deterministic: the completion comes from inverting the
    Hermite transform of the transposed basis, so identical inputs yield
    identical completions.
    """
    w = inverse_unimodular(_completion_transform(a)).transpose()
    if w.take_rows(range(a.rank)) != a.basis:
        raise AssertionError("completion does not start with the input basis")
    return w


def direct_complement(a: Sublattice) -> Sublattice:
    """A sublattice N with ``a + N = Z^n`` and ``a`` meets ``N`` only in 0.

    Requires ``a`` saturated.  The complement is read off the deterministic
    unimodular completion, so repeated runs agree.
    """
    if a.rank == 0:
        raise MaximalityRequiredError("the rank-0 lattice is not a maximality-class member")
    w = unimodular_completion(a)
    rows = [w.row(i) for i in range(a.rank, a.ambient_dim)]
    return Sublattice.from_generators(a.ambient_dim, rows)


def mapping_automorphism(src: Sublattice, dst: Sublattice) -> IntMatrix:
    """A unimodular matrix carrying ``src`` onto ``dst`` as a set.

    Both lattices must be saturated, of equal rank, in the same ambient
    group.  The matrix acts on column vectors and maps the i-th basis vector
    of ``src`` to the i-th basis vector of ``dst``; in particular the image
    of ``src`` is exactly ``dst``.
    """
    _require_same_ambient(src, dst)
    if src.rank != dst.rank:
        raise RankMismatchError(f"ranks differ: {src.rank} vs {dst.rank}")
    if src.rank == 0:
        raise MaximalityRequiredError("the rank-0 lattice is not a maximality-class member")
    # With w = inverse(u)^T for each completion, w_dst^T @ inverse(w_src)^T
    # is w_dst^T @ u_src.
    u_src = _completion_transform(src)
    auto = unimodular_completion(dst).transpose() @ u_src
    if abs(determinant(auto)) != 1:
        raise AssertionError("constructed map is not unimodular")
    if auto @ src.basis.transpose() != dst.basis.transpose():
        raise AssertionError("constructed map does not carry the basis across")
    return auto


# ---------------------------------------------------------------------------
# Text format: first line "n r" (ambient dimension, generator count), then r
# lines of n whitespace-separated integers.  Lines starting with '#' and blank
# lines are ignored on input; output is canonical and deterministic.
# ---------------------------------------------------------------------------


def _payload_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((number, line))
    return out


def _parse_int_fields(line_number: int, line: str, expected: int | None = None) -> list[int]:
    fields = line.split()
    if expected is not None and len(fields) != expected:
        raise ParseError(line_number, f"expected {expected} integers, got {len(fields)}")
    values = []
    for f in fields:
        try:
            values.append(int(f))
        except ValueError:
            raise ParseError(line_number, f"not an integer: {f!r}") from None
    return values


def read_matrix(text: str) -> IntMatrix:
    """Read an integer matrix in the lattice file layout ("n r" then r rows of n)."""
    lines = _payload_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    head_no, head = lines[0]
    n, r = _parse_int_fields(head_no, head, expected=2)
    if n < 0 or r < 0:
        raise ParseError(head_no, "dimensions must be nonnegative")
    body = lines[1:]
    if len(body) != r:
        last = body[-1][0] if body else head_no
        raise ParseError(last, f"expected {r} rows, got {len(body)}")
    rows = [_parse_int_fields(no, line, expected=n) for no, line in body]
    return IntMatrix.from_rows(rows, cols=n)


def write_matrix(m: IntMatrix) -> str:
    head = f"{m.cols} {m.rows}"
    return head + ("\n" + m.format_rows() if m.rows else "") + "\n"


def read_lattice(text: str) -> Sublattice:
    """Read generators in the lattice file format and canonicalize them."""
    mat = read_matrix(text)
    return Sublattice.from_generators(mat.cols, mat.to_rows())


def write_lattice(a: Sublattice) -> str:
    return write_matrix(a.basis)
