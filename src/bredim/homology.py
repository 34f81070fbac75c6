"""Integral homology and cohomology of finite chain complexes.

A chain complex here is a finite sequence of free abelian groups
``C_0, ..., C_d`` with integer boundary matrices ``bd_k : C_k -> C_{k-1}``
(stored as ``c_{k-1} x c_k`` matrices acting on column vectors).  The chain
condition ``bd_k @ bd_{k+1} == 0`` is checked at construction time, so every
:class:`ChainComplex` value satisfies it.

Homology is computed as

    H_k = ker(bd_k) / im(bd_{k+1}),
    betti = nullity(bd_k) - rank(bd_{k+1}),
    torsion = invariant factors of bd_{k+1} that exceed 1.

The rank of the outgoing map comes from its Hermite basis, which builds no
transform; only the incoming map runs the Smith normal form, whose diagonal
gives both its rank and the torsion.

Cohomology is the same computation on the dual complex, i.e. applied to
the transposed boundaries, never a shuffle of the homology answer; the
universal-coefficient relation between the two is an independent
cross-check exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ChainComplexError, InputError, ParseError
from .matrix import IntMatrix, rank, smith_normal_form

__all__ = [
    "CohomologyGroup",
    "ChainComplex",
    "chain_condition_holds",
    "validate",
    "homology",
    "cohomology",
    "euler_characteristic",
    "read_chain_complex",
    "write_chain_complex",
]


@dataclass(frozen=True)
class CohomologyGroup:
    """A finitely generated abelian group: free rank plus cyclic torsion."""

    degree: int
    betti: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.betti < 0:
            raise InputError("negative free rank")
        for x in self.torsion:
            if x < 2:
                raise InputError("torsion coefficients are at least 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise InputError("torsion coefficients must form a divisibility chain")

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _shapes_consistent(cell_counts: Sequence[int], boundaries: Sequence[IntMatrix]) -> str | None:
    if not cell_counts:
        return "a complex needs at least one degree"
    if any(c < 0 for c in cell_counts):
        return "cell counts must be nonnegative"
    if len(boundaries) != len(cell_counts) - 1:
        return (
            f"expected {len(cell_counts) - 1} boundary matrices, got {len(boundaries)}"
        )
    for k, bd in enumerate(boundaries, start=1):
        if (bd.rows, bd.cols) != (cell_counts[k - 1], cell_counts[k]):
            return (
                f"boundary {k} has shape {bd.rows}x{bd.cols}, expected "
                f"{cell_counts[k - 1]}x{cell_counts[k]}"
            )
    return None


def chain_condition_holds(cell_counts: Sequence[int], boundaries: Sequence[IntMatrix]) -> bool:
    """Whether consecutive boundary matrices compose to zero.

    Shape consistency is required; raises on malformed data rather than
    conflating it with a failed chain condition.
    """
    problem = _shapes_consistent(cell_counts, boundaries)
    if problem is not None:
        raise ChainComplexError(problem)
    return all(
        (boundaries[k] @ boundaries[k + 1]).is_zero() for k in range(len(boundaries) - 1)
    )


@dataclass(frozen=True)
class ChainComplex:
    """A finite chain complex of free abelian groups.

    ``boundaries[k-1]`` is the map ``C_k -> C_{k-1}``.  Construction fails
    unless the shapes match ``cell_counts`` and all double boundaries vanish,
    so invalid complexes are unrepresentable.
    """

    cell_counts: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        if not chain_condition_holds(self.cell_counts, self.boundaries):
            raise ChainComplexError("double boundary is nonzero")

    @classmethod
    def from_data(
        cls, cell_counts: Sequence[int], boundaries: Sequence[Sequence[Sequence[int]]]
    ) -> "ChainComplex":
        counts = tuple(int(c) for c in cell_counts)
        mats = tuple(
            IntMatrix.from_rows(b, cols=counts[k + 1]) for k, b in enumerate(boundaries)
        )
        return cls(counts, mats)

    @property
    def top_degree(self) -> int:
        return len(self.cell_counts) - 1

    def boundary(self, k: int) -> IntMatrix:
        """The boundary map ``C_k -> C_{k-1}``, zero maps at both ends."""
        if k < 1 or k > self.top_degree:
            if k == 0:
                return IntMatrix.zero(0, self.cell_counts[0])
            if k == self.top_degree + 1:
                return IntMatrix.zero(self.cell_counts[self.top_degree], 0)
            raise InputError(f"no boundary map in degree {k}")
        return self.boundaries[k - 1]


def validate(complex_: ChainComplex) -> bool:
    """Recheck the chain condition on an existing complex."""
    return chain_condition_holds(complex_.cell_counts, complex_.boundaries)


def _check_degree(complex_: ChainComplex, k: int) -> None:
    if k < 0 or k > complex_.top_degree:
        raise InputError(
            f"degree {k} out of range 0..{complex_.top_degree}"
        )


def _kernel_mod_image(
    k: int, cells: int, out_map: IntMatrix, in_map: IntMatrix
) -> CohomologyGroup:
    """``ker(out_map) / im(in_map)`` in degree k, for maps out of and into Z^cells."""
    # Every Salvetti boundary is zero, and is_zero() costs a fraction of a
    # rank or a Smith form (which first builds two identity transforms).
    rank_out = 0 if out_map.is_zero() else rank(out_map)
    diagonal = () if in_map.is_zero() else smith_normal_form(in_map)[0].diagonal()
    in_factors = [x for x in diagonal if x != 0]
    betti = (cells - rank_out) - len(in_factors)
    torsion = tuple(x for x in in_factors if x > 1)
    return CohomologyGroup(degree=k, betti=betti, torsion=torsion)


def homology(complex_: ChainComplex, k: int) -> CohomologyGroup:
    """The integral homology group H_k."""
    _check_degree(complex_, k)
    return _kernel_mod_image(
        k, complex_.cell_counts[k], complex_.boundary(k), complex_.boundary(k + 1)
    )


def cohomology(complex_: ChainComplex, k: int) -> CohomologyGroup:
    """The integral cohomology group H^k, computed on the dual complex.

    The coboundary out of degree k is the transpose of ``bd_{k+1}`` and the
    coboundary into degree k is the transpose of ``bd_k``; the answer is the
    homology of that cochain complex.
    """
    _check_degree(complex_, k)
    return _kernel_mod_image(
        k,
        complex_.cell_counts[k],
        complex_.boundary(k + 1).transpose(),
        complex_.boundary(k).transpose(),
    )


def euler_characteristic(complex_: ChainComplex) -> int:
    return sum((-1) ** k * c for k, c in enumerate(complex_.cell_counts))


# ---------------------------------------------------------------------------
# Text format:
#   degrees <d>
#   <c_0> <c_1> ... <c_d>
#   # boundary 1
#   <c_0 rows of c_1 integers>
#   # boundary 2
#   ...
# A boundary block carries no rows when either of its dimensions is zero.
# ---------------------------------------------------------------------------


def write_chain_complex(complex_: ChainComplex) -> str:
    lines = [f"degrees {complex_.top_degree}"]
    lines.append(" ".join(str(c) for c in complex_.cell_counts))
    for k in range(1, complex_.top_degree + 1):
        lines.append(f"# boundary {k}")
        bd = complex_.boundary(k)
        if bd.rows and bd.cols:
            lines.append(bd.format_rows())
    return "\n".join(lines) + "\n"


def read_chain_complex(text: str) -> ChainComplex:
    numbered = [
        (no, raw.strip())
        for no, raw in enumerate(text.splitlines(), start=1)
        if raw.strip()
    ]
    if not numbered:
        raise ParseError(1, "empty input")
    pos = 0

    def take() -> tuple[int, str]:
        nonlocal pos
        if pos >= len(numbered):
            last = numbered[-1][0]
            raise ParseError(last, "unexpected end of input")
        item = numbered[pos]
        pos += 1
        return item

    no, line = take()
    fields = line.split()
    if len(fields) != 2 or fields[0] != "degrees":
        raise ParseError(no, "expected header 'degrees <d>'")
    try:
        top = int(fields[1])
    except ValueError:
        raise ParseError(no, f"not an integer: {fields[1]!r}") from None
    if top < 0:
        raise ParseError(no, "top degree must be nonnegative")

    no, line = take()
    try:
        counts = [int(f) for f in line.split()]
    except ValueError:
        raise ParseError(no, "cell counts must be integers") from None
    if len(counts) != top + 1:
        raise ParseError(no, f"expected {top + 1} cell counts, got {len(counts)}")

    boundaries = []
    for k in range(1, top + 1):
        no, line = take()
        if line != f"# boundary {k}":
            raise ParseError(no, f"expected '# boundary {k}' header")
        if counts[k] == 0 or counts[k - 1] == 0:
            boundaries.append(IntMatrix(counts[k - 1], counts[k], ()))
            continue
        rows = []
        for _ in range(counts[k - 1]):
            no, line = take()
            fields = line.split()
            if len(fields) != counts[k]:
                raise ParseError(no, f"expected {counts[k]} integers, got {len(fields)}")
            try:
                rows.append([int(f) for f in fields])
            except ValueError:
                raise ParseError(no, "matrix entries must be integers") from None
        boundaries.append(IntMatrix.from_rows(rows, cols=counts[k]))
    if pos != len(numbered):
        raise ParseError(numbered[pos][0], "trailing content after the last boundary block")
    try:
        return ChainComplex(tuple(counts), tuple(boundaries))
    except ChainComplexError as exc:
        raise ParseError(numbered[-1][0], str(exc)) from exc
