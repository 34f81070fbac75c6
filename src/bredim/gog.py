"""Graphs of groups with virtually abelian vertex groups.

A descriptor holds a finite connected graph whose vertices carry infinite
finitely generated virtually abelian groups (recorded by the rank of their
finite-index free abelian subgroup) and whose edges carry virtually abelian
edge groups of rank at most the smaller endpoint rank; rank 0 encodes a
finite group.  Acylindricity of the splitting is an input assertion: the
descriptor does not carry enough data to decide it, and the results that
need it take it as a hypothesis.

Two computations are offered for the fundamental group of the splitting:

* the exact value m + k (m the largest vertex rank), valid when the
  splitting is acylindrical, every vertex group is infinite, every edge rank
  is strictly below both endpoint ranks, and 1 <= k < m;
* two-sided bounds under the weaker hypotheses (acylindrical, k >= 1): the
  vertex and edge subgroups bound the dimension from below, and coning off
  the periodic geodesics of the Bass-Serre tree gives a 2-dimensional space
  whose cell stabilizers bound it from above by
  max(2, vertex terms, edge terms + 1).  The cell census of that coned-off
  quotient is reported alongside the interval.

When the exact formula's extra hypotheses fail, the calculator degrades to
the bounds instead of refusing, and says why.  For k = 0 no upper bound is
asserted at all; only the subgroup lower bound m is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AcylindricityError, InputError, OutOfRangeError, ParseError
from .dims import CITATIONS, DimBound, fk_dim_virtually_abelian

__all__ = [
    "VertexGroupDesc",
    "EdgeGroupDesc",
    "GraphOfGroups",
    "CensusEntry",
    "CellCensus",
    "GogResult",
    "parse_gog",
    "write_gog",
    "max_vertex_rank",
    "gog_gd",
    "bass_serre_bounds",
    "build_census",
]

VIRTUALLY_CYCLIC = "virtually cyclic"


@dataclass(frozen=True)
class VertexGroupDesc:
    """A vertex group: rank of its finite-index free abelian subgroup.

    Rank at least 1 forces the group to be infinite; rank 0 means finite.
    """

    name: str
    rank: int

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("vertex needs a name")
        if self.rank < 0:
            raise InputError(f"vertex {self.name}: rank must be nonnegative")

    @property
    def infinite(self) -> bool:
        return self.rank >= 1


@dataclass(frozen=True)
class EdgeGroupDesc:
    """An edge group between two named vertices; rank 0 encodes a finite group."""

    ends: tuple[str, str]
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InputError(f"edge {self.ends}: rank must be nonnegative")

    @property
    def finite(self) -> bool:
        return self.rank == 0

    def label(self) -> str:
        return f"{self.ends[0]}-{self.ends[1]}"


def _check_edge_rank(e: EdgeGroupDesc, ranks: dict[str, int]) -> None:
    bound = min(ranks[e.ends[0]], ranks[e.ends[1]])
    if e.rank > bound:
        raise InputError(f"edge {e.label()}: rank {e.rank} exceeds endpoint rank {bound}")


@dataclass(frozen=True)
class GraphOfGroups:
    """A finite connected graph of virtually abelian groups.

    Edge ranks never exceed either endpoint rank (the edge group embeds in
    both).  Loops and parallel edges are legal splitting data.
    """

    vertices: tuple[VertexGroupDesc, ...]
    edges: tuple[EdgeGroupDesc, ...]
    acylindrical: bool

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InputError("a graph of groups needs at least one vertex")
        names = [v.name for v in self.vertices]
        if len(set(names)) != len(names):
            raise InputError("duplicate vertex names")
        ranks = {v.name: v.rank for v in self.vertices}
        for e in self.edges:
            for end in e.ends:
                if end not in ranks:
                    raise InputError(f"edge endpoint {end!r} is not a vertex")
            _check_edge_rank(e, ranks)
        if not self._connected():
            raise InputError("the underlying graph is not connected")

    def _connected(self) -> bool:
        names = [v.name for v in self.vertices]
        reached = {names[0]}
        frontier = [names[0]]
        neighbors: dict[str, set[str]] = {n: set() for n in names}
        for e in self.edges:
            neighbors[e.ends[0]].add(e.ends[1])
            neighbors[e.ends[1]].add(e.ends[0])
        while frontier:
            current = frontier.pop()
            for nxt in neighbors[current]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return len(reached) == len(names)


def max_vertex_rank(gog: GraphOfGroups) -> int:
    """The largest vertex-group rank, the quantity the exact formula is built on."""
    return max(v.rank for v in gog.vertices)


# ---------------------------------------------------------------------------
# Cell census of the coned-off Bass-Serre tree quotient.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusEntry:
    """One stabilizer class of cells in the coned-off quotient.

    ``count`` is the number of orbits when the descriptor determines it
    (tree cells), and None for the cone classes, whose number depends on the
    collection of coned geodesics.  ``term`` is the upper-bound contribution
    stabilizer-dimension + cell-dimension.
    """

    kind: str  # "tree-vertex", "cone-vertex", "tree-edge", "cone-edge", "cone-face"
    dimension: int
    stabilizer: str
    count: int | None
    term: int


@dataclass(frozen=True)
class CellCensus:
    entries: tuple[CensusEntry, ...]

    def max_term(self) -> int:
        return max(e.term for e in self.entries)


def build_census(gog: GraphOfGroups, k: int) -> CellCensus:
    """Stabilizer classes of the coned-off tree quotient, with bound terms.

    Requires k >= 1 so that the virtually cyclic cone stabilizers lie in the
    family and contribute only their cell dimension.
    """
    if k < 1:
        raise OutOfRangeError(f"the census is built for k >= 1; got k={k}")
    entries: list[CensusEntry] = []
    for v in gog.vertices:
        bound, degenerate = fk_dim_virtually_abelian(v.rank, k)
        stab = f"vertex group {v.name} (rank {v.rank})"
        if degenerate:
            stab += ", inside the family"
        entries.append(CensusEntry("tree-vertex", 0, stab, 1, bound.lower))
    entries.append(CensusEntry("cone-vertex", 0, VIRTUALLY_CYCLIC, None, 0))
    for e in gog.edges:
        bound, degenerate = fk_dim_virtually_abelian(e.rank, k)
        stab = f"edge group {e.label()} ({'finite' if e.finite else f'rank {e.rank}'})"
        if degenerate and not e.finite:
            stab += ", inside the family"
        entries.append(CensusEntry("tree-edge", 1, stab, 1, bound.lower + 1))
    entries.append(CensusEntry("cone-edge", 1, VIRTUALLY_CYCLIC, None, 1))
    entries.append(CensusEntry("cone-face", 2, VIRTUALLY_CYCLIC, None, 2))
    return CellCensus(tuple(entries))


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GogResult:
    """Outcome of a graph-of-groups dimension computation."""

    bound: DimBound
    exact: bool
    census: CellCensus | None
    notes: tuple[str, ...]
    citations: tuple[str, ...]


def bass_serre_bounds(gog: GraphOfGroups, k: int) -> GogResult:
    """Two-sided bounds for the splitting's fundamental group, plus the census.

    Needs the acylindricity assertion and k >= 1.  Lower bound: the largest
    restricted dimension among vertex and edge groups.  Upper bound:
    max(2, vertex terms, edge terms + 1) from the coned-off tree.
    """
    if not gog.acylindrical:
        raise AcylindricityError(
            "the coned-off tree argument needs the splitting marked acylindrical"
        )
    if k < 1:
        raise OutOfRangeError(f"bounds are asserted for k >= 1; got k={k}")
    notes: list[str] = []
    lower = 0
    for v in gog.vertices:
        bound, degenerate = fk_dim_virtually_abelian(v.rank, k)
        if degenerate:
            notes.append(
                f"vertex group {v.name} (rank {v.rank}) lies in the family for k={k}; "
                "its restricted dimension is the degenerate value 0"
            )
        lower = max(lower, bound.lower)
    for e in gog.edges:
        bound, degenerate = fk_dim_virtually_abelian(e.rank, k)
        if degenerate and not e.finite:
            notes.append(
                f"edge group {e.label()} (rank {e.rank}) lies in the family for k={k}; "
                "its restricted dimension is the degenerate value 0"
            )
        lower = max(lower, bound.lower)
    census = build_census(gog, k)
    return GogResult(
        bound=DimBound(lower, census.max_term()),
        exact=False,
        census=census,
        notes=tuple(notes),
        citations=(CITATIONS["gog-bounds"], CITATIONS["virtually-abelian-exact"]),
    )


def gog_gd(gog: GraphOfGroups, k: int) -> GogResult:
    """The dimension of the splitting's fundamental group for the family F_k.

    Returns the exact value m + k when the hypotheses hold: acylindrical
    splitting, every vertex group infinite, every edge rank strictly below
    both endpoint ranks, and 1 <= k < m.  Otherwise degrades to
    :func:`bass_serre_bounds` (or, for k = 0, to the bare subgroup lower
    bound) and reports which hypothesis failed.
    """
    if k < 0:
        raise OutOfRangeError(f"k must be nonnegative; got k={k}")
    m = max_vertex_rank(gog)
    problems: list[str] = []
    if not gog.acylindrical:
        problems.append("the splitting is not marked acylindrical")
    finite_vertices = [v.name for v in gog.vertices if not v.infinite]
    if finite_vertices:
        problems.append(
            "vertex groups must be infinite; finite: " + ", ".join(sorted(finite_vertices))
        )
    by_name = {v.name: v for v in gog.vertices}
    weak_edges = [
        e.label()
        for e in gog.edges
        if e.rank >= min(by_name[e.ends[0]].rank, by_name[e.ends[1]].rank)
    ]
    if weak_edges:
        problems.append(
            "edge ranks must be strictly below both endpoint ranks; violated by: "
            + ", ".join(weak_edges)
        )
    if not (1 <= k < m):
        problems.append(f"the exact formula covers 1 <= k < {m}; got k={k}")
    if not problems:
        return GogResult(
            bound=DimBound.exact(m + k),
            exact=True,
            census=None,
            notes=(),
            citations=(CITATIONS["gog-exact"],),
        )
    if not gog.acylindrical:
        raise AcylindricityError(
            "no exact value and no fallback bounds without the acylindricity "
            "assertion: " + "; ".join(problems)
        )
    if k == 0:
        lower = max(
            (v.rank for v in gog.vertices if v.rank >= 1),
            default=0,
        )
        return GogResult(
            bound=DimBound.at_least(lower),
            exact=False,
            census=None,
            notes=tuple(problems)
            + ("no upper bound is asserted for k=0; reporting the subgroup lower bound only",),
            citations=(CITATIONS["subgroup-lower"],),
        )
    fallback = bass_serre_bounds(gog, k)
    return GogResult(
        bound=fallback.bound,
        exact=False,
        census=fallback.census,
        notes=tuple(problems) + fallback.notes,
        citations=fallback.citations,
    )


# ---------------------------------------------------------------------------
# Text format: line-oriented.
#   vertex <name> rank=<r>
#   edge <name1> <name2> rank=<r>     (or: edge <name1> <name2> finite)
#   acylindrical = true|false
# '#' comments and blank lines are ignored.  The acylindrical line may be
# omitted and defaults to false (not asserted).
# ---------------------------------------------------------------------------


def _parse_rank_field(no: int, field: str) -> int:
    if not field.startswith("rank="):
        raise ParseError(no, f"expected rank=<r> or finite, got {field!r}")
    try:
        value = int(field[len("rank=") :])
    except ValueError:
        raise ParseError(no, f"rank is not an integer: {field!r}") from None
    if value < 0:
        raise ParseError(no, "rank must be nonnegative")
    return value


def parse_gog(text: str) -> GraphOfGroups:
    vertices: list[VertexGroupDesc] = []
    edges: list[EdgeGroupDesc] = []
    ranks: dict[str, int] = {}
    acylindrical: bool | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.replace("=", " = ").split() if line.startswith("acylindrical") else line.split()
        if fields[0] == "vertex":
            if len(fields) != 3:
                raise ParseError(no, "expected 'vertex <name> rank=<r>'")
            name = fields[1]
            if name in ranks:
                raise ParseError(no, f"duplicate vertex {name!r}")
            vertices.append(VertexGroupDesc(name, _parse_rank_field(no, fields[2])))
            ranks[name] = vertices[-1].rank
        elif fields[0] == "edge":
            if len(fields) != 4:
                raise ParseError(no, "expected 'edge <name1> <name2> rank=<r>|finite'")
            rank = 0 if fields[3] == "finite" else _parse_rank_field(no, fields[3])
            for end in (fields[1], fields[2]):
                if end not in ranks:
                    raise ParseError(no, f"edge endpoint {end!r} is not a declared vertex")
            edges.append(EdgeGroupDesc((fields[1], fields[2]), rank))
            # rank violations surface on the edge line that causes them
            try:
                _check_edge_rank(edges[-1], ranks)
            except InputError as exc:
                raise ParseError(no, str(exc)) from None
        elif fields[0] == "acylindrical":
            if len(fields) != 3 or fields[1] != "=" or fields[2] not in ("true", "false"):
                raise ParseError(no, "expected 'acylindrical = true|false'")
            if acylindrical is not None:
                raise ParseError(no, "duplicate acylindrical line")
            acylindrical = fields[2] == "true"
        else:
            raise ParseError(no, f"unknown directive {fields[0]!r}")
    if not vertices:
        raise ParseError(1, "a graph of groups needs at least one vertex")
    try:
        return GraphOfGroups(tuple(vertices), tuple(edges), bool(acylindrical))
    except InputError as exc:
        raise ParseError(len(text.splitlines()) or 1, str(exc)) from exc


def write_gog(gog: GraphOfGroups) -> str:
    lines = [f"vertex {v.name} rank={v.rank}" for v in gog.vertices]
    for e in gog.edges:
        tail = "finite" if e.finite else f"rank={e.rank}"
        lines.append(f"edge {e.ends[0]} {e.ends[1]} {tail}")
    lines.append(f"acylindrical = {'true' if gog.acylindrical else 'false'}")
    return "\n".join(lines) + "\n"
