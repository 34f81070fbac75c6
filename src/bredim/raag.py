"""Right-angled Artin groups through their defining graphs.

A finite simple graph determines a group generated by the vertices, with
commuting relations along the edges.  Its geometry is carried by a cube
complex with one k-cube per k-clique of the graph; opposite faces of each
cube are identified with cancelling orientations, exactly as for the torus,
so every boundary map in the cellular chain complex vanishes.  That makes
the cohomology of the complex visible in the clique table, which is the
cross-check the test suite leans on.

Dimension formulas implemented here:

* the cohomological dimension of the group is the clique number of the
  graph (the top cube is essential);
* for 0 <= k < cd, the dimension for the rank-at-most-k family is cd + k,
  and the geometric and Bredon-cohomological versions agree.

Requests with k >= cd are refused rather than extrapolated: in that range
the formula is not established, and the degenerate answer would be a
different statement.

Cliques are counted without being listed, by pivot counting (Jain and
Seshadhri, "The Power of Pivoting for Exact Clique Counting", WSDM 2020):
the search tree branches on a pivot and its non-neighbours, and each leaf
stands for every subset of the pivots it took.  Its cost follows the search
tree, not the number of cliques.  Only :func:`cliques` lists them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import lt
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InputError, OutOfRangeError, ParseError

if TYPE_CHECKING:
    from .homology import ChainComplex

__all__ = [
    "SimpleGraph",
    "CliqueTable",
    "parse_graph",
    "parse_dimacs",
    "read_graph",
    "write_graph",
    "cliques",
    "clique_counts",
    "clique_number",
    "salvetti_complex",
    "cd_raag",
    "gd_fk_raag",
    "complete_graph",
    "path_graph",
    "RAAG_GD_EQUALS_CD_NOTE",
    "RAAG_CD_CITATION",
    "RAAG_FK_EXACT_CITATION",
]

RAAG_GD_EQUALS_CD_NOTE = (
    "the geometric and Bredon-cohomological dimensions agree for this family "
    "and group class; the value reported is both"
)
RAAG_CD_CITATION = (
    "the cohomological and geometric dimension of a right-angled Artin "
    "group equal the clique number of its defining graph"
)
RAAG_FK_EXACT_CITATION = (
    "a right-angled Artin group with cohomological dimension cd has "
    "F_k-dimension exactly cd + k for 0 <= k < cd"
)


@dataclass(frozen=True)
class SimpleGraph:
    """A finite simple graph: no loops, no multiple edges.

    Edges are stored as ordered pairs ``(u, v)`` with ``u < v``.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise InputError("vertex count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise InputError(f"edge ({u}, {v}) is not a sorted pair of distinct vertices")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(vertex_count, normalized)

    @classmethod
    def _from_checked(
        cls, vertex_count: int, edges: frozenset[tuple[int, int]]
    ) -> "SimpleGraph":
        """A graph whose count and edges its parser has already checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertex_count", vertex_count)
        object.__setattr__(graph, "edges", edges)
        return graph

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


# ---------------------------------------------------------------------------
# Parsing.  Edge-list format: first line "V E", then E lines "u v" with
# 0-based vertices.  DIMACS .col: "c" comments, one "p edge V E" line, then
# "e u v" lines with 1-based vertices (duplicate lines tolerated there, since
# files in the wild list both directions).
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> SimpleGraph:
    # One pass; splitting on whitespace strips each line, and a blank line
    # splits to [].  The edge count is checked before any edge, so the first
    # faulty edge is held until every line has been counted.
    numbered = enumerate(text.splitlines(), start=1)
    for head_no, raw in numbered:
        fields = raw.split()
        if fields:
            break
    else:
        raise ParseError(1, "empty input")
    if len(fields) != 2:
        raise ParseError(head_no, "expected header 'V E'")
    try:
        n_vertices, n_edges = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(head_no, "header must hold two integers") from None
    if n_vertices < 0 or n_edges < 0:
        raise ParseError(head_no, "counts must be nonnegative")
    seen: set[tuple[int, int]] = set()
    found, last_no, fault = 0, head_no, None
    for no, raw in numbered:
        fields = raw.split()
        if not fields:
            continue
        found, last_no = found + 1, no
        if fault is not None:
            continue
        if len(fields) != 2:
            fault = ParseError(no, "expected an edge 'u v'")
            continue
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            fault = ParseError(no, "vertices must be integers")
            continue
        if u > v:
            u, v = v, u
        if u == v:
            fault = ParseError(no, f"loop at vertex {u}")
        elif u < 0 or v >= n_vertices:
            fault = ParseError(no, f"vertex out of range 0..{n_vertices - 1}")
        elif (u, v) in seen:
            fault = ParseError(no, f"duplicate edge {(u, v)}")
        else:
            seen.add((u, v))
    if found != n_edges:
        raise ParseError(last_no, f"expected {n_edges} edge lines, got {found}")
    if fault is not None:
        raise fault
    return SimpleGraph._from_checked(n_vertices, frozenset(seen))


def parse_dimacs(text: str) -> SimpleGraph:
    n_vertices: int | None = None
    edges: set[tuple[int, int]] = set()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n_vertices is not None:
                raise ParseError(no, "duplicate problem line")
            if len(fields) != 4 or fields[1] not in ("edge", "col"):
                raise ParseError(no, "expected 'p edge V E'")
            try:
                n_vertices = int(fields[2])
            except ValueError:
                raise ParseError(no, "vertex count must be an integer") from None
        elif fields[0] == "e":
            if n_vertices is None:
                raise ParseError(no, "edge before problem line")
            if len(fields) != 3:
                raise ParseError(no, "expected 'e u v'")
            try:
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
            except ValueError:
                raise ParseError(no, "vertices must be integers") from None
            if u == v:
                raise ParseError(no, f"loop at vertex {u + 1}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ParseError(no, f"vertex out of range 1..{n_vertices}")
            edges.add((min(u, v), max(u, v)))
        else:
            raise ParseError(no, f"unknown directive {fields[0]!r}")
    if n_vertices is None:
        raise ParseError(1, "missing problem line")
    return SimpleGraph(n_vertices, frozenset(edges))


def read_graph(text: str) -> SimpleGraph:
    """Read either format, deciding by the first payload token."""
    # Line breaks are whitespace to split(), so this is the first token of
    # the first nonblank line.
    head = text.split(None, 1)
    if not head:
        raise ParseError(1, "empty input")
    if head[0] in ("c", "p", "e"):
        return parse_dimacs(text)
    return parse_graph(text)


def write_graph(graph: SimpleGraph) -> str:
    lines = [f"{graph.vertex_count} {len(graph.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Clique enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueTable:
    """All cliques of a graph, grouped by size, lexicographically sorted.

    ``by_size[k]`` lists the k-vertex cliques as sorted vertex tuples;
    ``by_size[0]`` is the single empty clique.
    """

    by_size: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if not self.by_size or self.by_size[0] != ((),):
            raise InputError("size-0 entry must be the single empty clique")
        for k, group in enumerate(self.by_size):
            # Strictly increasing means sorted and duplicate-free.  Comparing
            # neighbouring columns checks every clique of the group at once.
            columns = list(zip(*group))
            if any(len(c) != k for c in group) or not all(
                all(map(lt, a, b)) for a, b in zip(columns, columns[1:])
            ):
                bad = next(c for c in group if len(c) != k or list(c) != sorted(set(c)))
                raise InputError(f"malformed clique {bad} at size {k}")
            if not all(map(lt, group, group[1:])):
                raise InputError(f"size-{k} cliques are not sorted and duplicate-free")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.by_size)

    @property
    def clique_number(self) -> int:
        return len(self.by_size) - 1


def _neighbour_masks(graph: SimpleGraph) -> list[int]:
    """Bit w of entry v is set exactly when v and w are adjacent."""
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pivot(p: int, masks: list[int]) -> int:
    """The vertex of ``p`` with the most neighbours in ``p``; the lowest such
    vertex on a tie."""
    best, most = -1, -1
    pool = p
    while pool:
        low = pool & -pool
        u = low.bit_length() - 1
        degree = (p & masks[u]).bit_count()
        if degree > most:
            best, most = u, degree
        pool ^= low
    return best


def cliques(graph: SimpleGraph) -> CliqueTable:
    """Complete clique enumeration, all sizes including the empty clique.

    A depth-first search extends each clique only by common neighbours
    numbered above its last vertex, so every clique is reached exactly once.
    Candidate sets are integer bitsets and the search keeps an explicit
    stack.  Children are pushed from the highest vertex down, so cliques
    come off the stack in lexicographic order, which is the order of each
    ``by_size`` group.
    """
    masks = _neighbour_masks(graph)
    by_size: list[list[tuple[int, ...]]] = []
    stack = [((), (1 << graph.vertex_count) - 1)]
    while stack:
        clique, candidates = stack.pop()
        if len(clique) == len(by_size):
            by_size.append([])
        by_size[len(clique)].append(clique)
        above = 0
        while candidates:
            v = candidates.bit_length() - 1
            stack.append((clique + (v,), above & masks[v]))
            above |= 1 << v
            candidates ^= 1 << v
    return CliqueTable(tuple(tuple(group) for group in by_size))


def clique_number(graph: SimpleGraph) -> int:
    """Size of the largest clique; 0 for the empty graph.

    The search tree of :func:`clique_counts`, bounded by size: a node holds
    the size of the clique taken (held vertices and pivots alike) and the
    candidates adjacent to all of it, and is dropped when even taking every
    candidate could not beat the best size found.  Since the size counts
    every pivot, a leaf's size is that of the largest clique it stands for.
    """
    masks = _neighbour_masks(graph)
    best = 0
    stack = [(0, (1 << graph.vertex_count) - 1)]
    while stack:
        size, p = stack.pop()
        if size + p.bit_count() <= best:
            continue
        if not p:
            best = size
            continue
        pivot = _pivot(p, masks)
        rest = p ^ (1 << pivot)
        for v in _bits(rest & ~masks[pivot]):
            stack.append((size + 1, rest & masks[v]))
            rest ^= 1 << v
        # Pushed last, so searched first: the pivot's neighbourhood is where
        # a large clique is likeliest, and finding one early tightens the cut.
        stack.append((size + 1, p & masks[pivot]))
    return best


def clique_counts(graph: SimpleGraph) -> tuple[int, ...]:
    """Number of cliques of each size, from the empty clique up to the
    clique number; equal to ``cliques(graph).counts``.

    Pivot counting over integer bitsets with an explicit stack.  A node
    holds the vertices taken (``held``), the pivots taken (``pivots``) and
    the candidates adjacent to all of them.  Every clique among the
    candidates either lies in the pivot's closed neighbourhood, counted by
    one child that takes the pivot as a pivot, or has a first member among
    the pivot's non-neighbours, counted by one child per non-neighbour that
    takes it as held and drops the earlier ones.  A leaf stands for the
    held vertices with any j of its pivots: ``comb(pivots, j)`` cliques of
    size ``held + j``.
    """
    masks = _neighbour_masks(graph)
    counts = [0] * (graph.vertex_count + 1)
    stack = [(0, 0, (1 << graph.vertex_count) - 1)]
    while stack:
        held, pivots, p = stack.pop()
        if not p:
            for j in range(pivots + 1):
                counts[held + j] += comb(pivots, j)
            continue
        pivot = _pivot(p, masks)
        stack.append((held, pivots + 1, p & masks[pivot]))
        p ^= 1 << pivot
        for v in _bits(p & ~masks[pivot]):
            stack.append((held + 1, pivots, p & masks[v]))
            p ^= 1 << v
    while not counts[-1]:
        counts.pop()
    return tuple(counts)


def salvetti_complex(graph: SimpleGraph, max_entries: int | None = None) -> ChainComplex:
    """The cube complex of the graph as a chain complex.

    One k-cell per k-clique; every boundary map is identically zero because
    opposite faces of each cube are identified with cancelling orientations.
    The cohomology cross-check against the clique counts is enforced by the
    test suite rather than assumed here.

    The boundaries are dense, ``sum(counts[k - 1] * counts[k])`` entries in
    all; above ``max_entries`` of them an ``InputError`` is raised before
    any is built.
    """
    from .homology import ChainComplex
    from .matrix import IntMatrix

    counts = clique_counts(graph)
    entries = sum(a * b for a, b in zip(counts, counts[1:]))
    if max_entries is not None and entries > max_entries:
        raise InputError(
            f"the Salvetti complex is built with at most {max_entries} boundary "
            f"entries; this graph's has {entries}"
        )
    boundaries = tuple(
        IntMatrix.zero(counts[k - 1], counts[k]) for k in range(1, len(counts))
    )
    return ChainComplex(counts, boundaries)


def cd_raag(graph: SimpleGraph) -> int:
    """Cohomological dimension of the group: the clique number.

    The empty graph presents the trivial group; every dimension is 0.
    """
    return clique_number(graph)


def gd_fk_raag(graph: SimpleGraph, k: int) -> int:
    """Dimension for the rank-at-most-k family: cd + k, for 0 <= k < cd."""
    cd = cd_raag(graph)
    if k < 0 or k >= cd:
        raise OutOfRangeError(
            f"the formula covers 0 <= k < {cd} for this graph; got k={k}"
        )
    return cd + k
