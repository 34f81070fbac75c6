import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredim.errors import InputError, OutOfRangeError, ParseError
from bredim.homology import cohomology, homology
from bredim.oracles import binomial, clique_counts_bitmask, max_clique_bitmask
from bredim.raag import (
    CliqueTable,
    SimpleGraph,
    cd_raag,
    clique_counts,
    clique_number,
    cliques,
    complete_graph,
    gd_fk_raag,
    parse_dimacs,
    parse_graph,
    path_graph,
    read_graph,
    salvetti_complex,
    write_graph,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return SimpleGraph.from_edges(10, outer + inner + spokes)


def diamond():
    # complete graph on 4 vertices minus one edge
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_path():
    graph = parse_graph("3 2\n0 1\n1 2\n")
    assert graph.vertex_count == 3
    assert sorted(graph.edges) == [(0, 1), (1, 2)]


def test_parse_complete():
    text = "4 6\n" + "\n".join(f"{u} {v}" for u, v in combinations(range(4), 2)) + "\n"
    assert parse_graph(text) == complete_graph(4)


def test_parse_loop_rejected():
    with pytest.raises(ParseError) as err:
        parse_graph("2 1\n0 0\n")
    assert err.value.line_number == 2


def test_parse_duplicate_rejected():
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n1 0\n")


def test_parse_out_of_range_rejected():
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 5\n")


def test_parse_count_mismatch():
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n")


def test_parse_dimacs():
    text = "c comment\np edge 3 2\ne 1 2\ne 2 3\n"
    assert parse_dimacs(text) == parse_graph("3 2\n0 1\n1 2\n")
    # duplicate edge lines are tolerated in this format
    assert parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n").edges == frozenset({(0, 1)})
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1 1\n")


def test_read_graph_autodetects():
    assert read_graph("p edge 2 1\ne 1 2\n") == read_graph("2 1\n0 1\n")


def test_write_graph_roundtrip():
    graph = petersen()
    assert parse_graph(write_graph(graph)) == graph


def test_loop_construction_rejected():
    with pytest.raises(InputError):
        SimpleGraph(3, frozenset({(1, 1)}))


@pytest.mark.parametrize("edge", [(1, 0), (0, 3), (-1, 2)])
def test_bad_edge_construction_rejected(edge):
    # The parser checks each edge itself; library callers still go through
    # the constructor's check.
    with pytest.raises(InputError):
        SimpleGraph(3, frozenset({edge}))


@pytest.mark.parametrize(
    "text,message",
    [
        ("\n\n", "line 1: empty input"),
        ("\n3\n", "line 2: expected header 'V E'"),
        ("3 x\n", "line 1: header must hold two integers"),
        ("3 -1\n", "line 1: counts must be nonnegative"),
        ("3 2\n 0 1 \n\n", "line 2: expected 2 edge lines, got 1"),
        # The edge count is checked before the edges themselves.
        ("3 2\n0 0\n", "line 2: expected 2 edge lines, got 1"),
        ("3 2\n0 1\n0 1 2\n", "line 3: expected an edge 'u v'"),
        ("3 2\n0 1\n0 b\n", "line 3: vertices must be integers"),
        ("3 2\n0 1\n2 2\n", "line 3: loop at vertex 2"),
        ("3 2\n\n0 1\n3 0\n", "line 4: vertex out of range 0..2"),
        ("3 2\n0 1\n1 0\n", "line 3: duplicate edge (0, 1)"),
        ("3 3\n0 1\n1 1\n0 5\n", "line 3: loop at vertex 1"),
    ],
)
def test_edge_list_parse_errors(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_graph(text)
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------


def test_cliques_triangle():
    table = cliques(complete_graph(3))
    assert table.counts == (1, 3, 3, 1)
    assert table.by_size[0] == ((),)
    assert table.by_size[2] == ((0, 1), (0, 2), (1, 2))


def test_cliques_edgeless():
    assert cliques(SimpleGraph.from_edges(5, [])).counts == (1, 5)


def test_cliques_petersen():
    table = cliques(petersen())
    assert table.counts == (1, 10, 15)
    assert table.clique_number == 2


def test_cliques_diamond():
    assert cliques(diamond()).counts == (1, 4, 5, 2)


def test_clique_number_examples():
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(path_graph(3)) == 2
    assert clique_number(SimpleGraph.from_edges(0, [])) == 0
    assert clique_number(SimpleGraph.from_edges(4, [])) == 1


def test_clique_number_matches_subset_oracle():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(0, 12)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        graph = SimpleGraph.from_edges(n, edges)
        assert clique_number(graph) == max_clique_bitmask(n, edges)


def test_clique_number_matches_subset_oracle_at_fifteen_vertices():
    rng = random.Random(71)
    for n in (13, 14, 15):
        for density in (0.3, 0.6, 0.85):
            edges = [
                (u, v) for u, v in combinations(range(n), 2) if rng.random() < density
            ]
            graph = SimpleGraph.from_edges(n, edges)
            assert clique_number(graph) == max_clique_bitmask(n, edges)


def test_clique_counts_match_subset_oracle():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(0, 10)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.6]
        graph = SimpleGraph.from_edges(n, edges)
        assert list(cliques(graph).counts) == clique_counts_bitmask(n, edges)


@st.composite
def _graphs(draw, max_vertices):
    n = draw(st.integers(0, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


@settings(max_examples=250, deadline=None)
@given(_graphs(14))
def test_clique_counts_match_subset_oracle_property(graph_data):
    n, edges = graph_data
    graph = SimpleGraph.from_edges(n, edges)
    counts = clique_counts(graph)
    assert list(counts) == clique_counts_bitmask(n, edges)
    assert len(counts) - 1 == clique_number(graph)


# The (V, density) shapes the benchmark's raag-complex workload draws.
BENCHMARK_SHAPES = [
    (30, 0.2), (30, 0.45), (30, 0.7), (45, 0.2), (45, 0.4), (45, 0.6),
    (60, 0.2), (60, 0.35), (60, 0.5), (80, 0.25), (80, 0.4), (100, 0.3),
]


@pytest.mark.parametrize("vertices,density", BENCHMARK_SHAPES)
def test_clique_counts_match_listing_at_benchmark_shapes(vertices, density):
    pairs = list(combinations(range(vertices), 2))
    edges = random.Random(vertices * 1000 + round(100 * density)).sample(
        pairs, round(density * len(pairs))
    )
    graph = SimpleGraph.from_edges(vertices, edges)
    assert clique_counts(graph) == cliques(graph).counts


def _clique_counts_by_sets(vertex_count, edges):
    """Clique counts from extending each clique, over Python sets, by its
    common neighbours numbered above its last vertex.  Shares nothing with
    the bitset and pivot searches it checks."""
    adjacent = {v: set() for v in range(vertex_count)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    counts = [0] * (vertex_count + 1)

    def extend(size, candidates):
        counts[size] += 1
        for v in candidates:
            extend(size + 1, {w for w in candidates & adjacent[v] if w > v})

    extend(0, set(range(vertex_count)))
    return tuple(c for c in counts if c)


def _sparse_edges(rng, vertex_count, edge_count):
    edges = set()
    while len(edges) < edge_count:
        edges.add(tuple(sorted(rng.sample(range(vertex_count), 2))))
    return sorted(edges)


@pytest.mark.parametrize("vertices,density", [*BENCHMARK_SHAPES, (3000, None)])
def test_clique_search_matches_set_oracle_at_harness_scale(vertices, density):
    # The benchmark's shapes, drawn as its raag-complex workload draws them,
    # and one sparse graph: 3,000 vertices and 9,000 edges.
    rng = random.Random(f"set-oracle:{vertices}:{density}")
    if density is None:
        edges = _sparse_edges(rng, vertices, 9000)
    else:
        pairs = list(combinations(range(vertices), 2))
        edges = rng.sample(pairs, round(density * len(pairs)))
    graph = SimpleGraph.from_edges(vertices, edges)
    expected = _clique_counts_by_sets(vertices, edges)
    assert clique_counts(graph) == expected
    assert clique_number(graph) == len(expected) - 1


def test_clique_counts_of_complete_graphs():
    for n in range(61):
        assert clique_counts(complete_graph(n)) == tuple(binomial(n, k) for k in range(n + 1))


def test_clique_table_validation():
    with pytest.raises(InputError):
        CliqueTable((((0,),),))
    with pytest.raises(InputError):
        CliqueTable((((),), ((1,), (1,))))
    with pytest.raises(InputError, match=r"malformed clique \(1, 0\) at size 2"):
        CliqueTable((((),), ((0,), (1,)), ((1, 0),)))
    with pytest.raises(InputError, match=r"malformed clique \(0, 0\)"):
        CliqueTable((((),), ((0,),), ((0, 1), (0, 0))))
    with pytest.raises(InputError, match=r"malformed clique \(2,\) at size 2"):
        CliqueTable((((),), ((0,), (1,)), ((0, 1), (2,))))
    with pytest.raises(InputError, match="not sorted"):
        CliqueTable((((),), ((0,), (1,), (2,)), ((0, 2), (0, 1))))


def test_listed_cliques_are_pairwise_adjacent_and_complete():
    rng = random.Random(73)
    for _ in range(20):
        n = rng.randint(0, 9)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        graph = SimpleGraph.from_edges(n, edges)
        table = cliques(graph)
        listed = set()
        for size, group in enumerate(table.by_size):
            for members in group:
                assert len(members) == size
                assert all(graph.has_edge(u, v) for u, v in combinations(members, 2))
                listed.add(members)
        # completeness: every pairwise-adjacent subset appears
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                if all(graph.has_edge(u, v) for u, v in combinations(subset, 2)):
                    assert subset in listed
        assert salvetti_complex(graph).top_degree == clique_number(graph)


# ---------------------------------------------------------------------------
# cube complex and dimensions
# ---------------------------------------------------------------------------


def test_salvetti_single_vertex_is_circle():
    complex_ = salvetti_complex(complete_graph(1))
    assert complex_.cell_counts == (1, 1)


def test_salvetti_complete_graph_is_torus():
    for n in range(1, 6):
        complex_ = salvetti_complex(complete_graph(n))
        assert complex_.cell_counts == tuple(binomial(n, k) for k in range(n + 1))
        assert all(bd.is_zero() for bd in complex_.boundaries)


def test_salvetti_diamond_counts():
    assert salvetti_complex(diamond()).cell_counts == (1, 4, 5, 2)


def test_salvetti_cohomology_counts_cliques():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randint(0, 9)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        graph = SimpleGraph.from_edges(n, edges)
        complex_ = salvetti_complex(graph)
        counts = cliques(graph).counts
        for k in range(complex_.top_degree + 1):
            assert cohomology(complex_, k).betti == counts[k]
            assert cohomology(complex_, k).torsion == ()
            assert homology(complex_, k).betti == counts[k]


def test_cd_examples():
    assert cd_raag(complete_graph(4)) == 4
    assert cd_raag(path_graph(3)) == 2
    assert cd_raag(SimpleGraph.from_edges(3, [])) == 1
    assert cd_raag(SimpleGraph.from_edges(0, [])) == 0


def test_gd_examples():
    assert gd_fk_raag(complete_graph(3), 1) == 4
    assert gd_fk_raag(path_graph(3), 0) == 2
    assert gd_fk_raag(path_graph(3), 1) == 3


def test_gd_is_affine_in_k():
    graph = petersen()
    cd = cd_raag(graph)
    values = [gd_fk_raag(graph, k) for k in range(cd)]
    assert values == [cd + k for k in range(cd)]


def test_gd_out_of_range():
    with pytest.raises(OutOfRangeError):
        gd_fk_raag(complete_graph(3), 3)
    with pytest.raises(OutOfRangeError):
        gd_fk_raag(complete_graph(3), -1)
    with pytest.raises(OutOfRangeError):
        gd_fk_raag(SimpleGraph.from_edges(0, []), 0)


def test_torus_rank_examples():
    # The largest torus of the complex is its top cube: its dimension is the
    # clique number, which is also cd.
    for graph, rank in ((complete_graph(5), 5), (SimpleGraph.from_edges(2, []), 1), (petersen(), 2)):
        assert salvetti_complex(graph).top_degree == rank == cd_raag(graph)
