"""Seeded cross-check suites pairing each fast path with its brute-force oracle.

These are the suites behind ``bredim verify {lattice,raag,homology,dims,all}``
and the acceptance tests.  Every suite takes an explicit seed (the CLI
default can be overridden with ``--seed`` or the BREDIM_SEED environment
variable) and reports one :class:`CheckResult` per check, with instance
counts, so runs are reproducible and auditable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from . import dims, gog, homology, lattice, oracles, raag
from .errors import OutOfRangeError
from .matrix import IntMatrix, hermite_normal_form, smith_normal_form

__all__ = [
    "CheckResult",
    "DEFAULT_SEED",
    "SUITES",
    "run_suite",
    "lattice_oracle_suite",
    "automorphism_suite",
    "verify_lattice",
    "verify_raag",
    "verify_homology",
    "verify_dims",
]

DEFAULT_SEED = 271828


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, condition: bool, detail: str) -> None:
        self.instances += 1
        if not condition:
            self.failures.append(detail)


# ---------------------------------------------------------------------------
# Shared generators.
# ---------------------------------------------------------------------------


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def _random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        kind = rng.random()
        if kind < 0.7:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows, cols=n)


def _random_sublattice(
    rng: random.Random, ambient: int, bound: int = 4, n_gens: int | None = None
) -> lattice.Sublattice:
    count = n_gens if n_gens is not None else rng.randint(1, ambient + 1)
    gens = [
        [rng.randint(-bound, bound) for _ in range(ambient)] for _ in range(count)
    ]
    return lattice.sublattice_from_generators(ambient, gens)


def _random_same_span(rng: random.Random, lat: lattice.Sublattice) -> lattice.Sublattice:
    """A finite-index sublattice of ``lat`` (same rational span, same rank)."""
    r = lat.rank
    while True:
        coeffs = _random_matrix(rng, r, r, 3)
        if oracles.fraction_det(coeffs) != 0:
            break
    rows = (coeffs @ lat.basis).to_rows()
    return lattice.sublattice_from_generators(lat.ambient_dim, rows)


def _random_graph(rng: random.Random, max_vertices: int) -> raag.SimpleGraph:
    n = rng.randint(0, max_vertices)
    density = rng.choice((0.2, 0.5, 0.8))
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    return raag.SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Lattice suite.
# ---------------------------------------------------------------------------


def _check_hnf(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.hnf-canonical")
    for case in range(count):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, 30)
        h, u = hermite_normal_form(m)
        ok = (u @ m) == h and abs(oracles.fraction_det(u)) == 1
        h2, _ = hermite_normal_form(h)
        ok = ok and h2 == h
        v = _random_unimodular(rng, rows)
        h3, _ = hermite_normal_form(v @ m)
        ok = ok and h3 == h
        out.record(ok, f"case {case}: {m.to_rows()}")
    return out


def _check_snf(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.snf-sound")
    for case in range(count):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = _random_matrix(rng, rows, cols, 50)
        d, s, t = smith_normal_form(m)
        diag = d.diagonal()
        ok = (s @ m @ t) == d
        ok = ok and abs(oracles.fraction_det(s)) == 1
        ok = ok and abs(oracles.fraction_det(t)) == 1
        ok = ok and all(x >= 0 for x in diag)
        ok = ok and all(
            d.at(i, j) == 0 for i in range(d.rows) for j in range(d.cols) if i != j
        )
        ok = ok and all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
        ok = ok and all(b == 0 for a, b in zip(diag, diag[1:]) if a == 0)
        if rows <= 4 and cols <= 4:
            small = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 9)
            d_small, _, _ = smith_normal_form(small)
            expected = oracles.invariant_factors_by_minors(small)
            got = [x for x in d_small.diagonal() if x != 0]
            ok = ok and got == expected
        out.record(ok, f"case {case}: {m.to_rows()}")
    return out


def _check_saturation_closure(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.saturation-closure")
    for case in range(count):
        lat = _random_sublattice(rng, rng.randint(1, 4))
        sat = lattice.saturation(lat)
        ok = sat.contains(lat)
        ok = ok and lattice.saturation(sat) == sat
        ok = ok and sat.rank == lat.rank
        if lat.rank:
            ok = ok and lattice.index(lat, sat).is_finite
            ok = ok and lattice.is_maximal(sat)
        out.record(ok, f"case {case}: {lat.basis.to_rows()}")
    return out


def _lattice_instances(rng: random.Random, count: int) -> list[lattice.Sublattice]:
    ambients = [1, 2, 3]
    return [
        _random_sublattice(rng, ambients[i % 3], bound=4) for i in range(count)
    ]


def _check_saturation_box(instances: list[lattice.Sublattice]) -> CheckResult:
    out = CheckResult("lattice.saturation-box-oracle")
    for case, lat in enumerate(instances):
        sat = lattice.saturation(lat)
        basis_rows = lat.basis.to_rows()
        span = oracles.rational_row_space(basis_rows) if basis_rows else None
        ok = True
        for v in oracles.box_vectors(lat.ambient_dim, 4):
            in_span = span.contains(v) if span else not any(v)
            if in_span != sat.contains_vector(v):
                ok = False
                break
        if lat.rank:
            ok = ok and lattice.index(lat, sat).is_finite
        out.record(ok, f"case {case}: {lat.basis.to_rows()}")
    return out


def _check_index_coset(instances: list[lattice.Sublattice]) -> CheckResult:
    out = CheckResult("lattice.index-coset-oracle")
    for case, lat in enumerate(instances):
        pairs = []
        if lat.rank:
            pairs.append((lat, lattice.saturation(lat)))
        if lat.rank == lat.ambient_dim:
            pairs.append((lat, lattice.Sublattice.full(lat.ambient_dim)))
        ok = True
        for sub, sup in pairs:
            coeffs = oracles.coordinates_matrix(sub, sup)
            expected = oracles.coset_count(coeffs)
            got = lattice.index(sub, sup)
            if not got.is_finite or got.value != expected:
                ok = False
        out.record(ok, f"case {case}: {lat.basis.to_rows()}")
    return out


def _check_commensurability(rng: random.Random, instances: list[lattice.Sublattice]) -> CheckResult:
    out = CheckResult("lattice.commensurability-saturation")
    for case, lat in enumerate(instances):
        ok = True
        if lat.rank:
            mate = _random_same_span(rng, lat)
            ok = ok and lattice.commensurable(lat, mate)
            ok = ok and lattice.saturation(lat) == lattice.saturation(mate)
            ok = ok and lattice.commensurable(mate, lat)
            third = _random_same_span(rng, lat)
            if lattice.commensurable(lat, mate) and lattice.commensurable(mate, third):
                ok = ok and lattice.commensurable(lat, third)
        other = instances[(case + 1) % len(instances)]
        if other.ambient_dim == lat.ambient_dim:
            agree = lattice.commensurable(lat, other) == (
                lattice.saturation(lat) == lattice.saturation(other)
            )
            ok = ok and agree
        out.record(ok, f"case {case}: {lat.basis.to_rows()}")
    return out


def _check_uniqueness(instances: list[lattice.Sublattice]) -> CheckResult:
    """Saturated overlattice uniqueness, by intermediate enumeration.

    Any same-rank finite-index overlattice of L lies between L and its
    saturation S, so corresponds to a subgroup of the finite quotient S/L.
    Enumeration policy: overlattices generated by L plus one quotient
    representative always; plus two when the quotient has at most 40
    elements; plus three when additionally rank(L) is 3 and the quotient has
    at most 32 elements.  Subgroups of the quotient need at most rank(L)
    generators, so for those small quotients the walk is exhaustive, and
    bounded beyond.  Exactly one candidate may turn out saturated: S itself.
    """
    out = CheckResult("lattice.saturation-uniqueness")
    for case, lat in enumerate(instances):
        if lat.rank == 0:
            continue
        sat = lattice.saturation(lat)
        coeffs = oracles.coordinates_matrix(lat, sat)
        reps = oracles.coset_representatives(coeffs)
        vectors = []
        for rep in reps:
            vectors.append(
                tuple(
                    sum(rep[i] * sat.basis.at(i, c) for i in range(sat.rank))
                    for c in range(sat.ambient_dim)
                )
            )
        base_rows = lat.basis.to_rows()
        candidates = {lat}
        max_size = 1
        if len(reps) <= 40:
            max_size = 2
        if lat.rank >= 3 and len(reps) <= 32:
            max_size = 3
        max_size = min(max_size, lat.rank)
        for size in range(1, max_size + 1):
            for chosen in combinations(vectors, size):
                candidates.add(
                    lattice.sublattice_from_generators(
                        lat.ambient_dim, base_rows + [list(v) for v in chosen]
                    )
                )
        ok = lattice.is_maximal(sat)
        ok = ok and all(c == sat for c in candidates if lattice.is_maximal(c))
        generators_needed = sum(
            1 for f in oracles.invariant_factors_by_minors(coeffs) if f > 1
        )
        if generators_needed <= max_size:
            ok = ok and sat in candidates
        out.record(ok, f"case {case}: {lat.basis.to_rows()}")
    return out


def _check_automorphisms(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.automorphism-postconditions")
    made = 0
    while made < count:
        ambient = rng.randint(1, 4)
        rank = rng.randint(1, ambient)
        src = lattice.saturation(_random_sublattice(rng, ambient, n_gens=rank))
        dst = lattice.saturation(_random_sublattice(rng, ambient, n_gens=rank))
        if src.rank != rank or dst.rank != rank:
            continue
        made += 1
        auto = lattice.mapping_automorphism(src, dst)
        ok = abs(oracles.fraction_det(auto)) == 1
        image = lattice.sublattice_from_generators(
            ambient, (auto @ src.basis.transpose()).transpose().to_rows()
        )
        ok = ok and image == dst
        ok = ok and (auto @ src.basis.transpose()) == dst.basis.transpose()
        out.record(ok, f"case {made}: {src.basis.to_rows()} -> {dst.basis.to_rows()}")
    return out


def _check_intersection_box(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.intersection-box-oracle")
    for case in range(count):
        ambient = rng.randint(1, 3)
        a = _random_sublattice(rng, ambient)
        b = _random_sublattice(rng, ambient)
        meet = lattice.intersect(a, b)
        ok = a.contains(meet) and b.contains(meet)
        for v in oracles.box_vectors(ambient, 3):
            both = a.contains_vector(v) and b.contains_vector(v)
            if both != meet.contains_vector(v):
                ok = False
                break
        out.record(ok, f"case {case}: {a.basis.to_rows()} / {b.basis.to_rows()}")
    return out


def _check_index_multiplicative(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.index-multiplicativity")
    for case in range(count):
        ambient = rng.randint(1, 3)
        top = lattice.Sublattice.full(ambient)
        mid = _random_same_span(rng, top)
        low = _random_same_span(rng, mid)
        total = lattice.index(low, top)
        first = lattice.index(low, mid)
        second = lattice.index(mid, top)
        ok = (
            total.is_finite
            and first.is_finite
            and second.is_finite
            and total.value == first.value * second.value
        )
        out.record(ok, f"case {case}")
    return out


def _check_second_isomorphism(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("lattice.sum-intersection-index")
    for case in range(count):
        ambient = rng.randint(1, 3)
        base = _random_sublattice(rng, ambient)
        if base.rank == 0:
            out.record(True, "")
            continue
        n = _random_same_span(rng, base)
        m = _random_same_span(rng, base)
        total = lattice.lattice_sum(n, m)
        meet = lattice.intersect(n, m)
        ok = total.rank == n.rank == m.rank
        left = lattice.index(n, total)
        right = lattice.index(meet, m)
        ok = ok and left.is_finite and right.is_finite and left.value == right.value
        out.record(ok, f"case {case}")
    return out


def _lattice_oracle_checks(rng: random.Random, instances: int) -> list[CheckResult]:
    batch = _lattice_instances(rng, instances)
    return [
        _check_saturation_box(batch),
        _check_index_coset(batch),
        _check_commensurability(rng, batch),
        _check_uniqueness(batch),
    ]


def lattice_oracle_suite(
    seed: int = DEFAULT_SEED, instances: int = 500
) -> list[CheckResult]:
    """Saturation box oracle, coset-counting index oracle, commensurability
    against saturation equality, and overlattice uniqueness, on one shared
    batch of seeded random sublattices of Z^n, n <= 3, entries in [-4, 4]."""
    return _lattice_oracle_checks(random.Random(seed), instances)


def automorphism_suite(seed: int = DEFAULT_SEED, pairs: int = 200) -> list[CheckResult]:
    """Mapping-automorphism postconditions on seeded saturated pairs, n <= 4."""
    return [_check_automorphisms(random.Random(seed), pairs)]


def verify_lattice(
    seed: int = DEFAULT_SEED,
    oracle_instances: int = 500,
    automorphism_pairs: int = 200,
) -> list[CheckResult]:
    rng = random.Random(seed)
    return [
        _check_hnf(rng, 60),
        _check_snf(rng, 60),
        _check_saturation_closure(rng, 80),
        *_lattice_oracle_checks(rng, oracle_instances),
        _check_automorphisms(rng, automorphism_pairs),
        _check_intersection_box(rng, 60),
        _check_index_multiplicative(rng, 60),
        _check_second_isomorphism(rng, 60),
    ]


# ---------------------------------------------------------------------------
# Graph / group suite.
# ---------------------------------------------------------------------------


def _check_clique_oracle(rng: random.Random, count: int, max_vertices: int) -> CheckResult:
    out = CheckResult("raag.clique-oracle")
    for case in range(count):
        graph = _random_graph(rng, max_vertices)
        expected = oracles.max_clique_bitmask(graph.vertex_count, graph.edges)
        ok = raag.clique_number(graph) == expected
        if graph.vertex_count <= 10:
            expected_counts = tuple(
                oracles.clique_counts_bitmask(graph.vertex_count, graph.edges)
            )
            ok = ok and raag.cliques(graph).counts == expected_counts
            ok = ok and raag.clique_counts(graph) == expected_counts
        out.record(ok, f"case {case}: {graph.vertex_count} vertices")
    return out


def _check_raag_dimensions(rng: random.Random, count: int, max_vertices: int) -> CheckResult:
    out = CheckResult("raag.dimension-formulas")
    for case in range(count):
        graph = _random_graph(rng, max_vertices)
        cd = raag.cd_raag(graph)
        ok = cd == raag.clique_number(graph)
        for k in range(cd):
            ok = ok and raag.gd_fk_raag(graph, k) == cd + k
        if cd:
            ok = ok and all(
                raag.gd_fk_raag(graph, k) - raag.gd_fk_raag(graph, 0) == k
                for k in range(cd)
            )
        try:
            raag.gd_fk_raag(graph, cd)
            ok = False
        except OutOfRangeError:
            pass
        out.record(ok, f"case {case}: {graph.vertex_count} vertices")
    return out


def _check_salvetti_cohomology(rng: random.Random, count: int, max_vertices: int) -> CheckResult:
    out = CheckResult("raag.salvetti-cohomology")
    for case in range(count):
        graph = _random_graph(rng, max_vertices)
        complex_ = raag.salvetti_complex(graph)
        counts = raag.cliques(graph).counts
        ok = complex_.cell_counts == counts
        for k in range(complex_.top_degree + 1):
            co = homology.cohomology(complex_, k)
            ho = homology.homology(complex_, k)
            ok = ok and co.betti == counts[k] and co.torsion == ()
            ok = ok and ho.betti == counts[k] and ho.torsion == ()
        out.record(ok, f"case {case}: {graph.vertex_count} vertices")
    return out


def _check_torus(max_n: int) -> CheckResult:
    out = CheckResult("raag.torus-cohomology")
    for n in range(1, max_n + 1):
        complex_ = raag.salvetti_complex(raag.complete_graph(n))
        ok = complex_.top_degree == n
        for k in range(n + 1):
            group = homology.cohomology(complex_, k)
            ok = ok and group.betti == oracles.binomial(n, k) and group.torsion == ()
        out.record(ok, f"n={n}")
    return out


def verify_raag(
    seed: int = DEFAULT_SEED, graphs: int = 200, max_vertices: int = 12
) -> list[CheckResult]:
    rng = random.Random(seed)
    return [
        _check_clique_oracle(rng, graphs, max_vertices),
        _check_raag_dimensions(rng, max(20, graphs // 4), max_vertices),
        _check_salvetti_cohomology(rng, max(20, graphs // 4), max_vertices),
        _check_torus(6),
    ]


# ---------------------------------------------------------------------------
# Homology suite.
# ---------------------------------------------------------------------------


def _random_chain_complex(rng: random.Random) -> homology.ChainComplex:
    kind = rng.randrange(3)
    if kind == 0:
        counts = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        if not any(counts):
            counts[0] = 1
        boundaries = [
            IntMatrix.zero(counts[k - 1], counts[k]) for k in range(1, len(counts))
        ]
        return homology.ChainComplex(tuple(counts), tuple(boundaries))
    if kind == 1:
        c0, c1 = rng.randint(1, 4), rng.randint(1, 4)
        return homology.ChainComplex(
            (c0, c1), (_random_matrix(rng, c0, c1, 3),)
        )
    c0, c1, c2 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
    bd1 = _random_matrix(rng, c0, c1, 3)
    from .matrix import left_kernel

    kernel = left_kernel(bd1.transpose())  # rows x with bd1 @ x^T == 0
    if kernel.rows == 0:
        bd2 = IntMatrix.zero(c1, c2)
    else:
        mix = _random_matrix(rng, kernel.rows, c2, 2)
        bd2 = kernel.transpose() @ mix
    return homology.ChainComplex((c0, c1, c2), (bd1, bd2))


def _check_homology_examples() -> CheckResult:
    out = CheckResult("homology.fixed-examples")
    circle = homology.ChainComplex.from_data([1, 1], [[[0]]])
    out.record(homology.homology(circle, 0).betti == 1, "circle H_0")
    out.record(homology.homology(circle, 1).betti == 1, "circle H_1")
    torus = homology.ChainComplex.from_data([1, 2, 1], [[[0, 0]], [[0], [0]]])
    h1 = homology.homology(torus, 1)
    out.record((h1.betti, h1.torsion) == (2, ()), "torus H_1")
    projective = homology.ChainComplex.from_data([1, 1, 1], [[[0]], [[2]]])
    h1 = homology.homology(projective, 1)
    out.record((h1.betti, h1.torsion) == (0, (2,)), "twisted-disc H_1")
    out.record(homology.cohomology(projective, 2).torsion == (2,), "twisted-disc H^2")
    out.record(homology.cohomology(projective, 1).betti == 0, "twisted-disc H^1 free part")
    cube3 = raag.salvetti_complex(raag.complete_graph(3))
    out.record(homology.cohomology(cube3, 3).betti == 1, "3-cube complex H^3")
    out.record(homology.validate(torus), "chain recheck")
    return out


def _check_euler(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("homology.euler-characteristic")
    for case in range(count):
        complex_ = _random_chain_complex(rng)
        chi = homology.euler_characteristic(complex_)
        alt = sum(
            (-1) ** k * homology.homology(complex_, k).betti
            for k in range(complex_.top_degree + 1)
        )
        out.record(chi == alt, f"case {case}: counts {complex_.cell_counts}")
    return out


def _check_duality(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("homology.dual-complex-agreement")
    for case in range(count):
        complex_ = _random_chain_complex(rng)
        ok = True
        for k in range(complex_.top_degree + 1):
            below = homology.homology(complex_, k - 1).torsion if k else ()
            co = homology.cohomology(complex_, k)
            ho = homology.homology(complex_, k)
            ok = ok and co.betti == ho.betti and co.torsion == below
        out.record(ok, f"case {case}: counts {complex_.cell_counts}")
    return out


def _check_zero_boundary(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("homology.zero-boundary-betti")
    for case in range(count):
        counts = [rng.randint(0, 5) for _ in range(rng.randint(1, 5))]
        if not any(counts):
            counts[0] = 2
        boundaries = [
            IntMatrix.zero(counts[k - 1], counts[k]) for k in range(1, len(counts))
        ]
        complex_ = homology.ChainComplex(tuple(counts), tuple(boundaries))
        ok = all(
            homology.homology(complex_, k).betti == counts[k]
            for k in range(len(counts))
        )
        out.record(ok, f"case {case}: counts {counts}")
    return out


def _check_roundtrip(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("homology.file-roundtrip")
    for case in range(count):
        complex_ = _random_chain_complex(rng)
        text = homology.write_chain_complex(complex_)
        out.record(homology.read_chain_complex(text) == complex_, f"case {case}")
    return out


def verify_homology(seed: int = DEFAULT_SEED, count: int = 80) -> list[CheckResult]:
    rng = random.Random(seed)
    return [
        _check_homology_examples(),
        _check_euler(rng, count),
        _check_duality(rng, count),
        _check_zero_boundary(rng, count),
        _check_roundtrip(rng, count),
    ]


# ---------------------------------------------------------------------------
# Dimension-formula suite.
# ---------------------------------------------------------------------------


def _check_vab_table(max_n: int) -> CheckResult:
    out = CheckResult("dims.virtually-abelian-table")
    for n in range(1, max_n + 1):
        for k in range(n):
            bound = dims.virtually_abelian_gd(n, k)
            out.record(
                bound == dims.DimBound.exact(n + k), f"n={n} k={k}: got {bound}"
            )
        try:
            dims.virtually_abelian_gd(n, n)
            out.record(False, f"n={n} k={n} accepted")
        except OutOfRangeError:
            out.record(True, "")
        out.record(
            dims.virtually_abelian_gd_degenerate(n, n) == dims.DimBound.exact(0),
            f"degenerate n={n}",
        )
    return out


def _check_zk_special(max_k: int) -> CheckResult:
    out = CheckResult("dims.rank-two-family-special")
    for k in range(3, max_k + 1):
        value = dims.zk_f2_special(k)
        out.record(value == dims.DimBound.exact(k + 2), f"k={k}: got {value}")
        out.record(value == dims.virtually_abelian_gd(k, 2), f"alias k={k}")
    for k in (0, 1, 2):
        try:
            dims.zk_f2_special(k)
            out.record(False, f"k={k} accepted")
        except OutOfRangeError:
            out.record(True, "")
    return out


def _check_braid_table(max_n: int) -> CheckResult:
    out = CheckResult("dims.braid-table")
    for n in range(2, max_n + 1):
        for k in range(n - 1):
            full = dims.braid_gd(n, k, pure=False)
            pure = dims.braid_gd(n, k, pure=True)
            out.record(
                full == pure == dims.DimBound.exact(n + k - 1),
                f"n={n} k={k}: got {full}, {pure}",
            )
        try:
            dims.braid_gd(n, n - 1)
            out.record(False, f"n={n} k={n - 1} accepted")
        except OutOfRangeError:
            out.record(True, "")
    return out


def _check_derivation_replay(max_n: int) -> CheckResult:
    out = CheckResult("dims.derivation-replay")
    for n in range(1, max_n + 1):
        for k in range(n):
            bound, tree = dims.derive_zn_upper(n, k)
            ok = bound.upper == n + k
            ok = ok and tree.is_sound()
            ok = ok and bound.upper == dims.virtually_abelian_gd(n, k).upper
            ok = ok and all(node.citation for node in tree.iter_nodes())
            out.record(ok, f"n={n} k={k}: got {bound}")
    return out


def _check_eg(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("dims.eilenberg-ganea")
    for value in range(3, 12):
        got = dims.eg_sandwich(dims.DimBound.exact(value))
        out.record(got == dims.DimBound.exact(value), f"exact {value}: got {got}")
    out.record(
        dims.eg_sandwich(dims.DimBound.exact(2)) == dims.DimBound(2, 3), "exact 2"
    )
    out.record(
        dims.eg_sandwich(dims.DimBound.exact(0)) == dims.DimBound(0, 3), "exact 0"
    )
    for case in range(count):
        lower = rng.randint(0, 6)
        upper = lower + rng.randint(0, 6)
        got = dims.eg_sandwich(dims.DimBound(lower, upper))
        out.record(
            got == dims.DimBound(lower, max(upper, 3)), f"case {case}: got {got}"
        )
    return out


def _check_monotonicity() -> CheckResult:
    out = CheckResult("dims.monotone-in-k")
    for n in range(2, 9):
        for k in range(n - 1):
            out.record(
                dims.virtually_abelian_gd(n, k + 1).lower
                == dims.virtually_abelian_gd(n, k).lower + 1,
                f"vab n={n} k={k}",
            )
    for n in range(3, 9):
        for k in range(n - 2):
            out.record(
                dims.braid_gd(n, k + 1).lower == dims.braid_gd(n, k).lower + 1,
                f"braid n={n} k={k}",
            )
    for n in range(2, 7):
        for k in range(2 * n - 4):
            out.record(
                dims.out_fn_lower(n, k + 1).lower == dims.out_fn_lower(n, k).lower + 1,
                f"out-free n={n} k={k}",
            )
    for d in range(1, 5):
        for k in range(4 * d - 2):
            out.record(
                dims.out_diamonds_lower(d, k + 1).lower
                == dims.out_diamonds_lower(d, k).lower + 1,
                f"out-diamond d={d} k={k}",
            )
    return out


def _check_interval_composition(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("dims.interval-composition")
    for case in range(count):
        n = rng.randint(1, 10)
        k = rng.randrange(n)
        exact = dims.subgroup_lower_bound(n, k).intersect(dims.virtually_abelian_gd(n, k))
        out.record(exact == dims.DimBound.exact(n + k), f"case {case}: got {exact}")
    try:
        dims.DimBound.at_least(5).intersect(dims.DimBound.at_most(4))
        out.record(False, "incompatible intervals accepted")
    except dims.IncompatibleBoundsError:
        out.record(True, "")
    except Exception:  # pragma: no cover
        out.record(False, "wrong error for incompatible intervals")
    return out


def _check_combinators() -> CheckResult:
    out = CheckResult("dims.combinator-values")
    out.record(
        dims.lw_pushout_bound(dims.DimBound.at_most(0), []) == dims.DimBound.at_most(1),
        "pushout, no classes",
    )
    out.record(
        dims.lw_pushout_bound(
            dims.DimBound.at_most(3), [dims.DimBound.at_most(5), dims.DimBound.at_most(2)]
        )
        == dims.DimBound.at_most(5),
        "pushout max",
    )
    out.record(
        dims.union_families_bound(
            dims.DimBound.at_most(2), dims.DimBound.at_most(7), dims.DimBound.at_most(4)
        )
        == dims.DimBound.at_most(7),
        "union plain",
    )
    out.record(
        dims.union_families_bound(
            dims.DimBound.exact(0), dims.DimBound.exact(0), dims.DimBound.exact(0)
        ).upper
        == 0,
        "union zero",
    )
    out.record(
        dims.union_families_bound_cylinder(
            dims.DimBound.at_most(2), dims.DimBound.at_most(7), dims.DimBound.at_most(7)
        )
        == dims.DimBound.at_most(8),
        "union cylinder",
    )
    out.record(
        dims.nested_families_bound(dims.DimBound.at_most(4), 3)
        == dims.DimBound.at_most(7),
        "nested",
    )
    out.record(
        dims.nested_families_bound(dims.DimBound.at_most(0), 0)
        == dims.DimBound.at_most(0),
        "nested zero",
    )
    out.record(
        dims.cell_stabilizer_bound([(dims.DimBound.at_most(0), 0)])
        == dims.DimBound.at_most(0),
        "cells single",
    )
    out.record(
        dims.cell_stabilizer_bound(
            [(dims.DimBound.at_most(3), 0), (dims.DimBound.at_most(1), 2)]
        )
        == dims.DimBound.at_most(3),
        "cells max",
    )
    n, k = 7, 3
    out.record(
        dims.sub_family_gd(n, k) == dims.DimBound.at_most(n - k), "subgroup family"
    )
    return out


def _random_valid_gog(rng: random.Random) -> gog.GraphOfGroups:
    n = rng.randint(1, 4)
    vertices = [
        gog.VertexGroupDesc(f"v{i}", rng.randint(2, 5)) for i in range(n)
    ]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        limit = min(vertices[i].rank, vertices[j].rank) - 1
        edges.append(
            gog.EdgeGroupDesc((f"v{i}", f"v{j}"), rng.randint(0, max(0, limit)))
        )
    return gog.GraphOfGroups(tuple(vertices), tuple(edges), acylindrical=True)


def _check_gog(rng: random.Random, count: int) -> CheckResult:
    out = CheckResult("dims.gog-collapse")
    example = gog.GraphOfGroups(
        (gog.VertexGroupDesc("A", 2), gog.VertexGroupDesc("B", 3)),
        (gog.EdgeGroupDesc(("A", "B"), 0),),
        acylindrical=True,
    )
    for k in (1, 2):
        exact = gog.gog_gd(example, k)
        bounds = gog.bass_serre_bounds(example, k)
        out.record(
            exact.exact and exact.bound == dims.DimBound.exact(3 + k),
            f"example k={k}: got {exact.bound}",
        )
        out.record(
            bounds.bound == dims.DimBound.exact(3 + k),
            f"example bounds k={k}: got {bounds.bound}",
        )
    weak = gog.GraphOfGroups(
        (gog.VertexGroupDesc("A", 2), gog.VertexGroupDesc("B", 2)),
        (gog.EdgeGroupDesc(("A", "B"), 2),),
        acylindrical=True,
    )
    degraded = gog.gog_gd(weak, 1)
    out.record(
        (not degraded.exact) and degraded.bound == dims.DimBound(3, 4),
        f"weak edge: got {degraded.bound}",
    )
    for case in range(count):
        y = _random_valid_gog(rng)
        m = gog.max_vertex_rank(y)
        for k in range(1, m):
            exact = gog.gog_gd(y, k)
            bounds = gog.bass_serre_bounds(y, k)
            ok = exact.exact and exact.bound == dims.DimBound.exact(m + k)
            ok = ok and bounds.bound == exact.bound
            ok = ok and bounds.bound.lower <= (bounds.bound.upper or 0)
            census = bounds.census
            ok = ok and census is not None
            for entry in census.entries:
                if entry.kind == "cone-face":
                    ok = ok and entry.stabilizer == gog.VIRTUALLY_CYCLIC
                if entry.kind == "tree-vertex":
                    ok = ok and entry.stabilizer.startswith("vertex group")
            out.record(ok, f"case {case} k={k}")
    return out


def verify_dims(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    return [
        _check_vab_table(10),
        _check_zk_special(10),
        _check_braid_table(10),
        _check_derivation_replay(8),
        _check_eg(rng, 40),
        _check_monotonicity(),
        _check_interval_composition(rng, 40),
        _check_combinators(),
        _check_gog(rng, 25),
    ]


SUITES = {
    "lattice": verify_lattice,
    "raag": verify_raag,
    "homology": verify_homology,
    "dims": verify_dims,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite_name in ("lattice", "raag", "homology", "dims"):
            results.extend(SUITES[suite_name](seed))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
