import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bredim
from bredim.errors import (
    AmbientMismatchError,
    ContainmentError,
    DimensionMismatchError,
    InputError,
    MaximalityRequiredError,
    ParseError,
    RankMismatchError,
)
from bredim.lattice import (
    IndexResult,
    Sublattice,
    _canonical_basis,
    commensurable,
    direct_complement,
    index,
    intersect,
    is_maximal,
    lattice_sum,
    mapping_automorphism,
    read_lattice,
    read_matrix,
    saturation,
    sublattice_from_generators,
    unimodular_completion,
    write_lattice,
    write_matrix,
)
from bredim.matrix import IntMatrix, determinant, smith_normal_form
from bredim.oracles import (
    coordinates_matrix,
    coset_count,
    fraction_det,
    fraction_solve_left,
    in_rational_span,
    rational_row_space,
)


def lat(n, *gens):
    return sublattice_from_generators(n, gens)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------


def test_from_generators_redundant():
    value = lat(2, (2, 0), (0, 2), (2, 2))
    assert value.basis.to_rows() == [[2, 0], [0, 2]]
    assert value.rank == 2


def test_from_generators_empty():
    value = lat(3)
    assert value.rank == 0
    assert value == Sublattice.zero(3)


def test_from_generators_collinear():
    value = lat(2, (2, 4), (4, 8))
    assert value.basis.to_rows() == [[2, 4]]
    assert value.rank == 1


def test_wrong_length_generator():
    with pytest.raises(DimensionMismatchError):
        lat(2, (1, 2, 3))


def test_equality_is_canonical():
    assert lat(2, (1, 0), (0, 1)) == lat(2, (3, 1), (2, 1))
    assert lat(2, (2, 0)) != lat(2, (0, 2))


def test_raw_constructor_rejects_noncanonical():
    with pytest.raises(InputError):
        Sublattice(2, IntMatrix.from_rows([[2, 0], [1, 1]]))
    with pytest.raises(InputError):
        Sublattice(2, IntMatrix.from_rows([[1, 0], [0, 0]]))


@st.composite
def _small_bases(draw):
    """Small integer matrices, half of them canonical bases with one entry
    redrawn (a zero row, a negative pivot, an unreduced entry above a pivot)."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4))
    m = IntMatrix.from_rows(rows, cols=n)
    if draw(st.booleans()):
        m = _canonical_basis(n, m)
        entries = list(m.entries)
        if entries and draw(st.booleans()):
            entries[draw(st.integers(0, len(entries) - 1))] = draw(st.integers(-5, 5))
        m = IntMatrix(m.rows, n, tuple(entries))
    return n, m


@settings(max_examples=400, deadline=None)
@given(_small_bases())
def test_raw_constructor_accepts_exactly_canonical_bases(case):
    n, m = case
    if m == _canonical_basis(n, m):
        assert Sublattice(n, m).basis == m
    else:
        with pytest.raises(InputError):
            Sublattice(n, m)


def test_membership():
    value = lat(2, (2, 0), (1, 3))
    assert value.contains_vector((3, 3))
    assert not value.contains_vector((1, 0))
    assert value.coordinates_of((3, 3)) is not None
    with pytest.raises(DimensionMismatchError):
        value.contains_vector((1, 2, 3))


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------


def test_index_full_sublattice():
    assert index(lat(2, (2, 0), (0, 2)), Sublattice.full(2)) == IndexResult.finite(4)


def test_index_rank_drop():
    assert index(lat(2, (1, 0)), Sublattice.full(2)) == IndexResult.infinite()


def test_index_coset_example():
    # cosets of span{(2,0),(1,3)} in Z^2, counted by the quotient-walk oracle
    sub = lat(2, (2, 0), (1, 3))
    coeffs = coordinates_matrix(sub, Sublattice.full(2))
    assert coset_count(coeffs) == 6
    assert index(sub, Sublattice.full(2)) == IndexResult.finite(6)


def test_index_errors():
    with pytest.raises(ContainmentError):
        index(lat(2, (1, 1)), lat(2, (2, 0)))
    with pytest.raises(AmbientMismatchError):
        index(lat(2, (1, 0)), Sublattice.full(3))
    with pytest.raises(InputError):
        IndexResult.finite(0)


def test_index_multiplicative_chain():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        top = Sublattice.full(n)
        mid_rows = [[x * 2 for x in top.basis.row(i)] for i in range(n)]
        mid = sublattice_from_generators(n, mid_rows)
        low_rows = [[x * 3 for x in mid.basis.row(i)] for i in range(n)]
        low = sublattice_from_generators(n, low_rows)
        assert (
            index(low, top).value
            == index(low, mid).value * index(mid, top).value
        )


# ---------------------------------------------------------------------------
# intersection / sum / commensurability
# ---------------------------------------------------------------------------


def test_intersect_coordinatewise():
    a = lat(2, (2, 0), (0, 1))
    b = lat(2, (1, 0), (0, 3))
    assert intersect(a, b) == lat(2, (2, 0), (0, 3))


def test_intersect_idempotent():
    a = lat(3, (1, 2, 0), (0, 0, 5))
    assert intersect(a, a) == a


def test_intersect_transverse_lines():
    assert intersect(lat(2, (1, 1)), lat(2, (1, -1))).rank == 0


def test_intersect_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        intersect(lat(2, (1, 0)), lat(3, (1, 0, 0)))


def test_sum_examples():
    assert lattice_sum(lat(2, (2, 0)), lat(2, (0, 2))) == lat(2, (2, 0), (0, 2))
    a = lat(2, (1, 2))
    assert lattice_sum(a, Sublattice.zero(2)) == a
    assert lattice_sum(lat(2, (2, 0)), lat(2, (3, 0))) == lat(2, (1, 0))


def test_commensurable_examples():
    assert commensurable(lat(2, (3, 0), (0, 1)), lat(2, (1, 0), (0, 5)))
    assert not commensurable(lat(2, (1, 0)), lat(2, (0, 1)))
    assert commensurable(lat(2, (2, 2)), lat(2, (3, 3)))
    meet = intersect(lat(2, (2, 2)), lat(2, (3, 3)))
    assert meet == lat(2, (6, 6))


def test_commensurable_is_reflexive_and_symmetric():
    for value in (lat(2, (2, 2)), lat(3, (1, 0, 4), (0, 2, 2)), Sublattice.zero(2)):
        assert commensurable(value, value)
    a, b = lat(2, (2, 0), (0, 2)), lat(2, (3, 0), (0, 3))
    assert commensurable(a, b) == commensurable(b, a)


def test_absorption_of_commensurable_sums():
    # saturated lattices with finite-index intersection coincide, and sums of
    # commensurable lattices never gain rank; the index identity
    # [N+M : N] = [M : M n N] pins the quantitative version
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 3)
        base = sublattice_from_generators(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
        )
        if base.rank == 0:
            continue
        sat = saturation(base)
        assert lattice_sum(sat, sat) == sat
        scaled = sublattice_from_generators(
            n, [[2 * x for x in base.basis.row(i)] for i in range(base.rank)]
        )
        assert saturation(scaled) == sat
        total = lattice_sum(base, scaled)
        meet = intersect(base, scaled)
        assert total.rank == base.rank == scaled.rank
        assert index(base, total).value == index(meet, scaled).value


def test_intersect_and_sum_commute():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = sublattice_from_generators(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        )
        b = sublattice_from_generators(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        )
        assert intersect(a, b) == intersect(b, a)
        assert lattice_sum(a, b) == lattice_sum(b, a)
        assert lattice_sum(a, b).contains(a)
        assert lattice_sum(a, b).contains(b)
        assert a.contains(intersect(a, b))


def test_commensurable_iff_same_saturation():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        a = sublattice_from_generators(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        )
        b = sublattice_from_generators(
            n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        )
        assert commensurable(a, b) == (saturation(a) == saturation(b))


# ---------------------------------------------------------------------------
# saturation / maximality
# ---------------------------------------------------------------------------


def test_saturation_divides_out_gcd():
    assert saturation(lat(2, (2, 4))) == lat(2, (1, 2))


def test_saturation_fixed_point():
    full = Sublattice.full(2)
    assert saturation(full) == full


def test_saturation_in_z3():
    assert saturation(lat(3, (2, 0, 0), (0, 2, 0))) == lat(3, (1, 0, 0), (0, 1, 0))


def test_saturation_box_oracle_small():
    # every small integer vector in the rational span is in the saturation
    value = lat(3, (2, 2, 0), (0, 4, 4))
    sat = saturation(value)
    for x in range(-4, 5):
        for y in range(-4, 5):
            for z in range(-4, 5):
                v = (x, y, z)
                assert sat.contains_vector(v) == in_rational_span(
                    value.basis.to_rows(), v
                )
    assert index(value, sat).is_finite


def test_is_maximal_primitive_vector():
    assert is_maximal(lat(2, (1, 2)))


def test_is_maximal_false_for_multiple():
    assert not is_maximal(lat(2, (2, 0)))


def test_is_maximal_full_rank_index_two():
    # span{(2,1),(0,1)} has index 2 in Z^2: invariant factors (1, 2), and the
    # saturation oracle returns the full lattice, so this is not maximal.
    value = lat(2, (2, 1), (0, 1))
    d, _, _ = smith_normal_form(value.basis)
    assert d.diagonal() == (1, 2)
    assert saturation(value) == Sublattice.full(2)
    assert not is_maximal(value)


def test_is_maximal_needs_no_unit_minor():
    # saturated although every single entry is far from 1: minors 1, -2, -2
    value = lat(3, (2, 3, 0), (1, 2, 1))
    assert is_maximal(value)
    assert saturation(value) == value


def test_is_maximal_rank_zero_rejected():
    with pytest.raises(InputError):
        is_maximal(Sublattice.zero(2))


def test_saturation_closure_properties():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        value = sublattice_from_generators(
            n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        )
        sat = saturation(value)
        assert sat.contains(value)
        assert saturation(sat) == sat
        assert sat.rank == value.rank
        if value.rank:
            assert index(value, sat).is_finite
            assert is_maximal(sat)


# ---------------------------------------------------------------------------
# intersection and saturation against rational oracles at benchmark scale
# ---------------------------------------------------------------------------
# Inputs are drawn in plain Python with a known answer, and every check goes
# through the integer Gauss–Jordan elimination in ``oracles``, never through
# a Hermite form.


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _triangular_product(rng, n, diag):
    """Lower unitriangular times upper triangular; the determinant is the
    product of the diagonal drawn from ``diag``."""
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[rng.choice(diag) if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    return _product(lower, upper), [upper[i][i] for i in range(n)]


def _oracle_rank(rows):
    return len(rational_row_space(rows).pivots) if rows else 0


def _integral_combinations(basis_rows, vectors):
    """Whether every vector is an integer combination of the independent rows."""
    for v in vectors:
        x = fraction_solve_left(basis_rows, v)
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return True


def _same_lattice(rows_a, rows_b):
    return _integral_combinations(rows_a, rows_b) and _integral_combinations(rows_b, rows_a)


def _independent_rows(rng, rows, n):
    while True:
        out = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rows)]
        if _oracle_rank(out) == rows:
            return out


@pytest.mark.parametrize("n", [*range(8, 25), 28, 32])
def test_saturation_matches_rational_oracle_at_scale(n):
    rng = random.Random(f"saturation-oracle:{n}")
    for _ in range(3):
        r = rng.randint(1, n - 1)
        unimodular, _ = _triangular_product(rng, n, (1, -1))
        order = rng.sample(range(n), n)
        base = [[row[j] for j in order] for row in unimodular[n - r :]]
        coeffs, diag = _triangular_product(rng, r, (1, 1, 2, 3))
        gens = _product(coeffs, base)
        value = sublattice_from_generators(n, gens + [[x + y for x, y in zip(gens[0], gens[-1])]])
        sat = saturation(value)
        # base spans a direct summand, and gens has finite index in it.
        assert sat.rank == r
        assert _same_lattice(sat.basis.to_rows(), base)
        assert is_maximal(sat)
        assert is_maximal(value) == (abs(math.prod(diag)) == 1)


@pytest.mark.parametrize("n", [*range(8, 25), 28, 32])
def test_intersect_matches_rational_oracle_at_scale(n):
    rng = random.Random(f"intersect-oracle:{n}")
    for _ in range(3):
        ra = rng.randint(1, n - 1)
        a = _independent_rows(rng, ra, n)
        coeffs, _ = _triangular_product(rng, ra, (1, 2, 3))
        inner = _product(coeffs, a)
        # Rows independent of a over Q: a meets the lattice they add to
        # ``inner`` exactly in ``inner``.
        while True:
            extra = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n - ra))]
            if _oracle_rank(a + extra) == ra + len(extra):
                break
        meet = intersect(lat(n, *a), lat(n, *(inner + extra)))
        assert _same_lattice(meet.basis.to_rows(), inner)
        # Two unrelated lattices: the meet lies in both, with the rank
        # rank a + rank b - rank(a + b).
        b = _independent_rows(rng, rng.randint(1, n - 1), n)
        meet = intersect(lat(n, *a), lat(n, *b))
        rows = meet.basis.to_rows()
        assert meet.rank == ra + len(b) - _oracle_rank(a + b)
        assert _integral_combinations(a, rows) and _integral_combinations(b, rows)
        assert all(in_rational_span(a, row) and in_rational_span(b, row) for row in rows)


# Runs the n = 24 intersect oracle test above and the Hermite basis of a
# dense 60 x 60 square in a child process.
SRC = str(Path(bredim.__file__).resolve().parents[1])
BUDGETED = """
import random, sys
sys.path.insert(0, sys.argv[1])
from test_lattice import test_intersect_matches_rational_oracle_at_scale
from bredim.matrix import IntMatrix, hermite_basis
test_intersect_matches_rational_oracle_at_scale(24)
rng = random.Random(5)
hermite_basis(IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]))
"""


def test_hermite_basis_keeps_dense_input_within_budget():
    # A Hermite basis that skips a reduction is still correct, so only its
    # cost shows the fault: without the reductions this child ran for more
    # than 200 s; with them it takes about a second.
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", BUDGETED, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, env=env, timeout=20, check=True,
    )


# ---------------------------------------------------------------------------
# complements and automorphisms
# ---------------------------------------------------------------------------


def test_complement_axis():
    assert direct_complement(lat(2, (1, 0))) == lat(2, (0, 1))


def test_complement_of_full_lattice():
    assert direct_complement(Sublattice.full(3)).rank == 0


def test_complement_primitive_vector():
    value = lat(2, (1, 2))
    comp = direct_complement(value)
    stacked = IntMatrix.from_rows(
        value.basis.to_rows() + comp.basis.to_rows(), cols=2
    )
    assert abs(determinant(stacked)) == 1
    assert intersect(value, comp).rank == 0
    assert lattice_sum(value, comp) == Sublattice.full(2)


def test_complement_requires_saturation():
    with pytest.raises(MaximalityRequiredError):
        direct_complement(lat(2, (2, 0)))
    with pytest.raises(MaximalityRequiredError):
        direct_complement(Sublattice.zero(2))


def test_completion_starts_with_basis():
    value = lat(3, (1, 2, 3))
    w = unimodular_completion(value)
    assert w.take_rows(range(1)) == value.basis
    assert abs(determinant(w)) == 1


def test_mapping_automorphism_identity():
    value = lat(2, (1, 2))
    assert mapping_automorphism(value, value) == IntMatrix.identity(2)


def test_mapping_automorphism_swap():
    auto = mapping_automorphism(lat(2, (1, 0)), lat(2, (0, 1)))
    assert auto == IntMatrix.from_rows([[0, 1], [1, 0]])


def test_mapping_automorphism_postconditions():
    src, dst = lat(2, (1, 2)), lat(2, (1, 0))
    auto = mapping_automorphism(src, dst)
    assert abs(determinant(auto)) == 1
    assert (auto @ src.basis.transpose()) == dst.basis.transpose()


def test_mapping_automorphism_random_pairs():
    rng = random.Random(37)
    made = 0
    while made < 40:
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        src = saturation(
            sublattice_from_generators(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            )
        )
        dst = saturation(
            sublattice_from_generators(
                n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            )
        )
        if src.rank != r or dst.rank != r:
            continue
        made += 1
        auto = mapping_automorphism(src, dst)
        assert abs(fraction_det(auto)) == 1
        image = sublattice_from_generators(
            n, (auto @ src.basis.transpose()).transpose().to_rows()
        )
        assert image == dst


def test_mapping_automorphism_errors():
    with pytest.raises(RankMismatchError):
        mapping_automorphism(lat(2, (1, 0)), Sublattice.full(2))
    with pytest.raises(MaximalityRequiredError):
        mapping_automorphism(lat(2, (2, 0)), lat(2, (0, 1)))
    with pytest.raises(AmbientMismatchError):
        mapping_automorphism(lat(2, (1, 0)), lat(3, (1, 0, 0)))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_read_write_roundtrip():
    value = lat(2, (2, 4))
    text = write_lattice(value)
    assert text == "2 1\n2 4\n"
    assert read_lattice(text) == value


def test_read_canonicalizes():
    assert read_lattice("2 3\n2 0\n0 2\n2 2\n") == lat(2, (2, 0), (0, 2))


def test_read_skips_comments_and_blanks():
    assert read_lattice("# a lattice\n\n2 1\n1 2\n") == lat(2, (1, 2))


def test_read_rank_zero():
    assert read_lattice("3 0\n") == Sublattice.zero(3)
    assert write_lattice(Sublattice.zero(3)) == "3 0\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n",
        "2 1\n1 2 3\n",
        "2 2\n1 2\n",
        "2 1\n1 x\n",
        "-1 0\n",
    ],
)
def test_read_errors(text):
    with pytest.raises(ParseError):
        read_lattice(text)


def test_parse_error_carries_line_number():
    try:
        read_matrix("2 1\n1 oops\n")
    except ParseError as exc:
        assert exc.line_number == 2
    else:
        raise AssertionError("expected a parse error")


def test_write_matrix_header_order():
    m = IntMatrix.from_rows([[1, 2, 3]])
    assert write_matrix(m) == "3 1\n1 2 3\n"


# ---------------------------------------------------------------------------
# degenerate ambients
# ---------------------------------------------------------------------------


def test_zero_ambient_dimension():
    zero = Sublattice.zero(0)
    assert zero == Sublattice.full(0)
    assert saturation(zero) == zero
    assert index(zero, zero) == IndexResult.finite(1)
    assert lattice_sum(zero, zero) == zero
    assert intersect(zero, zero) == zero
    assert commensurable(zero, zero)
    assert write_lattice(zero) == "0 0\n"
    assert read_lattice("0 0\n") == zero


def test_zero_lattice_in_positive_ambient():
    zero = Sublattice.zero(2)
    full = Sublattice.full(2)
    assert index(zero, full) == IndexResult.infinite()
    assert lattice_sum(zero, full) == full
    assert intersect(zero, full) == zero
