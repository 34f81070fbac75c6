"""The rational oracles, checked by their defining identities.

Nothing here compares an oracle with the fast path it guards: each test
builds its input with a known answer (a triangular product, an echelon basis
disguised by a unimodular change of basis, a vector built from known
coordinates) and asks the oracle for it.  Shapes run from 0 to 6 and the
inputs carry zero, duplicate and dependent rows.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bredim.matrix import IntMatrix
from bredim.oracles import (
    coset_count,
    coset_representatives,
    fraction_det,
    fraction_inverse,
    fraction_solve_left,
    in_rational_span,
    rational_row_space,
)

ENTRIES = st.integers(-1000, 1000)
SMALL = st.integers(-3, 3)


def _matrix(rows, cols):
    return IntMatrix.from_rows(rows, cols=cols)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _vector_times(x, rows, width):
    return [sum(c * row[j] for c, row in zip(x, rows)) for j in range(width)]


@st.composite
def degenerate_row(draw, rows, width):
    """A zero row, a copy of a row of ``rows``, or an integer combination of
    two of them."""
    kinds = ["zero"] + (["duplicate", "combination"] if rows else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return [0] * width
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "duplicate":
        return list(rows[i])
    j = draw(st.integers(0, len(rows) - 1))
    a, b = draw(SMALL), draw(SMALL)
    return [a * x + b * y for x, y in zip(rows[i], rows[j])]


@st.composite
def with_degenerate_rows(draw, rows, width, extra):
    """``rows`` with ``extra`` degenerate rows inserted at drawn places."""
    out = [list(r) for r in rows]
    for _ in range(extra):
        row = draw(degenerate_row(out, width))
        out.insert(draw(st.integers(0, len(out))), row)
    return out


@st.composite
def square_matrices(draw, max_n=6):
    """Square integer rows; about half of them carry a degenerate row."""
    n = draw(st.integers(0, max_n))
    extra = draw(st.integers(0, min(n, 2)))
    base = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n - extra, max_size=n - extra))
    return draw(with_degenerate_rows(base, n, extra))


@st.composite
def triangular_products(draw, nonsingular=False):
    """``L @ U`` with L unit lower triangular and U upper triangular, and the
    diagonal of U, whose product is the determinant."""
    n = draw(st.integers(0, 6))
    diag = st.integers(-9, 9).filter(bool) if nonsingular else st.integers(-9, 9)
    lower = [[1 if i == j else draw(SMALL) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[draw(diag) if i == j else draw(SMALL) if j > i else 0 for j in range(n)] for i in range(n)]
    return _product(lower, upper), [upper[i][i] for i in range(n)]


@st.composite
def independent_bases(draw):
    """Independent rows of width 0..6, an echelon form of them and its pivot
    columns.

    The echelon rows have nonzero pivots in increasing columns; a unit lower
    triangular change of basis hides the echelon shape but keeps the span.
    """
    width = draw(st.integers(0, 6))
    rank = draw(st.integers(0, width))
    pivots = sorted(draw(st.sets(st.integers(0, width - 1), min_size=rank, max_size=rank))) if width else []
    echelon = []
    for p in pivots:
        row = [0] * p + [draw(st.integers(-9, 9).filter(bool))]
        row += [draw(st.integers(-9, 9)) for _ in range(width - p - 1)]
        echelon.append(row)
    lower = [[1 if i == j else draw(SMALL) if j < i else 0 for j in range(rank)] for i in range(rank)]
    return _product(lower, echelon) if rank else [], echelon, pivots, width


# ---------------------------------------------------------------------------
# fraction_det
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(triangular_products())
def test_det_of_triangular_product_is_diagonal_product(case):
    rows, diag = case
    expected = 1
    for d in diag:
        expected *= d
    assert fraction_det(_matrix(rows, len(diag))) == expected


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.data())
def test_det_row_swap_flips_sign(rows, data):
    n = len(rows)
    assume(n >= 2)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    det = fraction_det(_matrix(rows, n))
    assert isinstance(det, Fraction)
    assert fraction_det(_matrix(swapped, n)) == -det


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.data())
def test_det_of_degenerate_rows_is_zero(rows, data):
    n = len(rows)
    assume(n >= 1)
    row = data.draw(degenerate_row(rows[1:], n))
    assert fraction_det(_matrix([row] + rows[1:], n)) == 0


def test_det_refuses_non_square():
    with pytest.raises(ValueError):
        fraction_det(_matrix([[1, 2]], 2))


# ---------------------------------------------------------------------------
# fraction_inverse
# ---------------------------------------------------------------------------


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(triangular_products(nonsingular=True), st.randoms(use_true_random=False))
def test_inverse_times_matrix_is_identity(case, rnd):
    rows, diag = case
    rnd.shuffle(rows)
    n = len(diag)
    inv = fraction_inverse(_matrix(rows, n))
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    assert _product(rows, inv) == _identity(n)
    assert _product(inv, rows) == _identity(n)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_times_matrix_is_identity_when_nonsingular(rows):
    n = len(rows)
    if fraction_det(_matrix(rows, n)) == 0:
        with pytest.raises(ValueError):
            fraction_inverse(_matrix(rows, n))
    else:
        assert _product(rows, fraction_inverse(_matrix(rows, n))) == _identity(n)


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.data())
def test_inverse_refuses_singular(rows, data):
    n = len(rows)
    assume(n >= 1)
    row = data.draw(degenerate_row(rows[1:], n))
    with pytest.raises(ValueError):
        fraction_inverse(_matrix(rows[1:] + [row], n))


def test_inverse_refuses_non_square():
    with pytest.raises(ValueError):
        fraction_inverse(_matrix([[1, 2]], 2))


# ---------------------------------------------------------------------------
# fraction_solve_left and rational_row_space
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(independent_bases(), st.data())
def test_solve_left_recovers_coordinates(case, data):
    basis, _, _, width = case
    x = data.draw(st.lists(ENTRIES, min_size=len(basis), max_size=len(basis)))
    assert fraction_solve_left(basis, _vector_times(x, basis, width)) == x
    # doubling the basis halves the coordinates
    doubled = [[2 * v for v in row] for row in basis]
    got = fraction_solve_left(doubled, _vector_times(x, basis, width))
    assert got == [Fraction(c, 2) for c in x]


@settings(max_examples=300, deadline=None)
@given(independent_bases(), st.data())
def test_solve_left_refuses_vectors_outside_the_span(case, data):
    # A nonzero vector that vanishes on every pivot column of an echelon
    # basis is outside its span; adding a span vector keeps it outside.
    basis, _, pivots, width = case
    free = [j for j in range(width) if j not in pivots]
    assume(free)
    offset = [0] * width
    for j in free:
        offset[j] = data.draw(ENTRIES)
    assume(any(offset))
    x = data.draw(st.lists(ENTRIES, min_size=len(basis), max_size=len(basis)))
    v = [a + b for a, b in zip(_vector_times(x, basis, width), offset)]
    assert fraction_solve_left(basis, v) is None
    assert not rational_row_space(basis).contains(v)


@settings(max_examples=300, deadline=None)
@given(independent_bases(), st.data())
def test_contains_matches_solve_left(case, data):
    basis, _, _, width = case
    if data.draw(st.booleans()):
        x = data.draw(st.lists(SMALL, min_size=len(basis), max_size=len(basis)))
        v = _vector_times(x, basis, width)
    else:
        v = data.draw(st.lists(SMALL, min_size=width, max_size=width))
    expected = fraction_solve_left(basis, v) is not None
    assert rational_row_space(basis).contains(v) == expected
    assert in_rational_span(basis, v) == expected


@settings(max_examples=300, deadline=None)
@given(independent_bases(), st.data())
def test_row_space_pivots_and_membership_ignore_degenerate_rows(case, data):
    # The pivot columns of the reduced echelon form depend on the span only.
    basis, echelon, pivots, width = case
    extra = data.draw(st.integers(0, 3))
    rows = data.draw(with_degenerate_rows(basis, width, extra))
    space = rational_row_space(rows)
    assert space.pivots == rational_row_space(echelon).pivots == pivots
    v = data.draw(st.lists(SMALL, min_size=width, max_size=width))
    assert space.contains(v) == rational_row_space(basis).contains(v)


def test_empty_basis_spans_only_zero():
    assert rational_row_space([]).pivots == []
    assert rational_row_space([]).contains([])
    assert in_rational_span([], [0, 0])
    assert not in_rational_span([], [0, 1])
    assert fraction_solve_left([], [0, 0]) == []
    assert fraction_solve_left([], [1, 0]) is None


# ---------------------------------------------------------------------------
# coset_representatives and coset_count
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda r: st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r), min_size=r, max_size=r)))
def test_coset_count_is_absolute_determinant(rows):
    r = len(rows)
    m = _matrix(rows, r)
    det = fraction_det(m)
    assume(det != 0)
    assert coset_count(m) == abs(det)
    reps = coset_representatives(m)
    assert reps == sorted(set(reps))
    assert (0,) * r in reps
