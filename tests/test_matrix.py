import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredim.errors import DimensionMismatchError
from bredim.matrix import (
    IntMatrix,
    determinant,
    ext_gcd,
    hermite_basis,
    hermite_normal_form,
    inverse_unimodular,
    left_kernel,
    rank,
    smith_normal_form,
)
from bredim.oracles import fraction_det, invariant_factors_by_minors


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


def test_shape_validation():
    with pytest.raises(DimensionMismatchError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        IntMatrix.from_rows([])
    assert IntMatrix.from_rows([], cols=3).rows == 0


def test_matmul_and_transpose():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a @ b) == M([[2, 1], [4, 3]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    with pytest.raises(DimensionMismatchError):
        a @ M([[1, 2, 3]])


# ---------------------------------------------------------------------------
# Kernels against naive loops over the flat row-major entries.
# ---------------------------------------------------------------------------


@st.composite
def _matrices(draw, rows, cols):
    """All-zero, mostly-zero (at most two nonzero entries) or dense."""
    values = st.integers(-(2**70), 2**70)
    kind = draw(st.sampled_from(("zero", "sparse", "dense")))
    if kind == "dense":
        entries = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    else:
        entries = [0] * (rows * cols)
        if kind == "sparse" and entries:
            for pos in draw(st.lists(st.integers(0, rows * cols - 1), max_size=2)):
                entries[pos] = draw(values.filter(bool))
    return IntMatrix(rows, cols, tuple(entries))


_dims = st.integers(0, 6)


@st.composite
def _products(draw):
    r, c, p = draw(_dims), draw(_dims), draw(_dims)
    return draw(_matrices(r, c)), draw(_matrices(c, p))


def _naive_product(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = 0
            for k in range(a.cols):
                total += a.entries[i * a.cols + k] * b.entries[k * b.cols + j]
            out.append(total)
    return out


@settings(max_examples=300, deadline=None)
@given(_products())
def test_matmul_matches_naive_product(pair):
    a, b = pair
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert list(product.entries) == _naive_product(a, b)


@settings(max_examples=300, deadline=None)
@given(_dims.flatmap(lambda r: _dims.flatmap(lambda c: _matrices(r, c))))
def test_transpose_and_is_zero_match_naive_loops(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    for i in range(m.rows):
        for j in range(m.cols):
            assert t.entries[j * m.rows + i] == m.entries[i * m.cols + j]
    assert m.is_zero() == all(x == 0 for x in m.entries)
    assert t.transpose() == m


def test_ext_gcd():
    for a, b in [(2, 3), (-4, 6), (0, 0), (0, -7), (12, 18), (-5, -15)]:
        g, x, y = ext_gcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        assert g == __import__("math").gcd(a, b)


def test_hnf_already_canonical():
    h, u = hermite_normal_form(M([[2, 4]]))
    assert h == M([[2, 4]])
    assert u == M([[1]])


def test_hnf_row_swap():
    m = M([[0, 1], [1, 0]])
    h, u = hermite_normal_form(m)
    assert h == IntMatrix.identity(2)
    assert abs(determinant(u)) == 1
    assert (u @ m) == h


def test_hnf_gcd_column():
    # gcd(2, 3) = 1, computed independently by the extended Euclid check above
    m = M([[2, 0], [3, 0]])
    h, u = hermite_normal_form(m)
    assert h == M([[1, 0], [0, 0]])
    assert (u @ m) == h
    assert abs(determinant(u)) == 1


def test_hnf_reduces_above_pivots():
    h, _ = hermite_normal_form(M([[1, 5], [0, 3]]))
    assert h == M([[1, 2], [0, 3]])


def test_hnf_properties_random():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = M([[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)])
        h, u = hermite_normal_form(m)
        assert (u @ m) == h
        assert abs(fraction_det(u)) == 1
        again, _ = hermite_normal_form(h)
        assert again == h
        # unimodular left multiplication cannot change the canonical form
        shear = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
        if rows > 1:
            i, j = rng.sample(range(rows), 2)
            shear[i][j] = rng.randint(-3, 3)
        v = M(shear)
        h2, _ = hermite_normal_form(v @ m)
        assert h2 == h


def test_snf_diag_2_3():
    d, s, t = smith_normal_form(M([[2, 0], [0, 3]]))
    assert d.diagonal() == (1, 6)
    assert (s @ M([[2, 0], [0, 3]]) @ t) == d


def test_snf_zero_matrix():
    d, _, _ = smith_normal_form(IntMatrix.zero(3, 2))
    assert d == IntMatrix.zero(3, 2)


def test_snf_2x2_example():
    m = M([[2, 4], [6, 8]])
    d, s, t = smith_normal_form(m)
    assert d.diagonal() == (2, 4)
    assert (s @ m @ t) == d
    assert abs(determinant(s)) == 1
    assert abs(determinant(t)) == 1


def test_snf_oscillation_regression():
    # This input used to bounce between row and column clearing forever.
    m = M([[-3, -8, -8], [1, -2, 3], [4, -7, 9]])
    d, s, t = smith_normal_form(m)
    assert (s @ m @ t) == d
    assert [x for x in d.diagonal() if x] == invariant_factors_by_minors(m)


def test_snf_properties_random():
    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = M([[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)])
        d, s, t = smith_normal_form(m)
        diag = d.diagonal()
        assert (s @ m @ t) == d
        assert abs(fraction_det(s)) == 1
        assert abs(fraction_det(t)) == 1
        assert all(x >= 0 for x in diag)
        assert all(
            d.at(i, j) == 0 for i in range(d.rows) for j in range(d.cols) if i != j
        )
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
        assert all(b == 0 for a, b in zip(diag, diag[1:]) if a == 0)


def test_snf_matches_minor_gcds():
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = M([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        d, _, _ = smith_normal_form(m)
        assert [x for x in d.diagonal() if x] == invariant_factors_by_minors(m)


def test_determinant():
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(M([[2, 0], [1, 3]])) == 6
    assert determinant(M([[1, 2], [2, 4]])) == 0
    assert determinant(IntMatrix.from_rows([], cols=0)) == 1
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert determinant(m) == fraction_det(m)


def test_rank():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.zero(2, 3)) == 0
    assert rank(IntMatrix.identity(4)) == 4


def test_left_kernel():
    m = M([[1, 2], [2, 4]])
    k = left_kernel(m)
    assert k.rows == 1
    assert (k @ m).is_zero()
    assert left_kernel(IntMatrix.identity(3)).rows == 0


def test_inverse_unimodular():
    u = M([[1, 2], [0, 1]])
    v = inverse_unimodular(u)
    assert (v @ u) == IntMatrix.identity(2)
    with pytest.raises(DimensionMismatchError):
        inverse_unimodular(M([[2, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# Transform-free Hermite bases, kernels and inverses.
# ---------------------------------------------------------------------------

_BIG = 10**6


@st.composite
def _hermite_inputs(draw):
    """Shapes 0..8 x 0..8, entries up to 10^6 in size, with zero,
    duplicate and dependent rows mixed in."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-_BIG, _BIG))
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("random", "random", "zero", "copy", "combination")))
        if kind == "zero" or (kind != "random" and not out):
            row = [0] * cols
        elif kind == "copy":
            row = list(draw(st.sampled_from(out)))
        elif kind == "combination":
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            first, second = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            row = [c * x + d * y for x, y in zip(first, second)]
            if any(abs(x) > _BIG for x in row):
                row = list(first)
        else:
            row = draw(st.lists(entry, min_size=cols, max_size=cols))
        out.append(row)
    return M(out, cols=cols)


def _nonzero_rows(m):
    return M([m.row(i) for i in range(m.rows) if any(m.row(i))], cols=m.cols)


def _is_hermite(h):
    """Pivots positive and strictly moving right, entries above in [0, pivot)."""
    last = -1
    for i in range(h.rows):
        row = h.row(i)
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None or col <= last or row[col] <= 0:
            return False
        if any(not 0 <= h.at(r, col) < row[col] for r in range(i)):
            return False
        last = col
    return True


@settings(max_examples=400, deadline=None)
@given(_hermite_inputs())
def test_hermite_basis_is_the_nonzero_part_of_the_hermite_form(m):
    h = hermite_basis(m)
    assert h == _nonzero_rows(hermite_normal_form(m)[0])
    assert _is_hermite(h)
    assert rank(m) == h.rows


@settings(max_examples=300, deadline=None)
@given(_hermite_inputs())
def test_left_kernel_is_the_canonical_kernel_basis(m):
    k = left_kernel(m)
    assert k.cols == m.rows
    assert (k @ m).is_zero()
    assert k.rows == m.rows - _nonzero_rows(hermite_normal_form(m)[0]).rows
    assert _is_hermite(k)


@st.composite
def _unimodular(draw):
    """A product of a lower and an upper unitriangular matrix, signs and a
    row permutation: unimodular by construction."""
    n = draw(st.integers(0, 8))
    small = st.integers(-3, 3)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[draw(st.sampled_from((1, -1))) if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    product = M(lower, cols=n) @ M(upper, cols=n)
    order = draw(st.permutations(range(n)))
    return M([product.row(i) for i in order], cols=n)


@settings(max_examples=300, deadline=None)
@given(_unimodular())
def test_inverse_unimodular_inverts(u):
    v = inverse_unimodular(u)
    assert v @ u == IntMatrix.identity(u.rows)
    assert u @ v == IntMatrix.identity(u.rows)


@settings(max_examples=200, deadline=None)
@given(_unimodular().filter(lambda u: u.rows > 0), st.data())
def test_inverse_unimodular_refuses_singular_and_non_unimodular(u, data):
    n = u.rows
    i = data.draw(st.integers(0, n - 1))
    factor = data.draw(st.sampled_from((0, 2, -2, 3, 7)))
    scaled = [[factor * x for x in u.row(r)] if r == i else list(u.row(r)) for r in range(n)]
    with pytest.raises(DimensionMismatchError):
        inverse_unimodular(M(scaled, cols=n))
    if n > 1:
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        duplicated = [list(u.row(j)) if r == i else list(u.row(r)) for r in range(n)]
        with pytest.raises(DimensionMismatchError):
            inverse_unimodular(M(duplicated, cols=n))
    with pytest.raises(DimensionMismatchError):
        inverse_unimodular(M([list(u.row(r)) + [0] for r in range(n)], cols=n + 1))


# ---------------------------------------------------------------------------
# The tracked transforms are not unique, so golden output pins the exact
# elimination order; this digest pins it below the command line.
# ---------------------------------------------------------------------------


def _transform_batch():
    """300 seeded matrices, shapes 0..12 x 0..12, entries up to 50 in size,
    with zero, duplicate and dependent rows mixed in."""
    rng = random.Random("tracked-transforms")
    for _ in range(300):
        rows, cols = rng.randint(0, 12), rng.randint(0, 12)
        out = []
        for _ in range(rows):
            kind = rng.choice(("random", "random", "zero", "copy", "combination"))
            if kind == "zero" or (kind != "random" and not out):
                row = [0] * cols
            elif kind == "copy":
                row = list(rng.choice(out))
            elif kind == "combination":
                c, d = rng.randint(-3, 3), rng.randint(-3, 3)
                first, second = rng.choice(out), rng.choice(out)
                row = [c * x + d * y for x, y in zip(first, second)]
            else:
                row = [rng.randint(-50, 50) for _ in range(cols)]
            out.append(row)
        yield M(out, cols=cols)


def test_tracked_transforms_are_pinned():
    digest = hashlib.sha256()
    for m in _transform_batch():
        for out in (*hermite_normal_form(m), *smith_normal_form(m)):
            digest.update(repr((out.rows, out.cols, out.entries)).encode())
    assert digest.hexdigest() == "f58f845dd70736dc1ca906eb403f2edf922f3d78fc085570640e9e6bfabf69cd"
