import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from macc import gf16
from macc.errors import ConfigurationError

elements = st.integers(0, gf16.FIELD_SIZE - 1)
nonzero = st.integers(1, gf16.FIELD_SIZE - 1)
words = st.one_of(st.just(0), elements)  # zero drawn often


def matrices(rows, cols):
    return hnp.arrays(np.uint16, (rows, cols), elements=words)


def ref_matvec(a, x):
    """Matrix product by a triple loop over the scalar field product."""
    out = np.zeros((a.shape[0], x.shape[1]), dtype=np.uint16)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for w in range(x.shape[1]):
                out[i, w] ^= gf16.mul(int(a[i, j]), int(x[j, w]))
    return out


def test_tables_are_consistent():
    assert gf16.EXP[0] == 1
    # Zero sentinel: LOG[0] indexes the zero tail of EXP.
    assert gf16.LOG[0] == 2 * gf16.ORDER and gf16.LOG.dtype == np.int32
    assert len(gf16.EXP) == 4 * gf16.ORDER + 1 and not gf16.EXP[2 * gf16.ORDER:].any()
    assert gf16.mul(1, 12345) == 12345
    assert gf16.mul(0, 999) == 0


@given(nonzero)
def test_inverse(a):
    assert gf16.mul(a, gf16.inv(a)) == 1


@given(elements, elements, elements)
def test_mul_associative_and_distributive(a, b, c):
    assert gf16.mul(a, gf16.mul(b, c)) == gf16.mul(gf16.mul(a, b), c)
    assert gf16.mul(a, b ^ c) == gf16.mul(a, b) ^ gf16.mul(a, c)


@given(words, st.lists(words, min_size=1, max_size=8))
@example(0, [0, 7])
@example(9, [0, gf16.ORDER])
def test_scale_matches_scalar_mul(a, vec):
    arr = np.array(vec, dtype=np.uint16)
    out = gf16.scale(a, arr)
    assert out.tolist() == [gf16.mul(a, int(x)) for x in vec]


@given(st.data())
def test_matvec_matches_triple_loop(data):
    n, k, w = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, x = data.draw(matrices(n, k)), data.draw(matrices(k, w))
    assert np.array_equal(gf16.matvec(a, x), ref_matvec(a, x))


@given(st.data())
def test_solve_forced_row_swap(data):
    # A = P L U with L[1, 0] = 0 and P swapping rows 0 and 1: invertible,
    # not Cauchy, and A[0, 0] = 0, so the first pivot needs a row swap.
    n, w = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 4))
    lower = np.tril(data.draw(matrices(n, n)), -1)
    lower[1, 0] = 0
    np.fill_diagonal(lower, 1)
    upper = np.triu(data.draw(matrices(n, n)), 1)
    np.fill_diagonal(upper, data.draw(hnp.arrays(np.uint16, n, elements=nonzero)))
    a = ref_matvec(lower, upper)[[1, 0, *range(2, n)]]
    assert a[0, 0] == 0
    x = data.draw(matrices(n, w))
    assert np.array_equal(gf16.solve(a, ref_matvec(a, x)), x)


@given(st.data())
def test_solve_singular_raises(data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(matrices(n, n))
    a[-1] = ref_matvec(data.draw(matrices(1, n - 1)), a[:-1])[0]
    with pytest.raises(ConfigurationError, match="singular"):
        gf16.solve(a, np.ones((n, 2), dtype=np.uint16))


@given(st.integers(0, 12), st.integers(0, 12))
def test_cauchy_entries(rows, cols):
    mat = gf16.cauchy_matrix(rows, cols)
    assert mat.shape == (rows, cols) and mat.dtype == np.uint16
    assert mat.tolist() == [[gf16.inv(i ^ (rows + j)) for j in range(cols)]
                            for i in range(rows)]


def test_cauchy_square_submatrices_invertible():
    mat = gf16.cauchy_matrix(5, 9)
    rng = np.random.default_rng(0)
    for _ in range(20):
        size = int(rng.integers(1, 6))
        rows = sorted(rng.choice(5, size=size, replace=False))
        cols = sorted(rng.choice(9, size=size, replace=False))
        sub = mat[np.ix_(rows, cols)]
        rhs = rng.integers(0, 1 << 16, size=(size, 4), dtype=np.uint16)
        x = gf16.solve(sub, rhs)
        back = gf16.matvec(sub, x)
        assert np.array_equal(back, rhs)


def test_cauchy_size_guard():
    with pytest.raises(ConfigurationError):
        gf16.cauchy_matrix(40000, 40000)


def test_solve_round_trip():
    a = gf16.cauchy_matrix(4, 4)
    x = np.arange(1, 13, dtype=np.uint16).reshape(4, 3)
    b = gf16.matvec(a, x)
    assert np.array_equal(gf16.solve(a, b), x)
