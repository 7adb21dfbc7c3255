import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from macc import gf16
from macc.errors import ConfigurationError

elements = st.integers(0, gf16.FIELD_SIZE - 1)
nonzero = st.integers(1, gf16.FIELD_SIZE - 1)
words = st.one_of(st.just(0), elements)  # zero drawn often


def matrices(rows, cols):
    return hnp.arrays(np.uint16, (rows, cols), elements=words)


# -- scalar oracle ---------------------------------------------------------
# ``mul`` is shift-and-add reduced by the primitive polynomial, so it does
# not read the EXP/LOG tables; ``inv`` and ``scale`` do, and the tests below
# check them against it.

def mul(a: int, b: int) -> int:
    """Field product by carry-less multiplication mod PRIMITIVE_POLY."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & gf16.FIELD_SIZE:
            a ^= gf16.PRIMITIVE_POLY
    return out


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(2^16)")
    return int(gf16.EXP[gf16.ORDER - gf16.LOG[a]])


def scale(scalar: int, vec: np.ndarray) -> np.ndarray:
    """scalar * vec, elementwise, by one table gather."""
    return gf16.EXP[gf16.LOG[scalar] + gf16.LOG[vec]]


def ref_matvec(a, x):
    """Matrix product by a triple loop over the scalar field product."""
    rows, cols = a.tolist(), x.tolist()
    out = [[0] * x.shape[1] for _ in rows]
    for i, row in enumerate(rows):
        for aij, xj in zip(row, cols):
            out[i] = [o ^ mul(aij, v) for o, v in zip(out[i], xj)]
    return np.array(out, dtype=np.uint16).reshape(a.shape[0], x.shape[1])


def ref_solve(matrix, rhs):
    """Solve A X = B by Gauss-Jordan on the augmented [A | B], for any
    invertible A: each pivot column is cleared from every other row by one
    outer-product gather."""
    n = matrix.shape[0]
    aug = np.concatenate((matrix, rhs), axis=1).astype(np.uint16)
    for col in range(n):
        nonzero_rows = np.flatnonzero(aug[col:, col])
        if not len(nonzero_rows):
            raise ConfigurationError("singular coefficient matrix")
        pivot = col + int(nonzero_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = scale(inv(int(aug[col, col])), aug[col])
        factors = aug[:, col].copy()
        factors[col] = 0
        # Columns left of col are already zero in the pivot row.
        aug[:, col:] ^= gf16.EXP[gf16.LOG[factors][:, None] + gf16.LOG[aug[col, col:]][None, :]]
    return aug[:, n:]


def test_tables_are_consistent():
    assert gf16.EXP[0] == 1
    # Zero sentinel: LOG[0] indexes the zero tail of EXP.
    assert gf16.LOG[0] == 2 * gf16.ORDER and gf16.LOG.dtype == np.int32
    assert len(gf16.EXP) == 4 * gf16.ORDER + 1 and not gf16.EXP[2 * gf16.ORDER:].any()
    assert mul(1, 12345) == 12345
    assert mul(0, 999) == 0


@given(nonzero)
def test_inverse(a):
    assert mul(a, inv(a)) == 1


@given(elements, elements, elements)
def test_mul_associative_and_distributive(a, b, c):
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)


@given(words, st.lists(words, min_size=1, max_size=8))
@example(0, [0, 7])
@example(9, [0, gf16.ORDER])
def test_scale_matches_scalar_mul(a, vec):
    arr = np.array(vec, dtype=np.uint16)
    out = scale(a, arr)
    assert out.tolist() == [mul(a, int(x)) for x in vec]


@given(st.data())
def test_matvec_matches_triple_loop(data):
    n, k, w = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, x = data.draw(matrices(n, k)), data.draw(matrices(k, w))
    assert np.array_equal(gf16.matvec(a, x), ref_matvec(a, x))


@settings(max_examples=6)
@given(st.data())
def test_matvec_blocks_match_triple_loop(data):
    # n * k * w crosses _BLOCK_WORDS: two or three full row blocks and a
    # ragged last block.
    k, w = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 40))
    step = gf16._BLOCK_WORDS // (k * w)
    n = data.draw(st.integers(2, 3)) * step + data.draw(st.integers(1, step - 1))
    assert n * k * w > gf16._BLOCK_WORDS
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, gf16.FIELD_SIZE, size=(n, k), dtype=np.uint16)
    x = rng.integers(0, gf16.FIELD_SIZE, size=(k, w), dtype=np.uint16)
    assert np.array_equal(gf16.matvec(a, x), ref_matvec(a, x))


@pytest.mark.parametrize("n, w", [(0, 0), (3, 0), (0, 5), (70000, 1), (4, 9)])
def test_matvec_without_inputs_is_zero(n, w):
    # k = 0: every output word is an empty XOR.
    out = gf16.matvec(np.zeros((n, 0), np.uint16), np.zeros((0, w), np.uint16))
    assert out.shape == (n, w) and out.dtype == np.uint16 and not out.any()


@st.composite
def cauchy_systems(draw, max_n):
    """A random square submatrix A of cauchy_matrix(R, C), rows and columns
    in any order, n from 0 to max_n, and n payload rows B of 0 to 5 words."""
    n = draw(st.integers(0, max_n))
    num_rows, num_cols = n + draw(st.integers(0, 20)), n + draw(st.integers(0, 20))
    rows = draw(st.permutations(range(num_rows)))[:n]
    cols = draw(st.permutations(range(num_cols)))[:n]
    a = gf16.cauchy_matrix(num_rows, num_cols)[np.ix_(rows, cols)]
    return a, draw(matrices(n, draw(st.integers(0, 5))))


@given(cauchy_systems(40))
@example((np.zeros((0, 0), np.uint16), np.zeros((0, 3), np.uint16)))
def test_solve_matches_reference_on_cauchy_submatrices(system):
    a, b = system
    x = gf16.solve(a, b)
    assert x.shape == b.shape and x.dtype == np.uint16
    assert np.array_equal(x, ref_solve(a, b))


def test_solve_matches_reference_at_n_300():
    # 300 logs of up to ORDER each: the sums need more than 16 bits.
    rng = np.random.default_rng(7)
    mat = gf16.cauchy_matrix(400, 500)
    a = mat[np.ix_(rng.choice(400, 300, replace=False), rng.choice(500, 300, replace=False))]
    b = rng.integers(0, gf16.FIELD_SIZE, size=(300, 4), dtype=np.uint16)
    x = gf16.solve(a, b)
    assert np.array_equal(x, ref_solve(a, b))
    assert np.array_equal(gf16.matvec(a, x), b)


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
    b = ref_matvec(a, x)
    assert np.array_equal(ref_solve(a, b), x)
    with pytest.raises(ConfigurationError, match="not a Cauchy matrix"):
        gf16.solve(a, b)


@given(st.data())
def test_solve_singular_raises(data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(matrices(n, n))
    a[-1] = ref_matvec(data.draw(matrices(1, n - 1)), a[:-1])[0]
    b = np.ones((n, 2), dtype=np.uint16)
    with pytest.raises(ConfigurationError, match="singular"):
        ref_solve(a, b)
    # A singular matrix is never Cauchy: the library rejects it either way.
    with pytest.raises(ConfigurationError, match="not a Cauchy matrix|singular"):
        gf16.solve(a, b)


@pytest.mark.parametrize("axis", [0, 1])
def test_solve_rejects_repeated_row_or_column(axis):
    a = gf16.cauchy_matrix(5, 5)
    a = a[[0, 1, 2, 3, 1]] if axis == 0 else a[:, [0, 1, 2, 3, 1]]
    with pytest.raises(ConfigurationError, match="singular coefficient matrix"):
        gf16.solve(a, np.ones((5, 2), dtype=np.uint16))


@given(st.integers(2, 8), st.data())
def test_solve_rejects_one_changed_entry(n, data):
    # D = 1/A then breaks x_i ^ y_j on every 2 x 2 minor through the entry.
    a = gf16.cauchy_matrix(n, n + 3)[:, 3:]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    a[i, j] ^= data.draw(nonzero)
    with pytest.raises(ConfigurationError, match="not a Cauchy matrix"):
        gf16.solve(a, np.ones((n, 1), dtype=np.uint16))


@given(st.integers(0, 12), st.integers(0, 12))
def test_cauchy_entries(rows, cols):
    mat = gf16.cauchy_matrix(rows, cols)
    assert mat.shape == (rows, cols) and mat.dtype == np.uint16
    assert mat.tolist() == [[inv(i ^ (rows + j)) for j in range(cols)]
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


# -- table build -----------------------------------------------------------

def loop_tables(polys):
    """EXP, LOG and the polynomial as the one-power-at-a-time loop builds
    them: step x through its powers until it comes round, and take the
    first polynomial whose x comes round after ORDER steps."""
    for poly in polys:
        exp = np.zeros(4 * gf16.ORDER + 1, dtype=np.uint16)
        log = np.full(gf16.FIELD_SIZE, 2 * gf16.ORDER, dtype=np.int32)
        e, g = memoryview(exp), memoryview(log)
        x, i = 1, 0
        while i < gf16.ORDER and g[x] == 2 * gf16.ORDER:
            e[i] = x
            g[x] = i
            i += 1
            x <<= 1
            if x & gf16.FIELD_SIZE:
                x ^= poly
        if i == gf16.ORDER and x == 1:
            exp[gf16.ORDER:2 * gf16.ORDER] = exp[:gf16.ORDER]
            return exp, log, poly
    return None


def test_tables_equal_the_loop_build():
    exp, log, poly = loop_tables(gf16._CANDIDATE_POLYS)
    assert gf16.PRIMITIVE_POLY == poly == 0x1100B
    for got, want in ((gf16.EXP, exp), (gf16.LOG, log)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# x^16 + 1 = (x + 1)^16 and x^16 + x^8 + 1 are reducible; 0x1002D, 0x10039
# and 0x1003F are checked here against the loop as well.
@pytest.mark.parametrize("polys", [
    (0x10001, 0x1100B), (0x10101, 0x1002D), (0x10039,), (0x1003F,),
])
def test_first_primitive_candidate_is_taken(monkeypatch, polys):
    monkeypatch.setattr(gf16, "_CANDIDATE_POLYS", polys)
    want = loop_tables(polys)
    assert want is not None
    exp, log, poly = gf16._build_tables()
    assert (exp.tobytes(), log.tobytes(), poly) == (want[0].tobytes(), want[1].tobytes(), want[2])


def test_no_primitive_candidate_is_a_configuration_error(monkeypatch):
    monkeypatch.setattr(gf16, "_CANDIDATE_POLYS", (0x10001, 0x10101))
    assert loop_tables((0x10001, 0x10101)) is None
    with pytest.raises(ConfigurationError, match="no primitive polynomial"):
        gf16._build_tables()
