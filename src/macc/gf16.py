"""Arithmetic over GF(2^16) and Cauchy coefficient matrices.

Log/antilog tables drive multiplication; addition is XOR.  The tables carry
a zero sentinel: ``LOG[0] = 2*ORDER`` and every ``EXP`` entry from ``2*ORDER``
up (``4*ORDER`` inclusive) is 0, so ``EXP[LOG[a] + LOG[b]]`` is ``a*b`` for
every pair of elements, zero included, without a mask.  Payloads are vectors
of 16-bit words and the bulk kernels (``scale``, ``matvec``, ``solve``,
``cauchy_matrix``) are whole-array gathers over numpy uint16 arrays.  Cauchy
matrices supply the erasure-coding coefficients: every square submatrix of
a Cauchy matrix is invertible, which is exactly the solvability guarantee
the coded delivery needs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

FIELD_BITS = 16
FIELD_SIZE = 1 << FIELD_BITS
ORDER = FIELD_SIZE - 1

# Candidate degree-16 polynomials; the first primitive one is used.
_CANDIDATE_POLYS = (0x1100B, 0x1002D, 0x10039, 0x1003F, 0x14FAB)


def _build_tables():
    for poly in _CANDIDATE_POLYS:
        exp = np.zeros(4 * ORDER + 1, dtype=np.uint16)
        log = np.full(FIELD_SIZE, 2 * ORDER, dtype=np.int32)
        # Memoryview item access takes and gives plain ints: much cheaper
        # than numpy scalar indexing, and no 65535-int list to hold.
        e, g = memoryview(exp), memoryview(log)
        x, i = 1, 0
        while i < ORDER and g[x] == 2 * ORDER:  # stop when x comes round
            e[i] = x
            g[x] = i
            i += 1
            x <<= 1
            if x & FIELD_SIZE:
                x ^= poly
        if i == ORDER and x == 1:
            exp[ORDER:2 * ORDER] = exp[:ORDER]
            return exp, log, poly
    raise ConfigurationError("no primitive polynomial found")


EXP, LOG, PRIMITIVE_POLY = _build_tables()


def mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(EXP[LOG[a] + LOG[b]])


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(2^16)")
    return int(EXP[ORDER - LOG[a]])


def scale(scalar: int, words: np.ndarray) -> np.ndarray:
    """scalar * words, elementwise over GF(2^16)."""
    return EXP[LOG[scalar] + LOG[words]]


def cauchy_matrix(num_rows: int, num_cols: int) -> np.ndarray:
    """C[i, j] = 1 / (x_i ^ y_j) with all x_i, y_j distinct field elements."""
    if num_rows + num_cols > FIELD_SIZE:
        raise ConfigurationError(
            f"Cauchy matrix needs {num_rows + num_cols} distinct field elements, "
            f"only {FIELD_SIZE} available"
        )
    i = np.arange(num_rows)[:, None]
    j = np.arange(num_cols)[None, :]
    return EXP[ORDER - LOG[i ^ (num_rows + j)]]


def matvec(matrix: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Matrix (n x k) times k payload rows, each a uint16 word vector.

    One output row at a time, so the temporaries stay k x words."""
    logs = LOG[payloads]
    out = np.empty((matrix.shape[0], payloads.shape[1]), dtype=np.uint16)
    for i, row in enumerate(LOG[matrix]):
        out[i] = np.bitwise_xor.reduce(EXP[row[:, None] + logs], axis=0)
    return out


def solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A X = B over GF(2^16); A is square n x n, B holds n payload rows.

    Gauss-Jordan on the augmented [A | B]: each pivot column is cleared from
    every other row by one outer-product gather."""
    n = matrix.shape[0]
    aug = np.concatenate((matrix, rhs), axis=1).astype(np.uint16, copy=False)
    for col in range(n):
        nonzero = np.flatnonzero(aug[col:, col])
        if not len(nonzero):
            raise ConfigurationError("singular coefficient matrix")
        pivot = col + int(nonzero[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = scale(inv(int(aug[col, col])), aug[col])
        factors = aug[:, col].copy()
        factors[col] = 0
        # Columns left of col are already zero in the pivot row.
        aug[:, col:] ^= EXP[LOG[factors][:, None] + LOG[aug[col, col:]][None, :]]
    return aug[:, n:]
