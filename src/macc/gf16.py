"""Arithmetic over GF(2^16) and Cauchy coefficient matrices.

Log/antilog tables drive multiplication; addition is XOR.  The tables carry
a zero sentinel: ``LOG[0] = 2*ORDER`` and every ``EXP`` entry from ``2*ORDER``
up (``4*ORDER`` inclusive) is 0, so ``EXP[LOG[a] + LOG[b]]`` is ``a*b`` for
every pair of elements, zero included, without a mask.  They are built at
import by doubling: the powers x^n .. x^(2n-1) are the first n powers times
x^n, one carry-less multiply over a uint16 array per step, and the first
candidate polynomial whose x hits every non-zero element is used.
Payloads are vectors of 16-bit words and the bulk kernels (``matvec``,
``solve``, ``cauchy_matrix``) are whole-array gathers over numpy uint16
arrays.  Cauchy matrices supply the erasure-coding coefficients: every square
submatrix of a Cauchy matrix is invertible, the solvability guarantee the
coded delivery needs, and has a closed-form inverse, which ``solve`` uses.
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
        # exp[i] = x^i mod poly, by doubling: x^(n + i) = x^i * x^n, so
        # exp[n:2n] is exp[:n] times x^n, a carry-less multiply by Horner's
        # rule over the bits of x^n, top bit first, each step times x
        # reduced by poly, so every word stays within 16 bits.
        exp = np.zeros(4 * ORDER + 1, dtype=np.uint16)
        exp[0] = 1
        n = 1
        while n < FIELD_SIZE:
            xn = int(exp[n - 1]) << 1
            xn ^= poly if xn & FIELD_SIZE else 0
            low, out = exp[:n], exp[n:2 * n]
            for b in reversed(range(FIELD_BITS)):
                top = out >> (FIELD_BITS - 1)
                out <<= 1
                out ^= top * np.uint16(poly & ORDER)
                if xn >> b & 1:
                    out ^= low
            n *= 2
        # x is primitive when its first ORDER powers hit every non-zero
        # element, so each once.
        log = np.full(FIELD_SIZE, 2 * ORDER, dtype=np.int32)
        log[exp[:ORDER]] = np.arange(ORDER, dtype=np.int32)
        if (log[1:] < ORDER).all():
            exp[ORDER:2 * ORDER] = exp[:ORDER]
            return exp, log, poly
    raise ConfigurationError("no primitive polynomial found")


EXP, LOG, PRIMITIVE_POLY = _build_tables()


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


# Words of the block x k x w product that ``matvec`` gathers at once.
_BLOCK_WORDS = 1 << 14


def matvec(matrix: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Matrix (n x k) times k payload rows, each a uint16 word vector, a block
    of about ``_BLOCK_WORDS`` products of output rows at a time."""
    k, w = payloads.shape
    logs = LOG[payloads][None]
    rows = LOG[matrix][:, :, None]
    out = np.empty((matrix.shape[0], w), dtype=np.uint16)
    step = max(1, _BLOCK_WORDS // max(1, k * w))
    for i in range(0, len(out), step):  # take: indexing would cast int32 to intp
        np.bitwise_xor.reduce(np.take(EXP, rows[i:i + step] + logs), axis=1, out=out[i:i + step])
    return out


def _log_prod_others(v: np.ndarray) -> np.ndarray:
    """Per entry i, the log of the product of (v_i ^ v_k) over k != i."""
    logs = LOG[v[:, None] ^ v[None, :]]
    np.fill_diagonal(logs, 0)
    if (logs == 2 * ORDER).any():
        raise ConfigurationError("singular coefficient matrix")
    return logs.sum(axis=1, dtype=np.int64)


def solve(matrix: np.ndarray, rhs: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Solve A X = B over GF(2^16); A is n x n Cauchy, B holds n payload rows.
    Returns the ``rows`` of X (all of them by default).

    A[i, j] = 1 / (x_i ^ y_j) has the closed-form inverse (Schechter 1959)
    diag(b) A^T diag(a), a_j = prod_k (x_j ^ y_k) / prod_{k!=j} (x_j ^ x_k),
    b_i = prod_k (x_k ^ y_i) / prod_{k!=i} (y_i ^ y_k).  With D = 1 / A,
    x = D[:, 0] and y = D[0] ^ D[0, 0]: both shifted by y_0, which cancels.
    A row of X needs only its row of A^T, so the matvec takes those alone."""
    if not len(matrix):
        return np.zeros(rhs.shape, dtype=np.uint16)[rows]
    log_d = ORDER - LOG[matrix]  # negative where A is 0; those raise below
    d = EXP[log_d]
    x, y = d[:, 0], d[0] ^ d[0, 0]
    if not matrix.all() or not np.array_equal(d, x[:, None] ^ y[None, :]):
        raise ConfigurationError("not a Cauchy matrix")
    # One row scale, one matvec, one more row scale; log sums in int64.
    log_a = (log_d.sum(axis=1, dtype=np.int64) - _log_prod_others(x)) % ORDER
    log_b = (log_d.sum(axis=0, dtype=np.int64) - _log_prod_others(y)) % ORDER
    inner = matvec(matrix.T[rows], EXP[log_a[:, None] + LOG[rhs]])
    return EXP[log_b[rows, None] + LOG[inner]]
