"""The two schemes read as known shared-link PDAs.

The design scheme over the complete 1-design is the MN PDA, and the GDD
scheme over t = 1 blocks with an [m, m-1] placement array is the OA-based
PDA of Yan, Cheng, Tang and Chen ("On the placement delivery array design
for centralized coded caching scheme", IEEE T-IT 2017).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from macc.designs import complete_design, linear_oa, transversal_gdd
from macc.pda import mn_pda, subset_ranks, verify_pda
from macc.scheme_design import build_scheme
from macc.scheme_gdd import build_gdd_scheme


@pytest.mark.parametrize("gamma", [4, 5, 6, 7])
def test_complete_one_design_is_mn_pda(gamma):
    for mu in range(gamma):
        scheme = build_scheme(complete_design(gamma, 1), mu)
        mn = mn_pda(gamma, mu)
        assert np.array_equal(scheme.user_delivery.grid, mn.grid)
        elements = np.array([i.elements for i in scheme.user_delivery.ids])
        assert (subset_ranks(elements, gamma) + 1).tolist() == list(mn.ids)


@pytest.mark.parametrize("gamma, l", [(6, 2), (7, 3), (8, 2), (9, 3)])
def test_complete_design_rate_is_subset_ratio(gamma, l):
    for mu in range(gamma - l + 1):
        scheme = build_scheme(complete_design(gamma, l), mu)
        assert Fraction(scheme.counted_messages, scheme.subpacketization) == Fraction(
            math.comb(gamma, mu + l), math.comb(gamma, mu))


def yan_oa_pda(m, q):
    """Yan et al.'s PDA on K = mq columns: the rows are the x in Z_q^m with
    x_m = x_1 + ... + x_(m-1) (mod q), lexicographic in x_1..x_(m-1); the
    columns are the pairs (delta, b), delta in 0..m-1 and b in Z_q.  The
    cell (x, (delta, b)) is a star when x_delta = b, and otherwise the
    vector x with x_delta replaced by b.  Returns the rows and a dict from
    (row, column) to the cell's vector, None at a star."""
    rows = [x + (sum(x) % q,) for x in itertools.product(range(q), repeat=m - 1)]
    cells = {}
    for x in rows:
        for delta, b in itertools.product(range(m), range(q)):
            y = x[:delta] + (b,) + x[delta + 1:]
            cells[x, (delta, b)] = None if x[delta] == b else y
    return rows, cells


def parity_scaling(oa):
    """Per-coordinate factors s with s * c in the code of ``yan_oa_pda`` for
    every OA row c (0-based symbols).  ``linear_oa`` evaluates degree < m-1
    polynomials at 0..m-1, so a_u = 1 / prod_(w != u) (u - w) annihilates
    every row; the parity code is annihilated by h = (1, ..., 1, -1), and
    s_u = a_u / h_u carries one onto the other."""
    m, q = oa.num_columns, oa.num_symbols
    a = [pow(math.prod(u - w for w in range(m) if w != u), -1, q) for u in range(m)]
    c = np.array(oa.rows) - 1
    assert not (c @ a % q).any()
    return [x % q for x in a[:-1] + [-a[-1]]]


@pytest.mark.parametrize("m, q", [(3, 3), (3, 5), (4, 5)])
def test_transversal_gdd_is_yan_oa_pda(m, q):
    oa = linear_oa(m, q, m - 1)
    scheme = build_gdd_scheme(transversal_gdd(m, q, 1), oa)
    rep = verify_pda(scheme.user_delivery)
    assert rep.ok
    assert (rep.num_users, rep.subpacketization, rep.stars_per_column, rep.num_messages) == (
        m * q, q ** (m - 1), q ** (m - 2), (q - 1) * q ** (m - 1))

    # The bijection: OA row c <-> Yan row s * c, and node (u, v) <-> column
    # (u - 1, s_u * (v - 1)).
    s = parity_scaling(oa)
    yan_rows, yan = yan_oa_pda(m, q)
    row_of = [tuple(x * y % q for x, y in zip(s, c)) for c in np.array(oa.rows) - 1]
    assert sorted(row_of) == sorted(yan_rows)
    col_of = [(u - 1, s[u - 1] * (v - 1) % q) for ((u, v),) in scheme.user_blocks]
    ours, theirs = {}, {}
    grid = scheme.user_delivery.grid
    for j, k in itertools.product(range(len(row_of)), range(len(col_of))):
        y = yan[row_of[j], col_of[k]]
        assert (grid[j, k] < 0) == (y is None)
        if y is not None:
            ours.setdefault(int(grid[j, k]), set()).add((j, k))
            theirs.setdefault(y, set()).add((j, k))
    partition = {frozenset(c) for c in ours.values()}
    assert partition == {frozenset(c) for c in theirs.values()}
