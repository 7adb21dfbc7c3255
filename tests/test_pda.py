import functools
import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macc import pda as pda_module
from macc.designs import (
    catalog_design, catalog_oa, complete_design, linear_oa, transversal_gdd, trivial_oa,
)
from macc.errors import InvalidParametersError, NotAPdaError
from macc.pda import (
    Pda,
    PdaVerification,
    STAR,
    _first_c3_violations,
    _groups,
    flag_c3,
    _narrow,
    id_cells,
    mn_pda,
    occurrences,
    pda_stats,
    subset_ranks,
    verify_pda,
)
from macc.render import render_scheme_delivery
from macc.scheme_design import build_scheme
from macc.scheme_gdd import build_gdd_scheme

from canonical import grid_pda, pda_cells

S = STAR
REFERENCE_6x4 = (
    (S, S, 1, 2),
    (S, 1, S, 3),
    (S, 2, 3, S),
    (1, S, S, 4),
    (2, S, 4, S),
    (3, 4, S, S),
)


def canonical_index(pda) -> dict:
    """id -> dense integer 1..S, in canonical order."""
    return {i: n for n, i in enumerate(pda.ids, start=1)}


def to_canonical(pda) -> Pda:
    """The PDA with every id replaced by its canonical integer."""
    return Pda(pda.relabel([*range(1, pda.num_ids + 1), S]))


class TestMnPda:
    def test_reference_array(self):
        assert pda_cells(mn_pda(4, 2)) == REFERENCE_6x4

    def test_zero_cache_unicasts(self):
        p = mn_pda(5, 0)
        assert p.num_rows == 1
        assert pda_cells(p)[0] == (1, 2, 3, 4, 5)
        stats = pda_stats(p)
        assert (stats.stars_per_column, stats.num_messages) == (0, 5)

    def test_full_cache_all_star(self):
        p = mn_pda(3, 3)
        assert pda_cells(p) == ((S, S, S),)
        rep = verify_pda(p)
        assert rep.ok and rep.degenerate and rep.num_messages == 0

    def test_out_of_range(self):
        with pytest.raises(InvalidParametersError):
            mn_pda(4, 5)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_ids_show_as_lexicographic_ranks(self, k):
        # cell (D, u) shows the 1-based rank of D + {u} among the
        # (t+1)-subsets, which is the canonical id + 1 with no labeller
        users = range(1, k + 1)
        for t in range(k + 1):
            rank = {s: n for n, s in enumerate(itertools.combinations(users, t + 1), start=1)}
            want = tuple(tuple(S if u in d else rank[tuple(sorted(d + (u,)))] for u in users)
                         for d in itertools.combinations(users, t))
            assert pda_cells(mn_pda(k, t)) == want

    @given(st.integers(2, 10), st.data())
    def test_parameters_and_validity(self, k, data):
        t = data.draw(st.integers(0, k))
        p = mn_pda(k, t)
        rep = verify_pda(p)
        assert rep.ok
        assert rep.num_users == k
        assert rep.subpacketization == math.comb(k, t)
        assert rep.stars_per_column == math.comb(k - 1, t - 1) if t else rep.stars_per_column == 0
        assert rep.num_messages == math.comb(k, t + 1)

    @given(st.integers(2, 9), st.data())
    def test_each_id_appears_t_plus_one_times(self, k, data):
        t = data.draw(st.integers(0, k - 1))
        p = mn_pda(k, t)
        for cells in p.id_positions.values():
            assert len(cells) == t + 1


class TestVerify:
    def test_reference_passes(self):
        rep = verify_pda(Pda(REFERENCE_6x4))
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (4, 6, 3, 4)

    def test_crossing_violation(self):
        cells = [list(r) for r in REFERENCE_6x4]
        cells[0][2] = 2  # id 2 now repeats in row 1 and misses a crossing star
        rep = verify_pda(Pda(cells))
        assert not rep.ok
        assert not rep.c3b_crossing_stars
        assert not rep.c3a_distinct_rows_cols

    def test_missing_integer_id(self):
        rep = verify_pda(Pda(((1, 3), (3, 1))))
        assert not rep.c2_ids_complete

    @pytest.mark.parametrize("big", [10**6, 10**12])
    def test_missing_ids_past_ten_are_counted_not_listed(self, big):
        # a 2 x 2 PDA whose one id is big: the report lists ten gaps and
        # counts the rest, and takes no time or memory that grows with big
        start = time.perf_counter()
        rep = verify_pda(Pda(((big, S), (S, big))))
        assert time.perf_counter() - start < 0.1
        assert not rep.c2_ids_complete
        assert rep.first_violation == (
            f"C2: integer ids missing {list(range(1, 11))} and {big - 11} more"
        )

    def test_ten_missing_ids_are_all_listed(self):
        rep = verify_pda(Pda(((11, S), (S, 11))))
        assert rep.first_violation == f"C2: integer ids missing {list(range(1, 11))}"

    def test_all_star_degenerate(self):
        rep = verify_pda(Pda([[S] * 4 for _ in range(3)]))
        assert rep.ok and rep.degenerate and rep.num_messages == 0

    def test_nonuniform_stars(self):
        rep = verify_pda(Pda(((S, 1), (1, 2))))
        assert not rep.c1_uniform_stars
        with pytest.raises(NotAPdaError):
            pda_stats(Pda(((S, 1), (1, 2))))


def reference_verify(cells) -> PdaVerification:
    """C1-C3 by the exhaustive pairwise loop, straight from the raw cells."""
    stars = tuple(sum(row[k] is STAR for row in cells) for k in range(len(cells[0])))
    positions = {}
    for j, row in enumerate(cells):
        for k, c in enumerate(row):
            if c is not STAR:
                positions.setdefault(c, []).append((j, k))
    violations = []
    c1 = len(set(stars)) == 1
    if not c1:
        violations.append(f"C1: column star counts {stars}")
    c2 = True
    if positions and all(isinstance(i, int) for i in positions):
        missing = set(range(1, max(positions) + 1)) - set(positions)
        if missing:
            c2 = False
            violations.append(f"C2: integer ids missing {sorted(missing)}")
    first_a = first_b = None
    for ident, where in positions.items():
        for (j1, k1), (j2, k2) in itertools.combinations(where, 2):
            if j1 == j2 or k1 == k2:
                first_a = first_a or (
                    f"C3a: id {ident} repeats at {(j1 + 1, k1 + 1)} and {(j2 + 1, k2 + 1)}"
                )
            elif cells[j1][k2] is not STAR or cells[j2][k1] is not STAR:
                first_b = first_b or (
                    f"C3b: id {ident} at {(j1 + 1, k1 + 1)},{(j2 + 1, k2 + 1)} "
                    "lacks crossing stars"
                )
    violations += [v for v in (first_a, first_b) if v]
    z = stars[0] if c1 else None
    return PdaVerification(
        ok=not violations, c1_uniform_stars=c1, c2_ids_complete=c2,
        c3a_distinct_rows_cols=first_a is None, c3b_crossing_stars=first_b is None,
        num_users=len(cells[0]), subpacketization=len(cells), stars_per_column=z,
        num_messages=len(positions), degenerate=not positions or z == len(cells),
        first_violation=violations[0] if violations else None,
    )


@st.composite
def small_arrays(draw):
    """Raw cells: a shuffled, relabelled MN array (valid) or random cells
    (mostly violating), with ids as ints or as 1-tuples."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        base = mn_pda(k, draw(st.integers(0, k)))
        rows = draw(st.permutations(range(base.num_rows)))
        cols = draw(st.permutations(range(k)))
        relabel = draw(st.permutations(range(1, base.num_ids + 1)))
        base = pda_cells(base)
        cells = [[base[j][c] if base[j][c] is S else relabel[base[j][c] - 1]
                  for c in cols] for j in rows]
    else:
        k = draw(st.integers(1, 5))
        cell = st.one_of(st.just(S), st.integers(1, draw(st.integers(1, 6))))
        cells = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=5))
    if draw(st.booleans()):
        cells = [[c if c is S else (c,) for c in row] for row in cells]
    return cells


class TestGrid:
    @given(small_arrays())
    def test_verify_matches_pairwise_reference(self, cells):
        assert verify_pda(Pda(cells)) == reference_verify(cells)

    @given(small_arrays())
    def test_views_match_cells(self, cells):
        p = Pda(cells)
        ids = tuple(dict.fromkeys(c for row in cells for c in row if c is not S))
        canon = {i: n for n, i in enumerate(ids, start=1)}
        assert pda_cells(p) == tuple(tuple(row) for row in cells)
        assert p.ids == ids
        assert canonical_index(p) == canon
        assert p.id_positions == {
            i: tuple((j, k) for j, row in enumerate(cells) for k, c in enumerate(row) if c == i)
            for i in ids
        }
        assert pda_cells(to_canonical(p)) == tuple(
            tuple(S if c is S else canon[c] for c in row) for row in cells
        )
        assert p.grid.tolist() == [[-1 if c is S else canon[c] - 1 for c in row] for row in cells]


def all_pairs(grid) -> tuple:
    """Every cell pair of every id, in id order, then in combination order
    over the id's row-major cells: the pair's id and (r1, c1, r2, c2), and
    whether it breaks C3a and whether it breaks C3b."""
    rows, cols, ptr = id_cells_unnarrowed(grid)
    later = np.repeat(ptr[1:], np.diff(ptr)) - np.arange(len(rows)) - 1
    i = np.repeat(np.arange(len(rows)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    r1, c1, r2, c2 = rows[i], cols[i], rows[j], cols[j]
    same = (r1 == r2) | (c1 == c2)
    uncrossed = ~same & ((grid[r1, c2] >= 0) | (grid[r2, c1] >= 0))
    return grid[r1, c1], (r1, c1, r2, c2), same, uncrossed


def full_pair_scan(grid) -> list:
    """The first C3a and the first C3b cell pair, as [j1, k1, j2, k2] or
    None, by the all-pairs scan that ran before the bit screen."""
    _, cells, same, uncrossed = all_pairs(grid)
    return [[int(x[bad.argmax()]) for x in cells] if bad.any() else None
            for bad in (same, uncrossed)]


@functools.cache
def scheme_pda(name: str) -> Pda:
    """The user-delivery array of a small complete-design or GDD scheme."""
    if name == "gdd-3-2-2":
        return build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2")).user_delivery
    if name == "gdd-3-3-2":
        return build_gdd_scheme(transversal_gdd(3, 3, 2), linear_oa(3, 3, 2)).user_delivery
    v, k, mu = map(int, name.split("-")[1:])
    return build_scheme(complete_design(v, k), mu).user_delivery


SCHEME_GRIDS = ["complete-6-3-1", "complete-6-3-2", "complete-7-3-2", "complete-7-3-3",
                "gdd-3-2-2", "gdd-3-3-2"]
# Widths around the byte boundaries of the packed rows.
WIDTHS = [1, 7, 8, 9, 17]


@st.composite
def damaged_pdas(draw, width: int):
    """A PDA ``width`` columns wide, taken from a complete-design or GDD
    scheme grid (a random choice of its columns) or from ``mn_pda``, with
    one random cell damaged: a star becomes an id, an id a star, or an id
    another id (new or present).  Ids are the integers 1..S."""
    source = draw(st.sampled_from(["mn", *SCHEME_GRIDS]))
    if source == "mn" or scheme_pda(source).num_cols < width:
        keys = mn_pda(width, draw(st.integers(0, min(width, 3)))).grid
    else:
        grid = scheme_pda(source).grid
        keys = grid[:, draw(st.permutations(range(grid.shape[1])))[:width]]
    keys = keys.astype(np.int64)
    damage = draw(st.sampled_from(["none", "star->id", "id->star", "id->id"]))
    stars = np.argwhere(keys < 0)
    held = np.argwhere(keys >= 0)
    cells = stars if damage == "star->id" else held
    if damage != "none" and len(cells):
        j, k = cells[draw(st.integers(0, len(cells) - 1))]
        if damage == "id->star":
            keys[j, k] = -1
        else:
            # an id present in the grid, or one no cell has
            keys[j, k] = draw(st.integers(0, int(keys.max()) + 1))
    return grid_pda(keys)


class TestC3Screen:
    @pytest.mark.parametrize("width", WIDTHS)
    @given(data=st.data())
    def test_verify_matches_the_full_pair_scan(self, width, data):
        pda = data.draw(damaged_pdas(width))
        ids, _, same, uncrossed = all_pairs(pda.grid)
        flagged = flag_c3(pda)
        assert set(np.flatnonzero(flagged).tolist()) == set(ids[same | uncrossed].tolist())
        assert _first_c3_violations(pda) == full_pair_scan(pda.grid)
        with mock.patch.object(pda_module, "_first_c3_violations",
                               lambda p: full_pair_scan(p.grid)):
            expected = verify_pda(pda)
        assert verify_pda(pda) == expected

    @pytest.mark.parametrize("cells", [
        # id 1 twice in column 1 and nowhere else: each of its rows has one
        # non-star cell within its columns, so only the column count sees it
        ((1, S), (1, 2)),
        ((S, 2, 3), (1, S, 3), (1, 2, S)),
        # one-cell ids next to an id repeated in its column
        ((1, 2, 3, 4, 5, 6, 7, 8, 9), (10, 11, 12, 13, 14, 15, 16, 17, 9)),
    ])
    def test_ids_repeated_within_one_column(self, cells):
        rep = verify_pda(Pda(cells))
        assert not rep.c3a_distinct_rows_cols
        assert rep == reference_verify(cells)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_cell_ids(self, width):
        pda = mn_pda(width, 0)
        assert verify_pda(pda).ok
        keys = pda.grid.astype(np.int64)
        keys[0, 0] = keys[0, -1]
        damaged = grid_pda(keys)
        assert _first_c3_violations(damaged) == full_pair_scan(damaged.grid)
        assert verify_pda(damaged).c3a_distinct_rows_cols == (width == 1)

    @pytest.mark.parametrize("name", SCHEME_GRIDS)
    def test_a_valid_array_flags_no_id(self, name):
        assert not flag_c3(scheme_pda(name)).any()

    @pytest.mark.parametrize("name", ["mn-6-2", *SCHEME_GRIDS])
    def test_verifying_a_valid_array_makes_no_label(self, monkeypatch, name):
        # C2 reads only the cells of a Pda(cells), and a valid array has no
        # violation to name
        pda = mn_pda(6, 2) if name == "mn-6-2" else scheme_pda(name)
        monkeypatch.setattr(Pda, "labels", lambda self, ids=None: pytest.fail("a label was made"))
        assert verify_pda(pda).ok


class TestStats:
    def test_reference_load(self):
        assert pda_stats(Pda(REFERENCE_6x4)).load == Fraction(2, 3)

    def test_reference_gain(self):
        assert pda_stats(Pda(REFERENCE_6x4)).gain == 3

    def test_all_star_load_zero(self):
        stats = pda_stats(Pda([[S, S], [S, S]]))
        assert stats.load == 0 and stats.gain is None

    @given(st.permutations(range(6)), st.permutations(range(4)))
    def test_invariant_under_permutations(self, rows, cols):
        base = Pda(REFERENCE_6x4)
        shuffled = Pda(
            tuple(tuple(REFERENCE_6x4[j][k] for k in cols) for j in rows)
        )
        a, b = pda_stats(base), pda_stats(shuffled)
        assert (a.load, a.gain, a.stars_per_column) == (b.load, b.gain, b.stars_per_column)


class TestCanonicalIds:
    def test_first_occurrence_order(self):
        p = Pda((((2, 3), S), (S, (1, 2))))
        assert canonical_index(p) == {(2, 3): 1, (1, 2): 2}
        assert pda_cells(to_canonical(p)) == ((1, S), (S, 2))

    @pytest.mark.parametrize("build, cell, label", [
        # a point past 9 lists the points in braces
        (lambda: build_scheme(complete_design(11, 2), 1), (1, 1), "123"),
        (lambda: build_scheme(complete_design(11, 2), 1), (1, 8), "{1,2,10}"),
        (lambda: build_scheme(catalog_design("fano-7-3-1"), 1), (0, 1), "123"),
        # index 2: every id shows its copy
        (lambda: build_scheme(catalog_design("biplane-7-4-2"), 1), (0, 1), "123,1"),
        (lambda: build_scheme(catalog_design("biplane-7-4-2"), 1), (0, 2), "134,2"),
        # GDD ids show their copies only when some id has a second
        (lambda: build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2")),
         (0, 5), "221"),
        (lambda: build_gdd_scheme(transversal_gdd(3, 3, 2), trivial_oa(3, 3)),
         (5, 9), "221,2"),
        (lambda: build_gdd_scheme(transversal_gdd(3, 3, 2), trivial_oa(3, 3)),
         (0, 7), "221,1"),
    ], ids=["complete-11-2-small", "complete-11-2-ten", "fano", "biplane-1", "biplane-2",
            "gdd-3-2-2", "gdd-3-3-2-copy-2", "gdd-3-3-2-copy-1"])
    def test_built_labels_as_rendered(self, build, cell, label):
        scheme = build()
        j, k = cell
        assert scheme.user_delivery.cell(j, k) == label
        table = render_scheme_delivery(scheme).splitlines()
        assert table[j + 1].split()[k + 1] == label

    def test_mn_canonical_is_identity(self):
        p = mn_pda(5, 2)
        assert pda_cells(to_canonical(p)) == pda_cells(p)


class TestSubsetRank:
    def test_known_ranks(self):
        assert subset_ranks([(1, 2, 3), (2, 3, 4)], 4).tolist() == [0, 3]

    @given(st.integers(1, 9), st.data())
    def test_matches_enumeration(self, n, data):
        import itertools

        r = data.draw(st.integers(1, n))
        subsets = list(itertools.combinations(range(1, n + 1), r))
        picks = data.draw(st.lists(st.integers(0, len(subsets) - 1), min_size=1))
        assert subset_ranks([subsets[i] for i in picks], n).tolist() == picks


# -- narrowed sort keys ----------------------------------------------------

def number_unnarrowed(keys) -> tuple:
    """The numbering by ``np.unique`` on the keys as given: the grid, and
    the row-major flat index of the first cell of each id."""
    flat = keys.ravel()
    cells = np.flatnonzero(flat >= 0)
    _, first, inverse = np.unique(flat[cells], return_index=True, return_inverse=True)
    order = np.argsort(first)
    grid = np.full(keys.shape, -1, dtype=np.int32)
    grid.ravel()[cells] = np.argsort(order)[inverse]
    return grid, cells[first[order]]


def first_cells(pda) -> np.ndarray:
    """The row-major flat index of the first cell of each id, from the CSR."""
    rows, cols, ptr = pda.csr
    return rows[ptr[:-1]].astype(np.intp) * pda.num_cols + cols[ptr[:-1]]


def id_cells_unnarrowed(grid) -> tuple:
    """The CSR of a canonical grid by a stable sort of its ids at their own
    width, rows and cols as ``intp``."""
    flat = grid.ravel()
    cells = np.flatnonzero(flat >= 0)
    ids = flat[cells]
    rows, cols = np.divmod(cells[np.argsort(ids, kind="stable")], grid.shape[1])
    ptr = np.zeros(int(grid.max()) + 2, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=len(ptr) - 1), out=ptr[1:])
    return rows, cols, ptr


# Each unsigned type, and the bound that the keys narrowed to it stay below.
_WIDTHS = [(np.uint8, 1 << 8), (np.uint16, 1 << 16), (np.uint32, 1 << 32),
           (np.uint64, 1 << 63)]


@st.composite
def key_grids(draw):
    """An F x K int64 key grid, -1 a star, whose largest key needs the
    drawn unsigned width; the keys are single words or, as the GDD schemes
    make them, vectors of m digits below 4, folded here into one key base 4."""
    width, (dtype, top) = draw(st.sampled_from(list(enumerate(_WIDTHS))))
    f, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()) or width == 3:
        pool = draw(st.lists(st.integers(0, top - 1), min_size=1, max_size=6))
        keys = np.array(pool, dtype=np.int64)[draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=f * k, max_size=f * k))]
        largest = draw(st.integers(_WIDTHS[width - 1][1] if width else 0, top - 1))
    else:  # (f*k) x m digits, each vector one key below 4^m
        m = draw(st.integers(2, 4))
        digits = draw(st.lists(st.integers(0, 3), min_size=f * k * m, max_size=f * k * m))
        keys = np.array(digits).reshape(-1, m) @ 4 ** np.arange(m)
        largest = int(keys.max())
        dtype = np.min_scalar_type(largest)
    keys = keys.reshape(f, k)
    stars = draw(st.lists(st.booleans(), min_size=f * k, max_size=f * k))
    keys[np.array(stars).reshape(f, k)] = -1
    keys[draw(st.integers(0, f - 1)), draw(st.integers(0, k - 1))] = largest
    return keys, dtype


class TestNarrowedKeys:
    @given(key_grids())
    def test_numbering_equals_the_unnarrowed_code(self, drawn):
        keys, dtype = drawn
        assert _narrow(keys[keys >= 0]).dtype == dtype
        p = grid_pda(keys)
        grid, first = number_unnarrowed(keys)
        assert p.grid.dtype == np.int32
        assert p.grid.tobytes() == grid.tobytes()
        assert np.array_equal(first_cells(p), first)

    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1 << 8, 1 << 16, 1 << 17]),
           st.data())
    def test_id_cells_equal_the_unnarrowed_code(self, f, k, top, data):
        # keys are sparse here, up to 2^17, so that they sort as uint8,
        # uint16 and uint32
        keys = np.array(data.draw(st.lists(st.integers(-1, top - 1), min_size=f * k,
                                           max_size=f * k)), dtype=np.int32).reshape(f, k)
        keys[data.draw(st.integers(0, f - 1)), data.draw(st.integers(0, k - 1))] = top - 1
        assert _narrow(keys[keys >= 0]).dtype == np.min_scalar_type(top - 1)
        got = id_cells(keys >= 0, keys[keys >= 0])
        want = id_cells_unnarrowed(number_unnarrowed(keys)[0])
        assert [a.dtype for a in got[:2]] == [np.int32, np.int32]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @settings(max_examples=200)
    @given(st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
           st.sampled_from([1, 3, 100, 1 << 15, 1 << 40]), st.data())
    def test_from_keys_matches_the_unique_oracle(self, f, k, dtype, keys_below, data):
        # random key grids of each signed width (-1 a star), keys below the
        # drawn bound where the width holds it
        top = min(keys_below, int(np.iinfo(dtype).max))
        keys = np.array(data.draw(st.lists(st.integers(-1, top - 1) | st.just(-1),
                                           min_size=f * k, max_size=f * k)),
                        dtype=dtype).reshape(f, k)
        p = grid_pda(keys)
        grid, first = number_unnarrowed(keys.astype(np.int64))
        assert p.grid.dtype == np.int32 and np.array_equal(p.grid, grid)
        assert np.array_equal(first_cells(p), first)
        assert [a.dtype for a in p.csr[:2]] == [np.int32, np.int32]
        assert all(np.array_equal(a, b) for a, b in zip(p.csr, id_cells_unnarrowed(grid)))

    @pytest.mark.parametrize("build", [
        lambda: build_scheme(complete_design(13, 3), 4),
        lambda: build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2")),
        # 10 coordinates of 7 bits: two words per id vector
        lambda: build_gdd_scheme(transversal_gdd(10, 67, 1), linear_oa(10, 67, 1)),
    ], ids=["complete-13-3-4", "gdd-3-2-2", "gdd-10-67-1"])
    def test_schemes_are_built_as_without_narrowing(self, monkeypatch, build):
        narrowed = build()
        monkeypatch.setattr(pda_module, "_narrow", lambda keys: keys)
        wide = build()
        assert narrowed.user_delivery.grid.tobytes() == wide.user_delivery.grid.tobytes()
        assert narrowed.user_delivery.labels() == wide.user_delivery.labels()
        for got, want in zip(narrowed.user_delivery.csr,
                             id_cells_unnarrowed(wide.user_delivery.grid)):
            assert np.array_equal(got, want)


# -- key columns -----------------------------------------------------------

# Pools of column values by type; the uint64 values sit above 2^53, where
# neighbours are one float64 apart or less, so a column cast to float64 with
# an int64 one (as np.column_stack casts them) would merge them.
_COLUMN_POOLS = {
    np.uint8: [0, 1, 2, 255],
    np.int64: [0, 1, 3, (1 << 62) + 1],
    np.uint64: [1 << 53, (1 << 53) + 1, (1 << 64) - 2, (1 << 64) - 1],
}


@st.composite
def key_columns(draw):
    """An F x K mask of missed cells and w key columns of its n missed
    cells, each of its own type, with a uint64 column beside an int64 one
    in each draw of two or more columns."""
    f, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    missed = np.array(draw(st.lists(st.booleans(), min_size=f * k, max_size=f * k))).reshape(f, k)
    missed[draw(st.integers(0, f - 1)), draw(st.integers(0, k - 1))] = True
    n = int(missed.sum())
    types = draw(st.lists(st.sampled_from(list(_COLUMN_POOLS)), min_size=1, max_size=4))
    if len(types) > 1:
        types[:2] = draw(st.permutations([np.uint64, np.int64]))
    columns = [np.array(draw(st.lists(st.sampled_from(_COLUMN_POOLS[t]), min_size=n, max_size=n)),
                        dtype=t) for t in types]
    return missed, columns


def unique_rows(columns) -> np.ndarray:
    """The rank of each row of the key columns among the distinct rows in
    lexicographic order, by ``np.unique`` on the columns held exactly as
    uint64."""
    rows = np.column_stack([c.astype(np.uint64) for c in columns])
    return np.unique(rows, axis=0, return_inverse=True)[1].ravel()


class TestKeyColumns:
    @settings(max_examples=200)
    @given(key_columns())
    def test_groups_match_the_unique_oracle(self, drawn):
        _, columns = drawn
        inverse = unique_rows(columns)
        order, starts = _groups(columns)
        assert order.dtype == np.int32
        assert np.array_equal(order, np.argsort(inverse, kind="stable"))
        assert np.array_equal(starts, np.flatnonzero(np.diff(inverse[order], prepend=-1)))
        if len(columns) == 1:  # one column given bare is the same grouping
            assert all(np.array_equal(a, b) for a, b in zip(_groups(columns[0]), (order, starts)))

    @settings(max_examples=200)
    @given(key_columns())
    def test_id_cells_match_the_unique_oracle(self, drawn):
        missed, columns = drawn
        keys = np.full(missed.shape, -1, dtype=np.int64)
        keys[missed] = unique_rows(columns)
        want = id_cells_unnarrowed(number_unnarrowed(keys)[0])
        assert all(np.array_equal(a, b) for a, b in zip(id_cells(missed, columns), want))
        assert all(np.array_equal(a, b) for a, b in zip(Pda.from_keys(missed, columns).csr, want))

    @settings(max_examples=200)
    @given(key_columns())
    def test_occurrences_match_the_unique_oracle(self, drawn):
        _, columns = drawn
        seen, want = {}, []
        for g in unique_rows(columns).tolist():
            seen[g] = seen.get(g, 0) + 1
            want.append(seen[g])
        assert occurrences(columns).tolist() == want
