import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from macc.errors import InvalidParametersError, NotAPdaError
from macc.pda import (
    CountedSubsetId,
    CountedVectorId,
    Pda,
    PdaVerification,
    STAR,
    SubsetId,
    mn_pda,
    pda_stats,
    subset_ranks,
    verify_pda,
)

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
        assert mn_pda(4, 2).cells == REFERENCE_6x4

    def test_zero_cache_unicasts(self):
        p = mn_pda(5, 0)
        assert p.num_rows == 1
        assert p.cells[0] == (1, 2, 3, 4, 5)
        stats = pda_stats(p)
        assert (stats.stars_per_column, stats.num_messages) == (0, 5)

    def test_full_cache_all_star(self):
        p = mn_pda(3, 3)
        assert p.cells == ((S, S, S),)
        rep = verify_pda(p)
        assert rep.ok and rep.degenerate and rep.num_messages == 0

    def test_out_of_range(self):
        with pytest.raises(InvalidParametersError):
            mn_pda(4, 5)

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
    (mostly violating), with ids as ints or as SubsetIds."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        base = mn_pda(k, draw(st.integers(0, k)))
        rows = draw(st.permutations(range(base.num_rows)))
        cols = draw(st.permutations(range(k)))
        relabel = draw(st.permutations(range(1, base.num_ids + 1)))
        base = base.cells
        cells = [[base[j][c] if base[j][c] is S else relabel[base[j][c] - 1]
                  for c in cols] for j in rows]
    else:
        k = draw(st.integers(1, 5))
        cell = st.one_of(st.just(S), st.integers(1, draw(st.integers(1, 6))))
        cells = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=5))
    if draw(st.booleans()):
        cells = [[c if c is S else SubsetId((c,)) for c in row] for row in cells]
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
        assert p.cells == tuple(tuple(row) for row in cells)
        assert p.ids == ids
        assert canonical_index(p) == canon
        assert p.id_positions == {
            i: tuple((j, k) for j, row in enumerate(cells) for k, c in enumerate(row) if c == i)
            for i in ids
        }
        assert to_canonical(p).cells == tuple(
            tuple(S if c is S else canon[c] for c in row) for row in cells
        )
        assert p.grid.tolist() == [[-1 if c is S else canon[c] - 1 for c in row] for row in cells]


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
        p = Pda(((SubsetId((2, 3)), S), (S, SubsetId((1, 2)))))
        assert canonical_index(p) == {SubsetId((2, 3)): 1, SubsetId((1, 2)): 2}
        assert to_canonical(p).cells == ((1, S), (S, 2))

    def test_structured_id_display(self):
        assert str(SubsetId((1, 2, 3))) == "123"
        assert str(SubsetId((1, 10))) == "{1,10}"
        assert str(CountedSubsetId((1, 2, 6), 2)) == "126,2"
        assert CountedVectorId((2, 2, 1), 1).display(False) == "221"
        assert CountedVectorId((2, 2, 1), 2).display(True) == "221,2"

    def test_mn_canonical_is_identity(self):
        p = mn_pda(5, 2)
        assert to_canonical(p).cells == p.cells


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
