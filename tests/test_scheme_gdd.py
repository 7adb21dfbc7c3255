import itertools
import math
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from macc.designs import (
    GroupDivisibleDesign,
    OrthogonalArray,
    catalog_gdd,
    catalog_oa,
    linear_oa,
    transversal_gdd,
    trivial_oa,
)
from macc.errors import InvalidInputError, InvalidParametersError, UnsupportedParametersError
from macc.pda import CountedVectorId, Pda, STAR, verify_pda
from macc.render import render_scheme_delivery
from macc.scheme_gdd import GddSchemeParams, build_gdd_scheme, gdd_row_labels, gdd_tradeoff
from macc.simulate import reach

GOLDEN = pathlib.Path(__file__).parent / "golden"


def small_scheme():
    return build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2"))


# Closed forms of the paper with no array behind them, kept here as oracles.

@dataclass
class SharedLinkGddPoint:
    memory_ratio: Fraction
    load: Fraction
    load_is_bound: bool
    num_messages: int
    messages_exact: bool
    case: str


def shared_link_gdd_tradeoff(params: GddSchemeParams) -> SharedLinkGddPoint:
    """Shared-link reading of the GDD scheme.  The message count S has a
    closed form in two parameter families; elsewhere only the
    (q-1)^t * q^m bound is asserted."""
    m, q, l, t, s = (
        params.num_groups, params.group_size, params.access_degree,
        params.strength, params.placement_strength,
    )
    f = params.subpacketization
    if l == t and s == m - 1:
        messages = (q - 1) ** t * q ** (m - 1)
        return SharedLinkGddPoint(
            params.coverage_ratio, Fraction(messages, f), False, messages, True,
            "L=t, s=m-1",
        )
    if l == t and s + t == m and s > t:
        messages = (q**t - 1) * q ** (m - t)
        return SharedLinkGddPoint(
            params.coverage_ratio, Fraction(messages, f), False, messages, True,
            "L=t, s+t=m, s>t",
        )
    bound = (q - 1) ** t * q**m
    return SharedLinkGddPoint(
        params.coverage_ratio, Fraction(bound, f), True, bound, False,
        "s=m" if s == m else "general",
    )


@dataclass
class CrsComparison:
    load_crs: Fraction
    load_gdd: Fraction
    ratio: Fraction
    favors_crs: bool


def crs_comparison(num_groups: int, group_size: int, strength: int) -> CrsComparison:
    """Load of the cross-resolvable-design scheme, C(m,t)((q-1)/2)^t, against
    this construction at the same memory point (L = t, s = m-1), (q-1)^t.
    The ratio dips below 1 exactly when t <= m/2; larger t is flagged."""
    m, q, t = num_groups, group_size, strength
    if not 1 <= t <= m:
        raise InvalidParametersError(f"need 1 <= t <= m, got t={t}, m={m}")
    load_crs = math.comb(m, t) * Fraction(q - 1, 2) ** t
    load_gdd = Fraction((q - 1) ** t)
    ratio = Fraction(2**t, math.comb(m, t))
    return CrsComparison(load_crs, load_gdd, ratio, favors_crs=t > Fraction(m, 2))


class TestParams:
    def test_derived_counts(self):
        p = GddSchemeParams(3, 2, 2, 2, 2, 12)
        assert (p.num_users, p.subpacketization, p.stars_per_user) == (12, 4, 3)
        assert p.node_memory_ratio == Fraction(1, 2)
        assert p.coverage_ratio == Fraction(3, 4)

    def test_ordering_guard(self):
        with pytest.raises(InvalidParametersError):
            GddSchemeParams(3, 2, 2, 2, 4, 12)  # s > m

    def test_divisibility_guard(self):
        with pytest.raises(InvalidParametersError):
            GddSchemeParams(5, 2, 4, 2, 5, 8)  # C(4,2) does not divide C(5,2)*4


class TestNodePlacement:
    def test_reference_pattern(self):
        grid = small_scheme().node_placement
        assert grid.shape == (4, 6)
        # columns C_{1,1} C_{1,2} C_{2,1} C_{2,2} C_{3,1} C_{3,2}
        expected = [
            [1, 0, 1, 0, 1, 0],
            [0, 1, 1, 0, 0, 1],
            [1, 0, 0, 1, 0, 1],
            [0, 1, 0, 1, 1, 0],
        ]
        assert grid.astype(int).tolist() == expected

    def test_column_star_counts(self):
        grid = small_scheme().node_placement
        assert grid.sum(axis=0).tolist() == [2] * 6

    def test_row_star_counts_equal_groups(self):
        # L = 2, t = 1: groups 1, 2 and groups 3, 4 paired by value
        gdd = GroupDivisibleDesign(4, 3, tuple(
            ((u, v), (u + 1, v)) for u in (1, 3) for v in (1, 2, 3)), strength=1, index=1)
        grid = build_gdd_scheme(gdd, trivial_oa(4, 3)).node_placement
        assert set(grid.sum(axis=1).tolist()) == {4}

    def test_degenerate_single_symbol(self):
        oa = OrthogonalArray(1, 2, 1, ((1, 1, 1),))
        grid = build_gdd_scheme(transversal_gdd(3, 1, 2), oa).node_placement
        assert grid.all()

    def test_group_columns_partition_rows(self):
        grid = build_gdd_scheme(transversal_gdd(3, 3, 2), linear_oa(3, 3, 2)).node_placement
        q = 3
        for u in range(3):
            block = grid[:, u * q:(u + 1) * q]
            assert (block.sum(axis=1) == 1).all()


class TestUserRetrieve:
    def test_reference_pattern(self):
        scheme = small_scheme()
        grid = reach(scheme.node_placement, scheme.user_nodes)
        expected = [
            [1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0],
            [1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1],
            [1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1],
            [0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1],
        ]
        assert grid.astype(int).tolist() == expected

    def test_column_star_formula(self):
        cases = [
            (transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2")),
            (transversal_gdd(3, 3, 2), linear_oa(3, 3, 2)),
            (transversal_gdd(4, 2, 2), trivial_oa(4, 2)),
            (catalog_gdd("gdd-3-2-3-1"), trivial_oa(3, 2)),
        ]
        for gdd, oa in cases:
            scheme = build_gdd_scheme(gdd, oa)
            grid = reach(scheme.node_placement, scheme.user_nodes)
            q, l, s = oa.num_symbols, gdd.block_size, oa.strength
            expected = (q**s - (q - 1) ** l * q ** (s - l)) * math.comb(l, gdd.strength)
            assert grid.sum(axis=0).tolist() == [expected] * gdd.num_blocks

    def test_single_node_access_matches_placement(self):
        gdd = transversal_gdd(3, 2, 1)
        oa = catalog_oa("oa-3-2-2")
        scheme = build_gdd_scheme(gdd, oa)
        retrieve = reach(scheme.node_placement, scheme.user_nodes)
        placement = scheme.node_placement
        # blocks of a 1-design are single points (u, v), column (u-1)*q + v-1
        for k, ((u, v),) in enumerate(gdd.blocks):
            assert scheme.user_nodes[k].tolist() == [(u - 1) * 2 + v - 1]
            assert (retrieve[:, k] == placement[:, scheme.user_nodes[k, 0]]).all()

    def test_frame_mismatch(self):
        with pytest.raises(InvalidInputError):
            build_gdd_scheme(transversal_gdd(4, 2, 2), catalog_oa("oa-3-2-2"))


class TestUserDelivery:
    def test_matches_reference_table(self):
        text = render_scheme_delivery(small_scheme()) + "\n"
        assert text == (GOLDEN / "gdd_user_delivery.txt").read_text()

    def test_is_12_4_3_4(self):
        rep = verify_pda(small_scheme().user_delivery)
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (12, 4, 3, 4)

    def test_index_two_gdd_rejected(self):
        # every point lies in two of the four blocks
        gdd = GroupDivisibleDesign(
            2, 2,
            (((1, 1), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 2), (2, 2))),
            strength=1, index=2,
        )
        with pytest.raises(UnsupportedParametersError):
            build_gdd_scheme(gdd, trivial_oa(2, 2))

    def test_vector_occurrences_bounded_per_column(self):
        for gdd, oa in [
            (transversal_gdd(3, 3, 2), linear_oa(3, 3, 2)),
            (transversal_gdd(4, 2, 2), trivial_oa(4, 2)),
            (catalog_gdd("gdd-3-2-3-1"), trivial_oa(3, 2)),
        ]:
            pda = build_gdd_scheme(gdd, oa).user_delivery
            q, t = oa.num_symbols, gdd.strength
            for k in range(pda.num_cols):
                seen = {}
                for j in range(pda.num_rows):
                    c = pda.cell(j, k)
                    if c is not STAR:
                        seen[c.symbols] = seen.get(c.symbols, 0) + 1
                assert all(n <= (q - 1) ** t for n in seen.values())

    def test_counted_messages_exact_when_l_equals_t_high_strength(self):
        # full-strength-minus-one placement: S = (q-1)^t q^(m-1)
        scheme = build_gdd_scheme(transversal_gdd(3, 3, 2), linear_oa(3, 3, 2))
        assert scheme.counted_messages == 4 * 9

    def test_counted_messages_exact_when_strength_plus_t_is_m(self):
        # s + t = m with s > t: S = (q^t - 1) q^(m-t)
        scheme = build_gdd_scheme(transversal_gdd(3, 3, 1), linear_oa(3, 3, 2))
        assert scheme.counted_messages == 2 * 9
        scheme2 = build_gdd_scheme(transversal_gdd(3, 2, 1), catalog_oa("oa-3-2-2"))
        assert scheme2.counted_messages == 1 * 4

    def test_bound_respected(self):
        scheme = build_gdd_scheme(transversal_gdd(4, 2, 2), trivial_oa(4, 2))
        assert scheme.counted_messages <= scheme.message_bound == 16


class TestLoads:
    def test_tradeoff_large_rows(self):
        t = gdd_tradeoff(GddSchemeParams(15, 5, 3, 2, 15, 875))
        assert t.node_memory_ratio == Fraction(1, 5)
        assert t.coverage_ratio == Fraction(61, 125)
        assert t.load == Fraction(16, 3)
        p = GddSchemeParams(15, 5, 3, 2, 15, 875)
        assert p.num_users == 875
        assert p.subpacketization == 3 * 5**15

    def test_tradeoff_m16_q4(self):
        p = GddSchemeParams(16, 4, 3, 2, 16, 640)
        assert p.num_users == 640
        assert p.coverage_ratio == Fraction(37, 64)
        assert gdd_tradeoff(p).load == 3

    def test_binary_full_strength(self):
        p = GddSchemeParams(4, 2, 2, 2, 4, 4)
        assert gdd_tradeoff(p).load == Fraction(1, 1)

    def test_shared_link_case_one(self):
        point = shared_link_gdd_tradeoff(GddSchemeParams(3, 3, 2, 2, 2, 9))
        assert point.case == "L=t, s=m-1"
        assert point.messages_exact and point.num_messages == 36
        assert point.load == Fraction(36, 9) == 4

    def test_shared_link_case_overlap_at_t_one(self):
        # s = m-1 and s+t = m coincide at t = 1 and give the same count
        point = shared_link_gdd_tradeoff(GddSchemeParams(3, 3, 1, 1, 2, 9))
        assert point.messages_exact and point.num_messages == 18
        assert point.load == 2

    def test_shared_link_case_two(self):
        point = shared_link_gdd_tradeoff(GddSchemeParams(5, 5, 2, 2, 3, 250))
        assert point.case == "L=t, s+t=m, s>t"
        assert point.num_messages == (5**2 - 1) * 5**3
        assert point.load == 5**2 - 1

    def test_shared_link_full_strength_is_bound(self):
        point = shared_link_gdd_tradeoff(GddSchemeParams(4, 2, 2, 2, 4, 4))
        assert point.load_is_bound
        assert point.load == Fraction((2 - 1) ** 2 * 2**4, 2**4)

    def test_shared_link_cases_match_counted(self):
        # closed forms agree with the arrays they describe
        s1 = build_gdd_scheme(transversal_gdd(3, 3, 2), linear_oa(3, 3, 2))
        assert shared_link_gdd_tradeoff(s1.params).num_messages == s1.counted_messages
        s2 = build_gdd_scheme(transversal_gdd(3, 3, 1), linear_oa(3, 3, 2))
        assert shared_link_gdd_tradeoff(s2.params).num_messages == s2.counted_messages
        s3 = build_gdd_scheme(transversal_gdd(5, 5, 2), linear_oa(5, 5, 3))
        assert shared_link_gdd_tradeoff(s3.params).num_messages == s3.counted_messages == 3000


class TestCrsComparison:
    def test_m4_q3_t2(self):
        c = crs_comparison(4, 3, 2)
        assert c.load_crs == 6
        assert c.load_gdd == 4
        assert c.ratio == Fraction(2, 3)
        assert not c.favors_crs

    def test_full_strength_flagged(self):
        c = crs_comparison(3, 2, 3)
        assert c.ratio == Fraction(8, 1)
        assert c.favors_crs

    def test_m6_q2_t2(self):
        c = crs_comparison(6, 2, 2)
        assert c.load_crs == Fraction(15, 4)
        assert c.load_gdd == 1
        assert c.ratio == Fraction(4, 15)


class TestRowLabels:
    def test_t_major_order(self):
        labels = gdd_row_labels(catalog_oa("oa-3-2-2"), 3, 2)
        assert labels[0] == (1, (1, 2))
        assert labels[3] == (4, (1, 2))
        assert labels[4] == (1, (1, 3))
        assert len(labels) == 12


def _reference_misses(oa_row, groups, values):
    return sum(1 for u, v in zip(groups, values) if oa_row[u - 1] != v)


def reference_gdd_user_retrieve(gdd, oa):
    """U by the per-cell loop: block B retrieves row j unless j misses B on
    all of its L coordinates."""
    labels = gdd_row_labels(oa, gdd.block_size, gdd.strength)
    grid = np.zeros((len(labels), gdd.num_blocks), dtype=bool)
    l = gdd.block_size
    meta = [tuple(zip(*block)) for block in gdd.blocks]
    for r, (j, _) in enumerate(labels):
        for k, (groups, values) in enumerate(meta):
            if _reference_misses(oa.rows[j - 1], groups, values) < l:
                grid[r, k] = True
    return grid


def reference_gdd_user_delivery(gdd, oa, t):
    """Q with one CountedVectorId per cell, numbered by ``Pda(cells)``."""
    labels = gdd_row_labels(oa, gdd.block_size, t)
    l = gdd.block_size
    meta = [tuple(zip(*block)) for block in gdd.blocks]
    cells = [[STAR] * gdd.num_blocks for _ in range(len(labels))]
    for k, (groups, values) in enumerate(meta):
        copies = {}
        for r, (j, tt) in enumerate(labels):
            row = oa.rows[j - 1]
            if _reference_misses(row, groups, values) < l:
                continue
            e = list(row)
            for h in tt:
                e[groups[h - 1] - 1] = values[h - 1]
            e = tuple(e)
            copies[e] = n = copies.get(e, 0) + 1
            cells[r][k] = CountedVectorId(e, n)
    return Pda(cells)


def assert_gdd_matches_reference(gdd, oa):
    scheme = build_gdd_scheme(gdd, oa)
    ref = reference_gdd_user_delivery(gdd, oa, gdd.strength)
    assert np.array_equal(scheme.user_delivery.grid, ref.grid)
    assert scheme.user_delivery.ids == ref.ids
    assert np.array_equal(scheme.user_retrieve, reference_gdd_user_retrieve(gdd, oa))


def random_rows_oa(m, q, seed):
    """A strength-1 OA with random rows: each column an independent random
    permutation of the q symbols."""
    rng = np.random.default_rng(seed)
    columns = [rng.permutation(q) + 1 for _ in range(m)]
    return OrthogonalArray(q, 1, 1, tuple(zip(*(c.tolist() for c in columns))))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("gdd, oa", [
        pytest.param(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2"), id="3-2-2-oa322"),
        pytest.param(transversal_gdd(3, 2, 1), catalog_oa("oa-3-2-2"), id="3-2-1-oa322"),
        pytest.param(catalog_gdd("gdd-3-2-3-1"), trivial_oa(3, 2), id="gdd-3-2-3-1"),
        pytest.param(transversal_gdd(3, 3, 2), linear_oa(3, 3, 2), id="3-3-2-linear"),
        pytest.param(transversal_gdd(3, 3, 1), linear_oa(3, 3, 2), id="3-3-1-linear"),
        pytest.param(transversal_gdd(4, 2, 2), trivial_oa(4, 2), id="4-2-2-trivial"),
        pytest.param(transversal_gdd(5, 5, 2), linear_oa(5, 5, 3), id="5-5-2-linear"),
        # 17^17 vectors do not fit one int64
        pytest.param(transversal_gdd(17, 17, 1), linear_oa(17, 17, 2), id="17-17-1-linear"),
        # The id vectors pack in b = ceil(log2 q)-bit fields, 63 // b to a
        # word: symbol q fills its field at q = 4 and q = 8, and at q = 9
        # (b = 4) sixteen groups spill past 15 fields into a second word.
        pytest.param(transversal_gdd(5, 4, 1), random_rows_oa(5, 4, 1), id="5-4-1-random"),
        pytest.param(transversal_gdd(4, 8, 1), random_rows_oa(4, 8, 2), id="4-8-1-random"),
        pytest.param(transversal_gdd(16, 9, 1), random_rows_oa(16, 9, 3), id="16-9-1-random"),
    ])
    def test_builders_match_object_cell_reference(self, gdd, oa):
        assert_gdd_matches_reference(gdd, oa)

    @given(st.data())
    def test_random_gdds_match_reference(self, data):
        m = data.draw(st.integers(2, 4))
        q = data.draw(st.integers(2, 3))
        s = data.draw(st.integers(1, m))
        l = data.draw(st.integers(1, s))
        t = data.draw(st.integers(1, l))
        rows = data.draw(st.lists(
            st.tuples(*[st.integers(1, q)] * m), min_size=q**s, max_size=q**s,
        ))
        blocks = data.draw(st.lists(st.builds(
            lambda gs, vs: tuple(zip(gs, vs)),
            st.sampled_from(list(itertools.combinations(range(1, m + 1), l))),
            st.tuples(*[st.integers(1, q)] * l),
        ), min_size=1, max_size=12))
        assume(math.comb(m, t) * q**t % math.comb(l, t) == 0)  # an integer user count
        gdd = GroupDivisibleDesign(m, q, tuple(blocks), strength=t)
        oa = OrthogonalArray(q, s, 1, tuple(rows))
        # The blocks and rows are arbitrary, so the builder runs without its
        # topology checks.
        with mock.patch("macc.scheme_gdd.require_match"):
            scheme = build_gdd_scheme(gdd, oa)
        got = scheme.user_delivery
        ref = reference_gdd_user_delivery(gdd, oa, t)
        assert np.array_equal(got.grid, ref.grid) and got.ids == ref.ids
        assert np.array_equal(reach(scheme.node_placement, scheme.user_nodes),
                              reference_gdd_user_retrieve(gdd, oa))
