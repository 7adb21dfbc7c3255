import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from macc import designs
from macc.designs import (
    Design,
    DesignVerification,
    GddVerification,
    GroupDivisibleDesign,
    OaVerification,
    OrthogonalArray,
    ResolvableDesign,
    ResolvableVerification,
    catalog_design,
    catalog_design_names,
    catalog_gdd,
    catalog_oa,
    check_divisibility,
    complete_design,
    dual_of_gdd,
    dual_of_resolvable,
    linear_oa,
    oa_to_resolvable,
    resolvable_to_oa,
    transversal_gdd,
    trivial_oa,
    verify_gdd,
    verify_oa,
    verify_resolvable,
    verify_t_design,
)
from macc.errors import (
    InvalidInputError,
    InvalidParametersError,
    NotFoundError,
    UnsupportedParametersError,
)

from canonical import canonical

# The 2-(4,2,6,3,1) cross resolvable design used by the duality fixtures.
EXAMPLE_RESOLVABLE = ResolvableDesign(
    4,
    (
        ((1, 3), (2, 4)),
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    ),
    strength=2,
    cross_number=1,
)

OA_322_ROWS = ((1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1))


class TestCompleteDesign:
    def test_all_pairs_of_four(self):
        d = complete_design(4, 2)
        assert d.blocks == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        assert (d.strength, d.index) == (2, 1)

    def test_block_count_7_3(self):
        assert complete_design(7, 3).num_blocks == 35

    def test_degenerate_single_block(self):
        d = complete_design(5, 5)
        assert d.blocks == ((1, 2, 3, 4, 5),)

    def test_oversized_block_rejected(self):
        with pytest.raises(InvalidParametersError):
            complete_design(3, 4)

    def test_budget_is_200_plus_24_bytes_per_block_point_and_240_per_point(self):
        # complete:7,3 is charged 35 x (200 + 24 x 3) + 7 x 240 = 11,200 bytes
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 11_200):
            assert complete_design(7, 3).num_blocks == 35
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 11_199):
            with pytest.raises(UnsupportedParametersError, match=re.escape(
                    "the 3-subsets of 7 points need over 11199 bytes")):
                complete_design(7, 3)

    def test_builds_what_the_older_charge_refused(self):
        # 300 + 60 x 6 bytes a block charged complete:12,6 924 x 660 =
        # 609,840 bytes; the measured charge is 924 x 344 + 12 x 240
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 400_000):
            d = complete_design(12, 6)
            with pytest.raises(UnsupportedParametersError):
                complete_design(13, 6)  # 1,716 blocks, 593,424 bytes
        assert d.num_blocks == 924 and verify_t_design(d, 6, 1).ok

    def test_complete_23_10_reaches_the_enumeration(self):
        # 1,144,066 blocks x 440 bytes + 23 x 240 = 503,394,560, under 2^30
        with mock.patch("macc.designs.itertools.combinations", side_effect=StopIteration):
            with pytest.raises(StopIteration):
                complete_design(23, 10)


class TestCatalog:
    def test_fano_blocks(self):
        d = catalog_design("fano-7-3-1")
        assert d.blocks == (
            (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7), (1, 3, 7),
        )

    def test_affine_blocks(self):
        d = catalog_design("affine-9-3-1")
        assert d.num_blocks == 12
        assert d.blocks[:3] == ((1, 4, 7), (2, 5, 8), (3, 6, 9))

    def test_biplane_blocks(self):
        d = catalog_design("biplane-7-4-2")
        assert d.blocks == (
            (1, 2, 3, 5), (2, 3, 4, 6), (3, 4, 5, 7), (1, 4, 5, 6),
            (2, 5, 6, 7), (1, 3, 6, 7), (1, 2, 4, 7),
        )

    def test_unknown_name(self):
        with pytest.raises(NotFoundError):
            catalog_design("projective-13-4-1")

    @pytest.mark.parametrize("name", catalog_design_names())
    def test_catalog_tags_verify(self, name):
        d = catalog_design(name)
        assert verify_t_design(d, d.strength, d.index).ok

    @pytest.mark.parametrize("name", catalog_design_names())
    def test_catalog_divisibility(self, name):
        d = catalog_design(name)
        assert check_divisibility(d.strength, d.block_size, d.index, d.num_points)


class TestVerifyTDesign:
    def test_fano_replication(self):
        rep = verify_t_design(catalog_design("fano-7-3-1"), 2, 1)
        assert rep.ok
        assert rep.replication == 3
        assert rep.derived_indices == {1: Fraction(3), 2: Fraction(1)}

    def test_pairs_design(self):
        assert verify_t_design(complete_design(5, 2), 2, 1).ok

    def test_wrong_index_fails_at_first_pair(self):
        rep = verify_t_design(catalog_design("fano-7-3-1"), 2, 2)
        assert not rep.ok
        assert "{1, 2}" in rep.first_violation

    def test_biplane_index_two(self):
        rep = verify_t_design(catalog_design("biplane-7-4-2"), 2, 2)
        assert rep.ok
        assert rep.replication == 4

    def test_replication_identity(self):
        # K * L = r * v for every verified catalog design
        for name in catalog_design_names():
            d = catalog_design(name)
            rep = verify_t_design(d, d.strength, d.index)
            assert d.num_blocks * d.block_size == rep.replication * d.num_points

    def test_strength_guard(self):
        with pytest.raises(InvalidParametersError):
            verify_t_design(catalog_design("fano-7-3-1"), 4, 1)

    def test_no_points_cap(self):
        rep = verify_t_design(Design(30, ((1, 2),)), 1, 1)
        assert rep.first_violation == "subset {3} lies in 0 blocks, expected 1"

    def test_key_space_fills_int64(self):
        # C(66, 33) < 2^63 <= C(67, 33): the first is counted, the second refused
        block = tuple(range(1, 34))
        rep = verify_t_design(Design(66, (block,)), 33, 1)
        assert rep.first_violation == (
            f"subset {set(block[:-1] + (34,))} lies in 0 blocks, expected 1"
        )
        with pytest.raises(UnsupportedParametersError, match="int64"):
            verify_t_design(Design(67, (block,)), 33, 1)

    def test_count_too_large_is_refused(self):
        # one block of 40 points holds C(40, 20) 20-subsets
        with pytest.raises(UnsupportedParametersError, match="counting needs over"):
            verify_t_design(Design(40, (tuple(range(1, 41)),)), 20, 1)


class TestDivisibility:
    def test_fano_parameters(self):
        assert check_divisibility(2, 3, 1, 7)

    def test_eight_points_fail(self):
        # i=0 needs C(3,2)=3 to divide C(8,2)=28
        assert not check_divisibility(2, 3, 1, 8)

    @given(st.integers(1, 8), st.integers(1, 4))
    def test_partition_condition(self, multiple, block):
        assert check_divisibility(1, block, 1, block * multiple)

    @given(st.integers(2, 12), st.integers(1, 6), st.integers(1, 3))
    def test_complete_design_always_passes(self, v, l, lam):
        if l <= v:
            assert check_divisibility(l, l, lam, v)


class TestTransversalGdd:
    def test_canonical_12_blocks(self):
        g = transversal_gdd(3, 2, 2)
        assert g.blocks == (
            ((1, 1), (2, 1)), ((1, 1), (2, 2)), ((1, 1), (3, 1)), ((1, 1), (3, 2)),
            ((1, 2), (2, 1)), ((1, 2), (2, 2)), ((1, 2), (3, 1)), ((1, 2), (3, 2)),
            ((2, 1), (3, 1)), ((2, 1), (3, 2)), ((2, 2), (3, 1)), ((2, 2), (3, 2)),
        )
        assert verify_gdd(g, 2, 1).ok

    def test_single_block(self):
        g = transversal_gdd(2, 1, 2)
        assert g.blocks == (((1, 1), (2, 1)),)

    def test_count_matches_enumeration(self):
        g = transversal_gdd(4, 2, 2)
        assert g.num_blocks == 24
        # independent enumeration of all transversal pairs
        brute = {
            ((u1, v1), (u2, v2))
            for u1, u2 in itertools.combinations(range(1, 5), 2)
            for v1 in (1, 2)
            for v2 in (1, 2)
        }
        assert set(g.blocks) == brute

    def test_verifies_across_sizes(self):
        for m, q, t in [(3, 2, 2), (4, 3, 2), (5, 2, 3), (4, 2, 1)]:
            assert verify_gdd(transversal_gdd(m, q, t), t, 1).ok

    def test_budget_is_600_plus_150_bytes_per_block_point(self):
        # 3,2,2 is charged 12 x (600 + 150 x 2) = 10,800 bytes
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 10_800):
            assert transversal_gdd(3, 2, 2).num_blocks == 12
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 10_799):
            with pytest.raises(UnsupportedParametersError, match=re.escape(
                    "the 2^2 values on 2 of 3 groups need over 10799 bytes")):
                transversal_gdd(3, 2, 2)

    def test_builds_what_the_list_per_point_charge_refused(self):
        # 600 + 650 x 2 bytes a block charged 3,2,2 22,800 bytes
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 22_799):
            assert verify_gdd(transversal_gdd(3, 2, 2), 2, 1).ok

    def test_10_10_3_reaches_the_enumeration(self):
        # 120,000 blocks x 1,050 bytes = 126,000,000, under 2^30
        with mock.patch("macc.designs.itertools.combinations", side_effect=StopIteration):
            with pytest.raises(StopIteration):
                transversal_gdd(10, 10, 3)


class TestVerifyGdd:
    def test_catalog_gdd_passes(self):
        g = catalog_gdd("gdd-3-2-3-1")
        assert verify_gdd(g, 2, 1).ok

    def test_wrong_index_fails(self):
        g = catalog_gdd("gdd-3-2-3-1")
        rep = verify_gdd(g, 2, 2)
        assert not rep.ok

    def test_block_count_checked(self):
        g = catalog_gdd("gdd-3-2-3-1")
        assert verify_gdd(g, 2, 1).expected_num_blocks == 4


class TestOrthogonalArrays:
    def test_catalog_oa_passes_strength_two(self):
        oa = catalog_oa("oa-3-2-2")
        assert oa.rows == OA_322_ROWS
        assert verify_oa(oa, 2, 1).ok

    def test_catalog_oa_fails_strength_three(self):
        rep = verify_oa(catalog_oa("oa-3-2-2"), 3, 1)
        assert not rep.ok
        assert "row count" in rep.first_violation

    def test_trivial_oa_cube(self):
        oa = trivial_oa(3, 2)
        assert oa.rows[:2] == ((1, 1, 1), (1, 1, 2))
        assert oa.rows[-1] == (2, 2, 2)
        assert verify_oa(oa, 3, 1).ok

    def test_trivial_oa_strength_two_exhaustive(self):
        assert verify_oa(trivial_oa(2, 3), 2, 1).ok

    @given(st.integers(1, 4), st.integers(2, 3))
    def test_trivial_oa_column_balance(self, m, q):
        oa = trivial_oa(m, q)
        for u in range(m):
            column = [row[u] for row in oa.rows]
            for v in range(1, q + 1):
                assert column.count(v) == q ** (m - 1)

    def test_linear_oa_strength_two(self):
        oa = linear_oa(3, 3, 2)
        assert oa.num_rows == 9
        assert verify_oa(oa, 2, 1).ok

    def test_linear_oa_full_strength_matches_trivial(self):
        assert linear_oa(3, 3, 3).rows == trivial_oa(3, 3).rows

    def test_linear_oa_two_two_two(self):
        oa = linear_oa(2, 2, 2)
        assert sorted(oa.rows) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_linear_oa_rejects_wide_arrays(self):
        with pytest.raises(UnsupportedParametersError):
            linear_oa(4, 2, 3)

    def test_linear_oa_budget_is_120_plus_60_bytes_per_row_column(self):
        # 3,3,2 is charged 9 x (120 + 60 x 3) = 2,700 bytes
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 2_700):
            assert linear_oa(3, 3, 2).num_rows == 9
        with mock.patch.object(designs, "MAX_COUNT_BYTES", 2_699):
            with pytest.raises(UnsupportedParametersError, match=re.escape(
                    "the 3^2 rows over 3 columns need over 2699 bytes")):
                linear_oa(3, 3, 2)

    def test_linear_oa_3_1009_2_reaches_the_enumeration(self):
        # 1,018,081 rows x 300 bytes = 305,424,300, under 2^30
        with mock.patch("macc.designs.itertools.product", side_effect=StopIteration):
            with pytest.raises(StopIteration):
                linear_oa(3, 1009, 2)

    def test_linear_oa_rejects_composite_alphabet(self):
        with pytest.raises(InvalidParametersError):
            linear_oa(3, 4, 2)


class TestDuality:
    def test_resolvable_verifies(self):
        assert verify_resolvable(EXAMPLE_RESOLVABLE, 2, 1).ok

    def test_dual_is_catalog_gdd(self):
        g = dual_of_resolvable(EXAMPLE_RESOLVABLE)
        assert canonical(g) == canonical(catalog_gdd("gdd-3-2-3-1"))

    def test_single_class_dual(self):
        rd = ResolvableDesign(2, (((1,), (2,)),), strength=1, cross_number=1)
        g = dual_of_resolvable(rd)
        assert g.num_groups == 1
        assert g.blocks == (((1, 1),), ((1, 2),))

    def test_dual_of_dual_roundtrip(self):
        g = dual_of_resolvable(EXAMPLE_RESOLVABLE)
        back = dual_of_gdd(g)
        assert canonical(back) == canonical(EXAMPLE_RESOLVABLE)

    def test_resolvable_to_oa_matches_catalog(self):
        oa = resolvable_to_oa(EXAMPLE_RESOLVABLE)
        assert oa.rows == OA_322_ROWS
        assert (oa.strength, oa.index, oa.num_symbols) == (2, 1, 2)

    def test_oa_to_resolvable_matches_example(self):
        rd = oa_to_resolvable(catalog_oa("oa-3-2-2"))
        assert canonical(rd) == canonical(EXAMPLE_RESOLVABLE)

    def test_single_column_oa(self):
        rows = ((1,), (2,), (3,))
        from macc.designs import OrthogonalArray

        rd = oa_to_resolvable(OrthogonalArray(3, 1, 1, rows))
        assert rd.num_classes == 1
        assert rd.parallel_classes == (((1,), (2,), (3,)),)

    def test_roundtrip_identity_on_example(self):
        rd = oa_to_resolvable(resolvable_to_oa(EXAMPLE_RESOLVABLE))
        assert canonical(rd) == canonical(EXAMPLE_RESOLVABLE)

    @pytest.mark.parametrize(
        "oa_builder",
        [
            lambda: trivial_oa(2, 2), lambda: trivial_oa(2, 3), lambda: trivial_oa(3, 2),
            lambda: trivial_oa(3, 3), lambda: trivial_oa(4, 2),
            lambda: linear_oa(2, 2, 1), lambda: linear_oa(2, 3, 1), lambda: linear_oa(3, 3, 1),
            lambda: linear_oa(3, 3, 2), lambda: linear_oa(2, 5, 1), lambda: linear_oa(3, 5, 2),
            lambda: linear_oa(4, 5, 2), lambda: linear_oa(5, 5, 2), lambda: linear_oa(5, 5, 3),
            lambda: linear_oa(4, 7, 2), lambda: linear_oa(2, 3, 2), lambda: trivial_oa(5, 2),
            lambda: trivial_oa(1, 4), lambda: linear_oa(3, 7, 2), lambda: catalog_oa("oa-3-2-2"),
        ],
    )
    def test_oa_roundtrips(self, oa_builder):
        oa = oa_builder()
        rd = oa_to_resolvable(oa)
        assert verify_resolvable(rd, oa.strength, oa.index).ok
        back = resolvable_to_oa(rd)
        assert back.rows == oa.rows
        gdd = dual_of_resolvable(rd)
        assert verify_gdd(gdd, oa.strength, oa.index).ok
        assert canonical(dual_of_gdd(gdd)) == canonical(rd)

    def test_non_resolvable_rejected(self):
        broken = ResolvableDesign(4, (((1, 2), (2, 3)),), strength=1, cross_number=1)
        with pytest.raises(InvalidInputError):
            dual_of_resolvable(broken)

    def test_untagged_needs_strength(self):
        rd = ResolvableDesign(4, (((1, 2), (3, 4)),))
        with pytest.raises(InvalidInputError, match="carries no cross tag$"):
            resolvable_to_oa(rd)


class TestGddDualExampleEntry:
    def test_flattened_blocks(self):
        d = catalog_design("gdd-dual-example")
        assert d.blocks == ((1, 3, 5), (2, 3, 6), (1, 4, 6), (2, 4, 5))
        assert verify_t_design(d, 1, 2).ok


@given(st.integers(2, 9), st.data())
def test_complete_design_replication(v, data):
    l = data.draw(st.integers(1, v))
    d = complete_design(v, l)
    rep = verify_t_design(d, l, 1)
    assert rep.ok
    assert d.num_blocks * l == rep.replication * v
    assert rep.replication == math.comb(v - 1, l - 1)


# The verifiers as plain loops over every subset, the reference the counting
# kernel must match report for report.


def oracle_t_design(design, t, lam):
    v, L = design.num_points, design.block_size
    counts = {}
    for block in design.blocks:
        for sub in itertools.combinations(block, t):
            counts[sub] = counts.get(sub, 0) + 1
    violation = None
    for sub in itertools.combinations(range(1, v + 1), t):
        got = counts.get(sub, 0)
        if got != lam:
            violation = f"subset {set(sub)} lies in {got} blocks, expected {lam}"
            break
    return DesignVerification(
        violation is None, t, lam,
        Fraction(lam * math.comb(v - 1, t - 1), math.comb(L - 1, t - 1)),
        {tp: Fraction(lam * math.comb(v - tp, t - tp), math.comb(L - tp, t - tp))
         for tp in range(1, t + 1)},
        violation,
    )


def oracle_gdd(gdd, t, lam):
    m, q, L = gdd.num_groups, gdd.group_size, gdd.block_size
    expected_blocks = Fraction(lam * math.comb(m, t) * q**t, math.comb(L, t))
    violation = None
    for block in gdd.blocks:
        groups = [u for u, _ in block]
        if len(set(groups)) != len(groups):
            violation = f"block {block} meets a group twice"
            break
    if violation is None:
        counts = {}
        for block in gdd.blocks:
            for sub in itertools.combinations(block, t):
                if len({u for u, _ in sub}) == t:
                    counts[sub] = counts.get(sub, 0) + 1
        for groups in itertools.combinations(range(1, m + 1), t):
            for values in itertools.product(range(1, q + 1), repeat=t):
                sub = tuple(zip(groups, values))
                got = counts.get(sub, 0)
                if got != lam:
                    violation = f"cross subset {sub} lies in {got} blocks, expected {lam}"
                    break
            if violation:
                break
    if violation is None and gdd.num_blocks != expected_blocks:
        violation = (
            f"block count {gdd.num_blocks} != lambda*C(m,t)*q^t/C(L,t) = {expected_blocks}"
        )
    return GddVerification(violation is None, t, lam, expected_blocks, violation)


def oracle_oa(oa, s, lam):
    m, q = oa.num_columns, oa.num_symbols
    violation = None
    if oa.num_rows != lam * q**s:
        violation = f"row count {oa.num_rows} != index*q^s = {lam * q ** s}"
    else:
        for cols in itertools.combinations(range(m), s):
            counts = {}
            for row in oa.rows:
                key = tuple(row[c] for c in cols)
                counts[key] = counts.get(key, 0) + 1
            for tup in itertools.product(range(1, q + 1), repeat=s):
                got = counts.get(tup, 0)
                if got != lam:
                    violation = (
                        f"columns {tuple(c + 1 for c in cols)}: tuple {tup} "
                        f"appears {got} times, expected {lam}"
                    )
                    break
            if violation:
                break
    return OaVerification(violation is None, s, lam, violation)


def oracle_resolvable(rd, t, lam):
    points = set(range(1, rd.num_points + 1))
    violation = None
    for u, cls in enumerate(rd.parallel_classes, start=1):
        seen = [p for b in cls for p in b]
        if len(seen) != len(points) or set(seen) != points:
            violation = f"class {u} is not a partition of [{rd.num_points}]"
            break
    if violation is None:
        for class_ids in itertools.combinations(range(rd.num_classes), t):
            for choice in itertools.product(*(rd.parallel_classes[u] for u in class_ids)):
                inter = set(choice[0])
                for b in choice[1:]:
                    inter &= set(b)
                if len(inter) != lam:
                    violation = (
                        f"blocks {choice} from classes {[u + 1 for u in class_ids]} "
                        f"meet in {len(inter)} points, expected {lam}"
                    )
                    break
            if violation:
                break
    return ResolvableVerification(violation is None, t, lam, violation)


# Tags to check against: mostly small, sometimes far past any count.
_INDICES = st.one_of(st.integers(0, 3), st.sampled_from([-1, 10**30]))


def _edited(data, blocks, make):
    """``blocks`` with a few drawn edits: one dropped, repeated or replaced
    by a ``make()`` draw."""
    blocks = list(blocks)
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(blocks) - 1))
        edit = data.draw(st.sampled_from(["drop", "repeat", "replace"]))
        if edit == "drop" and len(blocks) > 1:
            del blocks[i]
        elif edit == "repeat":
            blocks.append(blocks[i])
        else:
            blocks[i] = data.draw(make())
    return blocks


class TestKernelMatchesOracle:
    @given(st.data())
    def test_t_design(self, data):
        v = data.draw(st.integers(2, 8))
        l = data.draw(st.integers(1, v))
        block = lambda: st.lists(st.integers(1, v), min_size=l, max_size=l, unique=True)
        blocks = _edited(data, complete_design(v, l).blocks, block)
        if data.draw(st.booleans()):
            blocks = data.draw(st.lists(block(), min_size=1, max_size=12))
        design = Design(v, tuple(map(tuple, blocks)))
        t, lam = data.draw(st.integers(1, l)), data.draw(_INDICES)
        assert verify_t_design(design, t, lam) == oracle_t_design(design, t, lam)

    @given(st.data())
    def test_gdd(self, data):
        m = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(1, 3))
        l = data.draw(st.integers(1, m))
        t = data.draw(st.integers(1, l))
        points = st.tuples(st.integers(1, m), st.integers(1, q))
        # blocks of distinct points, which may meet a group twice
        block = lambda: st.lists(points, min_size=l, max_size=l, unique=True)
        if data.draw(st.booleans()):
            blocks = _edited(data, transversal_gdd(m, q, l).blocks, block)
        else:
            blocks = data.draw(st.lists(block(), min_size=1, max_size=12))
        gdd = GroupDivisibleDesign(m, q, tuple(map(tuple, blocks)))
        lam = data.draw(_INDICES)
        assert verify_gdd(gdd, t, lam) == oracle_gdd(gdd, t, lam)

    @given(st.data())
    def test_oa(self, data):
        m = data.draw(st.integers(1, 4))
        q = data.draw(st.integers(2, 3))
        row = st.lists(st.integers(1, q), min_size=m, max_size=m)
        if data.draw(st.booleans()):
            oa = trivial_oa(m, q)
            rows = [list(r) for r in oa.rows]
            for _ in range(data.draw(st.integers(0, 2))):
                rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(row)
            oa = OrthogonalArray(q, m, 1, rows)
        else:
            s0 = data.draw(st.integers(1, min(m, 2)))
            n = q**s0
            oa = OrthogonalArray(q, s0, 1, data.draw(st.lists(row, min_size=n, max_size=n)))
        s, lam = data.draw(st.integers(1, m)), data.draw(_INDICES)
        assert verify_oa(oa, s, lam) == oracle_oa(oa, s, lam)

    @given(st.data())
    def test_resolvable(self, data):
        size = data.draw(st.integers(1, 3))
        v = size * data.draw(st.integers(1, 3))
        classes = []
        for _ in range(data.draw(st.integers(1, 3))):
            order = data.draw(st.permutations(range(1, v + 1)))
            cls = [order[i:i + size] for i in range(0, v, size)]
            if data.draw(st.integers(0, 3)) == 0:
                # a point moved out of the partition: repeated, or outside [v]
                cls[0][0] = data.draw(st.integers(0, v + 1).filter(lambda p: p not in cls[0]))
            classes.append(tuple(map(tuple, cls)))
        if any(not 1 <= p <= v for cls in classes for b in cls for p in b):
            with pytest.raises(InvalidInputError, match="not a non-empty subset"):
                ResolvableDesign(v, tuple(classes))
            return
        rd = ResolvableDesign(v, tuple(classes))
        t, lam = data.draw(st.integers(1, len(classes))), data.draw(_INDICES)
        assert verify_resolvable(rd, t, lam) == oracle_resolvable(rd, t, lam)
