import dataclasses
import itertools
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from macc.designs import (
    Design, catalog_design, catalog_design_names, complete_design, verify_t_design,
)
from macc.errors import InconsistentDesignError, InvalidParametersError
from macc.pda import STAR, Pda, verify_pda
from macc import scheme_design
from macc.render import render_scheme_delivery
from macc.scheme_design import (
    DesignSchemeParams,
    build_node_placement,
    build_scheme,
    build_user_delivery,
    build_user_retrieve,
    redundancy_count,
)
from macc.simulate import _user_index, reach, tiled_labels

from canonical import pda_cells
from closed_forms import stars_per_user

GOLDEN = pathlib.Path(__file__).parent / "golden"


def fano_scheme():
    return build_scheme(catalog_design("fano-7-3-1"), 1)


class TestParams:
    def test_derived_counts(self):
        p = DesignSchemeParams(7, 3, 2, 1, 1)
        assert (p.num_users, p.subpacketization, stars_per_user(p)) == (7, 21, 9)

    def test_cached_nodes_bound(self):
        with pytest.raises(InvalidParametersError):
            DesignSchemeParams(7, 3, 2, 1, 5)

    def test_user_count_must_divide(self):
        with pytest.raises(InvalidParametersError):
            DesignSchemeParams(8, 3, 2, 1, 1)

    def test_row_label_order_is_t_major(self):
        # the D-subsets of DesignSchemeParams(4, 3, 2, 1, 1), which has no design
        labels = tiled_labels([(1,), (2,), (3,), (4,)], 3, 2)
        assert labels[0] == ((1,), (1, 2))
        assert labels[4] == ((1,), (1, 3))
        assert len(labels) == 12


class TestNodePlacement:
    def test_fano_structure(self):
        grid = build_node_placement(catalog_design("fano-7-3-1"), 1)
        assert grid.shape == (21, 7)
        # row (D={g}, T) stars only column g, three times per node
        assert grid.sum(axis=1).tolist() == [1] * 21
        assert grid.sum(axis=0).tolist() == [3] * 7
        assert grid[0, 0] and not grid[0, 1]

    def test_zero_cache_all_null(self):
        grid = build_node_placement(catalog_design("fano-7-3-1"), 0)
        assert not grid.any()

    def test_column_count_formula(self):
        design = catalog_design("affine-9-3-1")
        for mu in (1, 2, 3):
            p = DesignSchemeParams.from_design(design, mu)
            grid = build_node_placement(design, mu)
            expected = math.comb(8, mu - 1) * 3
            assert grid.sum(axis=0).tolist() == [expected] * 9
            assert grid.sum(axis=1).tolist() == [mu] * p.subpacketization


class TestUserRetrieve:
    def test_fano_star_rule(self):
        design = catalog_design("fano-7-3-1")
        grid = build_user_retrieve(design, 1)
        for r, (d, _) in enumerate(fano_scheme().row_labels):
            for k, block in enumerate(design.blocks):
                assert grid[r, k] == bool(set(d) & set(block))

    def test_fano_column_stars(self):
        grid = build_user_retrieve(catalog_design("fano-7-3-1"), 1)
        assert grid.sum(axis=0).tolist() == [9] * 7

    def test_biplane_column_stars(self):
        grid = build_user_retrieve(catalog_design("biplane-7-4-2"), 1)
        assert grid.shape == (42, 7)
        assert grid.sum(axis=0).tolist() == [24] * 7

    def test_zero_cache_all_null(self):
        assert not build_user_retrieve(catalog_design("fano-7-3-1"), 0).any()


class TestUserDelivery:
    def test_views_are_the_scheme_arrays(self):
        design = catalog_design("biplane-7-4-2")
        scheme = build_scheme(design, 2)
        delivery = build_user_delivery(design, 2)
        assert np.array_equal(delivery.grid, scheme.user_delivery.grid)
        assert delivery.ids == scheme.user_delivery.ids
        assert np.array_equal(build_user_retrieve(design, 2), scheme.user_retrieve)
        assert np.array_equal(build_node_placement(design, 2), scheme.node_placement)

    def test_views_verify_the_design(self):
        blocks = list(catalog_design("fano-7-3-1").blocks)
        blocks[-1] = (1, 2, 3)
        bad = Design(7, tuple(blocks), strength=2, index=1)
        for view in (build_node_placement, build_user_retrieve, build_user_delivery):
            with pytest.raises(InconsistentDesignError):
                view(bad, 1)

    def test_fano_matches_reference_table(self):
        text = render_scheme_delivery(fano_scheme()) + "\n"
        assert text == (GOLDEN / "fano_user_delivery.txt").read_text()

    def test_fano_is_7_21_9_28(self):
        rep = verify_pda(fano_scheme().user_delivery)
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (7, 21, 9, 28)

    def test_fano_stats(self):
        from macc.pda import pda_stats

        stats = pda_stats(fano_scheme().user_delivery)
        assert stats.load == Fraction(4, 3)
        assert stats.gain == 3

    def test_biplane_matches_reference_table(self):
        scheme = build_scheme(catalog_design("biplane-7-4-2"), 1)
        text = render_scheme_delivery(scheme) + "\n"
        assert text == (GOLDEN / "biplane_user_delivery.txt").read_text()

    def test_biplane_is_7_42_24_42(self):
        scheme = build_scheme(catalog_design("biplane-7-4-2"), 1)
        rep = verify_pda(scheme.user_delivery)
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (7, 42, 24, 42)

    def test_affine_counted_messages_within_bound(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        bound = math.comb(9, 4) - 12 * math.comb(3, 4)
        assert bound == 126
        counted = len({c for row in pda_cells(scheme.user_delivery) for c in row if c is not STAR})
        assert counted == scheme.counted_messages <= bound

    def test_duplicate_t_subset_rejected(self):
        # right block count for an index-1 tag, but the pair {1,2} repeats
        blocks = list(catalog_design("fano-7-3-1").blocks)
        blocks[-1] = (1, 2, 3)
        bad = Design(7, tuple(blocks), strength=2, index=1)
        with pytest.raises(InconsistentDesignError, match=r"subset \{1, 2\} lies in 2 blocks"):
            build_scheme(bad, 1)

    def test_id_multiplicity_bound(self):
        # an id names a (t + cached)-subset; each occurrence consumes a
        # distinct split into (selected t-subset, cached remainder)
        for name, mu in [("fano-7-3-1", 1), ("affine-9-3-1", 2), ("biplane-7-4-2", 1)]:
            scheme = build_scheme(catalog_design(name), mu)
            p = scheme.claims
            bound = math.comb(p.strength + p.cached_nodes, p.strength)
            for cells in scheme.user_delivery.id_positions.values():
                assert len(cells) <= bound


class TestLoads:
    def test_fano_load(self):
        assert DesignSchemeParams(7, 3, 2, 1, 1).load == Fraction(4, 3)

    def test_biplane_load_is_one(self):
        assert DesignSchemeParams(7, 4, 2, 2, 1).load == 1

    def test_zero_cache_full_demand(self):
        p = DesignSchemeParams(7, 3, 2, 1, 0)
        assert p.load == p.num_users

    def test_affine_reduced_load(self):
        p = DesignSchemeParams(9, 3, 2, 1, 2)
        assert p.load == Fraction(126 - 6, 108)

    def test_shared_link_fano(self):
        p = DesignSchemeParams(7, 3, 2, 1, 1)
        assert (p.coverage_ratio, p.load) == (Fraction(3, 7), Fraction(4, 3))

    def test_shared_link_biplane(self):
        p = DesignSchemeParams(7, 4, 2, 2, 1)
        assert (p.coverage_ratio, p.load) == (Fraction(4, 7), Fraction(1))

    def test_shared_link_zero_cache(self):
        p = DesignSchemeParams(7, 3, 2, 1, 0)
        assert p.coverage_ratio == 0 and p.load == 7


class TestRedundancy:
    def test_single_cached_node_is_zero(self):
        assert redundancy_count(DesignSchemeParams(7, 3, 2, 1, 1)) == 0
        assert redundancy_count(DesignSchemeParams(7, 4, 2, 2, 1)) == 0

    def test_affine_closed_form(self):
        assert redundancy_count(DesignSchemeParams(9, 3, 2, 1, 2)) == 6

    def test_matches_brute_force_enumeration(self):
        # fix one block; count (t+mu)-subsets overlapping it in t+1..t+mu-1 points
        design = catalog_design("affine-9-3-1")
        p = DesignSchemeParams.from_design(design, 2)
        block = set(design.blocks[0])
        brute = sum(
            1
            for sub in itertools.combinations(range(1, 10), p.strength + p.cached_nodes)
            if p.strength + 1 <= len(set(sub) & block) < p.strength + p.cached_nodes
        )
        assert brute == redundancy_count(p) == 6

    def test_brute_force_other_cached_sizes(self):
        for mu in (1, 2, 3):
            p = DesignSchemeParams(9, 3, 2, 1, mu)
            block = set(catalog_design("affine-9-3-1").blocks[4])
            brute = sum(
                1
                for sub in itertools.combinations(range(1, 10), 2 + mu)
                if 3 <= len(set(sub) & block) < 2 + mu
            )
            assert brute == redundancy_count(p)


class TestKnownMessages:
    def test_fano_users_know_nothing(self):
        known = fano_scheme().user_delivery.known
        assert known.shape[0] == 7 and not known.any()

    def test_affine_users_know_at_least_reduction(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        assert scheme.guaranteed_known == 6
        assert (scheme.user_delivery.known.sum(axis=1) >= 6).all()

    def test_lookup_by_block(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        known = scheme.user_delivery.known
        assert np.array_equal(known[_user_index(scheme, (1, 4, 7))], known[0])

    def test_index_two_deep_caching_falls_short_of_advertised_bound(self):
        # occurrences of one message subset can sit in distinct singleton
        # split classes and merge into a single id, so index-2 topologies
        # with two cached nodes rebuild fewer messages than index * count
        scheme = build_scheme(catalog_design("biplane-7-4-2"), 2)
        assert scheme.guaranteed_known == 24
        assert (scheme.user_delivery.known.sum(axis=1) == 17).all()

    def test_all_ids_for_fully_starred_column(self):
        # a user whose column is entirely starred knows every message
        pda = Pda(((STAR, "1"), (STAR, "2")))
        scheme = build_scheme(catalog_design("fano-7-3-1"), 1)
        fake = dataclasses.replace(scheme, row_labels=scheme.row_labels[:2],
                                   node_placement=scheme.node_placement[:2], user_delivery=pda)
        assert (np.flatnonzero(fake.user_delivery.known[0]) + 1).tolist() == [1, 2]


class TestRelabelingInvariance:
    @given(st.permutations(range(1, 8)))
    def test_fano_relabel_preserves_counts(self, perm):
        mapping = {i + 1: perm[i] for i in range(7)}
        base = catalog_design("fano-7-3-1")
        relabeled = Design(
            7,
            tuple(tuple(sorted(mapping[x] for x in b)) for b in base.blocks),
            strength=2, index=1,
        )
        assert verify_t_design(relabeled, 2, 1).ok
        a = build_scheme(base, 1)
        b = build_scheme(relabeled, 1)
        ra, rb = verify_pda(a.user_delivery), verify_pda(b.user_delivery)
        assert rb.ok
        assert (ra.stars_per_column, ra.num_messages) == (rb.stars_per_column, rb.num_messages)


class TestLowStrengthIndexTwo:
    def test_gdd_dual_example_scheme_is_valid(self):
        # strength 1, index 2: exercises the counted-pair delivery ids
        scheme = build_scheme(catalog_design("gdd-dual-example"), 1)
        rep = verify_pda(scheme.user_delivery)
        assert rep.ok
        assert scheme.counted_messages <= scheme.claims.message_bound


def test_complete_design_scheme_matches_subset_pda_shape():
    # the complete topology reduces to pure subset delivery: S = C(v, L + mu)
    design = complete_design(5, 2)
    scheme = build_scheme(design, 1)
    rep = verify_pda(scheme.user_delivery)
    assert rep.ok
    assert rep.num_messages == math.comb(5, 3) - math.comb(5, 2) * math.comb(2, 3)


def test_build_holds_the_grid_and_csr_and_few_bytes_per_id():
    # complete:30,2 mu=2 (S = 27,405): the build makes no label, so what it
    # leaves held is Q's grid and CSR plus a few bytes per id (C, the row
    # labels and the labeller's words); one id object each held 163 more
    design = complete_design(30, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scheme = build_scheme(design, 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    q = scheme.user_delivery
    assert q.num_ids == 27_405
    assert held <= q.grid.nbytes + sum(a.nbytes for a in q.csr) + 16 * q.num_ids


def test_labels_made_only_when_asked_and_within_a_bound_per_cell(monkeypatch):
    # complete:70,2 ids span two int64 words.  The build makes no label;
    # labelling every id unpacks the m digits of a step of ids at a time
    # (63 digits per word for every id peaked at about 370 bytes per F x K
    # cell)
    made = []
    compact_str = scheme_design.compact_str

    def counted(values):
        made.append(values)
        return compact_str(values)

    monkeypatch.setattr(scheme_design, "compact_str", counted)
    scheme = build_scheme(complete_design(70, 2), 1)
    assert not made
    cells = scheme.num_users * scheme.subpacketization
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        labels = scheme.user_delivery.labels()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cells == 169_050 and len(made) == len(labels) == scheme.user_delivery.num_ids
    assert peak / cells < 100


def test_build_and_verify_peak_below_four_grids():
    # complete:16,3 mu=4, 1820 x 560 cells.  Numbering the keys of the
    # non-star cells makes no F x K key grid, and the CSR that the numbering
    # makes leaves verify no sort, so each step peaks below four int32 grids
    # (13.5 MB here); an F x K int64 key grid alone would take two.
    design = complete_design(16, 3)
    tracemalloc.start()
    try:
        scheme = build_scheme(design, 4)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert verify_pda(scheme.user_delivery).ok
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = scheme.user_delivery.grid.nbytes
    assert grid == 1820 * 560 * 4
    assert max(build_peak, verify_peak) < 4 * grid


def reference_labels(params):
    """(D, T) row labels, T-major then D lexicographic."""
    subsets = list(itertools.combinations(range(1, params.num_nodes + 1), params.cached_nodes))
    return tiled_labels(subsets, params.access_degree, params.strength)


def reference_user_retrieve(design, cached_nodes):
    """U by the per-cell loop: row (D, T) stars block B iff B meets D."""
    params = DesignSchemeParams.from_design(design, cached_nodes)
    grid = np.zeros((params.subpacketization, design.num_blocks), dtype=bool)
    block_sets = [frozenset(b) for b in design.blocks]
    for r, (d, _) in enumerate(reference_labels(params)):
        dset = frozenset(d)
        for k, b in enumerate(block_sets):
            if dset & b:
                grid[r, k] = True
    return grid


def reference_user_delivery(design, cached_nodes):
    """Q with one label per cell, numbered by ``Pda(cells)``: the points of
    D + B(T), "123" or "{1,10}" past 9, and ",copy" after them for index > 1."""
    params = DesignSchemeParams.from_design(design, cached_nodes)
    labels = reference_labels(params)
    cells = [[STAR] * design.num_blocks for _ in range(len(labels))]
    copies = {}
    for k, block in enumerate(design.blocks):
        points = frozenset(block)
        for r, (d, tt) in enumerate(labels):
            if not points.isdisjoint(d):
                continue
            union = tuple(sorted(d + tuple(block[i - 1] for i in tt)))
            text = ("".join(map(str, union)) if union[-1] <= 9
                    else "{" + ",".join(map(str, union)) + "}")
            if params.index == 1:
                cells[r][k] = text
            else:
                copies[union, d] = n = copies.get((union, d), 0) + 1
                cells[r][k] = f"{text},{n}"
    return Pda(cells)


def assert_matches_reference(design, mu):
    scheme = build_scheme(design, mu)
    ref = reference_user_delivery(design, mu)
    assert np.array_equal(scheme.user_delivery.grid, ref.grid)
    assert scheme.user_delivery.labels() == ref.labels()
    assert np.array_equal(scheme.user_retrieve, reference_user_retrieve(design, mu))


def retagged_complete_8_4():
    # all 4-subsets of 8 points form a 2-(8,4,15) design: index > 1
    return Design(8, complete_design(8, 4).blocks, strength=2, index=15)


def _instances():
    designs = {name: catalog_design(name) for name in catalog_design_names()}
    designs["complete-8-4-as-2-design"] = retagged_complete_8_4()
    for name, d in designs.items():
        for mu in range(d.num_points - d.block_size + 1):
            yield pytest.param(d, mu, id=f"{name}-mu{mu}")
    # 64 points need two mask words; the 63-subsets' unions fill a whole word
    yield pytest.param(complete_design(64, 1), 1, id="complete-64-1-mu1")
    yield pytest.param(complete_design(64, 63), 1, id="complete-64-63-mu1")


class TestReferenceEquivalence:
    @pytest.mark.parametrize("design, mu", list(_instances()))
    def test_builders_match_object_cell_reference(self, design, mu):
        assert_matches_reference(design, mu)

    @given(st.data())
    def test_random_designs_match_reference(self, data):
        v = data.draw(st.integers(3, 7))
        l = data.draw(st.integers(2, v - 1))
        t = data.draw(st.integers(1, l))
        lam = data.draw(st.integers(1, 3))
        assume(lam * math.comb(v, t) % math.comb(l, t) == 0)
        k = lam * math.comb(v, t) // math.comb(l, t)
        assume(k <= 40)
        subsets = list(itertools.combinations(range(1, v + 1), l))
        blocks = data.draw(st.lists(st.sampled_from(subsets), min_size=k, max_size=k))
        design = Design(v, tuple(blocks), strength=t, index=lam)
        mu = data.draw(st.integers(0, v - l))
        ref = reference_user_delivery(design, mu)
        # not t-designs, so the arrays come from the unverified builder
        placement, user_nodes, got = scheme_design._arrays(
            DesignSchemeParams.from_design(design, mu), design.blocks)
        assert np.array_equal(got.grid, ref.grid) and got.labels() == ref.labels()
        assert np.array_equal(reach(placement, user_nodes),
                              reference_user_retrieve(design, mu))
