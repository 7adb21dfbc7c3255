import dataclasses
import functools
import re
import struct
import tracemalloc
from fractions import Fraction
from random import Random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from macc import gf16, pda as pda_module, scheme_design, simulate
from macc.designs import (
    catalog_design,
    catalog_design_names,
    catalog_oa,
    complete_design,
    transversal_gdd,
)
from macc.errors import (
    ConfigurationError,
    DecodeFailureError,
    InvalidInputError,
    InvalidParametersError,
    MaccError,
    UnsupportedParametersError,
)
from macc.pda import _SCREEN_BYTES, STAR, Pda, id_cells, mn_pda, verify_pda
from macc.scheme_design import build_scheme
from macc.scheme_gdd import build_gdd_scheme
from macc.serialize import dump_json, scheme_to_obj
from macc.simulate import (
    _BLOCK_ROWS,
    _wide,
    decode,
    decode_all,
    deliver_mds,
    deliver_plain,
    distinct_demands,
    make_library,
    measure_worst_case,
    place,
    random_demands,
    read_transcript,
    require_room,
    run_demand_trials,
    run_simulation,
    write_transcript,
)

from canonical import grid_pda
from shared_link import shared_link_scheme


def file_bytes(lib, file_id: int) -> bytes:
    """Full content of library file ``file_id`` (1-based)."""
    return lib.data[file_id - 1].tobytes()


def held_rows(caches, node: int) -> set:
    """0-based packet rows the placed caches keep at ``node``."""
    return set(np.flatnonzero(caches.grid[:, node]).tolist())


def reconstructible_messages(scheme, caches, user: int) -> frozenset:
    """Message indices (0-based) the user can rebuild purely from its cache:
    every row of the message's cells is held by one of its nodes.  Read from
    the placed caches and the delivery array's cells, independent of the
    retrieve grid and of the delivery array's cached views."""
    rows = set().union(*(held_rows(caches, g) for g in scheme.user_nodes[user]))
    cells = scheme.user_delivery.id_positions.values()
    return frozenset(s for s, msg in enumerate(cells) if all(j in rows for j, _ in msg))


def assert_plain_symbols(scheme, lib, plan) -> list:
    """Check that plain symbol s is the XOR of the demanded packets at the
    cells of message s; return those cells, per message."""
    cells = list(scheme.user_delivery.id_positions.values())
    assert plan.num_messages == len(plan.symbols) == len(cells)
    for sym, msg in zip(plan.symbols, cells):
        want = np.zeros_like(sym)
        for j, k in msg:
            want ^= lib.data[plan.demands[k] - 1, j]
        assert np.array_equal(sym, want)
    return cells


@pytest.fixture
def mn_scheme():
    return shared_link_scheme(mn_pda(4, 2))


@pytest.fixture
def fano():
    return build_scheme(catalog_design("fano-7-3-1"), 1)


@pytest.fixture
def gdd_scheme():
    return build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2"))


class TestLibrary:
    def test_deterministic(self):
        a = make_library(3, 4, 16, seed=5)
        b = make_library(3, 4, 16, seed=5)
        assert np.array_equal(a.data, b.data)
        assert file_bytes(a, 2) == file_bytes(b, 2)

    def test_seed_changes_content(self):
        a = make_library(3, 4, 16, seed=5)
        b = make_library(3, 4, 16, seed=6)
        assert not np.array_equal(a.data, b.data)

    def test_sizes_are_read_off_the_data(self):
        lib = make_library(3, 4, 16, seed=5)
        assert [f.name for f in dataclasses.fields(lib)] == ["data"]
        assert (lib.num_files, lib.packet_bytes) == (3, 16)

    def test_odd_packet_length_rejected(self):
        with pytest.raises(ConfigurationError):
            make_library(2, 2, 7)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParametersError, match="seed must be non-negative"):
            make_library(2, 2, 8, seed=-1)

    def test_shape_numpy_refuses_is_configuration_error(self):
        # numpy refuses this shape before it allocates anything
        with pytest.raises(ConfigurationError, match="cannot allocate"):
            make_library(10**22, 21, 64)


class TestRequireRoom:
    """The cell budget on a scheme's F and K alone: 64 bytes per F x K cell
    when an id fits one int64 word, 192 when it takes two or more."""

    # complete:16,3 mu=6, 8008 x 560 = 4,484,480 cells: 287 MB at 64 bytes
    # a cell, 861 MB at 192
    F, K = 8008, 560
    # complete:19,3 mu=5, 11,628 x 969 = 11,267,532 cells: 721 MB at 64
    # bytes a cell, 2.16 GB at 192
    BIG_F, BIG_K = 11628, 969

    def test_one_word_ids_are_accepted(self):
        require_room(self.F, self.K, 16, 2)

    @pytest.mark.parametrize("digits, q", [(64, 2), (32, 3), (22, 5)],
                             ids=["64-bits", "32-pairs", "22-triples"])
    def test_ids_past_one_word_of_4_5_m_cells_are_accepted(self, digits, q):
        require_room(self.F, self.K, digits, q)

    def test_one_word_ids_of_11_m_cells_are_accepted(self):
        require_room(self.BIG_F, self.BIG_K, 19, 2)

    @pytest.mark.parametrize("digits, q", [(64, 2), (32, 3), (22, 5)],
                             ids=["64-bits", "32-pairs", "22-triples"])
    def test_ids_past_one_word_are_refused(self, digits, q):
        with pytest.raises(UnsupportedParametersError, match=re.escape(
                "F x K = 11628 x 969 cells need over 1073741824 bytes")):
            require_room(self.BIG_F, self.BIG_K, digits, q)

    @pytest.mark.parametrize("digits, q", [(63, 2), (31, 3), (21, 5)])
    def test_a_full_word_is_one_word(self, digits, q):
        require_room(self.BIG_F, self.BIG_K, digits, q)

    def test_complete_16_3_mu_6_reaches_the_array_build(self):
        with mock.patch.object(scheme_design, "_arrays", side_effect=StopIteration):
            with pytest.raises(StopIteration):
                build_scheme(complete_design(16, 3), 6)

    def test_complete_19_3_mu_5_reaches_the_array_build(self):
        # 11,628 x 969 = 11,267,532 cells: 721 MB at 64 bytes a cell
        with mock.patch.object(scheme_design, "_arrays", side_effect=StopIteration):
            with pytest.raises(StopIteration):
                build_scheme(complete_design(19, 3), 5)

    def test_complete_20_3_mu_5_is_refused(self):
        # 15,504 x 1,140 = 17,674,560 cells: 1.13 GB at 64 bytes a cell
        with pytest.raises(UnsupportedParametersError, match=re.escape(
                "F x K = 15504 x 1140 cells need over 1073741824 bytes")):
            build_scheme(complete_design(20, 3), 5)

    def test_a_design_is_budgeted_for_its_own_blocks(self):
        # fano mu=2: F = C(7, 2) * C(3, 2) = 63 rows, K = its 7 blocks
        with mock.patch.object(scheme_design, "require_room",
                               side_effect=StopIteration) as room:
            with pytest.raises(StopIteration):
                build_scheme(catalog_design("fano-7-3-1"), 2)
        room.assert_called_once_with(63, 7, 7, 2)


class TestUserRetrieve:
    @pytest.mark.parametrize("name", ["mn_scheme", "fano", "gdd_scheme"])
    def test_is_the_read_only_star_pattern_of_q(self, request, name):
        scheme = request.getfixturevalue(name)
        u = scheme.user_retrieve
        assert np.array_equal(u, scheme.user_delivery.grid < 0)
        assert scheme.user_retrieve is u and not u.flags.writeable
        with pytest.raises(AttributeError):
            scheme.user_retrieve = ~u


def by_user_oracle(q) -> tuple:
    """``Pda.by_user`` cell by cell: per user, its non-star rows in order,
    each with the place of that cell in the CSR and its id."""
    rows, cols, _ = q.csr
    place = {cell: p for p, cell in enumerate(zip(rows.tolist(), cols.tolist()))}
    ptr, cells = [0], []
    for k in range(q.num_cols):
        cells += [(j, place[j, k], int(q.grid[j, k])) for j in range(q.num_rows)
                  if q.grid[j, k] >= 0]
        ptr.append(len(cells))
    return (ptr, *map(list, zip(*cells))) if cells else (ptr, [], [], [])


class TestPdaViews:
    def test_verify_and_decode_build_the_csr_and_the_c3_flags_once(self):
        # the numbering builds the CSR, so the build is counted too
        with mock.patch.object(pda_module, "id_cells", wraps=pda_module.id_cells) as csr, \
                mock.patch.object(pda_module, "flag_c3", wraps=pda_module.flag_c3) as c3:
            scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
            lib = make_library(scheme.num_users, scheme.subpacketization, 8, seed=1)
            assert verify_pda(scheme.user_delivery).ok
            for mode in ("plain", "mds"):
                assert measure_worst_case(scheme, lib, mode).all_ok
            assert run_demand_trials(scheme, lib, 2, seed=1) == 2
            assert len(scheme.user_delivery.id_positions) == scheme.counted_messages
        assert (csr.call_count, c3.call_count) == (1, 1)

    @pytest.mark.parametrize("view", ["grid", "stars", "csr", "packed", "c3_flags", "by_user",
                                      "known"])
    def test_cached_views_are_read_only(self, fano, view):
        q = fano.user_delivery
        value = getattr(q, view)
        assert getattr(q, view) is value
        for array in value if isinstance(value, tuple) else (value,):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert fano.user_retrieve is q.stars

    @pytest.mark.parametrize("name", ["mn_scheme", "fano", "gdd_scheme"])
    def test_by_user_lists_each_users_cells_in_row_order(self, request, name):
        q = request.getfixturevalue(name).user_delivery
        assert tuple(map(np.ndarray.tolist, q.by_user)) == by_user_oracle(q)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 9)), ids=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_by_user_matches_the_oracle_on_any_grid(self, shape, ids, seed):
        keys = np.random.default_rng(seed).integers(0, ids + 1, shape) - 1
        q = grid_pda(keys)
        assert tuple(map(np.ndarray.tolist, q.by_user)) == by_user_oracle(q)

    def test_verify_and_the_bundle_write_leave_by_user_unbuilt(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        assert verify_pda(scheme.user_delivery).ok
        dump_json(scheme_to_obj(scheme))
        assert "by_user" not in vars(scheme.user_delivery)

    def test_cell_lists_are_read_only(self, fano):
        positions = fano.user_delivery.id_positions
        ident = fano.user_delivery.ids[0]
        with pytest.raises(TypeError):
            positions[ident] = ()
        assert fano.user_delivery.id_positions is positions


class TestPlacement:
    def test_mn_caches_match_columns(self, mn_scheme):
        lib = make_library(4, 6, 8)
        caches = place(lib, mn_scheme)
        assert held_rows(caches, 0) == {0, 1, 2}
        assert held_rows(caches, 1) == {0, 3, 4}
        assert held_rows(caches, 2) == {1, 3, 5}
        assert held_rows(caches, 3) == {2, 4, 5}

    def test_grid_is_a_read_only_copy(self, fano):
        caches = place(make_library(7, 21, 8), fano)
        assert np.array_equal(caches.grid, fano.node_placement)
        assert caches.grid is not fano.node_placement
        assert not caches.grid.flags.writeable

    def test_fano_node_one_holds_its_subsets(self, fano):
        lib = make_library(7, 21, 8)
        caches = place(lib, fano)
        # rows (D={1}, T) for the three T choices: indices 0, 7, 14
        assert held_rows(caches, 0) == {0, 7, 14}

    def test_gdd_node_rows(self, gdd_scheme):
        lib = make_library(12, 4, 8)
        caches = place(lib, gdd_scheme)
        assert held_rows(caches, 0) == {0, 2}  # node (1,1): rows 1 and 3

    def test_zero_cache(self):
        scheme = build_scheme(catalog_design("fano-7-3-1"), 0)
        lib = make_library(7, scheme.subpacketization, 8)
        caches = place(lib, scheme)
        assert not caches.grid.any()

    def test_byte_budget(self, fano):
        lib = make_library(7, 21, 64)
        caches = place(lib, fano)
        mu = Fraction(1, 7)
        per_file = 21 * 64
        for g in range(7):
            held = len(held_rows(caches, g)) * lib.num_files * lib.packet_bytes
            assert held == mu * 7 * per_file

    def test_size_mismatch(self, fano):
        lib = make_library(7, 21, 8)
        # a library cut to 20 packets is refused as one made with 20
        for short in (make_library(7, 20, 8), dataclasses.replace(lib, data=lib.data[:, :20])):
            with pytest.raises(InvalidInputError, match=re.escape(
                    "library has 20 packets per file, scheme needs 21")):
                place(short, fano)


class TestPlainDelivery:
    def test_mn_reference_messages(self, mn_scheme):
        lib = make_library(4, 6, 8)
        plan = deliver_plain(mn_scheme, lib, (1, 2, 3, 4))
        got = [
            sorted((plan.demands[k], j + 1) for j, k in cells)
            for cells in assert_plain_symbols(mn_scheme, lib, plan)
        ]
        assert got == [
            [(1, 4), (2, 2), (3, 1)],
            [(1, 5), (2, 3), (4, 1)],
            [(1, 6), (3, 3), (4, 2)],
            [(2, 6), (3, 5), (4, 4)],
        ]

    def test_structure_is_demand_oblivious(self, fano):
        lib = make_library(7, 21, 8)
        a = deliver_plain(fano, lib, tuple(range(1, 8)))
        b = deliver_plain(fano, lib, (3,) * 7)
        # both plans are XORs over the same message cells
        assert assert_plain_symbols(fano, lib, a) == assert_plain_symbols(fano, lib, b)
        assert a.symbols_sent == b.symbols_sent == 28

    def test_unicast_pda(self):
        scheme = shared_link_scheme(mn_pda(3, 0))
        lib = make_library(3, 1, 8)
        plan = deliver_plain(scheme, lib, (1, 2, 3))
        assert plan.symbols_sent == 3
        assert all(len(cells) == 1 for cells in assert_plain_symbols(scheme, lib, plan))

    def test_bad_demands(self, fano):
        lib = make_library(7, 21, 8)
        with pytest.raises(InvalidParametersError):
            deliver_plain(fano, lib, (1, 2))
        with pytest.raises(InvalidParametersError):
            deliver_plain(fano, lib, (0,) * 7)

    @pytest.mark.parametrize("deliver", [deliver_plain, deliver_mds], ids=["plain", "mds"])
    @pytest.mark.parametrize("entry", [1.9, 1.0, True, np.True_, "1", "x", None, (1,)],
                             ids=repr)
    def test_demands_take_integers_only(self, fano, deliver, entry):
        lib = make_library(7, 21, 8)
        demands = (1, 2, entry, 4, entry, 6, 7)
        with pytest.raises(InvalidParametersError, match=re.escape(f"demands[2] is {entry!r}")):
            deliver(fano, lib, demands)

    @pytest.mark.parametrize("deliver", [deliver_plain, deliver_mds], ids=["plain", "mds"])
    @pytest.mark.parametrize("entry", [0, 8, 9, -1])
    def test_demands_name_the_first_file_outside_the_library(self, fano, deliver, entry):
        lib = make_library(7, 21, 8)
        with pytest.raises(InvalidParametersError,
                           match=re.escape(f"demands[6] is {entry}, outside 1..7")):
            deliver(fano, lib, (1, 2, 3, 4, 5, 6, entry))
        with pytest.raises(InvalidParametersError,
                           match=re.escape(f"demands[1] is {entry}, outside 1..7")):
            deliver(fano, lib, (1, entry, 3, 4, 5, 6, entry))

    @pytest.mark.parametrize("deliver", [deliver_plain, deliver_mds], ids=["plain", "mds"])
    def test_demands_take_numpy_integers(self, fano, deliver):
        lib = make_library(7, 21, 8)
        demands = (1, np.int64(2), np.uint8(3), np.int32(4), 5, 6, 7)
        assert deliver(fano, lib, demands).demands == tuple(range(1, 8))
        assert deliver(fano, lib, np.arange(1, 8)).demands == tuple(range(1, 8))


class TestDecode:
    def test_mn_all_users(self, mn_scheme):
        lib = make_library(4, 6, 8)
        caches = place(lib, mn_scheme)
        plan = deliver_plain(mn_scheme, lib, (1, 2, 3, 4))
        for k in range(4):
            assert decode(mn_scheme, k, plan, caches) == file_bytes(lib, k + 1)

    def test_fano_plain_and_mds(self, fano):
        lib = make_library(7, 21, 16)
        for mode in ("plain", "mds"):
            rep = measure_worst_case(fano, lib, mode)
            assert rep.all_ok
            assert rep.symbols_sent == 28
            assert rep.measured_load == Fraction(4, 3)

    def test_gdd_users(self, gdd_scheme):
        lib = make_library(12, 4, 16)
        rep = measure_worst_case(gdd_scheme, lib)
        assert rep.all_ok
        assert rep.measured_load == 1

    def test_decode_by_block_label(self, fano):
        lib = make_library(7, 21, 8)
        caches = place(lib, fano)
        plan = deliver_plain(fano, lib, tuple(range(1, 8)))
        assert decode(fano, (1, 2, 4), plan, caches) == file_bytes(lib, 1)

    def test_decode_gdd_user_by_list_of_lists_block(self, gdd_scheme):
        lib = make_library(12, 4, 8)
        plan = deliver_plain(gdd_scheme, lib, tuple(range(1, 13)))
        k = 5
        block = [list(p) for p in reversed(gdd_scheme.user_blocks[k])]
        assert decode(gdd_scheme, block, plan, place(lib, gdd_scheme)) == file_bytes(lib, k + 1)

    def test_unknown_block_is_rejected(self, fano):
        lib = make_library(7, 21, 8)
        plan = deliver_plain(fano, lib, tuple(range(1, 8)))
        with pytest.raises(InvalidInputError, match=re.escape("no user with block (1, 2, 3)")):
            decode(fano, [3, 2, 1], plan, place(lib, fano))

    @pytest.mark.parametrize("user", [-1, 35, 2.0, True, None, (1, "a"), (1, (1, 1))])
    def test_user_that_is_not_an_index_is_rejected(self, user):
        scheme = build_scheme(complete_design(7, 3), 1)
        assert scheme.num_users == 35
        lib = make_library(35, scheme.subpacketization, 8)
        caches = place(lib, scheme)
        plan = deliver_plain(scheme, lib, random_demands(scheme, lib, Random(2)))
        neither = re.escape(f"user {user!r} is neither")
        with pytest.raises(InvalidInputError, match=neither):
            decode(scheme, user, plan, caches)
        with pytest.raises(InvalidInputError, match=neither):
            next(decode_all(scheme, plan, caches, [0, user]))

    def test_retrieve_grid_claiming_an_unheld_row_fails(self, fano):
        # user 0's first missing row travels in a message whose side packet
        # sits in row j; the retrieve grid still claims row j for user 0,
        # but user 0's nodes no longer hold it
        import dataclasses

        pda = fano.user_delivery
        needed = int(np.flatnonzero(~fano.user_retrieve[:, 0])[0])
        ident = pda.cell(needed, 0)
        j = next(r for r, c in pda.id_positions[ident] if c != 0)
        placement = fano.node_placement.copy()
        placement[j, fano.user_nodes[0]] = False
        broken = dataclasses.replace(fano, node_placement=placement)
        lib = make_library(7, 21, 8)
        plan = deliver_plain(broken, lib, tuple(range(1, 8)))
        with pytest.raises(DecodeFailureError) as exc:
            decode(broken, 0, plan, place(lib, broken))
        err = exc.value
        assert err.user == 0
        assert j in {r for r, _ in pda.id_positions[pda.ids[err.message_id - 1]]}
        assert f"row {j} not cached" in str(err)

    def test_id_repeated_in_a_column_is_undecodable(self):
        # C3a fails: user 0 needs both packets of message 1
        from macc.pda import STAR, Pda

        scheme = shared_link_scheme(Pda(((1, STAR), (1, STAR))))
        lib = make_library(2, 2, 8)
        plan = deliver_plain(scheme, lib, (1, 2))
        with pytest.raises(DecodeFailureError, match="row 1 not cached"):
            decode(scheme, 0, plan, place(lib, scheme))

    def test_all_star_decodes_from_cache(self, tmp_path):
        scheme = shared_link_scheme(mn_pda(3, 3))
        lib = make_library(3, 1, 8)
        rep = measure_worst_case(scheme, lib)
        assert rep.all_ok and rep.symbols_sent == 0 and rep.measured_load == 0
        # an empty transcript read back carries no symbol width
        write_transcript(deliver_plain(scheme, lib, (1, 2, 3)), tmp_path / "t.bin")
        back = read_transcript(tmp_path / "t.bin")
        assert decode(scheme, 2, back, place(lib, scheme)) == file_bytes(lib, 3)

    def test_repeated_demands_decode(self, fano):
        lib = make_library(7, 21, 8)
        rep = run_simulation(fano, lib, (2, 2, 5, 5, 1, 1, 1))
        assert rep.all_ok
        assert rep.symbols_sent == 28  # structure unchanged by repeats


class TestMdsDelivery:
    def test_affine_reduction_count(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        lib = make_library(12, scheme.subpacketization, 16)
        rep = measure_worst_case(scheme, lib, "mds")
        assert rep.all_ok
        assert rep.symbols_sent == scheme.counted_messages - 6
        assert rep.measured_load == Fraction(scheme.counted_messages - 6, 108)

    def test_biplane_load_one(self):
        scheme = build_scheme(catalog_design("biplane-7-4-2"), 1)
        lib = make_library(7, 42, 16)
        rep = measure_worst_case(scheme, lib, "mds")
        assert rep.all_ok
        assert rep.symbols_sent == 42
        assert rep.measured_load == 1

    def test_known_set_superset_of_guarantee(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        lib = make_library(12, scheme.subpacketization, 8)
        caches = place(lib, scheme)
        for k in range(scheme.num_users):
            sim_known = reconstructible_messages(scheme, caches, k)
            assert len(sim_known) >= scheme.guaranteed_known
            # independent double-check against the array-level computation
            array_known = set(np.flatnonzero(scheme.user_delivery.known[k]).tolist())
            assert sim_known == array_known

    def test_max_unknown_reported(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        lib = make_library(12, scheme.subpacketization, 8)
        rep = measure_worst_case(scheme, lib, "mds")
        assert rep.max_unknown <= scheme.counted_messages - scheme.guaranteed_known

    def test_uncoded_batch_past_the_field_sends_its_payloads(self):
        # r = 0: the S = 40,000 payloads go out as they are, with no Cauchy
        # matrix, so 2S past the field's 65,536 elements refuses nothing
        wide = shared_link_scheme(Pda([list(range(1, 40001))]))
        lib = make_library(40000, 1, 2)
        demands = tuple(range(1, 40001))
        plan = deliver_mds(wide, lib, demands)
        assert (plan.mode, plan.num_messages, plan.reduced_by) == ("mds", 40000, 0)
        assert plan.symbols.tobytes() == deliver_plain(wide, lib, demands).symbols.tobytes()
        users = [0, 39999, 17, 20000]
        got = [(k, out.tobytes()) for k, out in decode_all(wide, plan, place(lib, wide), users)]
        assert got == [(k, file_bytes(lib, demands[k])) for k in users]

    def test_coded_batch_past_the_field_is_refused(self, monkeypatch):
        # fano mu=3 codes S = 21 messages into S - r = 15 symbols, whose
        # 15 x 21 Cauchy matrix takes 21 + 15 = 36 distinct field elements;
        # the refusal comes before the payloads are gathered
        scheme = build_scheme(catalog_design("fano-7-3-1"), 3)
        lib = make_library(7, scheme.subpacketization, 8)
        assert (scheme.counted_messages, scheme.guaranteed_known) == (21, 6)
        monkeypatch.setattr(gf16, "FIELD_SIZE", 35)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_payloads", None)
            with pytest.raises(ConfigurationError, match="needs 36 distinct field elements"):
                deliver_mds(scheme, lib, tuple(range(1, 8)))
        monkeypatch.setattr(gf16, "FIELD_SIZE", 36)
        assert deliver_mds(scheme, lib, tuple(range(1, 8))).symbols_sent == 15

    def test_unsound_reduction_refused(self):
        # index-2 design with two cached nodes per subfile: some user can
        # rebuild fewer messages than the advertised reduction, so the
        # coded batch would be undecodable and must be refused
        from macc.errors import UnsupportedParametersError

        scheme = build_scheme(catalog_design("biplane-7-4-2"), 2)
        lib = make_library(7, scheme.subpacketization, 8)
        with pytest.raises(UnsupportedParametersError):
            deliver_mds(scheme, lib, tuple(range(1, 8)))
        # plain delivery is unaffected
        rep = measure_worst_case(scheme, lib, "plain")
        assert rep.all_ok


class TestRandomTrials:
    def test_fano_fifty_vectors(self, fano):
        lib = make_library(7, 21, 8)
        assert run_demand_trials(fano, lib, 50, seed=11) == 50

    def test_gdd_fifty_vectors(self, gdd_scheme):
        lib = make_library(12, 4, 8)
        assert run_demand_trials(gdd_scheme, lib, 50, seed=12) == 50

    def test_random_demand_helper(self, fano):
        lib = make_library(7, 21, 8)
        demands = random_demands(fano, lib, Random(3))
        assert len(demands) == 7
        assert all(1 <= d <= 7 for d in demands)

    @pytest.mark.parametrize("count", [-3, -1, 2.5, 4.0, True, False, None, "4", np.int64(-1),
                                       np.bool_(True)])
    def test_count_that_is_not_a_non_negative_int_is_refused(self, fano, count):
        with pytest.raises(InvalidParametersError, match="trial count"):
            run_demand_trials(fano, make_library(7, 21, 8), count)

    @pytest.mark.parametrize("count", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_count_is_run(self, fano, count):
        # counted as the demands are: any Python or numpy integer
        assert run_demand_trials(fano, make_library(7, 21, 8), count, seed=1) == 2

    def test_zero_trials_run_none(self, fano, monkeypatch):
        monkeypatch.setattr(simulate, "random_demands", mock.Mock(side_effect=AssertionError))
        assert run_demand_trials(fano, make_library(7, 21, 8), 0) == 0


class TestWorstCase:
    def test_mn_load(self, mn_scheme):
        lib = make_library(4, 6, 8)
        rep = measure_worst_case(mn_scheme, lib)
        assert rep.measured_load == Fraction(2, 3)
        assert rep.measured_load == rep.theoretical_load

    def test_needs_enough_files(self, fano):
        with pytest.raises(InvalidParametersError):
            distinct_demands(fano, make_library(5, 21, 8))


class TestTranscript:
    def test_round_trip(self, fano, tmp_path):
        lib = make_library(7, 21, 16)
        plan = deliver_mds(fano, lib, tuple(range(1, 8)))
        path = tmp_path / "delivery.bin"
        write_transcript(plan, path)
        back = read_transcript(path)
        assert back.mode == "mds"
        assert back.num_messages == plan.num_messages
        assert back.demands == plan.demands
        assert np.array_equal(back.symbols, plan.symbols)

    def test_plain_round_trip(self, mn_scheme, tmp_path):
        lib = make_library(4, 6, 8)
        plan = deliver_plain(mn_scheme, lib, (1, 2, 3, 4))
        path = tmp_path / "t.bin"
        write_transcript(plan, path)
        back = read_transcript(path)
        assert back.mode == "plain"
        assert np.array_equal(back.symbols, plan.symbols)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope")
        with pytest.raises(InvalidInputError):
            read_transcript(path)

    @pytest.mark.parametrize("design, cached, mode", [
        ("affine-9-3-1", 2, "mds"),
        ("fano-7-3-1", 1, "plain"),
    ])
    def test_decode_from_transcript_read_back(self, tmp_path, design, cached, mode):
        scheme = build_scheme(catalog_design(design), cached)
        lib = make_library(scheme.num_users, scheme.subpacketization, 16, seed=2)
        deliver = deliver_mds if mode == "mds" else deliver_plain
        path = tmp_path / "t.bin"
        write_transcript(deliver(scheme, lib, distinct_demands(scheme, lib)), path)
        back = read_transcript(path)
        caches = place(lib, scheme)
        for k in range(scheme.num_users):
            assert decode(scheme, k, back, caches) == file_bytes(lib, k + 1)

    def test_truncated_file_is_invalid_input(self, tmp_path):
        scheme = build_scheme(catalog_design("fano-7-3-1"), 3)
        lib = make_library(7, scheme.subpacketization, 16)
        path = tmp_path / "t.bin"
        write_transcript(deliver_mds(scheme, lib, distinct_demands(scheme, lib)), path)
        whole = path.read_bytes()
        for cut in (8, 40, len(whole) - 1):
            path.write_bytes(whole[:cut])
            with pytest.raises(InvalidInputError, match="truncated"):
                read_transcript(path)
        # a length field far beyond the file is refused before any read:
        # K, the symbol count, the words per symbol
        for at in (10, 14, 18):
            path.write_bytes(whole[:at] + b"\xff" * 4 + whole[at + 4:])
            with pytest.raises(InvalidInputError, match="truncated"):
                read_transcript(path)


@functools.cache
def _scheme(design: str, cached: int):
    return build_scheme(catalog_design(design), cached)


@functools.cache
def _written(design: str, cached: int, mode: str) -> tuple:
    """A scheme, its library and its distinct-demand plan."""
    scheme = _scheme(design, cached)
    lib = make_library(scheme.num_users, scheme.subpacketization, 16, seed=2)
    deliver = deliver_mds if mode == "mds" else deliver_plain
    plan = deliver(scheme, lib, distinct_demands(scheme, lib))
    return scheme, lib, plan


def _header_fields(plan) -> list:
    """(offset, struct format) of every header field of a written
    transcript: version, mode, S, K, symbol count, words per symbol and
    each demand."""
    return [(4, "<B"), (5, "<B"), (6, "<I"), (10, "<I"), (14, "<I"), (18, "<I"),
            *((22 + 4 * i, "<I") for i in range(len(plan.demands)))]


_INSTANCES = [("fano-7-3-1", 1, "plain"), ("affine-9-3-1", 2, "mds")]


class TestPlanFitsScheme:
    @pytest.mark.parametrize("instance, field, edit", [
        (_INSTANCES[0], "demands", lambda p: {"demands": p.demands[:-1]}),
        (_INSTANCES[0], "demands", lambda p: {"demands": p.demands[:-1] + (8,)}),
        (_INSTANCES[0], "demands", lambda p: {"demands": (0,) + p.demands[1:]}),
        (_INSTANCES[0], "num_messages", lambda p: {"num_messages": p.num_messages + 1}),
        (_INSTANCES[0], "symbols", lambda p: {"symbols": p.symbols[:-1]}),
        (_INSTANCES[0], "symbols", lambda p: {"symbols": p.symbols[:, :-1]}),
        (_INSTANCES[1], "symbols", lambda p: {"symbols": p.symbols[:, :-1]}),
        (_INSTANCES[1], "symbols", lambda p: {"symbols": np.vstack([p.symbols] * 3)}),
    ])
    def test_plan_read_back_and_edited_is_rejected(self, tmp_path, instance, field, edit):
        scheme, lib, plan = _written(*instance)
        write_transcript(plan, tmp_path / "t.bin")
        back = read_transcript(tmp_path / "t.bin")
        bad = dataclasses.replace(back, **edit(back))
        caches = place(lib, scheme)
        for k in range(scheme.num_users):
            with pytest.raises(InvalidInputError, match=f"plan {field} "):
                decode(scheme, k, bad, caches)

    @pytest.mark.parametrize("instance", _INSTANCES)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_rewritten_header_field_decodes_or_raises(self, tmp_path_factory, instance, data):
        scheme, lib, plan = _written(*instance)
        path = tmp_path_factory.getbasetemp() / f"rewrite-{instance[0]}.bin"
        write_transcript(plan, path)
        whole = bytearray(path.read_bytes())
        offset, fmt = data.draw(st.sampled_from(_header_fields(plan)))
        (was,) = struct.unpack_from(fmt, whole, offset)
        top = 256 ** struct.calcsize(fmt) - 1
        value = data.draw(st.one_of(
            st.integers(0, top), st.integers(-2, 2).map(lambda d: min(max(was + d, 0), top)),
        ))
        struct.pack_into(fmt, whole, offset, value)
        path.write_bytes(bytes(whole))
        caches = place(lib, scheme)
        try:
            back = read_transcript(path)
            for k in range(scheme.num_users):
                assert isinstance(decode(scheme, k, back, caches), bytes)
        except MaccError:
            pass


_ROUND_TRIP = [("fano-7-3-1", 1), ("fano-7-3-1", 3), ("affine-9-3-1", 2),
               ("affine-9-3-1", 3), ("biplane-7-4-2", 1)]
_FUZZED = [*_INSTANCES, ("fano-7-3-1", 3, "mds")]


def _damage(data, whole: bytes) -> tuple:
    """The transcript cut at any offset, with any one bit flipped, or with
    bytes appended, and which of the three it is."""
    how = data.draw(st.sampled_from(("truncate", "flip", "append")))
    if how == "truncate":
        return how, whole[:data.draw(st.integers(0, len(whole) - 1))]
    if how == "append":
        return how, whole + data.draw(st.binary(min_size=1, max_size=64))
    bit = data.draw(st.integers(0, 8 * len(whole) - 1))
    flipped = bytearray(whole)
    flipped[bit // 8] ^= 1 << bit % 8
    return how, bytes(flipped)


class TestTranscriptFormat:
    @settings(max_examples=40, deadline=None)
    @given(instance=st.sampled_from(_ROUND_TRIP), mode=st.sampled_from(("plain", "mds")),
           seed=st.integers(0, 2**32 - 1), words=st.integers(1, 40))
    def test_round_trip_is_exact_and_decodes(self, tmp_path_factory, instance, mode,
                                             seed, words):
        scheme = _scheme(*instance)
        lib = make_library(scheme.num_users, scheme.subpacketization, 2 * words, seed)
        deliver = deliver_mds if mode == "mds" else deliver_plain
        plan = deliver(scheme, lib, random_demands(scheme, lib, Random(seed)))
        path = tmp_path_factory.getbasetemp() / "round-trip.bin"
        write_transcript(plan, path)
        first = path.read_bytes()
        assert len(first) == 22 + 4 * scheme.num_users + 2 * plan.symbols.size
        back = read_transcript(path)
        assert (back.mode, back.demands, back.num_messages) == (
            mode, plan.demands, plan.num_messages)
        assert np.array_equal(back.symbols, plan.symbols)
        write_transcript(back, path)
        assert path.read_bytes() == first
        caches = place(lib, scheme)
        for k in range(scheme.num_users):
            assert decode(scheme, k, back, caches) == file_bytes(lib, plan.demands[k])

    @settings(max_examples=150, deadline=None)
    @given(instance=st.sampled_from(_FUZZED), data=st.data())
    def test_damaged_transcript_raises_only_macc_error(self, tmp_path_factory, instance,
                                                       data):
        scheme, lib, plan = _written(*instance)
        path = tmp_path_factory.getbasetemp() / "damaged.bin"
        write_transcript(plan, path)
        how, damaged = _damage(data, path.read_bytes())
        path.write_bytes(damaged)
        if how != "flip":  # a file of the wrong length never reads
            with pytest.raises(InvalidInputError):
                read_transcript(path)
            return
        caches = place(lib, scheme)
        try:
            back = read_transcript(path)
            for k in range(scheme.num_users):
                assert isinstance(decode(scheme, k, back, caches), bytes)
        except MaccError:
            pass

    @pytest.mark.parametrize("offset, value, match", [
        (5, 2, "mode byte 2,"),
        (5, 99, "mode byte 99,"),
        (5, 255, "mode byte 255,"),
        (4, 0, "version 0,"),  # a version-1 file has its mode flag here
        (4, 1, "version 1,"),
        (4, 3, "version 3,"),
    ])
    def test_bad_header_byte_is_invalid_input(self, tmp_path, offset, value, match):
        _, _, plan = _written("fano-7-3-1", 1, "plain")
        path = tmp_path / "t.bin"
        write_transcript(plan, path)
        whole = bytearray(path.read_bytes())
        whole[offset] = value
        path.write_bytes(bytes(whole))
        with pytest.raises(InvalidInputError, match=match):
            read_transcript(path)

    @pytest.mark.parametrize("extra", [1, 400])
    def test_appended_bytes_are_invalid_input(self, tmp_path, extra):
        _, _, plan = _written("fano-7-3-1", 1, "plain")
        path = tmp_path / "t.bin"
        write_transcript(plan, path)
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        with pytest.raises(InvalidInputError, match="bytes after its symbols"):
            read_transcript(path)


class TestDecodeAll:
    def test_matches_per_user_decode_of_a_transcript_read_back(self, tmp_path):
        scheme, lib, plan = _written("affine-9-3-1", 2, "mds")
        write_transcript(plan, tmp_path / "t.bin")
        back = read_transcript(tmp_path / "t.bin")
        caches = place(lib, scheme)
        got = [(k, out.tobytes()) for k, out in decode_all(scheme, back, caches)]
        assert got == [(k, decode(scheme, k, back, caches)) for k in range(scheme.num_users)]
        assert all(out == file_bytes(lib, back.demands[k]) for k, out in got)
        # the coded and the plain plan of the same demands, for the users
        # asked for, in that order
        for plan in (back, deliver_plain(scheme, lib, back.demands)):
            users = []
            for k, out in decode_all(scheme, plan, caches, [5, 0]):
                users.append(k)
                assert out.tobytes() == file_bytes(lib, back.demands[k])
            assert users == [5, 0]

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(("plain", "mds")),
           block_rows=st.sampled_from([1, 36, 100, _BLOCK_ROWS]), data=st.data())
    def test_any_user_list_decodes_as_the_full_decode(self, mode, block_rows, data):
        # reordered, non-contiguous, single and repeated users, across blocks
        scheme, lib, plan = _written("affine-9-3-1", 2, mode)
        caches = place(lib, scheme)
        full = {k: out.tobytes() for k, out in decode_all(scheme, plan, caches)}
        users = data.draw(st.lists(st.integers(0, scheme.num_users - 1), min_size=1,
                                   max_size=scheme.num_users))
        with mock.patch.object(simulate, "_BLOCK_ROWS", block_rows):
            got = [(k, out.tobytes()) for k, out in decode_all(scheme, plan, caches, users)]
        assert got == [(k, full[k]) for k in users]

    @pytest.mark.parametrize("block_rows", [21, 42, 63])
    def test_damage_in_a_later_block_names_its_first_user(self, fano, monkeypatch, block_rows):
        # a message that no user of the first block peels: the blocks before
        # the damaged one pass their one comparison, and the error still
        # names the first user, message and row
        grid = fano.user_delivery.grid
        first_block = max(1, block_rows // fano.subpacketization)
        s = int(np.setdiff1d(np.arange(fano.counted_messages), grid[:, :first_block])[0])
        gather = simulate._payloads

        def damaged(q, data, demands):
            out = gather(q, data, demands)
            out[s, -1] ^= 1
            return out

        monkeypatch.setattr(simulate, "_payloads", damaged)
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        k = int(np.flatnonzero((grid == s).any(axis=0))[0])
        j = int(np.flatnonzero(grid[:, k] == s)[0])
        assert k >= first_block
        with pytest.raises(DecodeFailureError) as exc:
            run_demand_trials(fano, make_library(7, 21, 64), 4, seed=3)
        assert (exc.value.user, exc.value.message_id) == (k, s + 1)
        assert f"row {j} payload mismatch" in str(exc.value)

    def test_coded_column_that_repeats_an_id_gets_its_payload_twice(self):
        # user 1's column holds message 1 at rows 0 and 1 (C3a fails), and
        # each user rebuilds one message from cache, so one symbol is saved
        scheme = dataclasses.replace(shared_link_scheme(Pda(
            ((STAR, 1), (STAR, 1), (2, STAR), (3, STAR)))),
            claims=SimpleNamespace(guaranteed_known=1))
        lib = make_library(2, 4, 8, seed=4)
        plan = deliver_mds(scheme, lib, (2, 1))
        assert plan.symbols_sent == 2
        caches = place(lib, scheme)
        with pytest.raises(DecodeFailureError, match="user 1 failed on message 1: packet row 1"):
            list(decode_all(scheme, plan, caches))
        grid = caches.grid.copy()
        grid[:2, 1] = True  # the side rows user 1 lacks
        full = dataclasses.replace(caches, grid=grid)
        for users in (None, [1], [1, 0, 1]):
            assert [(k, out.tobytes()) for k, out in decode_all(scheme, plan, full, users)] == [
                (k, file_bytes(lib, (2, 1)[k])) for k in (users or (0, 1))]

    def test_cauchy_matrix_is_built_once_per_plan(self, monkeypatch):
        scheme = _scheme("affine-9-3-1", 2)
        lib = make_library(scheme.num_users, scheme.subpacketization, 16, seed=2)
        calls, build = [], gf16.cauchy_matrix
        monkeypatch.setattr(gf16, "cauchy_matrix", lambda *a: calls.append(a) or build(*a))
        rep = run_simulation(scheme, lib, distinct_demands(scheme, lib), "mds")
        assert rep.all_ok
        # one in deliver_mds, one in decode_all; not one per user
        assert calls == [(120, 126)] * 2

    def test_trials_name_the_user_message_and_row_not_cached(self, fano):
        # as in test_retrieve_grid_claiming_an_unheld_row_fails: user 0's
        # nodes lose row j, which carries a side packet user 0 peels off
        pda = fano.user_delivery
        needed = int(np.flatnonzero(~fano.user_retrieve[:, 0])[0])
        j = next(r for r, c in pda.id_positions[pda.cell(needed, 0)] if c != 0)
        placement = fano.node_placement.copy()
        placement[j, fano.user_nodes[0]] = False
        broken = dataclasses.replace(fano, node_placement=placement)
        with pytest.raises(DecodeFailureError) as exc:
            run_demand_trials(broken, make_library(7, 21, 8), 4, seed=3)
        err = exc.value
        assert err.user == 0
        assert j in {r for r, _ in pda.id_positions[pda.ids[err.message_id - 1]]}
        assert f"row {j} not cached" in str(err)

    # the first uint16 word of an 8-byte packet, and the last of a 64-byte
    # one, which lies in the last of its u8 words
    @pytest.mark.parametrize("packet_bytes, word", [(8, 0), (64, -1)])
    def test_trials_name_the_user_message_and_row_of_a_wrong_packet(self, fano, monkeypatch,
                                                                    packet_bytes, word):
        gather = simulate._payloads

        def damaged(q, data, demands):
            out = gather(q, data, demands)
            out[5, word] ^= 1  # message 6
            return out

        monkeypatch.setattr(simulate, "_payloads", damaged)
        lib = make_library(7, 21, packet_bytes)
        with pytest.raises(DecodeFailureError) as exc:
            run_demand_trials(fano, lib, 4, seed=3)
        # the first user that peels message 6, at the row where it does
        grid = fano.user_delivery.grid
        k = int(np.flatnonzero((grid == 5).any(axis=0))[0])
        j = int(np.flatnonzero(grid[:, k] == 5)[0])
        assert (exc.value.user, exc.value.message_id) == (k, 6)
        assert f"row {j} payload mismatch" in str(exc.value)
        # the worst case marks every user that peels message 6
        rep = run_simulation(fano, lib, range(1, 8))
        assert rep.decode_ok == tuple(~(grid == 5).any(axis=0))

    def test_a_wrong_gathered_packet_fails_the_user_at_its_cell(self, fano, monkeypatch):
        # every gather flips one bit of the first cell's packet, so the sent
        # message carries the flip: a user at another cell of the message
        # peels that packet, flip and all, back out, but the cell's own user
        # reads its row as the message without the other packets, and so
        # keeps the flip
        gather = simulate._gather

        def damaged(*args):
            out = gather(*args)
            out[0, 0] ^= 1
            return out

        monkeypatch.setattr(simulate, "_gather", damaged)
        rows, cols, _ = fano.user_delivery.csr
        j, k = int(rows[0]), int(cols[0])
        lib = make_library(7, 21, 8)
        assert measure_worst_case(fano, lib).decode_ok == tuple(u != k for u in range(7))
        with pytest.raises(DecodeFailureError) as exc:
            run_demand_trials(fano, lib, 4, seed=3)
        assert (exc.value.user, exc.value.message_id) == (k, 1)
        assert f"row {j} payload mismatch" in str(exc.value)

    @pytest.mark.parametrize("block_rows", [1, 21, 42, 63, _BLOCK_ROWS])
    def test_blocks_of_users_keep_the_first_mismatch(self, fano, monkeypatch, block_rows):
        # files are compared a block of users at a time (block_rows // F
        # users, at least one); the error still names the first user in user
        # order that peels a damaged message, at its first damaged row
        gather = simulate._payloads

        def damaged(q, data, demands):
            out = gather(q, data, demands)
            out[[12, 5], 0] ^= 1  # messages 13 and 6
            return out

        monkeypatch.setattr(simulate, "_payloads", damaged)
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        grid = fano.user_delivery.grid
        bad = (grid == 12) | (grid == 5)
        k = int(np.flatnonzero(bad.any(axis=0))[0])
        j = int(np.flatnonzero(bad[:, k])[0])
        with pytest.raises(DecodeFailureError) as exc:
            run_demand_trials(fano, make_library(7, 21, 8), 4, seed=3)
        assert (exc.value.user, exc.value.message_id) == (k, int(grid[j, k]) + 1)
        assert f"row {j} payload mismatch" in str(exc.value)
        # the worst case marks every user that peels a damaged message
        rep = run_simulation(fano, make_library(7, 21, 8), range(1, 8))
        assert rep.decode_ok == tuple(~bad.any(axis=0))


class TestWideWords:
    """Every bitwise step of the decode runs on packets viewed in the widest
    words that tile them: u8 for a multiple of 8 bytes, u4 for 4 and u2
    otherwise, with the same bytes out."""

    @pytest.mark.parametrize("packet_bytes, word", [
        (2, 2), (6, 2), (8, 8), (10, 2), (12, 4), (64, 8), (66, 2),
    ])
    @pytest.mark.parametrize("mode", ["plain", "mds"])
    def test_decode_is_byte_exact_at_any_packet_length(self, tmp_path, packet_bytes, word,
                                                       mode):
        scheme = _scheme("affine-9-3-1", 2)
        lib = make_library(scheme.num_users, scheme.subpacketization, packet_bytes, seed=5)
        assert _wide(lib.data).dtype == np.dtype(f"u{word}")
        demands = random_demands(scheme, lib, Random(packet_bytes))
        plain = deliver_plain(scheme, lib, demands)
        assert_plain_symbols(scheme, lib, plain)
        plan = plain if mode == "plain" else deliver_mds(scheme, lib, demands)
        if mode == "mds":
            assert plan.reduced_by and np.array_equal(plan.symbols, gf16.matvec(
                gf16.cauchy_matrix(plan.symbols_sent, plan.num_messages), plain.symbols))
        assert plan.symbols.dtype == np.uint16
        assert run_simulation(scheme, lib, demands, mode).all_ok
        # the transcript holds the uint16 symbols as they were, and a plan
        # read back decodes every user byte for byte
        path = tmp_path / "t.bin"
        write_transcript(plan, path)
        assert path.read_bytes().endswith(plan.symbols.astype("<u2").tobytes())
        back = read_transcript(path)
        assert back.symbols.tobytes() == plan.symbols.tobytes()
        caches = place(lib, scheme)
        got = [(k, out.tobytes()) for k, out in decode_all(scheme, back, caches)]
        assert got == [(k, file_bytes(lib, d)) for k, d in enumerate(demands)]
        if mode == "plain":
            assert_peels(scheme, lib, plan)
            assert run_demand_trials(scheme, lib, 2, seed=packet_bytes) == 2


def peel_oracle(scheme, caches, payloads, demands, user: int) -> np.ndarray:
    """The per-user peel that the shared leave-one-out XOR replaced: the
    user's starred rows come from cache, and each needed row is its
    message's payload XOR the demanded packets at the other cells of that
    message (the side packets), gathered for this user alone."""
    q = scheme.user_delivery
    rows, cols, ptr = q.csr
    data = caches.library.data
    demands = np.asarray(demands)
    column = q.grid[:, user]
    out = np.empty((len(column), data.shape[2]), dtype=np.uint16)
    own = np.flatnonzero(column < 0)
    out[own] = data[demands[user] - 1, own]
    needed = np.flatnonzero(column >= 0)
    if len(needed):
        msgs = column[needed]
        sizes = ptr[msgs + 1] - ptr[msgs]
        starts = np.cumsum(sizes) - sizes
        cells = np.arange(sizes.sum()) + np.repeat(ptr[msgs] - starts, sizes)
        rows, cols = rows[cells], cols[cells]
        packets = data[demands[cols] - 1, rows]
        packets[(rows == np.repeat(needed, sizes)) & (cols == user)] = 0  # the user's own cell
        out[needed] = payloads[msgs] ^ np.bitwise_xor.reduceat(packets, starts, axis=0)
    return out


def assert_peels(scheme, lib, plan, users=None) -> None:
    """decode_all yields the users asked for, in order, each with the bytes
    of the per-user peel of the plain payloads, which are the demanded file."""
    caches = place(lib, scheme)
    payloads = deliver_plain(scheme, lib, plan.demands).symbols
    got = list(decode_all(scheme, plan, caches, users))
    assert [k for k, _ in got] == list(range(scheme.num_users) if users is None else users)
    for k, out in got:
        assert out.tobytes() == peel_oracle(scheme, caches, payloads, plan.demands, k).tobytes()
        assert out.tobytes() == file_bytes(lib, plan.demands[k])


_PEEL_INSTANCES = [
    *((name, mu) for name in catalog_design_names()
      for mu in range(catalog_design(name).num_points - catalog_design(name).block_size + 1)),
    ("gdd-3-2-2", None),
]


@functools.cache
def _peel_scheme(name: str, mu):
    if name == "gdd-3-2-2":
        return build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2"))
    return _scheme(name, mu)


class TestSharedPeel:
    @settings(max_examples=120, deadline=None)
    @given(instance=st.sampled_from(_PEEL_INSTANCES), mode=st.sampled_from(("plain", "mds")),
           data=st.data())
    def test_decode_all_equals_the_per_user_peel(self, instance, mode, data):
        scheme = _peel_scheme(*instance)
        k = scheme.num_users
        files = data.draw(st.integers(1, k + 2), label="files")
        lib = make_library(files, scheme.subpacketization, 2 * data.draw(st.integers(1, 12)),
                           seed=data.draw(st.integers(0, 2**16)))
        demands = data.draw(st.lists(st.integers(1, files), min_size=k, max_size=k))
        users = data.draw(st.none() | st.lists(st.integers(0, k - 1), unique=True), label="users")
        deliver = deliver_mds if mode == "mds" else deliver_plain
        try:
            plan = deliver(scheme, lib, demands)
        except UnsupportedParametersError:
            assume(False)  # mds refuses an advertised reduction some user cannot meet
        assert_peels(scheme, lib, plan, users)

    @pytest.mark.parametrize("deliver", [deliver_plain, deliver_mds])
    def test_all_star_grid_has_no_cells(self, deliver):
        scheme = shared_link_scheme(mn_pda(3, 3))
        lib = make_library(3, 1, 8)
        assert len(scheme.user_delivery.csr[0]) == 0
        assert_peels(scheme, lib, deliver(scheme, lib, (1, 3, 3)))
        assert_peels(scheme, lib, deliver(scheme, lib, (1, 3, 3)), [2])

    @pytest.mark.parametrize("deliver", [deliver_plain, deliver_mds])
    def test_one_and_two_cell_messages(self, deliver):
        # message 1 has two cells; messages 2 and 3 one each, so user 2,
        # which caches nothing, reads both its rows straight off a payload
        scheme = shared_link_scheme(Pda(((1, STAR, 2), (STAR, 1, 3))))
        assert np.diff(scheme.user_delivery.csr[2]).tolist() == [2, 1, 1]
        lib = make_library(3, 2, 8, seed=4)
        for demands in ((1, 2, 3), (2, 2, 2)):
            assert_peels(scheme, lib, deliver(scheme, lib, demands))
            assert_peels(scheme, lib, deliver(scheme, lib, demands), [2, 0])

    def test_complete_13_3_peels_every_user_and_a_user_list(self):
        scheme = build_scheme(complete_design(13, 3), 4)
        lib = make_library(scheme.num_users, scheme.subpacketization, 8, seed=1)
        plan = deliver_plain(scheme, lib, random_demands(scheme, lib, Random(1)))
        assert_peels(scheme, lib, plan)
        assert_peels(scheme, lib, plan, [285, 0, 143])

    def test_own_packet_cancels_out_of_its_row(self, fano):
        # User k's own packet at needed row j enters the decode twice, once
        # in its message's payload and once in the cancellation, and by C3
        # no other cell user k peels reads it: a library copy with that
        # packet overwritten decodes the same under the plan.
        lib = make_library(7, 21, 8)
        demands = (2, 2, 5, 5, 1, 1, 1)
        plan = deliver_plain(fano, lib, demands)
        for k in range(fano.num_users):
            for j in np.flatnonzero(~fano.user_retrieve[:, k]):
                data = lib.data.copy()
                data[demands[k] - 1, j] = ~data[demands[k] - 1, j]
                copy = dataclasses.replace(lib, data=data)
                assert decode(fano, k, plan, place(copy, fano)) == file_bytes(lib, demands[k])


def reference_failure(scheme, plan, caches, user: int):
    """The cache check of one user, written out cell by cell as the
    reference for ``decode_all``'s once-per-call test: ``(user, message id,
    reason)`` of the first ``DecodeFailureError`` it must raise, or None.
    In order: for a coded plan, every cell of each message the user
    rebuilds from its stars alone, then the side packets of each needed row,
    then the starred rows."""
    q = scheme.user_delivery
    rows, cols, ptr = q.csr
    cached = caches.grid[:, scheme.user_nodes[user]].any(axis=1)
    column = q.grid[:, user]

    def cells(s):
        return zip(rows[ptr[s]:ptr[s + 1]].tolist(), cols[ptr[s]:ptr[s + 1]].tolist())

    def first_uncached(messages):  # (message, the user's own row of it or None)
        for s, own in messages:
            for r, c in cells(s):
                if (r, c) != (own, user) and not cached[r]:
                    return user, s + 1, f"packet row {r} not cached"
        return None

    if plan.reduced_by:
        known = [s for s in range(q.num_ids)
                 if all(column[r] < 0 for r, _ in cells(s))]
        fail = first_uncached((s, None) for s in known)
        if fail:
            return fail
        unknown = plan.num_messages - len(known)
        if unknown > plan.symbols_sent:
            return (user, None,
                    f"{unknown} unknown messages but only {plan.symbols_sent} symbols")
    fail = first_uncached((int(column[j]), j) for j in np.flatnonzero(column >= 0))
    if fail:
        return fail
    missing = [j for j in np.flatnonzero(column < 0).tolist() if not cached[j]]
    return (user, None, f"row {missing[0]} not cached") if missing else None


_CACHE_TEST_SCHEMES = {
    "fano": lambda: _scheme("fano-7-3-1", 1),
    "affine": lambda: _scheme("affine-9-3-1", 2),
    "biplane": lambda: _scheme("biplane-7-4-2", 1),
    "gdd-3-2-2": lambda: _peel_scheme("gdd-3-2-2", None),
    "mn": lambda: shared_link_scheme(mn_pda(5, 2)),
    # C3b fails: message 1 at (0, 0) and (1, 1), but (0, 1) is no star, so
    # user 1's side packet lies in a row it neither stars nor caches
    "no-c3b": lambda: shared_link_scheme(Pda(((1, 2, STAR), (STAR, 1, 3), (4, STAR, 5)))),
    # C3a fails: message 1 twice in user 0's column
    "no-c3a": lambda: shared_link_scheme(Pda(((1, STAR), (1, 2)))),
}


def cover_oracle(grid) -> tuple:
    """``known`` one user at a time, from one count per (user, message) of
    the message's cells in rows that the user's column does not star: 0 for
    a known message.  The grid keeps C3 exactly when that count is 1 (the
    user's own cell) at every message every user needs."""
    rows, _, ptr = id_cells(grid >= 0, grid[grid >= 0])
    known = np.zeros((grid.shape[1], len(ptr) - 1), dtype=bool)
    keeps_c3 = True
    for k, column in enumerate((grid >= 0).T):
        unstarred = np.add.reduceat(column.view(np.uint8)[rows], ptr[:-1], dtype=np.int32)
        known[k] = unstarred == 0
        keeps_c3 &= bool((unstarred[grid[column, k]] == 1).all())
    return known, keeps_c3


class TestCover:
    @pytest.mark.parametrize("name", sorted(_CACHE_TEST_SCHEMES))
    def test_matches_the_per_user_count(self, name):
        q = _CACHE_TEST_SCHEMES[name]().user_delivery
        known, keeps_c3 = cover_oracle(q.grid)
        assert np.array_equal(q.known, known)
        assert (not q.c3_flags.any()) == keeps_c3

    @pytest.mark.parametrize("screen_bytes", [8, _SCREEN_BYTES])
    def test_matches_the_per_user_count_on_complete_13_3(self, screen_bytes):
        q = build_scheme(complete_design(13, 3), 4).user_delivery  # K = 286
        keeps_c3 = not q.c3_flags.any()
        with mock.patch.object(pda_module, "_SCREEN_BYTES", screen_bytes):
            known = q.known
        want_known, want_c3 = cover_oracle(q.grid)
        assert np.array_equal(known, want_known)
        assert keeps_c3 == want_c3

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 70)), ids=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1), screen_bytes=st.sampled_from([8, 16]))
    def test_matches_the_per_user_count_on_any_grid(self, shape, ids, seed, screen_bytes):
        # random cells (key 0 a star) break C3 in every way, ids repeat
        # within rows and columns, and more than 64 users span two words
        keys = np.random.default_rng(seed).integers(0, ids + 1, shape) - 1
        q = grid_pda(keys)
        with mock.patch.object(pda_module, "_SCREEN_BYTES", screen_bytes):
            known, keeps_c3 = q.known, not q.c3_flags.any()
        want_known, want_c3 = cover_oracle(q.grid)
        assert np.array_equal(known, want_known)
        assert keeps_c3 == want_c3


class TestCacheTest:
    def test_keeps_c3_only_where_no_pair_breaks_it(self, fano):
        assert not fano.user_delivery.c3_flags.any()
        assert _CACHE_TEST_SCHEMES["no-c3b"]().user_delivery.c3_flags.any()
        assert _CACHE_TEST_SCHEMES["no-c3a"]().user_delivery.c3_flags.any()

    def test_by_user_places_each_cell_in_the_csr(self, fano):
        rows, cols, _ = fano.user_delivery.csr
        ptr, by_rows, places, ids = fano.user_delivery.by_user
        assert np.array_equal(np.diff(ptr), (~fano.user_retrieve).sum(axis=0))
        assert np.array_equal(rows[places], by_rows)
        assert np.array_equal(cols[places], np.repeat(np.arange(fano.num_users), np.diff(ptr)))
        assert np.array_equal(fano.user_delivery.grid[by_rows, cols[places]], ids)
        assert sorted(places.tolist()) == list(range(len(rows)))

    @pytest.mark.parametrize("mode", ["plain", "mds"])
    @pytest.mark.parametrize("users", [None, [0], [3, 1], [2, 2, 0]], ids=repr)
    def test_a_decode_reaches_the_caches_once_per_call(self, mode, users):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        lib = make_library(scheme.num_users, scheme.subpacketization, 8, seed=1)
        deliver = {"plain": deliver_plain, "mds": deliver_mds}[mode]
        plan = deliver(scheme, lib, distinct_demands(scheme, lib))
        caches = place(lib, scheme)
        with mock.patch.object(simulate, "reach", wraps=simulate.reach) as reach:
            for calls in (1, 2):
                got = list(decode_all(scheme, plan, caches, users))
                assert reach.call_count == calls
        assert [k for k, _ in got] == (list(range(scheme.num_users)) if users is None else users)
        assert all(out.tobytes() == file_bytes(lib, plan.demands[k]) for k, out in got)

    @pytest.mark.parametrize("edit", ["empty grid", "other nodes"])
    def test_a_decode_reads_the_caches_as_they_are_now(self, fano, edit):
        lib = make_library(7, 21, 8, seed=1)
        plan = deliver_plain(fano, lib, distinct_demands(fano, lib))
        caches = place(lib, fano)
        assert len(list(decode_all(fano, plan, caches))) == 7
        if edit == "empty grid":
            caches.grid = np.zeros_like(caches.grid)
        else:  # each user reaches the nodes of the user after it, which lack its rows
            fano.user_nodes = np.roll(fano.user_nodes, -1, axis=0)
        with pytest.raises(DecodeFailureError, match="^user 0 failed"):
            list(decode_all(fano, plan, caches))

    def test_c3b_break_fails_or_decodes_as_the_caches_allow(self):
        scheme = _CACHE_TEST_SCHEMES["no-c3b"]()
        lib = make_library(3, 3, 8, seed=1)
        plan = deliver_plain(scheme, lib, (1, 2, 3))
        caches = place(lib, scheme)
        with pytest.raises(DecodeFailureError, match="user 1 failed on message 1: packet row 0"):
            list(decode_all(scheme, plan, caches))
        grid = caches.grid.copy()
        grid[0, 1] = True  # the side row user 1 lacks
        full = dataclasses.replace(caches, grid=grid)
        assert [out.tobytes() for _, out in decode_all(scheme, plan, full)] == [
            file_bytes(lib, d) for d in (1, 2, 3)]

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(_CACHE_TEST_SCHEMES)),
           mode=st.sampled_from(("plain", "mds")),
           block_rows=st.sampled_from([1, 8, 64, _BLOCK_ROWS]), data=st.data())
    def test_decode_all_matches_the_per_user_check(self, name, mode, block_rows, data):
        scheme = _CACHE_TEST_SCHEMES[name]()
        k = scheme.num_users
        lib = make_library(k, scheme.subpacketization, 2 * data.draw(st.integers(1, 4)),
                           seed=data.draw(st.integers(0, 2**16)))
        demands = data.draw(st.lists(st.integers(1, k), min_size=k, max_size=k))
        try:
            plan = {"plain": deliver_plain, "mds": deliver_mds}[mode](scheme, lib, demands)
        except UnsupportedParametersError:
            assume(False)  # mds refuses an advertised reduction some user cannot meet
        # drop rows from the nodes or add rows beyond the stars
        caches = place(lib, scheme)
        grid = caches.grid.copy()
        cells = [(j, g) for j in range(grid.shape[0]) for g in range(grid.shape[1])]
        for j, g in data.draw(st.lists(st.sampled_from(cells), max_size=4), label="flips"):
            grid[j, g] = not grid[j, g]
        caches = dataclasses.replace(caches, grid=grid)
        users = data.draw(st.none() | st.lists(st.integers(0, k - 1), unique=True), label="users")

        payloads = deliver_plain(scheme, lib, demands).symbols
        want, fail = [], None
        for u in range(k) if users is None else users:
            fail = reference_failure(scheme, plan, caches, u)
            if fail:
                break
            want.append((u, peel_oracle(scheme, caches, payloads, demands, u).tobytes()))
        got, raised = [], None
        with mock.patch.object(simulate, "_BLOCK_ROWS", block_rows):
            try:
                for u, out in decode_all(scheme, plan, caches, users):
                    got.append((u, out.tobytes()))
            except DecodeFailureError as exc:
                raised = (exc.user, exc.message_id, str(exc))
        assert got == want
        assert raised == (fail and (*fail[:2], str(DecodeFailureError(*fail))))


class TestDecodedRowsCheck:
    """The worst case and the trials compare only the rows the decoder
    decodes with the library; the starred rows of an assembled file are the
    library's own packets."""

    def test_trials_peak_below_one_and_a_half_packet_gathers(self):
        # complete:13,3 mu=4 has 60,060 message cells: the decoder's own
        # gather of 64-byte packets is 3.8 MB, and taking the demanded files
        # twice per block for the check peaked at about 8 MB
        scheme = build_scheme(complete_design(13, 3), 4)
        lib = make_library(scheme.num_users, scheme.subpacketization, 64, seed=1)
        assert run_demand_trials(scheme, lib, 1, seed=1) == 1  # the Pda views, cached
        gather = len(scheme.user_delivery.csr[0]) * 64
        assert gather == 60_060 * 64
        tracemalloc.start()
        try:
            assert run_demand_trials(scheme, lib, 2, seed=2) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gather

    @settings(max_examples=80, deadline=None)
    @given(instance=st.sampled_from(_PEEL_INSTANCES), mode=st.sampled_from(("plain", "mds")),
           data=st.data())
    def test_decode_ok_is_the_full_file_comparison(self, instance, mode, data):
        # one symbol damaged, or none when no symbol is sent
        scheme = _peel_scheme(*instance)
        k = scheme.num_users
        lib = make_library(k, scheme.subpacketization, 2 * data.draw(st.integers(1, 8)),
                           seed=data.draw(st.integers(0, 2**16)))
        demands = data.draw(st.lists(st.integers(1, k), min_size=k, max_size=k))
        deliver = {"plain": deliver_plain, "mds": deliver_mds}[mode]
        try:
            plan = deliver(scheme, lib, demands)
        except UnsupportedParametersError:
            assume(False)  # mds refuses an advertised reduction some user cannot meet
        symbols = plan.symbols.copy()
        if plan.symbols_sent:
            s = data.draw(st.integers(0, plan.symbols_sent - 1), label="symbol")
            word = data.draw(st.integers(0, symbols.shape[1] - 1), label="word")
            symbols[s, word] ^= 1 << data.draw(st.integers(0, 15), label="bit")
        plan = dataclasses.replace(plan, symbols=symbols)
        with mock.patch.object(simulate, f"deliver_{mode}", return_value=plan):
            report = run_simulation(scheme, lib, demands, mode)
        users = data.draw(st.lists(st.integers(0, k - 1), min_size=1), label="users")
        got = [(u, out.tobytes() == file_bytes(lib, demands[u]))
               for u, out in decode_all(scheme, plan, place(lib, scheme), users)]
        assert got == [(u, report.decode_ok[u]) for u in users]
        full = [out.tobytes() == file_bytes(lib, demands[u])
                for u, out in decode_all(scheme, plan, place(lib, scheme))]
        assert report.decode_ok == tuple(full)
        if mode == "plain" and plan.symbols_sent:
            # a damaged plain symbol is a wrong row of every user that peels it
            assert not report.all_ok

    @pytest.mark.parametrize("grid, verdicts", [
        (((1, STAR), (2, STAR)), (False, True)),
        (((STAR, 1), (STAR, 2)), (True, False)),
        (((STAR, STAR, 1), (STAR, STAR, 2)), (True, True, False)),
    ], ids=["no-rows-last", "no-rows-first", "two-without-rows"])
    def test_a_user_with_no_decoded_row_passes(self, grid, verdicts):
        # message 1 is damaged; a user whose column is all stars decodes
        # nothing and rebuilds its file from cache alone
        scheme = shared_link_scheme(Pda(grid))
        lib = make_library(len(grid[0]), 2, 8, seed=3)
        gather = simulate._payloads

        def damaged(q, data, demands):
            out = gather(q, data, demands)
            out[0, 0] ^= 1
            return out

        with mock.patch.object(simulate, "_payloads", damaged):
            assert run_simulation(scheme, lib, range(1, len(grid[0]) + 1)).decode_ok == verdicts
            with pytest.raises(DecodeFailureError, match="row 0 payload mismatch") as exc:
                run_demand_trials(scheme, lib, 1)
        assert (exc.value.user, exc.value.message_id) == (verdicts.index(False), 1)
