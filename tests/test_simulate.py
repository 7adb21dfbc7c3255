import dataclasses
import functools
import math
import re
import struct
from fractions import Fraction
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from macc import gf16, simulate
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
from macc.pda import STAR, Pda, id_cells, mn_pda
from macc.scheme_design import build_scheme
from macc.scheme_gdd import build_gdd_scheme
from macc.simulate import (
    _BLOCK_ROWS,
    _COVER_WORDS,
    _SCAN_CELLS,
    DecodePlan,
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
    run_demand_trials,
    run_simulation,
    write_transcript,
)

from shared_link import shared_link_scheme


def held_rows(caches, node: int) -> set:
    """0-based packet rows the placed caches keep at ``node``."""
    return set(np.flatnonzero(caches.grid[:, node]).tolist())


def reconstructible_messages(scheme, caches, user: int) -> frozenset:
    """Message indices (0-based) the user can rebuild purely from its cache:
    every row of the message's cells is held by one of its nodes.  Read from
    the placed caches and the delivery array's cells, independent of the
    retrieve grid and of the decode plan."""
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
        assert a.file_bytes(2) == b.file_bytes(2)

    def test_seed_changes_content(self):
        a = make_library(3, 4, 16, seed=5)
        b = make_library(3, 4, 16, seed=6)
        assert not np.array_equal(a.data, b.data)

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


class TestUserRetrieve:
    @pytest.mark.parametrize("name", ["mn_scheme", "fano", "gdd_scheme"])
    def test_is_the_read_only_star_pattern_of_q(self, request, name):
        scheme = request.getfixturevalue(name)
        u = scheme.user_retrieve
        assert np.array_equal(u, scheme.user_delivery.grid < 0)
        assert scheme.user_retrieve is u and not u.flags.writeable
        with pytest.raises(AttributeError):
            scheme.user_retrieve = ~u


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
        with pytest.raises(InvalidInputError):
            place(make_library(7, 20, 8), fano)


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


class TestDecode:
    def test_mn_all_users(self, mn_scheme):
        lib = make_library(4, 6, 8)
        caches = place(lib, mn_scheme)
        plan = deliver_plain(mn_scheme, lib, (1, 2, 3, 4))
        for k in range(4):
            assert decode(mn_scheme, k, plan, caches) == lib.file_bytes(k + 1)

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
        assert decode(fano, (1, 2, 4), plan, caches) == lib.file_bytes(1)

    def test_decode_gdd_user_by_list_of_lists_block(self, gdd_scheme):
        lib = make_library(12, 4, 8)
        plan = deliver_plain(gdd_scheme, lib, tuple(range(1, 13)))
        k = 5
        block = [list(p) for p in reversed(gdd_scheme.user_blocks[k])]
        assert decode(gdd_scheme, block, plan, place(lib, gdd_scheme)) == lib.file_bytes(k + 1)

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
        assert decode(scheme, 2, back, place(lib, scheme)) == lib.file_bytes(3)

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
            array_known = set(np.flatnonzero(scheme.decode_plan.known[k]).tolist())
            assert sim_known == array_known

    def test_max_unknown_reported(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        lib = make_library(12, scheme.subpacketization, 8)
        rep = measure_worst_case(scheme, lib, "mds")
        assert rep.max_unknown <= scheme.counted_messages - scheme.guaranteed_known

    def test_field_size_guard(self):
        from macc.pda import Pda

        wide = shared_link_scheme(Pda([list(range(1, 40001))]))
        lib = make_library(40000, 1, 2)
        with pytest.raises(ConfigurationError) as exc:
            deliver_mds(wide, lib, tuple(range(1, 40001)))
        assert "80001" in str(exc.value)

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

    @pytest.mark.parametrize("count", [-3, -1, 2.5, 4.0, True, False, None, "4", np.int64(4)])
    def test_count_that_is_not_a_non_negative_int_is_refused(self, fano, count):
        with pytest.raises(InvalidParametersError, match="trial count"):
            run_demand_trials(fano, make_library(7, 21, 8), count)

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
            assert decode(scheme, k, back, caches) == lib.file_bytes(k + 1)

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
            assert decode(scheme, k, back, caches) == lib.file_bytes(plan.demands[k])

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
        assert all(out == lib.file_bytes(back.demands[k]) for k, out in got)
        # the coded and the plain plan of the same demands, for the users
        # asked for, in that order
        for plan in (back, deliver_plain(scheme, lib, back.demands)):
            users = []
            for k, out in decode_all(scheme, plan, caches, [5, 0]):
                users.append(k)
                assert out.tobytes() == lib.file_bytes(back.demands[k])
            assert users == [5, 0]

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
        gather = DecodePlan.payloads

        def damaged(self, data, demands):
            out = gather(self, data, demands)
            out[5, word] ^= 1  # message 6
            return out

        monkeypatch.setattr(DecodePlan, "payloads", damaged)
        lib = make_library(7, 21, packet_bytes)
        with pytest.raises(DecodeFailureError) as exc:
            run_demand_trials(fano, lib, 4, seed=3)
        # the first user that peels message 6, at the row where it does
        grid = fano.decode_plan.grid
        k = int(np.flatnonzero((grid == 5).any(axis=0))[0])
        j = int(np.flatnonzero(grid[:, k] == 5)[0])
        assert (exc.value.user, exc.value.message_id) == (k, 6)
        assert f"row {j} payload mismatch" in str(exc.value)
        # the worst case marks every user that peels message 6
        rep = run_simulation(fano, lib, range(1, 8))
        assert rep.decode_ok == tuple(~(grid == 5).any(axis=0))

    @pytest.mark.parametrize("block_rows", [1, 21, 42, 63, _BLOCK_ROWS])
    def test_blocks_of_users_keep_the_first_mismatch(self, fano, monkeypatch, block_rows):
        # files are compared a block of users at a time (block_rows // F
        # users, at least one); the error still names the first user in user
        # order that peels a damaged message, at its first damaged row
        gather = DecodePlan.payloads

        def damaged(self, data, demands):
            out = gather(self, data, demands)
            out[[12, 5], 0] ^= 1  # messages 13 and 6
            return out

        monkeypatch.setattr(DecodePlan, "payloads", damaged)
        monkeypatch.setattr(simulate, "_BLOCK_ROWS", block_rows)
        grid = fano.decode_plan.grid
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
        assert got == [(k, lib.file_bytes(d)) for k, d in enumerate(demands)]
        if mode == "plain":
            assert_peels(scheme, lib, plan)
            assert run_demand_trials(scheme, lib, 2, seed=packet_bytes) == 2


def peel_oracle(scheme, caches, payloads, demands, user: int) -> np.ndarray:
    """The per-user peel that the shared leave-one-out XOR replaced: the
    user's starred rows come from cache, and each needed row is its
    message's payload XOR the demanded packets at the other cells of that
    message (the side packets), gathered for this user alone."""
    dplan = scheme.decode_plan
    data = caches.library.data
    demands = np.asarray(demands)
    column = dplan.grid[:, user]
    out = np.empty((len(column), data.shape[2]), dtype=np.uint16)
    own = np.flatnonzero(column < 0)
    out[own] = data[demands[user] - 1, own]
    needed = np.flatnonzero(column >= 0)
    if len(needed):
        msgs = column[needed]
        sizes = dplan.ptr[msgs + 1] - dplan.ptr[msgs]
        starts = np.cumsum(sizes) - sizes
        cells = np.arange(sizes.sum()) + np.repeat(dplan.ptr[msgs] - starts, sizes)
        rows, cols = dplan.rows[cells], dplan.cols[cells]
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
        assert out.tobytes() == lib.file_bytes(plan.demands[k])


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
        assert len(scheme.decode_plan.rows) == 0
        assert_peels(scheme, lib, deliver(scheme, lib, (1, 3, 3)))
        assert_peels(scheme, lib, deliver(scheme, lib, (1, 3, 3)), [2])

    @pytest.mark.parametrize("deliver", [deliver_plain, deliver_mds])
    def test_one_and_two_cell_messages(self, deliver):
        # message 1 has two cells; messages 2 and 3 one each, so user 2,
        # which caches nothing, reads both its rows straight off a payload
        scheme = shared_link_scheme(Pda(((1, STAR, 2), (STAR, 1, 3))))
        assert np.diff(scheme.decode_plan.ptr).tolist() == [2, 1, 1]
        lib = make_library(3, 2, 8, seed=4)
        for demands in ((1, 2, 3), (2, 2, 2)):
            assert_peels(scheme, lib, deliver(scheme, lib, demands))
            assert_peels(scheme, lib, deliver(scheme, lib, demands), [2, 0])

    def test_complete_13_3_spans_several_scan_chunks(self):
        scheme = build_scheme(complete_design(13, 3), 4)
        assert len(scheme.decode_plan.rows) > 4 * _SCAN_CELLS
        lib = make_library(scheme.num_users, scheme.subpacketization, 8, seed=1)
        plan = deliver_plain(scheme, lib, random_demands(scheme, lib, Random(1)))
        assert_peels(scheme, lib, plan)
        assert_peels(scheme, lib, plan, [285, 0, 143])

    def test_own_packet_is_never_read(self, fano):
        # By C3 the other cells of a message lie in other rows, so user k
        # rebuilds needed row j without its own packet there: a library copy
        # with that packet overwritten decodes the same under the plan.
        lib = make_library(7, 21, 8)
        demands = (2, 2, 5, 5, 1, 1, 1)
        plan = deliver_plain(fano, lib, demands)
        for k in range(fano.num_users):
            for j in np.flatnonzero(~fano.user_retrieve[:, k]):
                data = lib.data.copy()
                data[demands[k] - 1, j] = ~data[demands[k] - 1, j]
                copy = dataclasses.replace(lib, data=data)
                assert decode(fano, k, plan, place(copy, fano)) == lib.file_bytes(demands[k])


def reference_failure(scheme, plan, caches, user: int):
    """The cache check of one user, written out cell by cell as the
    reference for ``decode_all``'s once-per-call test: ``(user, message id,
    reason)`` of the first ``DecodeFailureError`` it must raise, or None.
    In order: for a coded plan, every cell of each message the user
    rebuilds from its stars alone, then the side packets of each needed row,
    then the starred rows."""
    dplan = scheme.decode_plan
    cached = caches.grid[:, scheme.user_nodes[user]].any(axis=1)
    column = dplan.grid[:, user]

    def cells(s):
        return zip(dplan.rows[dplan.ptr[s]:dplan.ptr[s + 1]].tolist(),
                   dplan.cols[dplan.ptr[s]:dplan.ptr[s + 1]].tolist())

    def first_uncached(messages):  # (message, the user's own row of it or None)
        for s, own in messages:
            for r, c in cells(s):
                if (r, c) != (own, user) and not cached[r]:
                    return user, s + 1, f"packet row {r} not cached"
        return None

    if plan.reduced_by:
        known = [s for s in range(len(dplan.ptr) - 1)
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
    """``known`` and ``side_starred`` one user at a time, from one count per
    (user, message) of the message's cells in rows that the user's column
    does not star: 0 for a known message, and 1 (the user's own cell) at
    every needed message of a side-starred user."""
    rows, _, ptr = id_cells(grid)
    known = np.zeros((grid.shape[1], len(ptr) - 1), dtype=bool)
    side_starred = np.zeros(grid.shape[1], dtype=bool)
    for k, column in enumerate((grid >= 0).T):
        unstarred = np.add.reduceat(column.view(np.uint8)[rows], ptr[:-1], dtype=np.int32)
        known[k] = unstarred == 0
        side_starred[k] = (unstarred[grid[column, k]] == 1).all()
    return known, side_starred


class TestCover:
    @pytest.mark.parametrize("name", sorted(_CACHE_TEST_SCHEMES))
    def test_matches_the_per_user_count(self, name):
        dplan = _CACHE_TEST_SCHEMES[name]().decode_plan
        known, side_starred = cover_oracle(dplan.grid)
        assert np.array_equal(dplan.known, known)
        assert np.array_equal(dplan.side_starred, side_starred)

    @pytest.mark.parametrize("cover_words", [1, _COVER_WORDS])
    def test_matches_the_per_user_count_on_complete_13_3(self, cover_words):
        grid = build_scheme(complete_design(13, 3), 4).user_delivery.grid  # K = 286
        with mock.patch.object(simulate, "_COVER_WORDS", cover_words):
            dplan = DecodePlan(grid)
            known, side_starred = dplan.known, dplan.side_starred
        want_known, want_side = cover_oracle(grid)
        assert np.array_equal(known, want_known)
        assert np.array_equal(side_starred, want_side)

    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 70)), ids=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1), cover_words=st.sampled_from([1, 2]))
    def test_matches_the_per_user_count_on_any_grid(self, shape, ids, seed, cover_words):
        # random cells (key 0 a star) break C3 in every way, ids repeat
        # within rows and columns, and more than 64 users span two words
        keys = np.random.default_rng(seed).integers(0, ids + 1, shape) - 1
        grid = Pda.from_keys(keys, lambda first: range(len(first))).grid
        with mock.patch.object(simulate, "_COVER_WORDS", cover_words):
            dplan = DecodePlan(grid)
            known, side_starred = dplan.known, dplan.side_starred
        want_known, want_side = cover_oracle(grid)
        assert np.array_equal(known, want_known)
        assert np.array_equal(side_starred, want_side)


class TestCacheTest:
    def test_side_starred_marks_the_users_c3_covers(self, fano):
        assert fano.decode_plan.side_starred.all()
        assert _CACHE_TEST_SCHEMES["no-c3b"]().decode_plan.side_starred.tolist() == [
            True, False, True]
        assert _CACHE_TEST_SCHEMES["no-c3a"]().decode_plan.side_starred.tolist() == [False, True]

    def test_cell_at_is_the_place_of_each_cell(self, fano):
        dplan = fano.decode_plan
        cell_at = dplan.cell_at
        assert np.array_equal(cell_at < 0, fano.user_retrieve)
        assert np.array_equal(cell_at[dplan.rows, dplan.cols], np.arange(len(dplan.rows)))

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
            lib.file_bytes(d) for d in (1, 2, 3)]

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
