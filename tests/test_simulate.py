import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from macc.designs import catalog_design, catalog_oa, transversal_gdd
from macc.errors import (
    ConfigurationError,
    DecodeFailureError,
    InvalidInputError,
    InvalidParametersError,
)
from macc.pda import mn_pda
from macc.scheme_design import build_scheme, known_messages
from macc.scheme_gdd import build_gdd_scheme
from macc.simulate import (
    SharedLinkScheme,
    decode,
    deliver_mds,
    deliver_plain,
    distinct_demands,
    make_library,
    measure_worst_case,
    place,
    random_demands,
    read_transcript,
    reconstructible_messages,
    run_demand_trials,
    run_simulation,
    write_transcript,
)


@pytest.fixture
def mn_scheme():
    return SharedLinkScheme(mn_pda(4, 2))


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


class TestPlacement:
    def test_mn_caches_match_columns(self, mn_scheme):
        lib = make_library(4, 6, 8)
        caches = place(lib, mn_scheme)
        assert caches.node_rows[0] == frozenset({0, 1, 2})
        assert caches.node_rows[1] == frozenset({0, 3, 4})
        assert caches.node_rows[2] == frozenset({1, 3, 5})
        assert caches.node_rows[3] == frozenset({2, 4, 5})

    def test_fano_node_one_holds_its_subsets(self, fano):
        lib = make_library(7, 21, 8)
        caches = place(lib, fano)
        # rows (D={1}, T) for the three T choices: indices 0, 7, 14
        assert caches.node_rows[0] == frozenset({0, 7, 14})

    def test_gdd_node_rows(self, gdd_scheme):
        lib = make_library(12, 4, 8)
        caches = place(lib, gdd_scheme)
        assert caches.node_rows[0] == frozenset({0, 2})  # node (1,1): rows 1 and 3

    def test_zero_cache(self):
        scheme = build_scheme(catalog_design("fano-7-3-1"), 0)
        lib = make_library(7, scheme.subpacketization, 8)
        caches = place(lib, scheme)
        assert all(not rows for rows in caches.node_rows)

    def test_byte_budget(self, fano):
        lib = make_library(7, 21, 64)
        caches = place(lib, fano)
        mu = Fraction(1, 7)
        per_file = 21 * 64
        for g in range(7):
            assert caches.cached_bytes(g) == mu * 7 * per_file

    def test_size_mismatch(self, fano):
        with pytest.raises(InvalidInputError):
            place(make_library(7, 20, 8), fano)


class TestPlainDelivery:
    def test_mn_reference_messages(self, mn_scheme):
        lib = make_library(4, 6, 8)
        plan = deliver_plain(mn_scheme, lib, (1, 2, 3, 4))
        got = [
            sorted((plan.demands[k], j + 1) for j, k in cells)
            for cells in plan.sources
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
        assert a.sources == b.sources
        assert a.symbols_sent == b.symbols_sent == 28

    def test_unicast_pda(self):
        scheme = SharedLinkScheme(mn_pda(3, 0))
        lib = make_library(3, 1, 8)
        plan = deliver_plain(scheme, lib, (1, 2, 3))
        assert plan.symbols_sent == 3
        assert all(len(cells) == 1 for cells in plan.sources)

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

    def test_all_star_decodes_from_cache(self):
        scheme = SharedLinkScheme(mn_pda(3, 3))
        lib = make_library(3, 1, 8)
        rep = measure_worst_case(scheme, lib)
        assert rep.all_ok and rep.symbols_sent == 0 and rep.measured_load == 0

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
            array_known = {i - 1 for i in known_messages(scheme, k)}
            assert sim_known == array_known

    def test_max_unknown_reported(self):
        scheme = build_scheme(catalog_design("affine-9-3-1"), 2)
        lib = make_library(12, scheme.subpacketization, 8)
        rep = measure_worst_case(scheme, lib, "mds")
        assert rep.max_unknown <= scheme.counted_messages - scheme.guaranteed_known

    def test_field_size_guard(self):
        from macc.pda import Pda

        wide = SharedLinkScheme(Pda([list(range(1, 40001))]))
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
        assert back.coeff is None

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"nope")
        with pytest.raises(InvalidInputError):
            read_transcript(path)

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
