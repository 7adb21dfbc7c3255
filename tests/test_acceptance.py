"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import pathlib
import time
from fractions import Fraction

import numpy as np

from macc.designs import (
    catalog_design,
    catalog_design_names,
    catalog_gdd,
    catalog_oa,
    dual_of_gdd,
    dual_of_resolvable,
    linear_oa,
    oa_to_resolvable,
    resolvable_to_oa,
    transversal_gdd,
    trivial_oa,
    verify_gdd,
    verify_resolvable,
)
from macc.pda import mn_pda, pda_stats, STAR, verify_pda
from macc.render import render_scheme_delivery
from macc.scheme_design import build_scheme, redundancy_count
from macc.scheme_gdd import build_gdd_scheme
from macc.serialize import scheme_to_obj
from macc.simulate import (
    deliver_plain,
    make_library,
    measure_worst_case,
    run_demand_trials,
)
from macc.tables import gdd_comparison_rows

from canonical import canonical, pda_cells
from closed_forms import stars_per_user
from shared_link import shared_link_scheme

GOLDEN = pathlib.Path(__file__).parent / "golden"


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} over budget: {elapsed:.2f}s"
        return False


def test_criterion_1_mn_reproduction():
    with _Budget("1 MN reproduction", 1.0):
        s = STAR
        assert pda_cells(mn_pda(4, 2)) == (
            (s, s, 1, 2), (s, 1, s, 3), (s, 2, 3, s),
            (1, s, s, 4), (2, s, 4, s), (3, 4, s, s),
        )
        scheme = shared_link_scheme(mn_pda(4, 2))
        lib = make_library(4, 6, 16, seed=1)
        plan = deliver_plain(scheme, lib, (1, 2, 3, 4))
        messages = list(scheme.user_delivery.id_positions.values())
        packet_sets = [
            {(plan.demands[k], j + 1) for j, k in cells} for cells in messages
        ]
        assert packet_sets == [
            {(1, 4), (2, 2), (3, 1)},
            {(1, 5), (2, 3), (4, 1)},
            {(1, 6), (3, 3), (4, 2)},
            {(2, 6), (3, 5), (4, 4)},
        ]
        # each multicast is the XOR of the demanded packets at its cells
        assert len(plan.symbols) == len(messages)
        for symbol, cells in zip(plan.symbols, messages):
            packets = [lib.data[plan.demands[k] - 1, j] for j, k in cells]
            assert np.array_equal(symbol, np.bitwise_xor.reduce(packets))
        report = measure_worst_case(scheme, lib)
        assert report.all_ok
        assert report.measured_load == Fraction(2, 3)
        assert pda_stats(mn_pda(4, 2)).load == Fraction(2, 3)


def test_criterion_2_fano_scheme():
    with _Budget("2 design-topology scheme", 1.0):
        scheme = build_scheme(catalog_design("fano-7-3-1"), 1)
        rep = verify_pda(scheme.user_delivery)
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (7, 21, 9, 28)
        rendered = render_scheme_delivery(scheme) + "\n"
        assert rendered == (GOLDEN / "fano_user_delivery.txt").read_text()
        assert scheme.claims.load == Fraction(4, 3)
        lib = make_library(7, 21, 16, seed=2)
        for mode in ("plain", "mds"):
            report = measure_worst_case(scheme, lib, mode)
            assert report.all_ok and all(report.decode_ok)
            assert report.num_users == 7


def test_criterion_3_gdd_scheme():
    with _Budget("3 GDD-topology scheme", 1.0):
        scheme = build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2"))
        rep = verify_pda(scheme.user_delivery)
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (12, 4, 3, 4)
        rendered = render_scheme_delivery(scheme) + "\n"
        assert rendered == (GOLDEN / "gdd_user_delivery.txt").read_text()
        lib = make_library(12, 4, 16, seed=3)
        report = measure_worst_case(scheme, lib)
        assert report.all_ok and report.num_users == 12
        assert report.measured_load == 1


def test_criterion_4_index_two_scheme():
    with _Budget("4 index-2 design scheme", 1.0):
        scheme = build_scheme(catalog_design("biplane-7-4-2"), 1)
        rep = verify_pda(scheme.user_delivery)
        assert rep.ok
        assert (rep.num_users, rep.subpacketization, rep.stars_per_column,
                rep.num_messages) == (7, 42, 24, 42)
        claims = scheme.claims
        assert (claims.coverage_ratio, claims.load) == (Fraction(4, 7), Fraction(1))
        lib = make_library(7, 42, 16, seed=4)
        report = measure_worst_case(scheme, lib, "mds")
        assert report.all_ok
        assert report.symbols_sent == 42


def test_criterion_5_comparison_table():
    with _Budget("5 comparison-table reproduction", 1.0):
        rows = {r["params"]: r for r in gdd_comparison_rows()}

        def exact(cell):
            if "/" in cell:
                a, b = cell.split("/")
                return Fraction(int(a), int(b))
            return Fraction(cell)

        r = rows["m=15,q=5,L=3,t=2,s=15"]
        assert r["K"] == "875"
        assert abs(float(exact(r["M_over_N_exact"])) - 0.488) <= 0.001
        assert abs(float(exact(r["R_exact"])) - 5.33) <= 0.01
        assert r["F_sci"] == "9.2e10"  # two significant digits of 0.92e11

        r = rows["m=16,q=4,L=3,t=2,s=16"]
        assert r["K"] == "640"
        assert abs(float(exact(r["M_over_N_exact"])) - 0.578) <= 0.001
        assert exact(r["R_exact"]) == 3

        r = rows["m=16,q=5,L=3,t=2,s=16"]
        assert r["K"] == "1000"
        assert abs(float(exact(r["M_over_N_exact"])) - 0.488) <= 0.001
        assert abs(float(exact(r["R_exact"])) - 5.33) <= 0.01

        r = rows["m=7,q=20,L=3,t=2,s=7"]
        assert r["K"] == "2800"
        assert abs(float(exact(r["M_over_N_exact"])) - 0.143) <= 0.001
        assert abs(float(exact(r["R_exact"])) - 120.33) <= 0.01

        r = rows["m=4,q=8,L=3,t=2,s=4"]
        assert r["K"] == "128"
        assert abs(float(exact(r["M_over_N_exact"])) - 0.33) <= 0.005
        assert abs(float(exact(r["R_exact"])) - 16.33) <= 0.01

        r = rows["m=1,q=3,L=3,t=2,s=1"]
        assert r["note"].startswith("flagged: inconsistent parameters")


def _design_instances():
    for name in catalog_design_names():
        design = catalog_design(name)
        if design.num_points > 9:
            continue
        for mu in range(0, design.num_points - design.block_size + 1):
            yield f"{name} mu={mu}", build_scheme(design, mu)


def _gdd_oa(m, q, s):
    if s == m:
        return trivial_oa(m, q)
    if m <= q:
        return linear_oa(m, q, s)
    if (m, q, s) == (3, 2, 2):
        return catalog_oa("oa-3-2-2")
    return None


def _gdd_instances():
    # L = t via transversal blocks; L = t+1 via dualized index-1 arrays
    for m in range(2, 6):
        for q in (2, 3):
            for t in range(1, m + 1):
                for ell in (t, t + 1):
                    if ell > m:
                        continue
                    for s in range(ell, m + 1):
                        if q**s > 243:
                            continue
                        oa = _gdd_oa(m, q, s)
                        if oa is None:
                            continue
                        if ell == t:
                            gdd = transversal_gdd(m, q, t)
                        elif ell == m:
                            base = _gdd_oa(m, q, t)
                            if base is None:
                                continue
                            gdd = dual_of_resolvable(oa_to_resolvable(base))
                        else:
                            continue
                        yield (
                            f"gdd m={m} q={q} L={ell} t={t} s={s}",
                            build_gdd_scheme(gdd, oa),
                        )


def test_criterion_6_property_grid():
    with _Budget("6 property grid", 60.0):
        instances = list(_design_instances()) + list(_gdd_instances())
        assert len(instances) >= 30
        for label, scheme in instances:
            rep = verify_pda(scheme.user_delivery)
            assert rep.ok, f"{label}: {rep.first_violation}"
            assert scheme.counted_messages <= scheme.claims.message_bound, label
            # delivery stars coincide with the retrieve pattern; placement
            # rows carry exactly the per-packet replication
            stars = np.array(
                [[c is STAR for c in row] for row in pda_cells(scheme.user_delivery)]
            )
            assert (stars == scheme.user_retrieve).all(), label
            # what user k retrieves is what its L nodes hold
            for k in range(scheme.num_users):
                held = scheme.node_placement[:, scheme.user_nodes[k]].any(axis=1)
                assert np.array_equal(scheme.user_retrieve[:, k], held), (label, k)
            per_row = (
                scheme.claims.cached_nodes
                if "design" in scheme.topology
                else scheme.claims.num_groups
            )
            assert (scheme.node_placement.sum(axis=1) == per_row).all(), label
            assert rep.stars_per_column == stars_per_user(scheme.claims), label
            # the bundle summary states the arrays' own K, F, Z, S, plain
            # load and memory ratios
            summary = scheme_to_obj(scheme)["summary"]
            f, k = scheme.user_retrieve.shape
            z, s = rep.stars_per_column, rep.num_messages
            assert (summary["K"], summary["F"], summary["Z"], summary["S_counted"]) == (
                k, f, z, s), label
            assert Fraction(summary["load_plain"]) == Fraction(s, f), label
            if "design" in scheme.topology:
                memory = {"shared_link_memory": Fraction(z, f)}
            else:
                # each node holds 1/q of the library
                node_stars = set(scheme.node_placement.sum(axis=0).tolist())
                assert node_stars == {f // scheme.claims.group_size}, label
                memory = {"node_memory_ratio": Fraction(node_stars.pop(), f),
                          "coverage_ratio": Fraction(z, f)}
            assert {key: Fraction(summary[key]) for key in memory} == memory, label
            lib = make_library(
                scheme.num_users, scheme.subpacketization, packet_bytes=8, seed=42,
            )
            assert run_demand_trials(scheme, lib, 50, seed=7) == 50, label


def test_criterion_6_known_message_lower_bound():
    """Per-user reconstructible messages >= lambda * S' on every instance.

    This clause is provably unattainable for index-2 designs once two or
    more nodes are cached per subfile: all occurrences of one message subset
    can fall into distinct split classes of size one, so they share a single
    id and the user gains one reconstructible message where the advertised
    bound counts lambda.  Concretely, for the 2-(7,4,2) topology with two
    cached nodes, the subset {1,2,3,6} (three occurrences, all in
    singleton split classes) yields one id, and users can rebuild only 17
    of the claimed 2*12 = 24 messages.  The assertion is kept as stated and
    fails on those instances; index-1 topologies all satisfy it.
    """
    with _Budget("6b known-message lower bound", 10.0):
        violations = []
        for label, scheme in _design_instances():
            guarantee = scheme.guaranteed_known
            if not guarantee:
                continue
            worst = int(scheme.user_delivery.known.sum(axis=1).min())
            if worst < guarantee:
                violations.append(f"{label}: min known {worst} < {guarantee}")
        assert not violations, "; ".join(violations)


def _roundtrip_oas():
    builders = [
        lambda: trivial_oa(2, 2), lambda: trivial_oa(2, 3), lambda: trivial_oa(3, 2),
        lambda: trivial_oa(3, 3), lambda: trivial_oa(4, 2), lambda: trivial_oa(4, 3),
        lambda: trivial_oa(5, 2), lambda: trivial_oa(1, 4),
        lambda: linear_oa(2, 2, 1), lambda: linear_oa(2, 3, 1), lambda: linear_oa(3, 3, 1),
        lambda: linear_oa(3, 3, 2), lambda: linear_oa(2, 5, 1), lambda: linear_oa(3, 5, 2),
        lambda: linear_oa(4, 5, 2), lambda: linear_oa(5, 5, 2), lambda: linear_oa(5, 5, 3),
        lambda: linear_oa(4, 7, 2), lambda: linear_oa(3, 7, 2), lambda: linear_oa(2, 3, 2),
    ]
    return [b() for b in builders]


def test_criterion_7_duality_roundtrips():
    with _Budget("7 duality round-trips", 5.0):
        from macc.designs import ResolvableDesign

        example = ResolvableDesign(
            4,
            (((1, 3), (2, 4)), ((1, 2), (3, 4)), ((1, 4), (2, 3))),
            strength=2, cross_number=1,
        )
        # reference instance: dual is the catalog GDD, OA is the stock array
        gdd = dual_of_resolvable(example)
        assert canonical(gdd) == canonical(catalog_gdd("gdd-3-2-3-1"))
        assert canonical(dual_of_gdd(gdd)) == canonical(example)
        oa = resolvable_to_oa(example)
        assert oa.rows == catalog_oa("oa-3-2-2").rows
        assert canonical(oa_to_resolvable(oa)) == canonical(example)

        generated = _roundtrip_oas()
        assert len(generated) == 20
        for oa in generated:
            rd = oa_to_resolvable(oa)
            assert verify_resolvable(rd, oa.strength, oa.index).ok
            assert resolvable_to_oa(rd).rows == oa.rows
            gdd = dual_of_resolvable(rd)
            assert verify_gdd(gdd, oa.strength, oa.index).ok
            assert canonical(dual_of_gdd(gdd)) == canonical(rd)


def test_criterion_8_reduction_oracle():
    with _Budget("8 coded-reduction oracle", 5.0):
        design = catalog_design("affine-9-3-1")
        scheme = build_scheme(design, 2)
        params = scheme.claims
        # closed form vs brute-force enumeration against a fixed block
        assert redundancy_count(params) == 6
        for block in design.blocks:
            bset = set(block)
            brute = sum(
                1
                for sub in itertools.combinations(range(1, 10), 4)
                if 3 <= len(set(sub) & bset) < 4
            )
            assert brute == 6
        lib = make_library(12, scheme.subpacketization, 16, seed=8)
        report = measure_worst_case(scheme, lib, "mds")
        assert report.all_ok
        assert report.symbols_sent == scheme.counted_messages - 6
