#!/usr/bin/env python3
"""Build the three flagship schemes, simulate delivery, and print a summary.

Covers two design topologies at index 1: the Fano plane 2-(7,3,1), and the
affine plane 2-(9,3,1) with two cached nodes per subfile, where the coded
further reduction is active (r = 6, so mds sends 120 of the 126 multicasts).
Then one at index 2, the biplane 2-(7,4,2), and the small group-divisible
topology with orthogonal-array placement.
Each scheme also decodes eight seeded random demand vectors; a failed decode
raises, so the script exits non-zero.
"""

import argparse

from macc.designs import catalog_design, catalog_oa, transversal_gdd
from macc.scheme_design import build_scheme
from macc.scheme_gdd import build_gdd_scheme
from macc.simulate import make_library, measure_worst_case, run_demand_trials


def show(name, scheme, modes, seed):
    library = make_library(
        scheme.num_users, scheme.subpacketization, packet_bytes=64, seed=seed,
    )
    stats = f"K={scheme.num_users} F={scheme.subpacketization} S={scheme.counted_messages}"
    for mode in modes:
        report = measure_worst_case(scheme, library, mode)
        load = report.measured_load
        print(
            f"{name:28s} {stats:26s} {mode:5s} "
            f"symbols={report.symbols_sent:4d} load={load} "
            f"(~{float(load):.3f}) decode={'ok' if report.all_ok else 'FAILED'}"
        )
    trials = run_demand_trials(scheme, library, 8, seed)
    print(f"{name:28s} {stats:26s} plain random demands x{trials} trials=ok")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    show("fano 2-(7,3,1) cached=1",
         build_scheme(catalog_design("fano-7-3-1"), 1), ("plain", "mds"), args.seed)
    show("affine 2-(9,3,1) cached=2",
         build_scheme(catalog_design("affine-9-3-1"), 2), ("plain", "mds"), args.seed)
    show("biplane 2-(7,4,2) cached=1",
         build_scheme(catalog_design("biplane-7-4-2"), 1), ("plain", "mds"), args.seed)
    show("gdd 2-(3,2,2,1) + OA(3,2,2)",
         build_gdd_scheme(transversal_gdd(3, 2, 2), catalog_oa("oa-3-2-2")),
         ("plain",), args.seed)


if __name__ == "__main__":
    main()
