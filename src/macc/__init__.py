"""Multiaccess coded caching toolkit.

Builds cache-access topologies from combinatorial designs, verifies
placement delivery arrays, constructs the node-placement / user-retrieve /
user-delivery array triple for design and group-divisible topologies, and
simulates XOR multicast or erasure-coded delivery end to end.
"""

from .designs import (
    Design,
    GroupDivisibleDesign,
    OrthogonalArray,
    ResolvableDesign,
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
from .pda import Pda, STAR, mn_pda, pda_stats, verify_pda
from .scheme_design import (
    DesignSchemeParams,
    achievable_load,
    build_scheme,
    redundancy_count,
    shared_link_tradeoff,
)
from .scheme_gdd import GddSchemeParams, build_gdd_scheme, gdd_tradeoff
from .simulate import (
    ArrayScheme,
    Library,
    deliver_mds,
    deliver_plain,
    decode,
    decode_all,
    make_library,
    measure_worst_case,
    place,
    run_simulation,
)

__version__ = "0.1.0"
