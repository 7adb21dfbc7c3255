"""A scheme's claims: the paper's closed forms that a scheme carries next
to its arrays, checked against the forms as printed and against the arrays,
and a scheme with no claims at all."""

import itertools

import pytest

from macc.designs import Design
from macc.errors import InvalidParametersError, UnsupportedParametersError
from macc.pda import mn_pda
from macc.scheme_design import DesignSchemeParams, build_scheme
from macc.scheme_gdd import GddSchemeParams
from macc.simulate import (
    deliver_mds,
    distinct_demands,
    make_library,
    measure_worst_case,
    run_demand_trials,
)

from closed_forms import printed_coverage, printed_load
from shared_link import shared_link_scheme


def _valid(cls, *args):
    try:
        return [cls(*args)]
    except InvalidParametersError:
        return []


def claims_grid():
    """Every DesignSchemeParams with Γ <= 13 and λ <= 3, μ = 0 included, and
    every GddSchemeParams with m <= 8 and q <= 5, at every OA strength s."""
    out = []
    for g, lam in itertools.product(range(1, 14), range(1, 4)):
        for l in range(1, g + 1):
            for t, mu in itertools.product(range(1, l + 1), range(g - l + 1)):
                out += _valid(DesignSchemeParams, g, l, t, lam, mu)
    for m, q in itertools.product(range(1, 9), range(1, 6)):
        for s in range(1, m + 1):
            for l in range(1, s + 1):
                for t in range(1, l + 1):
                    out += _valid(GddSchemeParams, m, q, l, t, s)
    return out


def test_claimed_loads_are_the_printed_ones():
    grid = claims_grid()
    assert len(grid) == 4247
    for p in grid:
        assert p.load == printed_load(p), p
        assert p.coverage_ratio == printed_coverage(p), p


def test_a_scheme_with_no_claims_sends_every_message():
    scheme = shared_link_scheme(mn_pda(6, 2))
    assert scheme.claims is None and scheme.guaranteed_known == 0
    lib = make_library(6, scheme.subpacketization, 16, seed=5)
    report = measure_worst_case(scheme, lib, "mds")
    assert report.symbols_sent == scheme.counted_messages == 20
    assert report.all_ok and report.guaranteed_known == 0
    assert measure_worst_case(scheme, lib).all_ok
    assert run_demand_trials(scheme, lib, 8, seed=2) == 8


def pg23() -> Design:
    """The projective plane over GF(3), a 2-(13, 4, 1) design: the points are
    the vectors of GF(3)^3 whose first non-zero entry is 1, and each point
    names the line of the points orthogonal to it."""
    points = [v for v in itertools.product(range(3), repeat=3) if [x for x in v if x][:1] == [1]]
    lines = (tuple(i + 1 for i, p in enumerate(points)
                   if sum(a * b for a, b in zip(p, line)) % 3 == 0) for line in points)
    return Design(13, tuple(lines), strength=2, index=1)


def test_closed_form_reduction_overclaims_on_an_index_one_design():
    # the closed form counts the 228 ten-point subsets that meet a user's
    # line in 3 to 9 points, but only 180 of them occur as a message
    scheme = build_scheme(pg23(), 8)
    assert scheme.guaranteed_known == 228
    assert (scheme.user_delivery.known.sum(axis=1) == 180).all()
    lib = make_library(13, scheme.subpacketization, 2, seed=1)
    with pytest.raises(UnsupportedParametersError, match=r"reduction 228 .*\(180\)"):
        deliver_mds(scheme, lib, distinct_demands(scheme, lib))
