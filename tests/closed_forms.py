"""The paper's closed form for Z, the rows each user retrieves, kept in the
tests as an oracle for the star counts read off a scheme's arrays."""

import math

from macc.scheme_design import DesignSchemeParams


def stars_per_user(params) -> int:
    """Z of a design scheme, (C(Γ, μ) - C(Γ - L, μ)) C(L, t), or of a GDD
    scheme, (q^s - (q - 1)^L q^(s - L)) C(L, t) for an OA of index 1."""
    if isinstance(params, DesignSchemeParams):
        g, l, mu = params.num_nodes, params.access_degree, params.cached_nodes
        return (math.comb(g, mu) - math.comb(g - l, mu)) * math.comb(l, params.strength)
    q, l, s = params.group_size, params.access_degree, params.placement_strength
    return (q**s - (q - 1) ** l * q ** (s - l)) * math.comb(l, params.strength)
