"""The paper's closed forms for Z, the loads and the coverage, kept in the
tests as oracles: Z for the star counts read off a scheme's arrays, the
loads and the coverage as printed, for the claims a scheme carries."""

import math
from fractions import Fraction

from macc.scheme_design import DesignSchemeParams


def stars_per_user(params) -> int:
    """Z of a design scheme, (C(Γ, μ) - C(Γ - L, μ)) C(L, t), or of a GDD
    scheme, (q^s - (q - 1)^L q^(s - L)) C(L, t) for an OA of index 1."""
    if isinstance(params, DesignSchemeParams):
        g, l, mu = params.num_nodes, params.access_degree, params.cached_nodes
        return (math.comb(g, mu) - math.comb(g - l, mu)) * math.comb(l, params.strength)
    q, l, s = params.group_size, params.access_degree, params.placement_strength
    return (q**s - (q - 1) ** l * q ** (s - l)) * math.comb(l, params.strength)


def printed_load(params) -> Fraction:
    """The load of a design scheme, (λC(Γ, t + μ) - λr' - K C(L, t + μ)) /
    (C(Γ, μ) C(L, t)) with r' = Σ_{0<i<μ} C(L, t + i) C(Γ - L, μ - i), and K
    with no caching; or of a GDD scheme, (q - 1)^t q^(m - s) / C(L, t)."""
    if isinstance(params, DesignSchemeParams):
        g, l, t, lam, mu = (params.num_nodes, params.access_degree, params.strength,
                            params.index, params.cached_nodes)
        if mu == 0:
            return Fraction(params.num_users)
        r = sum(math.comb(l, t + i) * math.comb(g - l, mu - i) for i in range(1, mu))
        numerator = (lam * math.comb(g, t + mu) - lam * r
                     - params.num_users * math.comb(l, t + mu))
        return Fraction(numerator, math.comb(g, mu) * math.comb(l, t))
    m, q, l, t, s = (params.num_groups, params.group_size, params.access_degree,
                     params.strength, params.placement_strength)
    return Fraction((q - 1) ** t * q ** (m - s), math.comb(l, t))


def printed_coverage(params) -> Fraction:
    """The share of the library a user's L nodes hold: 1 - C(Γ - L, μ)/C(Γ, μ)
    for a design scheme, 1 - (q - 1)^L/q^L for a GDD scheme."""
    if isinstance(params, DesignSchemeParams):
        g, l, mu = params.num_nodes, params.access_degree, params.cached_nodes
        return 1 - Fraction(math.comb(g - l, mu), math.comb(g, mu))
    q, l = params.group_size, params.access_degree
    return 1 - Fraction((q - 1) ** l, q**l)
