"""CSV emitters for the bundled comparison tables and figure data.

Every row carries (scheme, params, K, M/N, R, F) with exact rationals next to
3-significant-digit decimals; very large subpacketizations additionally print
in two-digit scientific notation.  Output is byte-stable for fixed arguments.
"""

from __future__ import annotations

import io
import csv
import math
from fractions import Fraction

from .designs import check_divisibility, int_text
from .errors import InvalidParametersError
from .scheme_design import DesignSchemeParams
from .scheme_gdd import GddSchemeParams
from .serialize import fraction_str

CSV_COLUMNS = (
    "scheme", "params", "K", "M_over_N", "M_over_N_exact",
    "R", "R_exact", "F", "F_sci", "note",
)


def sig3(x: Fraction) -> str:
    """Three significant digits, plain decimal."""
    if x == 0:
        return "0"
    f = float(x)
    digits = max(0, 2 - math.floor(math.log10(abs(f))))
    return f"{round(f, digits):.{digits}f}" if digits else str(int(round(f)))


def sci2(n: int) -> str:
    """Two-significant-digit scientific notation for large counts."""
    if n < 10**6:
        return str(n)
    # floor(log10(n)) without writing n in decimal, which str() refuses
    # past 4300 digits; the float logarithm can be one off near 10^k
    exponent = math.floor(math.log10(n))
    exponent += (n >= 10**(exponent + 1)) - (n < 10**exponent)
    mantissa = round(n / 10**exponent, 1)
    if mantissa >= 10:
        mantissa /= 10
        exponent += 1
    return f"{mantissa}e{exponent}"


def _row(scheme: str, params: str, k: int, memory: Fraction, load: Fraction, f: int,
         note: str = "") -> dict:
    return {
        "scheme": scheme, "params": params, "K": str(k),
        "M_over_N": sig3(memory), "M_over_N_exact": fraction_str(memory),
        "R": sig3(load), "R_exact": fraction_str(load), "F": int_text(f), "F_sci": sci2(f),
        "note": note,
    }


# The group-divisible comparison table: 2-(m, q, 3, 1) GDD rows with full-
# enumeration placement (s = m).  The (1, 3) row is reproduced as printed in
# the source table; its parameters fail t <= L <= m and the emitter flags it
# instead of guessing the intended values.
GDD_TABLE_ROWS = (
    (15, 5), (16, 4), (16, 5), (7, 20), (4, 8), (1, 3), (4, 12),
)


def gdd_comparison_rows(access_degree: int = 3, strength: int = 2):
    out = []
    for m, q in GDD_TABLE_ROWS:
        label = f"m={m},q={q},L={access_degree},t={strength},s={m}"
        try:
            params = GddSchemeParams(
                num_groups=m, group_size=q, access_degree=access_degree,
                strength=strength, placement_strength=m,
            )
        except InvalidParametersError as exc:
            out.append({
                "scheme": "gdd", "params": label, "K": "", "M_over_N": "",
                "M_over_N_exact": "", "R": "", "R_exact": "", "F": "", "F_sci": "",
                "note": f"flagged: inconsistent parameters ({exc})",
            })
            continue
        out.append(_row("gdd", label, params.num_users, params.coverage_ratio, params.load,
                        params.subpacketization))
    return out


def mn_load(num_users: int, cached: int) -> Fraction:
    """Single-cache baseline load at memory ratio cached/num_users."""
    k, i = num_users, cached
    return Fraction(k - i, i + 1)


def design_comparison_rows(num_nodes: int = 15, access_degree: int = 3, strength: int = 2):
    """Shared-link tradeoff curve of the design scheme next to the
    single-cache baseline at the same user count.  The design rows of a
    t-(nodes, L, 1) design that the divisibility conditions rule out are
    flagged in their note; the baseline rows are not."""
    g, l, t = num_nodes, access_degree, strength
    k = DesignSchemeParams(g, l, t, 1, 0).num_users
    note = "" if check_divisibility(t, l, 1, g) else (
        f"flagged: no {t}-({g},{l},1) design exists (divisibility conditions fail)")
    out = []
    for mu in range(0, g - l + 1):
        params = DesignSchemeParams(g, l, t, 1, mu)
        out.append(_row("design", f"nodes={g},L={l},t={t},cached={mu}", k,
                        params.coverage_ratio, params.load, params.subpacketization, note))
    f = 1  # C(k, i), each from the one before
    for i in range(0, k + 1):
        out.append(_row("mn", f"K={k},cached={i}", k, Fraction(i, k), mn_load(k, i), f))
        f = f * (k - i) // (i + 1)
    return out


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def emit_table(which: str, num_nodes: int = 15, access_degree: int = 3,
               strength: int = 2) -> str:
    if which == "table4":
        return rows_to_csv(gdd_comparison_rows(access_degree=access_degree, strength=strength))
    if which in ("fig3", "fig4"):
        return rows_to_csv(design_comparison_rows(num_nodes, access_degree, strength))
    raise InvalidParametersError(f"unknown table {which!r}")
