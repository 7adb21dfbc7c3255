import csv
import io
import math
from fractions import Fraction

import pytest

from macc import tables
from macc.designs import int_text
from macc.errors import InvalidParametersError
from macc.tables import (
    design_comparison_rows,
    emit_table,
    gdd_comparison_rows,
    mn_load,
    sci2,
    sig3,
)


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def exact(cell):
    if "/" in cell:
        a, b = cell.split("/")
        return Fraction(int(a), int(b))
    return Fraction(cell)


class TestGddComparisonTable:
    def test_known_rows(self):
        rows = {r["params"]: r for r in gdd_comparison_rows()}
        r = rows["m=15,q=5,L=3,t=2,s=15"]
        assert r["K"] == "875"
        assert exact(r["M_over_N_exact"]) == Fraction(61, 125)
        assert exact(r["R_exact"]) == Fraction(16, 3)
        assert int(r["F"]) == 3 * 5**15
        assert r["F_sci"] == "9.2e10"

        r = rows["m=16,q=4,L=3,t=2,s=16"]
        assert r["K"] == "640"
        assert exact(r["M_over_N_exact"]) == Fraction(37, 64)
        assert exact(r["R_exact"]) == 3

        r = rows["m=16,q=5,L=3,t=2,s=16"]
        assert r["K"] == "1000"
        assert exact(r["R_exact"]) == Fraction(16, 3)

        r = rows["m=7,q=20,L=3,t=2,s=7"]
        assert r["K"] == "2800"
        assert abs(float(exact(r["M_over_N_exact"])) - 0.143) < 1e-3
        assert exact(r["R_exact"]) == Fraction(361, 3)

        r = rows["m=4,q=8,L=3,t=2,s=4"]
        assert r["K"] == "128"
        assert exact(r["R_exact"]) == Fraction(49, 3)

    def test_inconsistent_row_flagged(self):
        rows = {r["params"]: r for r in gdd_comparison_rows()}
        r = rows["m=1,q=3,L=3,t=2,s=1"]
        assert r["note"].startswith("flagged: inconsistent parameters")
        assert r["K"] == ""


class TestDesignComparisonRows:
    def test_mn_point_at_fifteen_of_thirtyfive(self):
        assert mn_load(35, 15) == Fraction(5, 4)
        rows = [r for r in design_comparison_rows() if r["scheme"] == "mn"]
        row = next(r for r in rows if r["params"] == "K=35,cached=15")
        assert exact(row["R_exact"]) == Fraction(5, 4)
        assert exact(row["M_over_N_exact"]) == Fraction(3, 7)

    def test_design_curve_endpoints(self):
        rows = [r for r in design_comparison_rows() if r["scheme"] == "design"]
        assert rows[0]["M_over_N_exact"] == "0"
        assert exact(rows[0]["R_exact"]) == 35
        assert len(rows) == 13  # cached sizes 0..12

    def test_subpacketizations(self):
        rows = {r["params"]: r for r in design_comparison_rows()}
        assert int(rows["nodes=15,L=3,t=2,cached=1"]["F"]) == 45
        assert int(rows["K=35,cached=15"]["F"]) == 3247943160

    @pytest.mark.parametrize("nodes", [4, 15, 31, 61])
    def test_mn_subpacketizations_are_the_binomials(self, nodes):
        rows = [r for r in design_comparison_rows(nodes) if r["scheme"] == "mn"]
        k = len(rows) - 1
        assert [(r["F"], r["F_sci"]) for r in rows] == [
            (int_text(math.comb(k, i)), sci2(math.comb(k, i))) for i in range(k + 1)]


class TestFormatting:
    def test_sig3(self):
        assert sig3(Fraction(61, 125)) == "0.488"
        assert sig3(Fraction(16, 3)) == "5.33"
        assert sig3(Fraction(3)) == "3.00"
        assert sig3(Fraction(0)) == "0"

    def test_sci2(self):
        assert sci2(91552734375) == "9.2e10"
        assert sci2(12288) == "12288"

    def test_sci2_matches_the_decimal_length_near_powers_of_ten(self):
        # the float logarithm rounds across 10^k; the decimal text does not
        for k in range(7, 320):
            for n in (10**k - 1, 10**k, 10**k + 1, 96 * 10**(k - 2) - 1):
                exponent = len(str(n)) - 1
                mantissa = round(n / 10**exponent, 1)
                if mantissa >= 10:
                    mantissa, exponent = mantissa / 10, exponent + 1
                assert sci2(n) == f"{mantissa}e{exponent}", n

    def test_row_past_the_int_digit_limit(self):
        # the MN baseline's F at nodes=300 is C(14950, i), past the 4300
        # digits that str() writes
        assert sci2(10**5000) == "1.0e5000"
        assert sci2(10**5000 - 1) == "1.0e5000"
        row = tables._row("mn", "K=1", 1, Fraction(1), Fraction(0), 10**5000)
        assert row["F"] == f"<{(10**5000).bit_length()}-bit integer>"
        assert row["F_sci"] == "1.0e5000"


class TestEmit:
    def test_byte_stable(self):
        assert emit_table("table4") == emit_table("table4")
        assert emit_table("fig3") == emit_table("fig3")

    def test_fig3_and_fig4_share_columns(self):
        a = rows_from_csv(emit_table("fig3"))
        b = rows_from_csv(emit_table("fig4"))
        assert a == b  # same data; both R and F columns are always present

    def test_unknown_table(self):
        with pytest.raises(InvalidParametersError):
            emit_table("table9")

    def test_header(self):
        first = emit_table("table4").splitlines()[0]
        assert first == "scheme,params,K,M_over_N,M_over_N_exact,R,R_exact,F,F_sci,note"
