import hashlib
import json

import pytest

from macc.cli import main
from macc.serialize import load_object


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchemeCommand:
    def test_fano_summary(self, capsys, tmp_path):
        out_path = tmp_path / "fano.json"
        code, out, _ = run(
            capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "(7,21,9,28), R=4/3" in out
        bundle = json.loads(out_path.read_text())
        assert bundle["type"] == "scheme"
        assert bundle["summary"]["S_counted"] == 28
        assert bundle["summary"]["load_reduced"] == "4/3"

    def test_gdd_summary(self, capsys):
        code, out, _ = run(
            capsys, "scheme", "--gdd-transversal", "3,2,2", "--oa", "trivial", "--s", "2",
        )
        assert code == 0
        assert "(12,4,3,4)" in out
        assert "R=1" in out

    def test_infeasible_mu_gamma(self, capsys):
        code, _, err = run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "5")
        assert code == 2
        assert "cached_nodes" in err and "4" in err

    def test_biplane_bundle(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        code, out, _ = run(
            capsys, "scheme", "--design", "biplane-7-4-2", "--mu-gamma", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "(7,42,24,42), R=1" in out


class TestObjectCommands:
    def test_design_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "fano.json"
        code, _, _ = run(capsys, "design", "--catalog", "fano-7-3-1", "--out", str(path))
        assert code == 0
        obj = load_object(path)
        assert obj.num_points == 7 and obj.num_blocks == 7

    def test_complete_design(self, capsys):
        code, out, _ = run(capsys, "design", "--complete", "4,2")
        assert code == 0
        assert json.loads(out)["blocks"] == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]

    def test_oa_linear(self, capsys):
        code, out, _ = run(capsys, "oa", "--linear", "3,3,2")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 9

    def test_pda_mn(self, capsys):
        code, out, err = run(capsys, "pda", "--mn", "4,2")
        assert code == 0
        assert json.loads(out)["cells"][0] == ["*", "*", 1, 2]
        assert "(4,6,3,4), R=2/3" in err

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "design", "--catalog", "nope")
        assert code == 2


class TestVerifyCommand:
    def test_tagged_design_passes(self, capsys, tmp_path):
        path = tmp_path / "fano.json"
        run(capsys, "design", "--catalog", "fano-7-3-1", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_wrong_tag_fails(self, capsys, tmp_path):
        path = tmp_path / "fano.json"
        run(capsys, "design", "--catalog", "fano-7-3-1", "--out", str(path))
        obj = json.loads(path.read_text())
        obj["t"] = 3
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3

    def test_verify_pda_file(self, capsys, tmp_path):
        path = tmp_path / "pda.json"
        run(capsys, "pda", "--mn", "4,2", "--out", str(path))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_verify_oa_file(self, capsys, tmp_path):
        path = tmp_path / "oa.json"
        run(capsys, "oa", "--trivial", "3,2", "--out", str(path))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0


class TestSimulateCommand:
    def test_end_to_end(self, capsys, tmp_path):
        bundle = tmp_path / "scheme.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        report_path = tmp_path / "report.json"
        transcript = tmp_path / "t.bin"
        code, _, _ = run(
            capsys, "simulate", "--scheme", str(bundle), "--mode", "mds",
            "--demands", "distinct", "--seed", "9", "--packet-bytes", "32",
            "--out", str(report_path), "--transcript", str(transcript),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["all_ok"] is True
        assert report["symbols_sent"] == 28
        assert report["measured_load"] == "4/3"
        assert transcript.exists()

    def test_affine_mds_outputs_pinned(self, capsys, tmp_path):
        # Digests recorded with the scalar GF(2^16) kernels, before the
        # vectorised ones: coded outputs must stay byte-identical, and the
        # transcript written is the plan that was decoded.
        bundle, report, transcript = (tmp_path / n for n in ("s.json", "r.json", "t.bin"))
        run(capsys, "scheme", "--design", "affine-9-3-1", "--mu-gamma", "2",
            "--out", str(bundle))
        code, _, _ = run(capsys, "simulate", "--scheme", str(bundle), "--mode", "mds",
                         "--seed", "5", "--out", str(report), "--transcript", str(transcript))
        assert code == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (transcript, report)] == [
            "785c090041b24da54a0a7c9dcb5038257c439883cc382cb8797081e1d2fbc09d",
            "f26d831a612d1c309e719c3e89eb1f76cc432089903261a76c71d8e0127b5e1d",
        ]

    def test_bundle_without_design_is_parse_error(self, capsys, tmp_path):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        del obj["design"]
        bundle.write_text(json.dumps(obj))
        code, _, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 3
        assert err.startswith("parse error:") and "design" in err

    def test_gdd_simulation(self, capsys, tmp_path):
        bundle = tmp_path / "g.json"
        run(capsys, "scheme", "--gdd-transversal", "3,2,2", "--oa", "trivial",
            "--s", "2", "--out", str(bundle))
        code, out, _ = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 0
        assert json.loads(out)["measured_load"] == "1"

    def test_explicit_demands(self, capsys, tmp_path):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        code, out, _ = run(capsys, "simulate", "--scheme", str(bundle),
                           "--demands", "1,1,2,2,3,3,4")
        assert code == 0
        assert json.loads(out)["all_ok"] is True


class TestTablesCommand:
    def test_table4_csv(self, capsys):
        code, out, _ = run(capsys, "tables", "table4")
        assert code == 0
        assert out.splitlines()[0].startswith("scheme,params")
        assert "m=15,q=5" in out and "flagged" in out

    def test_fig3_stable(self, capsys):
        code1, out1, _ = run(capsys, "tables", "fig3")
        code2, out2, _ = run(capsys, "tables", "fig3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_subcommand_is_param_error(self, capsys):
        assert main([]) == 2


class TestThinAdapter:
    def test_tables_output_is_library_output(self, capsys):
        from macc.tables import emit_table

        _, out, _ = run(capsys, "tables", "table4")
        assert out == emit_table("table4") + "\n" or out == emit_table("table4")

    def test_scheme_bundle_is_library_bundle(self, capsys, tmp_path):
        from macc.designs import catalog_design
        from macc.scheme_design import build_scheme
        from macc.serialize import dump_json, scheme_to_obj

        path = tmp_path / "b.json"
        run(capsys, "scheme", "--design", "affine-9-3-1", "--mu-gamma", "2",
            "--out", str(path))
        expected = dump_json(scheme_to_obj(build_scheme(catalog_design("affine-9-3-1"), 2)))
        assert path.read_text().strip() == expected.strip()
