import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from macc.cli import main
from macc.pda import mn_pda
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

    @pytest.mark.parametrize("kind", ["banana", "catalog", "Linear", ""])
    def test_unknown_oa_kind_is_param_error(self, capsys, kind):
        code, out, err = run(
            capsys, "scheme", "--gdd-transversal", "3,2,2", "--oa", kind, "--s", "2",
        )
        assert code == 2
        assert out == "" and f"--oa {kind!r}" in err

    def test_infeasible_mu_gamma(self, capsys):
        code, _, err = run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "5")
        assert code == 2
        assert "cached_nodes" in err and "4" in err

    def test_non_integer_design_point_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        run(capsys, "design", "--catalog", "fano-7-3-1", "--out", str(path))
        obj = json.loads(path.read_text())
        obj["blocks"][1][0] = "x"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "scheme", "--design", f"@{path}", "--mu-gamma", "1")
        assert code == 3
        assert err.startswith("parse error:") and "blocks[1][0]" in err

    def test_non_list_design_block_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"type": "design", "points": 7, "blocks": [5, 6]}))
        code, _, err = run(capsys, "scheme", "--design", f"@{path}", "--mu-gamma", "1")
        assert code == 3
        assert err.startswith("parse error:") and "blocks[0]" in err

    def test_empty_design_block_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"type": "design", "points": 7, "blocks": [[]]}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert err.startswith("parse error:") and "block () is not a non-empty subset" in err

    def test_short_gdd_point_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run(capsys, "gdd", "--transversal", "3,2,2", "--out", str(path))
        obj = json.loads(path.read_text())
        obj["blocks"][0][1] = [2]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "scheme", "--gdd-file", str(path), "--oa", "trivial")
        assert code == 3
        assert err.startswith("parse error:") and "blocks[0][1]" in err

    @pytest.mark.parametrize("argv, digest", [
        (("--design", "fano-7-3-1", "--mu-gamma", "1"),
         "5e43b33d368488f15d9be1cb4e94be0b5bc5f6bb5d16b1526d84ed884a733d91"),
        (("--design", "affine-9-3-1", "--mu-gamma", "2"),
         "2445ef80ae1a194e4363fcf18ed1022f2e9c211cc38827e066cf5a2ed8612865"),
        (("--design", "biplane-7-4-2", "--mu-gamma", "2"),
         "51b7bdc544a38d77f6403abe6409d5396fecbff171377408d480a7159f098d6f"),
        (("--gdd-transversal", "3,2,2", "--oa", "catalog:oa-3-2-2"),
         "85d3dabc2d79b69ce7d1382c071659c7ac7490f93be3d92979e8ed6c47f39644"),
        (("--design", "complete:13,3", "--mu-gamma", "4"),
         "88ada3fb12adbae8418ce2c653609fd90fcc12684d558176787bcc70ddf2f6be"),
        (("--design", "complete:16,3", "--mu-gamma", "5"),
         "97a81d310b73af26c374a0854dc9073f93198789ac0619375f392eaf6207edfe"),
        # q = 3: the GDD id vectors take 2-bit fields, not the 1-bit design ones
        (("--gdd-transversal", "3,3,2", "--oa", "linear", "--s", "2"),
         "ebb73ea2a6c0bf74bca683e9a1877a5daf0782616c03364b29967f7a56bbdbc7"),
    ], ids=["fano-mu1", "affine-mu2", "biplane-mu2", "gdd-3-2-2", "complete-13-3-mu4",
            "complete-16-3-mu5", "gdd-3-3-2-linear"])
    def test_bundle_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # Bundles no longer hold U.  Each digest is of the bundle written
        # before that change (the first five recorded with the object-cell
        # builders, complete-16-3-mu5 with json.dumps(indent=2) as the
        # writer) with its "U" key popped and the rest re-dumped through
        # dump_json, so nothing but U may change, byte for byte.
        path = tmp_path / "s.json"
        code, _, _ = run(capsys, "scheme", *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, topology", [
        (("--design", "fano-7-3-1", "--mu-gamma", "1"), ["design"]),
        (("--gdd-transversal", "3,2,2", "--oa", "catalog:oa-3-2-2"), ["gdd", "oa"]),
    ], ids=["design", "gdd"])
    def test_bundle_keys(self, capsys, tmp_path, argv, topology):
        path = tmp_path / "s.json"
        assert run(capsys, "scheme", *argv, "--out", str(path))[0] == 0
        keys = list(json.loads(path.read_text()))
        assert keys == ["type", "params", "summary", "C", "Q", *topology]

    @pytest.mark.parametrize("field, text", [
        ("s", "OA strength -1 is negative"),
        ("lambda", "OA index -1 is not positive"),
    ], ids=["s", "lambda"])
    def test_negative_oa_tag_is_parse_error(self, capsys, tmp_path, field, text):
        path = tmp_path / "oa.json"
        rows = [[1, 1, 1], [1, 2, 2], [2, 1, 2], [2, 2, 1]]
        path.write_text(json.dumps({"type": "oa", "q": 2, "s": 2, "lambda": 1,
                                    "rows": rows, field: -1}))
        code, out, err = run(capsys, "scheme", "--gdd-transversal", "3,2,2",
                             "--oa-file", str(path))
        assert (code, out) == (3, "")
        assert err == f"parse error: {text}\n"

    def test_design_file_without_blocks_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"type": "design", "points": 7}))
        code, _, err = run(capsys, "scheme", "--design", f"@{path}", "--mu-gamma", "1")
        assert code == 3
        assert err.startswith("parse error:") and "'blocks'" in err

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

    @pytest.mark.parametrize("mn", ["4,2", "6,3", "8,1"])
    def test_pda_json_is_json_dumps_of_relabelled_cells(self, capsys, mn):
        pda = mn_pda(*map(int, mn.split(",")))
        expected = json.dumps({
            "type": "pda", "F": pda.num_rows, "K": pda.num_cols,
            "cells": pda.relabel([*range(1, pda.num_ids + 1), "*"]),
        }, indent=2)
        code, out, _ = run(capsys, "pda", "--mn", mn, "--format", "json")
        assert code == 0
        assert out == expected + "\n"

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

    @pytest.mark.parametrize("obj, names", [
        ([1, 2], "list"),
        ("design", "str"),
        ({"type": "gdd", "m": 3, "q": 2}, "'blocks'"),
        ({"type": "oa", "q": 2, "rows": [[1, 1]]}, "'s'"),
        ({"type": "pda", "F": 1, "K": 1}, "'cells'"),
        ({"type": "design", "points": 7, "blocks": 5}, "'blocks'"),
    ], ids=["list", "string", "gdd-no-blocks", "oa-no-strength", "pda-no-cells",
            "design-blocks-not-list"])
    def test_malformed_object_is_parse_error(self, capsys, tmp_path, obj, names):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert err.startswith("parse error:") and names in err

    def test_verify_pda_file(self, capsys, tmp_path):
        path = tmp_path / "pda.json"
        run(capsys, "pda", "--mn", "4,2", "--out", str(path))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    def test_malformed_pda_cell_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "pda.json"
        run(capsys, "pda", "--mn", "4,2", "--out", str(path))
        obj = json.loads(path.read_text())
        obj["cells"][2][1] = "x"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert err.startswith("parse error:") and "(3, 2)" in err

    @pytest.mark.parametrize("command, obj, names", [
        ("scheme", {"type": "pda", "F": 1, "K": 1, "cells": [5]}, "cells[0]"),
        ("verify", {"type": "pda", "F": 2, "K": 2, "cells": [[1, "*"], [1]]}, "cells[1]"),
        ("verify", {"type": "pda", "F": "1", "K": 1, "cells": [[1]]}, "'F'"),
        ("verify", {"type": "pda", "F": 1, "K": 1.0, "cells": [[1]]}, "'K'"),
    ], ids=["row-not-list", "ragged-rows", "F-string", "K-float"])
    def test_malformed_pda_shape_is_parse_error(self, capsys, tmp_path, command, obj, names):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        argv = (("scheme", "--design", f"@{path}", "--mu-gamma", "1")
                if command == "scheme" else ("verify", str(path)))
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("parse error:") and names in err

    def test_file_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "fano.json"
        run(capsys, "design", "--catalog", "fano-7-3-1", "--out", str(path))
        loads = []
        real_load = json.load
        monkeypatch.setattr(json, "load", lambda fh: loads.append(fh.name) or real_load(fh))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert loads == [str(path)]

    def test_verify_oa_file(self, capsys, tmp_path):
        path = tmp_path / "oa.json"
        run(capsys, "oa", "--trivial", "3,2", "--out", str(path))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 0

    @pytest.mark.parametrize("build, key, value", [
        (("design", "--catalog", "fano-7-3-1"), "t", "2"),
        (("oa", "--trivial", "3,2"), "lambda", "x"),
    ], ids=["design-t-string", "oa-lambda-string"])
    def test_non_integer_tag_is_parse_error(self, capsys, tmp_path, build, key, value):
        path = tmp_path / "obj.json"
        run(capsys, *build, "--out", str(path))
        obj = json.loads(path.read_text())
        obj[key] = value
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert err.startswith("parse error:") and f"'{key}'" in err


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
        # The report digest was recorded with the scalar GF(2^16) kernels,
        # before the vectorised ones: coded outputs must stay byte-identical.
        # The transcript digest is of the version-2 format, whose symbol
        # block holds the same 120 symbols as the version-1 file did; the
        # transcript written is the plan that was decoded.
        bundle, report, transcript = (tmp_path / n for n in ("s.json", "r.json", "t.bin"))
        run(capsys, "scheme", "--design", "affine-9-3-1", "--mu-gamma", "2",
            "--out", str(bundle))
        code, _, _ = run(capsys, "simulate", "--scheme", str(bundle), "--mode", "mds",
                         "--seed", "5", "--out", str(report), "--transcript", str(transcript))
        assert code == 0
        assert transcript.stat().st_size == 22 + 4 * 12 + 120 * 64 == 7750
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (transcript, report)] == [
            "8667149bbd71fe23a160068b40b1b70056e3e27fe43dc5b3c3dad4a0af87aa8f",
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

    @pytest.mark.parametrize("field", ["K", "F", "S_counted"])
    def test_stale_bundle_summary_fails(self, capsys, tmp_path, field):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        obj["summary"][field] += 1
        bundle.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 1
        assert out == "" and field in err and err.startswith("error:")

    @pytest.mark.parametrize("key", ["C", "Q"])
    def test_changed_bundle_array_fails(self, capsys, tmp_path, key):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        row = obj["C"][0] if key == "C" else obj["Q"]["cells"][0]
        row.reverse()
        bundle.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 1
        assert out == "" and err.startswith(f"error: bundle {key} differs")

    @pytest.mark.parametrize("id_value", [True, 1.0], ids=["true", "float"])
    def test_bundle_q_id_of_another_type_fails(self, capsys, tmp_path, id_value):
        # Python's == has True == 1.0 == 1; the bundle's text must match.
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        row = next(row for row in obj["Q"]["cells"] if 1 in row)
        row[row.index(1)] = id_value
        bundle.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 1
        assert out == "" and err == (
            "error: bundle Q differs from the scheme rebuilt from its parameters\n")

    def test_reordered_bundle_q_simulates(self, capsys, tmp_path):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        obj["Q"] = dict(reversed(obj["Q"].items()))
        bundle.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 0
        assert json.loads(out)["all_ok"] is True

    @pytest.mark.parametrize("edit, names", [
        (lambda obj: obj.update(params="x"), "'params'"),
        (lambda obj: obj["params"].update(cached_nodes="1"), "'cached_nodes'"),
    ], ids=["params-string", "cached-nodes-string"])
    def test_malformed_bundle_params_is_parse_error(self, capsys, tmp_path, edit, names):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        edit(obj)
        bundle.write_text(json.dumps(obj))
        code, _, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 3
        assert err.startswith("parse error:") and names in err

    def test_design_file_is_not_a_bundle(self, capsys, tmp_path):
        path = tmp_path / "fano.json"
        run(capsys, "design", "--catalog", "fano-7-3-1", "--out", str(path))
        code, _, err = run(capsys, "simulate", "--scheme", str(path))
        assert code == 3
        assert err.startswith("parse error:") and "not a scheme bundle" in err

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


    def test_zero_files_is_param_error(self, capsys, tmp_path):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle), "--files", "0")
        assert code == 2
        assert out == "" and err.startswith("error:")


class TestUnreadableInput:
    """Every command that reads a JSON file exits 3 and names the file
    when it is missing, a directory, not UTF-8 or not JSON."""

    @pytest.mark.parametrize("argv", [
        ("verify", "{}"),
        ("simulate", "--scheme", "{}"),
        ("scheme", "--design", "@{}", "--mu-gamma", "1"),
        ("scheme", "--gdd-file", "{}"),
        ("scheme", "--gdd-transversal", "3,2,2", "--oa-file", "{}"),
    ], ids=["verify", "simulate", "scheme-design", "scheme-gdd-file", "scheme-oa-file"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "not-json",
                                      "long-int"])
    def test_is_parse_error(self, capsys, tmp_path, argv, kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"type": "design\xff"}')
        elif kind == "not-json":
            path.write_text("{not json")
        elif kind == "long-int":
            # one digit past the longest integer Python converts from text
            path.write_text('{"type": "design", "points": ' + "9" * 4301 + "}")
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert code == 3
        assert out == "" and err.startswith("parse error:") and str(path) in err


def _edit_json(change):
    """A file edit that applies ``change`` to the parsed JSON."""
    def edit(raw):
        obj = json.loads(raw)
        change(obj)
        return json.dumps(obj).encode()
    return edit


class TestFalseTagIsRefused:
    """A design, GDD or OA whose blocks or rows do not match its tag builds no
    scheme: the command exits 1 and names the first violation, the one
    `macc verify` reports on the same file."""

    @pytest.mark.parametrize("build, edit, argv, violation", [
        (("design", "--catalog", "biplane-7-4-2"),
         _edit_json(lambda o: o["blocks"].__setitem__(0, [1, 3, 4, 6])),
         ("scheme", "--design", "@{}", "--mu-gamma", "2"),
         "subset {1, 2} lies in 1 blocks, expected 2"),
        (("gdd", "--transversal", "3,2,2"),
         lambda raw: raw[:603] + b"3" + raw[604:],  # a group 1 becomes 3
         ("scheme", "--gdd-file", "{}"),
         "block ((3, 1), (3, 2)) meets a group twice"),
        (("oa", "--catalog", "oa-3-2-2"),
         _edit_json(lambda o: o["rows"][0].__setitem__(0, 2)),
         ("scheme", "--gdd-transversal", "3,2,2", "--oa-file", "{}"),
         "columns (1, 2): tuple (1, 1) appears 0 times, expected 1"),
    ], ids=["design", "gdd", "oa"])
    def test_scheme_exits_1(self, capsys, tmp_path, build, edit, argv, violation):
        path = tmp_path / "input.json"
        run(capsys, *build, "--out", str(path))
        path.write_bytes(edit(path.read_bytes()))
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.rstrip().endswith(violation)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1 and json.loads(out)["first_violation"] == violation

    def test_simulate_exits_1(self, capsys, fano_files):
        work, bundle, _ = fano_files
        altered = json.loads(json.dumps(bundle))
        altered["design"]["blocks"][0] = [1, 2, 3]
        path = work / "altered-bundle.json"
        path.write_text(json.dumps(altered))
        code, out, err = run(capsys, "simulate", "--scheme", str(path))
        assert (code, out) == (1, "")
        assert err.rstrip().endswith("subset {1, 3} lies in 2 blocks, expected 1")


# The longest integer Python converts to text: 4300 nines.
_NINES = 10**4300 - 1


class TestLargeIntegers:
    """Tags whose products pass Python's 4300-digit str() limit end in a
    code, not a traceback; shorter ones print in full as before."""

    @pytest.mark.parametrize("obj, argv, code, text", [
        ({"type": "oa", "q": 3, "s": 3000000, "lambda": 1, "rows": [[1, 2, 3]]},
         ("scheme", "--gdd-transversal", "3,2,2", "--oa-file", "{}"), 3,
         "row count 1 != index*q^strength = 1*3^3000000"),
        ({"type": "oa", "q": 10**4000, "s": 2, "lambda": 1, "rows": [[1, 2, 3]]},
         ("scheme", "--gdd-transversal", "3,2,2", "--oa-file", "{}"), 3,
         f"row count 1 != index*q^strength = 1*{10**4000}^2"),
        ({"type": "oa", "q": 2, "s": 100, "lambda": 1, "rows": [[1, 2, 2]]},
         ("scheme", "--gdd-transversal", "3,2,2", "--oa-file", "{}"), 3,
         f"row count 1 != index*q^strength = {2**100}"),
        ({"type": "design", "points": 7, "t": 2, "lambda": _NINES,
          "blocks": [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [1, 5, 6], [2, 6, 7], [1, 3, 7]]},
         ("scheme", "--design", "@{}", "--mu-gamma", "1"), 1,
         f"subset {{1, 2}} lies in 1 blocks, expected {_NINES}"),
    ], ids=["oa-s-3000000", "oa-q-4001-digits", "oa-q-2-s-100", "design-lambda-4300-digits"])
    def test_exit_code_and_message(self, capsys, tmp_path, obj, argv, code, text):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        got, out, err = run(capsys, *(a.format(path) for a in argv))
        assert (got, out) == (code, "")
        assert text in err and "Traceback" not in err
        got, out, err = run(capsys, "verify", str(path))
        if obj["type"] == "oa":
            assert got == 3 and text in err
        else:
            report = json.loads(out)
            assert got == 1
            assert report["replication"] == f"<{(3 * _NINES).bit_length()}-bit integer>"
            assert report["first_violation"] == (
                f"subset {{1, 2}} lies in 1 blocks, expected {_NINES}"
            )


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 and names the path;
    the command's input was read and parsed, so it is not a parse error."""

    @pytest.mark.parametrize("argv, target", [
        (("design", "--catalog", "fano-7-3-1", "--out", "{dir}"), "{dir}"),
        (("design", "--catalog", "fano-7-3-1", "--out", "{missing}"), "{missing}"),
        (("scheme", "--design", "fano-7-3-1", "--mu-gamma", "1", "--out", "{missing}"),
         "{missing}"),
        (("simulate", "--scheme", "{bundle}", "--transcript", "{dir}"), "{dir}"),
    ], ids=["design-out-directory", "design-out-missing-parent",
            "scheme-out-missing-parent", "simulate-transcript-directory"])
    def test_is_param_error(self, capsys, tmp_path, fano_files, argv, target):
        names = {"dir": tmp_path, "missing": tmp_path / "missing" / "x.json",
                 "bundle": fano_files[0] / "bundle.json"}
        code, _, err = run(capsys, *(a.format(**names) for a in argv))
        assert code == 2
        assert err.startswith("error: cannot write ") and target.format(**names) in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("which", ["table4", "fig3", "fig4"])
    def test_closed_reader_exits_quietly(self, which):
        # The reader end is closed before the command writes, as in
        # `macc tables fig3 | true`: no traceback, exit code 1.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, "-m", "macc", "tables", which],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestThinAdapter:
    def test_parser_is_built_once(self, capsys):
        from macc.cli import build_parser

        assert run(capsys, "tables", "fig3")[0] == run(capsys, "pda", "--mn", "4,2")[0] == 0
        assert build_parser() is build_parser()

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


@pytest.fixture(scope="module")
def fano_files(tmp_path_factory):
    """A work directory, a fano mu=1 scheme bundle and the fano design file,
    the last two as parsed JSON."""
    work = tmp_path_factory.mktemp("fano")
    bundle, design = work / "bundle.json", work / "design.json"
    assert main(["scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
                 "--out", str(bundle)]) == 0
    assert main(["design", "--catalog", "fano-7-3-1", "--out", str(design)]) == 0
    return work, json.loads(bundle.read_text()), json.loads(design.read_text())


# The fields `simulate` reads from a bundle and `verify` from a design file,
# each with its JSON type; and a value strategy for every JSON type.
_READ_FIELDS = [
    ("bundle", ("params", "kind"), str),
    ("bundle", ("params", "cached_nodes"), int),
    ("bundle", ("params", "files"), int),
    ("bundle", ("design", "t"), int),
    ("bundle", ("design", "lambda"), int),
    ("design", ("t",), int),
    ("design", ("lambda",), int),
]
_VALUES = {
    str: st.text(max_size=4),
    int: st.integers(-3, 30),
    list: st.lists(st.integers(0, 3), max_size=3),
    type(None): st.none(),
    bool: st.booleans(),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


@given(st.data())
def test_wrong_field_type_exits_with_a_code(fano_files, data):
    work, bundle, design = fano_files
    which, path, own = data.draw(st.sampled_from(_READ_FIELDS))
    wrong = data.draw(st.sampled_from([t for t in _VALUES if t is not own]))
    obj = json.loads(json.dumps(bundle if which == "bundle" else design))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(_VALUES[wrong])
    target = work / f"{which}-mutated.json"
    target.write_text(json.dumps(obj))
    argv = (["simulate", "--scheme", str(target), "--packet-bytes", "8"]
            if which == "bundle" else ["verify", str(target)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in {1, 2, 3}


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """A work directory and one file of each JSON kind a command reads."""
    work = tmp_path_factory.mktemp("inputs")
    for kind, argv in [
        ("design", ["design", "--catalog", "fano-7-3-1"]),
        ("pda", ["pda", "--mn", "4,2"]),
        ("gdd", ["gdd", "--transversal", "3,2,2"]),
        ("oa", ["oa", "--catalog", "oa-3-2-2"]),
        ("bundle", ["scheme", "--design", "fano-7-3-1", "--mu-gamma", "1"]),
    ]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(work / f"{kind}.json")]) == 0
    return work


# Every command that reads a JSON file, with the kind of file it reads.
_JSON_READERS = [
    ("design", ("verify", "{}")),
    ("pda", ("verify", "{}")),
    ("gdd", ("verify", "{}")),
    ("oa", ("verify", "{}")),
    ("bundle", ("verify", "{}")),
    ("design", ("scheme", "--design", "@{}", "--mu-gamma", "1")),
    ("gdd", ("scheme", "--gdd-file", "{}")),
    ("oa", ("scheme", "--gdd-transversal", "3,2,2", "--oa-file", "{}")),
    ("bundle", ("simulate", "--scheme", "{}", "--packet-bytes", "8")),
]


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(_JSON_READERS), data=st.data())
def test_damaged_json_input_exits_with_a_code(json_inputs, reader, data):
    """A JSON input cut short or with one bit flipped never ends in a
    traceback.  Damage that leaves no JSON is a parse error.  Damage that
    leaves the same JSON value (the final newline cut) is the same input.  A
    design, GDD or OA file that keeps its keys but changes a value no longer
    matches its tag, or is malformed, so it exits 1, 2 or 3; so does a
    bundle that keeps its keys but changes C or Q, which no longer match the
    scheme rebuilt from it.  A renamed or dropped key, other damage to a
    bundle, and damage to a PDA may still leave a valid input."""
    kind, argv = reader
    whole = (json_inputs / f"{kind}.json").read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = whole[:data.draw(st.integers(0, len(whole) - 1), label="cut")]
    else:
        bit = data.draw(st.integers(0, 8 * len(whole) - 1), label="bit")
        damaged = bytearray(whole)
        damaged[bit // 8] ^= 1 << bit % 8
    target = json_inputs / "damaged.json"
    target.write_bytes(damaged)
    original = json.loads(whole)
    try:
        parsed = json.loads(bytes(damaged).decode("utf-8"))
    except ValueError:
        allowed = {3}
    else:
        same_keys = isinstance(parsed, dict) and parsed.keys() == original.keys()
        value_changed = same_keys and (
            parsed != original if kind in ("design", "gdd", "oa")
            else kind == "bundle" and any(parsed[k] != original[k] for k in "CQ"))
        allowed = {1, 2, 3} if value_changed else {0, 1, 2, 3}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([a.format(target) for a in argv])
    assert "Traceback" not in err.getvalue()
    assert code in allowed


_SMALL = st.integers(-2, 5)
# Object commands with a comma-separated integer argument, and its length.
_NUMERIC_FLAGS = [
    ("pda", "--mn", 2),
    ("design", "--complete", 2),
    ("gdd", "--transversal", 3),
    ("oa", "--trivial", 2),
    ("oa", "--linear", 3),
]


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["object", "tables", "simulate"]), data=st.data())
def test_numeric_arguments_exit_with_a_code(fano_files, command, data):
    """Small integers in every numeric argument, and a library too large
    to allocate, end in an exit code, never a traceback."""
    if command == "object":
        name, flag, n = data.draw(st.sampled_from(_NUMERIC_FLAGS))
        argv = [name, flag, ",".join(str(data.draw(_SMALL)) for _ in range(n))]
    elif command == "tables":
        argv = ["tables", data.draw(st.sampled_from(["fig3", "table4"]))]
        for flag in ("--nodes", "--L", "--t"):
            argv += [flag, str(data.draw(_SMALL, label=flag))]
    else:
        argv = ["simulate", "--scheme", str(fano_files[0] / "bundle.json"),
                "--demands", data.draw(st.sampled_from(["distinct", "random"])),
                "--seed", str(data.draw(_SMALL, label="seed")),
                "--files", str(data.draw(_SMALL | st.just(10**22), label="files")),
                "--packet-bytes", str(data.draw(_SMALL, label="packet bytes"))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in {0, 1, 2, 3}
