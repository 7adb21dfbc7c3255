import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from macc import designs, pda, render, scheme_design, scheme_gdd, serialize
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

    def test_index_two_oa_round_trip(self, capsys, tmp_path):
        # F = 4 rows, not the q^s = 2 of an index-1 OA: the bundle states
        # the arrays' figures, so simulate finds them in the rebuilt scheme
        oa, bundle = tmp_path / "oa2.json", tmp_path / "b.json"
        oa.write_text(json.dumps({"type": "oa", "q": 2, "s": 1, "lambda": 2,
                                  "rows": [[1, 1, 1], [2, 2, 2], [1, 2, 1], [2, 1, 2]]}))
        assert run(capsys, "verify", str(oa))[0] == 0
        code, out, _ = run(capsys, "scheme", "--gdd-transversal", "3,2,1",
                           "--oa-file", str(oa), "--out", str(bundle))
        assert (code, out) == (0, "(6,4,2,8), R=2\n")
        summary = json.loads(bundle.read_text())["summary"]
        assert [summary[key] for key in ("K", "F", "Z", "S_counted", "load_plain")] == [
            6, 4, 2, 8, "2"]
        code, out, _ = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 0 and json.loads(out)["all_ok"] is True

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
         "96a6a33a9db369729af98331875e11660247efbb3bf6b6395f4262b4e05cf57d"),
        (("--design", "affine-9-3-1", "--mu-gamma", "2"),
         "b3bb1acd99e72e4f7c7f895d4f8c46768981429330325dfe4c3a5dc1c535525e"),
        (("--design", "biplane-7-4-2", "--mu-gamma", "2"),
         "16c9a5e67ccc3e2eec52d2d707d87001a098c0d69d6ae8c288a9aff31ee0eeb4"),
        (("--gdd-transversal", "3,2,2", "--oa", "catalog:oa-3-2-2"),
         "94cb87d71d9e5a23bc64c3e1170b0e07ba17e8a7d0bf3053bf135f25caf21d01"),
        (("--design", "complete:13,3", "--mu-gamma", "4"),
         "e79c5054f7e03479ae04d836b71e0a1df91a9c05360c2af51e75f0e6c31580d0"),
        (("--design", "complete:16,3", "--mu-gamma", "5"),
         "f09dce438c54d19a0de0829aa8b45f565b51b57f83370e44838812fb96303994"),
        # q = 3: the GDD id vectors take 2-bit fields, not the 1-bit design ones
        (("--gdd-transversal", "3,3,2", "--oa", "linear", "--s", "2"),
         "10b37b295065e36dd96b7d5d02d8d19b560a0f467aeca816a042fb6aee682671"),
    ], ids=["fano-mu1", "affine-mu2", "biplane-mu2", "gdd-3-2-2", "complete-13-3-mu4",
            "complete-16-3-mu5", "gdd-3-3-2-linear"])
    def test_bundle_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # Bundles no longer hold U.  Each digest is of the bundle written
        # before that change (the first five recorded with the object-cell
        # builders, complete-16-3-mu5 with json.dumps(indent=2) as the
        # writer) with its "U" key popped and the rest re-dumped through
        # dump_json, so nothing but U may change, byte for byte.  Bundles
        # then lost the library size too: each digest is of the bundle
        # written before that with its params' "files" key popped and the
        # rest re-dumped the same way.
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

    @pytest.mark.parametrize("argv, form", [
        (["pda", "--mn", "3"], "K,t"),
        (["design", "--complete", "5"], "G,L"),
        (["gdd", "--transversal", "3,2"], "m,q,t"),
        (["oa", "--linear", "3,3"], "m,q,s"),
        (["oa", "--trivial", "2,2,2"], "m,q"),
        (["scheme", "--design", "complete:5", "--mu-gamma", "1"], "complete:G,L"),
        (["scheme", "--gdd-transversal", "3,2"], "m,q,t"),
    ])
    def test_wrong_integer_count_is_param_error(self, capsys, argv, form):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err == f"error: expected {form}, got {argv[2].split(':')[-1]!r}\n"


_PDA_4_2_TABLE = ("   1  2  3  4\n1  *  *  1  2\n2  *  1  *  3\n3  *  2  3  *\n"
                  "4  1  *  *  4\n5  2  *  4  *\n6  3  4  *  *\n")


class TestTableFormat:
    """``--format table`` output, pinned byte for byte; each command makes
    only the format it writes."""

    @pytest.mark.parametrize("argv, stdout, written", [
        (("design", "--catalog", "fano-7-3-1"),
         "blocks  U_124  U_235  U_346  U_457  U_156  U_267  U_137\n\n",
         "blocks  U_124  U_235  U_346  U_457  U_156  U_267  U_137\n"),
        (("gdd", "--transversal", "3,2,2"),
         "U_11,21\nU_11,22\nU_11,31\nU_11,32\nU_12,21\nU_12,22\nU_12,31\nU_12,32\n"
         "U_21,31\nU_21,32\nU_22,31\nU_22,32\n", None),
        (("oa", "--catalog", "oa-3-2-2"), "111\n212\n122\n221\n", None),
        (("pda", "--mn", "4,2"), _PDA_4_2_TABLE, None),
    ], ids=["design", "gdd", "oa", "pda"])
    def test_output_pinned(self, capsys, tmp_path, argv, stdout, written):
        assert run(capsys, *argv, "--format", "table")[:2] == (0, stdout)
        path = tmp_path / "table.txt"
        assert run(capsys, *argv, "--format", "table", "--out", str(path))[:2] == (0, "")
        assert path.read_text() == (written or stdout)

    @pytest.mark.parametrize("argv, unused", [
        (("design", "--catalog", "fano-7-3-1", "--format", "json"), (render, "render_table")),
        (("gdd", "--transversal", "3,2,2", "--format", "json"), (render, "group_block_label")),
        (("pda", "--mn", "4,2", "--format", "json"), (render, "render_pda")),
        (("design", "--catalog", "fano-7-3-1", "--format", "table"), (serialize, "design_to_obj")),
        (("gdd", "--transversal", "3,2,2", "--format", "table"), (serialize, "gdd_to_obj")),
        (("oa", "--catalog", "oa-3-2-2", "--format", "table"), (serialize, "oa_to_obj")),
        (("pda", "--mn", "4,2", "--format", "table"), (serialize, "pda_to_obj")),
    ], ids=["design-json", "gdd-json", "pda-json", "design-table", "gdd-table", "oa-table",
            "pda-table"])
    def test_makes_only_the_written_format(self, capsys, argv, unused):
        with mock.patch.object(*unused, None):
            assert run(capsys, *argv)[0] == 0


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

    def test_oa_index_is_read_from_lambda_only(self, capsys, tmp_path):
        # four rows make an index-2 OA, but "index" is no tag: the array is
        # read as index 1, whose q^s = 2 rows it does not have
        path = tmp_path / "oa.json"
        path.write_text(json.dumps({"type": "oa", "q": 2, "s": 1, "index": 2,
                                    "rows": [[1, 1], [2, 2], [1, 2], [2, 1]]}))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("parse error:") and "row count 4 != index*q^strength = 2" in err

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


# The scheme arguments of a design and a GDD bundle, and every params and
# summary field of each but the two a scheme is rebuilt from, kind and
# cached_nodes, which build another scheme when changed.
_BUNDLE_ARGS = {
    "design": ("--design", "fano-7-3-1", "--mu-gamma", "1"),
    "gdd": ("--gdd-transversal", "3,2,2", "--oa", "catalog:oa-3-2-2"),
}
_STATED_FIELDS = [
    (kind, f"{section}.{field}")
    for kind, scheme in [
        ("design", scheme_design.build_scheme(designs.catalog_design("fano-7-3-1"), 1)),
        ("gdd", scheme_gdd.build_gdd_scheme(designs.transversal_gdd(3, 2, 2),
                                            designs.catalog_oa("oa-3-2-2"))),
    ]
    for section in ("params", "summary")
    for field in serialize.scheme_to_obj(scheme)[section]
    if field not in ("kind", "cached_nodes")
]


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

    @pytest.mark.parametrize("kind, field", _STATED_FIELDS,
                             ids=[f"{kind}-{field}" for kind, field in _STATED_FIELDS])
    def test_stale_bundle_summary_fails(self, capsys, tmp_path, kind, field):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", *_BUNDLE_ARGS[kind], "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        section, name = field.split(".")
        value = obj[section][name]
        obj[section][name] = (not value if isinstance(value, bool)
                              else value + 1 if isinstance(value, int) else value + "0")
        bundle.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 1
        assert out == "" and err == (
            f"error: bundle {field} differs from the scheme rebuilt from its parameters\n")

    @pytest.mark.parametrize("key, field", [("C", "C"), ("Q", "Q.cells")], ids=["C", "Q"])
    def test_changed_bundle_array_fails(self, capsys, tmp_path, key, field):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        row = obj["C"][0] if key == "C" else obj["Q"]["cells"][0]
        row.reverse()
        bundle.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 1
        assert out == "" and err.startswith(f"error: bundle {field} differs")

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
            "error: bundle Q.cells differs from the scheme rebuilt from its parameters\n")

    @pytest.mark.parametrize("rename", [None, "index"], ids=["deleted", "renamed"])
    def test_bundle_without_gdd_lambda_fails(self, capsys, tmp_path, rename):
        # An untagged GDD is built as index 1 and its bundle says so, so a
        # bundle that loses the tag no longer matches its rebuilt scheme.
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--gdd-transversal", "3,2,2", "--oa", "catalog:oa-3-2-2",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        index = obj["gdd"].pop("lambda")
        if rename:
            obj["gdd"][rename] = index
        bundle.write_text(json.dumps(obj))
        code, out, err = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 1
        assert out == "" and err == (
            "error: bundle gdd.lambda differs from the scheme rebuilt from its parameters\n")

    def test_untagged_gdd_file_bundle_writes_index_one(self, capsys, tmp_path):
        gdd_path, bundle = tmp_path / "g.json", tmp_path / "s.json"
        run(capsys, "gdd", "--transversal", "3,2,2", "--out", str(gdd_path))
        obj = json.loads(gdd_path.read_text())
        del obj["lambda"]
        gdd_path.write_text(json.dumps(obj))
        code, _, _ = run(capsys, "scheme", "--gdd-file", str(gdd_path), "--oa",
                         "catalog:oa-3-2-2", "--out", str(bundle))
        assert code == 0
        assert json.loads(bundle.read_text())["gdd"]["lambda"] == 1
        code, out, _ = run(capsys, "simulate", "--scheme", str(bundle))
        assert code == 0 and json.loads(out)["all_ok"] is True

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

    @pytest.mark.parametrize("mode", ["plain", "mds"])
    def test_bundle_with_a_library_size_simulates_as_one_without(self, capsys, tmp_path, mode):
        # bundles once recorded a library size in params["files"]; one that
        # does still loads, and the default library is K files either way
        bundle, old = tmp_path / "s.json", tmp_path / "old.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        obj = json.loads(bundle.read_text())
        assert "files" not in obj["params"]
        obj["params"]["files"] = obj["summary"]["K"] + 3
        old.write_text(json.dumps(obj))
        reports = [run(capsys, "simulate", "--scheme", str(path), "--mode", mode)
                   for path in (old, bundle)]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and json.loads(reports[0][1])["demands"] == list(range(1, 8))

    def test_scheme_takes_no_library_size(self, capsys):
        code, out, err = run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
                             "--files", "9")
        assert (code, out) == (2, "")
        assert "--files" in err

    def test_random_demands_draw_from_the_files_given(self, capsys, tmp_path):
        bundle = tmp_path / "s.json"
        run(capsys, "scheme", "--design", "fano-7-3-1", "--mu-gamma", "1",
            "--out", str(bundle))
        drawn = set()
        for seed in range(4):
            code, out, _ = run(capsys, "simulate", "--scheme", str(bundle), "--files", "14",
                               "--demands", "random", "--seed", str(seed))
            assert code == 0
            drawn.update(json.loads(out)["demands"])
        assert drawn <= set(range(1, 15)) and max(drawn) > 7


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


class TestOversizedInputs:
    """Inputs whose build would pass MAX_COUNT_BYTES exit 2 before the
    enumeration or the scheme arrays are made: each case blanks the
    function that would make them, so reaching it fails the test instead of
    allocating."""

    @pytest.mark.parametrize("argv, guard, text", [
        (("design", "--complete", "40,20"), (designs, "itertools"),
         "the 20-subsets of 40 points need over 1073741824 bytes"),
        (("pda", "--mn", "30,15"), (pda, "itertools"),
         "the MN PDA with K=30, t=15 needs over 1073741824 bytes"),
        (("scheme", "--design", "complete:40,2", "--mu-gamma", "10"), (scheme_design, "_arrays"),
         "F x K = 847660528 x 780 cells need over 1073741824 bytes"),
        (("scheme", "--gdd-transversal", "8,4,2"), (scheme_gdd, "coordinate_arrays"),
         "F x K = 65536 x 448 cells need over 1073741824 bytes"),
        (("gdd", "--transversal", "12,12,6"), (designs, "itertools"),
         "the 12^6 values on 6 of 12 groups need over 1073741824 bytes"),
        (("oa", "--linear", "4,1009,3"), (designs, "itertools"),
         "the 1009^3 rows over 4 columns need over 1073741824 bytes"),
        # ids of two or more int64 words peak at up to about 195 bytes per cell
        (("scheme", "--design", "complete:250,2", "--mu-gamma", "1"), (scheme_design, "_arrays"),
         "F x K = 250 x 31125 cells need over 1073741824 bytes"),
    ], ids=["design-complete-40-20", "pda-mn-30-15", "scheme-complete-40-2-mu10",
            "scheme-gdd-8-4-2", "gdd-transversal-12-12-6", "oa-linear-4-1009-3",
            "scheme-complete-250-2-mu1"])
    def test_is_refused_before_allocating(self, capsys, argv, guard, text):
        with mock.patch.object(*guard, None):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {text}\n"


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 and names the path;
    the command's input was read and parsed, so it is not a parse error."""

    @pytest.mark.parametrize("argv, target", [
        (("design", "--catalog", "fano-7-3-1", "--out", "{dir}"), "{dir}"),
        (("design", "--catalog", "fano-7-3-1", "--out", "{missing}"), "{missing}"),
        (("scheme", "--design", "fano-7-3-1", "--mu-gamma", "1", "--out", "{missing}"),
         "{missing}"),
        (("simulate", "--scheme", "{bundle}", "--transcript", "{dir}"), "{dir}"),
        (("pda", "--mn", "4,2", "--out", "{dir}"), "{dir}"),
        (("scheme", "--design", "fano-7-3-1", "--mu-gamma", "1", "--out", "{dir}"), "{dir}"),
        (("simulate", "--scheme", "{bundle}", "--out", "{dir}"), "{dir}"),
    ], ids=["design-out-directory", "design-out-missing-parent",
            "scheme-out-missing-parent", "simulate-transcript-directory",
            "pda-out-directory", "scheme-out-directory", "simulate-out-directory"])
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

    @pytest.mark.parametrize("argv", [
        ("design", "--catalog", "fano-7-3-1"), ("gdd", "--transversal", "3,2,2"),
        ("oa", "--trivial", "3,2"), ("pda", "--mn", "4,2"), ("simulate", "--scheme", "{bundle}"),
    ], ids=["design", "gdd", "oa", "pda", "simulate"])
    def test_out_file_is_stdout(self, capsys, tmp_path, fano_files, argv):
        argv = [a.format(bundle=fano_files[0] / "bundle.json") for a in argv]
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("}\n")
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_bytes() == out.encode("ascii")


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


# The fields `simulate` rebuilds a bundle's scheme from and `verify` reads
# from a design file, each with its JSON type; and a value strategy for
# every JSON type.
_READ_FIELDS = [
    ("bundle", ("params", "kind"), str),
    ("bundle", ("params", "cached_nodes"), int),
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
    bundle whose value changes in any way, since every key it holds is one
    the scheme rebuilt from it writes.  A renamed or dropped key of another
    file, and damage to a PDA, may still leave a valid input."""
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
        value_changed = parsed != original and (
            kind == "bundle" or same_keys and kind in ("design", "gdd", "oa"))
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
