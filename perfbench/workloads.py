"""The three benchmark workloads.

Each workload is one pass of toolkit calls, run many times, each time in a
fresh child process.  ``setup`` does what a user pays before the first call
(imports, seeded input generation); ``run`` is the timed pass and only calls
the toolkit; ``check`` verifies every output afterwards, outside the timing.

Why these three:

* ``build-large`` -- complete:16,3 with mu=5 (K=560, F=4368, S=12870): the
  object-grid delivery array build, its exhaustive verification and the
  61 MB bundle write dominate, and peak memory is highest here.  There is no
  library and no decode, so GF(2^16) and simulate changes must read flat.
* ``plain-trials`` -- complete:13,3 with mu=4 (K=286, F=715, S=1716): the
  XOR gather, per-user decode and peel paths of ``simulate`` dominate;
  build and verify are a small share and GF(2^16) is never called.
* ``coded-cli`` -- the ``macc`` command line driven in-process over the
  catalog instances: the only workload that runs the GF(2^16) kernels
  (``gf16.solve`` under coded decode) and the read side of the bundle
  format, so a serializer change that helps build-large and costs this one
  shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from fractions import Fraction

from macc import cli, designs, pda, scheme_design, serialize, simulate

PACKET_BYTES = 64
TRIALS = 4


class Checks:
    """Operations attempted and the ones that failed, with a reason each."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


class BuildLarge:
    """complete:16,3 mu=5: build, verify, bundle write; no library."""

    design = (16, 3)
    mu = 5
    shape = (560, 4368, 12870)

    def setup(self, seed: int, work: str) -> None:
        # Nothing here is seeded: the workload has no library.
        self.bundle = os.path.join(work, "bundle.json")

    def run(self) -> dict:
        d = designs.complete_design(*self.design)
        dv = designs.verify_t_design(d, d.strength, d.index)
        s = scheme_design.build_scheme(d, self.mu)
        pv = pda.verify_pda(s.user_delivery)
        serialize.dump_json(serialize.scheme_to_obj(s), self.bundle)
        return {"design_ok": dv.ok, "pda": pv}

    def check(self, out: dict, checks: Checks) -> dict:
        pv = out["pda"]
        checks.expect("verify_t_design", out["design_ok"])
        checks.expect("verify_pda", pv.ok, str(pv.first_violation))
        kfs = (pv.num_users, pv.subpacketization, pv.num_messages)
        checks.expect("(K,F,S)", kfs == self.shape, str(kfs))
        with open(self.bundle, "rb") as fh:
            raw = fh.read()
        head = json.loads(raw[:raw.index(b'"C"')].rstrip().rstrip(b",") + b"}")
        checks.expect("bundle summary", head["summary"]["S_counted"] == self.shape[2]
                      and Fraction(head["summary"]["load_plain"]) == Fraction(12870, 4368),
                      str(head["summary"]))
        return {
            "fingerprint": {"kfs": kfs, "bundle_bytes": len(raw)},
            "digest": _sha(raw),
            "bundle_bytes": len(raw),
            "decoded_bytes": 0,
            "sim_s": 0.0,
        }


class PlainTrials:
    """complete:13,3 mu=4: build, verify, plain worst case, seeded trials."""

    design = (13, 3)
    mu = 4
    shape = (286, 715, 1716)
    load = Fraction(12, 5)

    def setup(self, seed: int, work: str) -> None:
        k, f, _ = self.shape
        self.seed = seed
        self.library = simulate.make_library(k, f, PACKET_BYTES, seed=seed)

    def run(self) -> dict:
        d = designs.complete_design(*self.design)
        dv = designs.verify_t_design(d, d.strength, d.index)
        s = scheme_design.build_scheme(d, self.mu)
        pv = pda.verify_pda(s.user_delivery)
        t0 = time.perf_counter()
        report = simulate.measure_worst_case(s, self.library, "plain")
        trials = simulate.run_demand_trials(s, self.library, TRIALS, seed=self.seed)
        sim_s = time.perf_counter() - t0
        return {"design_ok": dv.ok, "pda": pv, "report": report,
                "trials": trials, "sim_s": sim_s}

    def check(self, out: dict, checks: Checks) -> dict:
        pv, report = out["pda"], out["report"]
        k, f, _ = self.shape
        checks.expect("verify_t_design", out["design_ok"])
        checks.expect("verify_pda", pv.ok, str(pv.first_violation))
        kfs = (pv.num_users, pv.subpacketization, pv.num_messages)
        checks.expect("(K,F,S)", kfs == self.shape, str(kfs))
        checks.expect("worst-case load", report.measured_load == self.load,
                      str(report.measured_load))
        checks.expect("worst-case decode", report.all_ok)
        # run_demand_trials raises on the first byte mismatch.
        checks.expect("trials", out["trials"] == TRIALS, str(out["trials"]))
        decoded = (1 + TRIALS) * k * f * PACKET_BYTES if report.all_ok else 0
        text = serialize.dump_json(serialize.report_to_obj(report))
        return {
            "fingerprint": {"kfs": kfs, "load": str(report.measured_load),
                            "decode_ok": report.all_ok, "symbols": report.symbols_sent,
                            "trials": out["trials"]},
            "digest": _sha(text),
            "bundle_bytes": 0,
            "decoded_bytes": decoded,
            "sim_s": out["sim_s"],
        }


# (name, scheme arguments, delivery mode, exact worst-case load).  The
# criterion-6b instances that coded delivery refuses by design are left out.
CODED_INSTANCES = (
    ("fano-mu1", ["--design", "fano-7-3-1", "--mu-gamma", "1"], "mds", "4/3"),
    ("fano-mu3", ["--design", "fano-7-3-1", "--mu-gamma", "3"], "mds", "1/7"),
    ("affine-mu2", ["--design", "affine-9-3-1", "--mu-gamma", "2"], "mds", "10/9"),
    ("affine-mu3", ["--design", "affine-9-3-1", "--mu-gamma", "3"], "mds", "37/84"),
    ("biplane-mu1", ["--design", "biplane-7-4-2", "--mu-gamma", "1"], "plain", "1"),
    ("gdd-3-2-2", ["--gdd-transversal", "3,2,2", "--oa", "catalog:oa-3-2-2"], "plain", "1"),
)
TABLES = ("table4", "fig3", "fig4")


class CodedCli:
    """The macc command line, in-process, over the catalog instances."""

    def setup(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        w = lambda name: os.path.join(work, name)  # noqa: E731
        self.commands = [
            ("design", ["design", "--catalog", "fano-7-3-1", "--out", w("fano.json")]),
            ("verify", ["verify", w("fano.json")]),
        ]
        for name, scheme_args, mode, _ in CODED_INSTANCES:
            self.commands.append(
                (f"scheme {name}", ["scheme", *scheme_args, "--out", w(f"{name}.json")]))
            self.commands.append((f"simulate {name}", [
                "simulate", "--scheme", w(f"{name}.json"), "--mode", mode,
                "--seed", str(seed), "--packet-bytes", str(PACKET_BYTES),
                "--transcript", w(f"{name}.bin"), "--out", w(f"{name}.report.json"),
            ]))
        for which in TABLES:
            self.commands.append((f"tables {which}",
                                  ["tables", which, "--out", w(f"{which}.csv")]))
        self.transcripts = [w(f"{name}.bin") for name, *_ in CODED_INSTANCES]

    def run(self) -> dict:
        results, sim_s = [], 0.0
        for label, argv in self.commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            if label.startswith("simulate"):
                sim_s += time.perf_counter() - t0
            results.append((label, rc, stdout.getvalue(), stderr.getvalue()))
        plans = [simulate.read_transcript(path) for path in self.transcripts]
        return {"results": results, "plans": plans, "sim_s": sim_s}

    def check(self, out: dict, checks: Checks) -> dict:
        written = sorted(os.listdir(self.work))
        contents = {}
        for name in written:
            with open(os.path.join(self.work, name), "rb") as fh:
                contents[name] = fh.read()
        digest = _sha(*(c for n in written for c in (n, contents[n])),
                      *(r[2] for r in out["results"]))
        for label, rc, _, err in out["results"]:
            checks.expect(f"macc {label} exit code", rc == 0, f"{rc} {err.strip()}")
        verify_report = json.loads(out["results"][1][2])
        checks.expect("verify fano", verify_report.get("ok") is True, str(verify_report))

        decoded, loads, symbols, bundle_bytes = 0, {}, {}, 0
        for (name, _, mode, load), plan in zip(CODED_INSTANCES, out["plans"]):
            bundle_bytes += len(contents[f"{name}.json"])
            report = json.loads(contents[f"{name}.report.json"])
            loads[name] = report["measured_load"]
            symbols[name] = report["symbols_sent"]
            checks.expect(f"{name} load", Fraction(report["measured_load"]) == Fraction(load),
                          report["measured_load"])
            checks.expect(f"{name} decode", report["all_ok"] is True)
            if report["all_ok"]:
                decoded += report["num_users"] * report["subpacketization"] * PACKET_BYTES
            # Round trip: rewriting the transcript read back must give the
            # same bytes, so symbols and coefficients survived exactly.
            again = os.path.join(self.work, f"{name}.bin.again")
            simulate.write_transcript(plan, again)
            with open(again, "rb") as fh:
                same = fh.read() == contents[f"{name}.bin"]
            os.remove(again)
            checks.expect(f"{name} transcript round trip", same and plan.mode == mode
                          and plan.symbols_sent == report["symbols_sent"])
        for which in TABLES:
            csv_text = contents[f"{which}.csv"].decode()
            checks.expect(f"tables {which}", csv_text.startswith("scheme,params,K,")
                          and csv_text.count("\n") > 1)
        return {
            "fingerprint": {"loads": loads, "symbols": symbols,
                            "rc": [r[1] for r in out["results"]],
                            "sizes": {n: len(contents[n]) for n in written}},
            "digest": digest,
            "bundle_bytes": bundle_bytes,
            "decoded_bytes": decoded,
            "sim_s": out["sim_s"],
        }


WORKLOADS = {"build-large": BuildLarge, "plain-trials": PlainTrials, "coded-cli": CodedCli}
