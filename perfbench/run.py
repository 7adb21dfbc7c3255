#!/usr/bin/env python3
"""Benchmark for the macc toolkit.

    python3 perfbench/run.py --workload build-large|plain-trials|coded-cli|all \\
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the toolkit from its
``src`` directory.  Every pass runs in a fresh child process, one at a time,
single-threaded, for about ``--seconds``; extra children time set-up alone.  Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes with one seed and reports the per-layer metrics,
the tracing overhead, and writes the spans to ``perfbench/out``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS, LAYER_TOTALS, LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("build-large", "plain-trials", "coded-cli")
SETUP_PROBES = 7
MIN_PASSES = {0: 2, 1: 3}     # two seeds untraced; traced, untraced, traced
RUN_LIMIT_S = 170             # a run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The layer groups each workload is expected to spend most of its time in.
DOMINANT = {
    "build-large": ("pda.verify_s", "scheme_design.build_s", "serialize.write_s"),
    "plain-trials": ("simulate.decode_s", "simulate.trials_s"),
    "coded-cli": ("gf16.solve_s",),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "macc" / "__init__.py").is_file():
        print(f"error: no toolkit sources at {ROOT / 'src' / 'macc'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(f"env python={platform.python_version()} cpu={_cpu_model()!r} "
          f"cores={os.cpu_count()} threads=1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(summary))
        ok = ok and summary["correct"]
    return 0 if ok else 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(name: str, seed: int, pass_id: int, traced: bool, setup_only: bool,
           deadline: float) -> dict:
    """Run one child to completion and return its result (or a failure)."""
    tag = f"{name}-{os.getpid()}-{pass_id}{'-setup' if setup_only else ''}"
    result_path, work = OUT / f"{tag}.json", OUT / f"work-{tag}"
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--pass-id", str(pass_id), "--trace", str(int(traced)),
           "--result", str(result_path), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.time())], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (subprocess.TimeoutExpired, RuntimeError, OSError, ValueError) as exc:
        return {"attempted": 1, "failures": [f"pass {pass_id}: {exc}"]}
    finally:
        if result_path.exists():
            result_path.unlink()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probes = [_spawn(name, seed, -1 - i, False, True, deadline) for i in range(SETUP_PROBES)]
    passes = []
    t_passes = time.monotonic()
    while len(passes) < MIN_PASSES[trace] or _more_passes(passes, t_passes, seconds):
        i = len(passes)
        # Untraced runs alternate two seeds (seed invariance); traced runs keep
        # one seed and alternate tracing (byte-identical outputs, overhead).
        traced = bool(trace) and i % 2 == 0
        pass_seed = seed if trace else seed + i % 2
        res = _spawn(name, pass_seed, i, traced, False, deadline)
        res.update(traced=traced, seed=pass_seed)
        passes.append(res)
        if "wall_s" not in res or time.monotonic() > deadline - 30:
            break

    attempted = sum(r.get("attempted", 0) for r in probes + passes)
    failures = [f for r in probes + passes for f in r.get("failures", [])]
    attempted += _cross_checks(passes, failures)
    done = [r for r in passes if "wall_s" in r]

    print(f"workload {name} seed {seed} trace {trace}: {len(done)} passes "
          f"({sum(r['traced'] for r in done)} traced), {len(probes)} set-up probes, "
          f"numpy={probes[0].get('numpy', '?')}")
    if trace:
        metrics = _layer_metrics(name, done)
    else:
        metrics = _end_to_end(probes, done, attempted, len(failures))
    for f in failures:
        print(f"FAILED {f}")
    summary = {"correct": not failures and bool(done), "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    _record(name, seed, trace, summary, passes)
    return summary


def _more_passes(passes: list, t_passes: float, seconds: float) -> bool:
    """Whether one more pass ends nearer to ``seconds`` of passes than stopping."""
    elapsed = time.monotonic() - t_passes
    return elapsed + elapsed / len(passes) / 2 < seconds


def _cross_checks(passes: list, failures: list) -> int:
    """Outputs repeat exactly where they must; returns the checks made."""
    done = [r for r in passes if "digest" in r]
    made = 0
    first = {}
    for r in done:
        # Same seed, traced or not: byte-identical reports and transcripts.
        ref = first.setdefault(r["seed"], r)
        if ref is not r:
            made += 1
            if r["digest"] != ref["digest"]:
                failures.append(f"outputs differ between passes with seed {r['seed']}")
        # Any seed: the same loads, verdicts and counts.
        if r is not done[0]:
            made += 1
            if r["fingerprint"] != done[0]["fingerprint"]:
                failures.append(f"seed {r['seed']} changed loads, verdicts or counts: "
                                f"{r['fingerprint']} vs {done[0]['fingerprint']}")
    traced = [r for r in done if "layers" in r]
    for r in traced[1:]:
        made += 1
        a = {k: r["layers"][k] for k in COUNT_METRICS}
        b = {k: traced[0]["layers"][k] for k in COUNT_METRICS}
        if a != b:
            failures.append(f"computed counts differ between traced passes: {a} vs {b}")
    return made


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(probes: list, done: list, attempted: int, failed: int) -> dict:
    setup = [r["setup_s"] for r in probes + done if "setup_s" in r]
    walls = [r["wall_s"] for r in done]
    sim = [r["decoded_bytes"] / r["sim_s"] / 1e6 for r in done if r.get("sim_s")]
    bundle = _median([r["bundle_bytes"] / 1e6 for r in done if r.get("bundle_bytes")])
    rss = _median([r["rss_mb"] for r in done])
    rows = [
        ("setup_s", _median(setup), "s", f"median of {len(setup)} set-ups"),
        ("wall_s", _median(walls), "s",
         f"median of {len(walls)} passes, min {min(walls, default=0):.3f} "
         f"max {max(walls, default=0):.3f}"),
        ("peak_rss_mb", rss, "MB", f"median over {len(done)} pass processes"),
        ("decoded_MBps", _median(sim) if sim else None, "MB/s",
         "decoded file bytes verified / time in simulate calls"),
        ("fail_ratio", failed / attempted if attempted else 1.0, "ratio",
         f"{failed} of {attempted} operations failed"),
        ("bundle_mb", bundle or None, "MB", "scheme bundle bytes written per pass"),
    ]
    for metric, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:14s} {shown:>12s} {unit:5s} {note}")
    return {m: {"value": v, "unit": u} for m, v, u, _ in rows[:3]}


def _layer_metrics(name: str, done: list) -> dict:
    traced = [r for r in done if r["traced"] and "layers" in r]
    plain = [r["wall_s"] for r in done if not r["traced"]]
    wall = _median([r["wall_s"] for r in traced])
    values = {m: _median([r["layers"][m] for r in traced]) for m in LAYER_UNITS
              if m != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = wall / _median(plain) if plain and wall else 0.0
    parts = {p for ps in LAYER_TOTALS.values() for p in ps}
    layer_sum = sum(v for m, v in values.items()
                    if LAYER_UNITS[m] == "s" and m not in parts)
    print(f"  traced wall_s {wall:.4f} s over {len(traced)} traced passes; "
          f"self times plus unattributed sum to {layer_sum:.4f} s")
    for m, v in values.items():
        share = f"{100 * v / wall:5.1f}% of traced wall" if LAYER_UNITS[m] == "s" and wall else ""
        print(f"  {m:32s} {v:>14.6g} {LAYER_UNITS[m]:5s} {share}")
    dominant = sum(values[m] for m in DOMINANT[name])
    top = max((m for m in values if LAYER_UNITS[m] == "s" and m not in parts),
              key=values.get)
    print(f"  dominant {' + '.join(DOMINANT[name])}: {100 * dominant / wall:.1f}% "
          f"of traced wall; largest single layer {top}" if wall else "")
    return {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in values.items()}


def _record(name: str, seed: int, trace: int, summary: dict, passes: list) -> None:
    """Keep the run's results, with the environment, under perfbench/out."""
    numpy_version = next((r["numpy"] for r in passes if "numpy" in r), "?")
    record = {
        "workload": name, "seed": seed, "trace": trace, "summary": summary,
        "env": {"python": platform.python_version(), "numpy": numpy_version,
                "cpu": _cpu_model(), "cores": os.cpu_count()},
        "passes": [{k: v for k, v in r.items() if k != "spans"} for r in passes],
    }
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        spans = [s for r in passes for s in r.get("spans", [])]
        with open(OUT / f"{name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
