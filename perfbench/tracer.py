"""Span tracer for the benchmark's traced passes.

Wraps the public functions of the toolkit at their module attributes (and
at every other module attribute bound to the same function object, such as
the names ``macc.cli`` imports), records one span per call in memory, and
turns the spans into per-layer self times and counts after the pass.

Counts are derived from array shapes, never from instrumenting inner
kernels: ``gf16.scale`` runs hundreds of thousands of times per affine
pass, so wrapping it would distort the very time being measured.  Work that
needs more than O(1) to count is deferred until the pass is over, so the
traced wall time holds only the span bookkeeping.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) -> per-layer metric that receives the span's self time.
SPAN_METRICS = {
    "designs": {
        "complete_design": "designs.build_s",
        "catalog_design": "designs.build_s",
        "transversal_gdd": "designs.build_s",
        "catalog_oa": "designs.build_s",
        "linear_oa": "designs.build_s",
        "trivial_oa": "designs.build_s",
        "verify_t_design": "designs.verify_s",
        "verify_gdd": "designs.verify_s",
        "verify_oa": "designs.verify_s",
    },
    "scheme_design": {
        "build_scheme": "scheme_design.build_s",
        "build_node_placement": "scheme_design.node_placement_s",
        "build_user_retrieve": "scheme_design.user_retrieve_s",
        "build_user_delivery": "scheme_design.user_delivery_s",
    },
    "scheme_gdd": {"build_gdd_scheme": "scheme_gdd.build_s"},
    "pda": {"verify_pda": "pda.verify_s"},
    "simulate": {
        "make_library": "simulate.library_s",
        "place": "simulate.place_s",
        "deliver_plain": "simulate.deliver_s",
        "deliver_mds": "simulate.deliver_s",
        "decode": "simulate.decode_s",
        "run_simulation": "simulate.run_s",
        "measure_worst_case": "simulate.run_s",
        "run_demand_trials": "simulate.trials_s",
        "write_transcript": "simulate.transcript_s",
        "read_transcript": "simulate.transcript_s",
    },
    "gf16": {
        "cauchy_matrix": "gf16.cauchy_s",
        "matvec": "gf16.matvec_s",
        "solve": "gf16.solve_s",
    },
    "serialize": {
        "design_to_obj": "serialize.write_s",
        "gdd_to_obj": "serialize.write_s",
        "oa_to_obj": "serialize.write_s",
        "pda_to_obj": "serialize.write_s",
        "scheme_to_obj": "serialize.write_s",
        "report_to_obj": "serialize.write_s",
        "dump_json": "serialize.write_s",
        "load_object": "serialize.read_s",
        "design_from_obj": "serialize.read_s",
        "gdd_from_obj": "serialize.read_s",
        "oa_from_obj": "serialize.read_s",
        "pda_from_obj": "serialize.read_s",
    },
    "tables": {"emit_table": "tables.emit_s"},
    "cli": {"main": "cli.self_s"},
}

# The scheme_design builders nest inside build_scheme; the layer total is
# the sum of all four self times, and the three array metrics split it.
LAYER_TOTALS = {
    "scheme_design.build_s": (
        "scheme_design.node_placement_s",
        "scheme_design.user_retrieve_s",
        "scheme_design.user_delivery_s",
    ),
}

COUNT_METRICS = {
    "scheme_design.cells": "count",
    "pda.ids": "count",
    "pda.c3_pairs": "count",
    "simulate.symbols_sent": "count",
    "simulate.xor_packets": "count",
    "simulate.decoded_bytes": "B",
    "gf16.solve_calls": "count",
    "gf16.mul_words": "count",
    "serialize.bytes_written": "B",
    "cli.commands": "count",
}

TIME_METRICS = tuple(dict.fromkeys(
    m for funcs in SPAN_METRICS.values() for m in funcs.values()
))

# Every metric a traced run reports, with its unit.
LAYER_UNITS = {
    **{m: "s" for m in TIME_METRICS},
    **COUNT_METRICS,
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records (name, start, end, parent) spans for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self._deferred = []  # (kind, args) counted after the pass
        self._originals = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every wrapped function at every macc module attribute
        that refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "macc" or name.startswith("macc.")]
        wrappers = {}
        for mod_name, funcs in SPAN_METRICS.items():
            mod = sys.modules[f"macc.{mod_name}"]
            for fn_name in funcs:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        count = _INLINE_COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def finish(self) -> None:
        """Run the deferred counts; call after the pass timing ends."""
        shapes = {}
        for kind, args in self._deferred:
            _DEFERRED_COUNTS[kind](self.counts, shapes, *args)
        self._deferred.clear()

    def self_times(self) -> dict:
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_metrics(self, pass_wall: float) -> dict:
        metric_of = {f"{m}.{f}": metric
                     for m, funcs in SPAN_METRICS.items() for f, metric in funcs.items()}
        out = {metric: 0.0 for metric in TIME_METRICS}
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            out[metric_of[name]] += self_s
        for total, parts in LAYER_TOTALS.items():
            out[total] += sum(out[p] for p in parts)
        covered = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        out["trace.unattributed_s"] = pass_wall - covered
        out.update({c: self.counts.get(c, 0) for c in COUNT_METRICS})
        return out

    def span_records(self) -> list:
        return [[name, start, end, parent, self.pass_id]
                for name, start, end, parent in self.spans]


# -- counts ---------------------------------------------------------------
# Inline counts are O(1) and run right after the span closes; anything
# larger is queued in ``_deferred`` and computed by ``finish``.

def _count_scheme(tr, scheme, *args, **kwargs):
    tr.counts["scheme_design.cells"] += scheme.subpacketization * scheme.num_users


def _count_verify_pda(tr, report, pda, *args, **kwargs):
    tr.counts["pda.ids"] += report.num_messages
    tr._deferred.append(("c3_pairs", (pda,)))


def _count_deliver(tr, plan, scheme, *args, **kwargs):
    tr.counts["simulate.symbols_sent"] += plan.symbols_sent
    tr._deferred.append(("gather", (scheme,)))


def _count_decode(tr, out, scheme, user, plan, caches, *args, **kwargs):
    tr.counts["simulate.decoded_bytes"] += len(out)
    tr._deferred.append(("decode", (scheme, user, plan)))


def _count_trials(tr, trials, scheme, library, *args, **kwargs):
    k, f = scheme.num_users, scheme.subpacketization
    tr.counts["simulate.decoded_bytes"] += trials * k * f * library.packet_bytes
    tr._deferred.append(("trials", (scheme, trials)))


def _count_matvec(tr, out, matrix, payloads, *args, **kwargs):
    n, k = matrix.shape
    tr.counts["gf16.mul_words"] += n * k * payloads.shape[1]


def _count_solve(tr, out, matrix, rhs, *args, **kwargs):
    # Dense Gauss-Jordan: each of n columns scales n rows of n + w words.
    n, w = matrix.shape[0], rhs.shape[1]
    tr.counts["gf16.solve_calls"] += 1
    tr.counts["gf16.mul_words"] += n * n * (n + w)


def _count_dump(tr, text, obj, path=None, *args, **kwargs):
    tr.counts["serialize.bytes_written"] += len(text) + (1 if path is not None else 0)


def _count_main(tr, rc, *args, **kwargs):
    tr.counts["cli.commands"] += 1


_INLINE_COUNTS = {
    "scheme_design.build_scheme": _count_scheme,
    "scheme_gdd.build_gdd_scheme": _count_scheme,
    "pda.verify_pda": _count_verify_pda,
    "simulate.deliver_plain": _count_deliver,
    "simulate.deliver_mds": _count_deliver,
    "simulate.decode": _count_decode,
    "simulate.run_demand_trials": _count_trials,
    "gf16.matvec": _count_matvec,
    "gf16.solve": _count_solve,
    "serialize.dump_json": _count_dump,
    "cli.main": _count_main,
}


class _SchemeShape:
    """Demand-independent work of one scheme, from its delivery array."""

    def __init__(self, scheme):
        pda = scheme.user_delivery
        positions = pda.id_positions
        self.sizes = [len(positions[i]) for i in pda.ids]
        self.gather = sum(self.sizes)   # packets XORed into the S multicasts
        # Side packets a user XORs off to peel its own packet from a message.
        self.peel = [0] * scheme.num_users
        for n, ident in zip(self.sizes, pda.ids):
            for _, k in positions[ident]:
                self.peel[k] += n - 1
        self._scheme = scheme
        self._known = None

    def known(self, user: int) -> list:
        """Message indices the user rebuilds from cache: every row of the
        message's cells is retrievable by the user."""
        if self._known is None:
            pda = self._scheme.user_delivery
            retrieve = self._scheme.user_retrieve
            self._known = [[] for _ in range(self._scheme.num_users)]
            for s, ident in enumerate(pda.ids):
                rows = [j for j, _ in pda.id_positions[ident]]
                for k in retrieve[rows, :].all(axis=0).nonzero()[0]:
                    self._known[int(k)].append(s)
        return self._known[user]


def _shape(shapes, scheme):
    shape = shapes.get(id(scheme))
    if shape is None:
        shape = shapes[id(scheme)] = _SchemeShape(scheme)
    return shape


def _deferred_c3(counts, shapes, pda):
    counts["pda.c3_pairs"] += sum(
        len(cells) * (len(cells) - 1) // 2 for cells in pda.id_positions.values()
    )


def _deferred_gather(counts, shapes, scheme):
    counts["simulate.xor_packets"] += _shape(shapes, scheme).gather


def _deferred_decode(counts, shapes, scheme, user, plan):
    shape = _shape(shapes, scheme)
    counts["simulate.xor_packets"] += shape.peel[user]
    if plan.mode == "mds" and plan.reduced_by:
        known = shape.known(user)
        unknown = plan.num_messages - len(known)
        counts["simulate.xor_packets"] += sum(shape.sizes[s] for s in known)
        # Known messages are folded out of the right-hand side by scaling.
        counts["gf16.mul_words"] += unknown * len(known) * plan.symbols.shape[1]


def _deferred_trials(counts, shapes, scheme, trials):
    shape = _shape(shapes, scheme)
    counts["simulate.symbols_sent"] += trials * len(shape.sizes)
    counts["simulate.xor_packets"] += trials * (shape.gather + sum(shape.peel))


_DEFERRED_COUNTS = {
    "c3_pairs": _deferred_c3,
    "gather": _deferred_gather,
    "decode": _deferred_decode,
    "trials": _deferred_trials,
}
