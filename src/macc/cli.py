"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls the library, and
prints or writes the result.  Exit codes: 0 ok, 1 verification failed (or
the reader closed standard output early), 2 invalid parameters (or an
output path that cannot be written), 3 parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import designs, render, serialize, simulate, tables
from .errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidParametersError,
    MaccError,
    NotFoundError,
    UnsupportedParametersError,
)
from .pda import mn_pda, pda_stats, verify_pda
from .scheme_design import build_scheme
from .scheme_gdd import build_gdd_scheme

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_PARSE_ERROR = 3


def _ints(text: str, form: str | None = None) -> tuple:
    """The comma-separated integers of ``text``: as many as the names in
    ``form`` (such as "G,L"), when it is given."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidParametersError(f"expected comma-separated integers, got {text!r}") from None
    if form is not None and len(values) != form.count(",") + 1:
        raise InvalidParametersError(f"expected {form}, got {text!r}")
    return values


@contextlib.contextmanager
def _writing(path):
    """A failed write to ``path`` is a bad argument, not a parse error."""
    try:
        yield
    except OSError as exc:
        raise InvalidParametersError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out) -> None:
    if out:
        with _writing(out), open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(obj, out) -> None:
    """Write ``obj`` as JSON to ``out`` as it is made, or print it."""
    if out:
        with _writing(out):
            serialize.dump_json(obj, out)
    else:
        print(serialize.dump_json(obj))


def _object_output(args, to_obj, to_table) -> None:
    """Write the JSON object ``to_obj()`` for ``--format json``, else the
    table text ``to_table()``, making only the one written."""
    if args.format == "json":
        _emit_json(to_obj(), args.out)
    else:
        _emit(to_table(), args.out)


def _cmd_design(args) -> int:
    if args.catalog:
        d = designs.catalog_design(args.catalog)
    elif args.complete:
        g, l = _ints(args.complete, "G,L")
        d = designs.complete_design(g, l)
    else:
        raise InvalidParametersError("pass --catalog NAME or --complete G,L")
    _object_output(args, lambda: serialize.design_to_obj(d), lambda: render.render_table(
        [render.point_block_label(b) for b in d.blocks], [""], [[""] * d.num_blocks],
        corner="blocks"))
    return EXIT_OK


def _cmd_gdd(args) -> int:
    if args.catalog:
        g = designs.catalog_gdd(args.catalog)
    elif args.transversal:
        m, q, t = _ints(args.transversal, "m,q,t")
        g = designs.transversal_gdd(m, q, t)
    else:
        raise InvalidParametersError("pass --catalog NAME or --transversal m,q,t")
    _object_output(args, lambda: serialize.gdd_to_obj(g),
                   lambda: "\n".join(map(render.group_block_label, g.blocks)))
    return EXIT_OK


def _resolve_oa(kind: str, m: int, q: int, s: int):
    """Built-in OA resolution for the requested strength."""
    if kind.startswith("catalog:"):
        return designs.catalog_oa(kind.split(":", 1)[1])
    if kind == "linear":
        return designs.linear_oa(m, q, s)
    if kind not in ("trivial", "auto"):
        raise InvalidParametersError(
            f"--oa {kind!r} is not trivial, linear, auto or catalog:NAME"
        )
    # The standard source for these parameters.
    if s == m:
        return designs.trivial_oa(m, q)
    if m <= q and designs._is_prime(q):
        return designs.linear_oa(m, q, s)
    if (m, q, s) == (3, 2, 2):
        return designs.catalog_oa("oa-3-2-2")
    raise UnsupportedParametersError(
        f"no built-in OA with m={m}, q={q}, strength {s}; supply --oa-file"
    )


def _cmd_oa(args) -> int:
    if args.catalog:
        oa = designs.catalog_oa(args.catalog)
    elif args.trivial:
        m, q = _ints(args.trivial, "m,q")
        oa = designs.trivial_oa(m, q)
    elif args.linear:
        m, q, s = _ints(args.linear, "m,q,s")
        oa = designs.linear_oa(m, q, s)
    else:
        raise InvalidParametersError("pass --catalog NAME, --trivial m,q or --linear m,q,s")
    _object_output(args, lambda: serialize.oa_to_obj(oa),
                   lambda: "\n".join("".join(map(str, row)) for row in oa.rows))
    return EXIT_OK


def _cmd_pda(args) -> int:
    if not args.mn:
        raise InvalidParametersError("pass --mn K,t")
    k, t = _ints(args.mn, "K,t")
    p = mn_pda(k, t)
    stats = pda_stats(p)
    _object_output(args, lambda: serialize.pda_to_obj(p), lambda: render.render_pda(p))
    print(
        f"({stats.num_users},{stats.subpacketization},{stats.stars_per_column},"
        f"{stats.num_messages}), R={serialize.fraction_str(stats.load)}",
        file=sys.stderr,
    )
    return EXIT_OK


def _load_design_spec(spec: str):
    if spec.startswith("complete:"):
        g, l = _ints(spec.split(":", 1)[1], "complete:G,L")
        return designs.complete_design(g, l)
    if spec.startswith("@"):
        obj = serialize.load_object(spec[1:])
        if not isinstance(obj, designs.Design):
            raise InvalidInputError(f"{spec[1:]} does not hold a design")
        return obj
    return designs.catalog_design(spec)


def _cmd_scheme(args) -> int:
    if args.design:
        design = _load_design_spec(args.design)
        if args.mu_gamma is None:
            raise InvalidParametersError("design schemes need --mu-gamma")
        scheme = build_scheme(design, args.mu_gamma)
    elif args.gdd_transversal or args.gdd_file:
        if args.gdd_file:
            gdd = serialize.load_object(args.gdd_file)
            if not isinstance(gdd, designs.GroupDivisibleDesign):
                raise InvalidInputError(f"{args.gdd_file} does not hold a GDD")
        else:
            m, q, t = _ints(args.gdd_transversal, "m,q,t")
            gdd = designs.transversal_gdd(m, q, t)
        if args.oa_file:
            oa = serialize.load_object(args.oa_file)
            if not isinstance(oa, designs.OrthogonalArray):
                raise InvalidInputError(f"{args.oa_file} does not hold an OA")
        else:
            s = args.s if args.s is not None else gdd.num_groups
            oa = _resolve_oa(args.oa, gdd.num_groups, gdd.group_size, s)
        scheme = build_gdd_scheme(gdd, oa)
    else:
        raise InvalidParametersError(
            "pass --design NAME|complete:G,L|@file or --gdd-transversal m,q,t/--gdd-file"
        )
    bundle = serialize.scheme_to_obj(scheme)
    if args.out:
        _emit_json(bundle, args.out)
    if args.format == "table":
        _emit(render.render_scheme_delivery(scheme), None)
    s = bundle["summary"]
    load = s.get("load_reduced", s["load_plain"])  # a GDD scheme has no reduced load
    print(f"({s['K']},{s['F']},{s['Z']},{s['S_counted']}), R={load}")
    return EXIT_OK


def _rebuild_scheme(bundle: dict):
    serialize._require(bundle, "scheme bundle", params=dict)
    params = bundle["params"]
    serialize._require(params, "scheme bundle params", kind=str)
    try:
        if params["kind"] == "design":
            serialize._require(params, "scheme bundle params", cached_nodes=int)
            design = serialize.design_from_obj(bundle["design"])
            return build_scheme(design, params["cached_nodes"])
        if params["kind"] == "gdd":
            gdd = serialize.gdd_from_obj(bundle["gdd"])
            oa = serialize.oa_from_obj(bundle["oa"])
            return build_gdd_scheme(gdd, oa)
    except KeyError as exc:
        raise InvalidInputError(f"scheme bundle has no {exc} field") from None
    raise InvalidInputError(f"unknown scheme kind {params['kind']!r}")


def _first_difference(value, want, path: str = ""):
    """The path of the first field of the JSON value ``want`` that the
    parsed JSON ``value`` does not write as ``want`` does, or None.  Key
    order and keys that ``want`` lacks aside; unlike ``==``, ``true`` and
    ``1.0`` differ from ``1``."""
    if not isinstance(want, dict):
        return None if json.dumps(value) == json.dumps(want) else path
    if not isinstance(value, dict):
        return path
    for key, item in want.items():
        where = f"{path}.{key}" if path else key
        found = where if key not in value else _first_difference(value[key], item, where)
        if found is not None:
            return found
    return None


def _cmd_simulate(args) -> int:
    bundle = serialize.read_json(args.scheme)
    if not isinstance(bundle, dict) or bundle.get("type") != "scheme":
        raise InvalidInputError(f"{args.scheme} is not a scheme bundle")
    scheme = _rebuild_scheme(bundle)
    field = _first_difference(
        bundle, json.loads(serialize.dump_json(serialize.scheme_to_obj(scheme))))
    if field is not None:
        raise MaccError(f"bundle {field} differs from the scheme rebuilt from its parameters")
    library = simulate.make_library(
        args.files if args.files is not None else scheme.num_users,
        scheme.subpacketization, args.packet_bytes, args.seed,
    )
    if args.demands == "distinct":
        demands = simulate.distinct_demands(scheme, library)
    elif args.demands == "random":
        from random import Random

        demands = simulate.random_demands(scheme, library, Random(args.seed))
    else:
        demands = _ints(args.demands)
    report, plan = simulate._simulate(scheme, library, demands, args.mode)
    if args.transcript:
        with _writing(args.transcript):
            simulate.write_transcript(plan, args.transcript)
    _emit_json(serialize.report_to_obj(report), args.out)
    return EXIT_OK if report.all_ok else EXIT_VERIFY_FAILED


def _cmd_tables(args) -> int:
    text = tables.emit_table(args.which, args.nodes, args.L, args.t)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        raw = serialize.read_json(args.path)
        obj = serialize.object_from_obj(raw, args.path)
    except (KeyError, TypeError, InvalidInputError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    if isinstance(obj, (designs.Design, designs.GroupDivisibleDesign)):
        if obj.strength is None or obj.index is None:
            raise InvalidParametersError(f"{raw['type']} file carries no t/lambda tag to verify")
        verify = designs.verify_t_design if isinstance(obj, designs.Design) else designs.verify_gdd
        report = verify(obj, obj.strength, obj.index)
    elif isinstance(obj, designs.OrthogonalArray):
        report = designs.verify_oa(obj, obj.strength, obj.index)
    else:
        report = verify_pda(obj)
    print(serialize.dump_json(serialize.report_to_obj(report)))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at first use."""
    parser = argparse.ArgumentParser(
        prog="macc",
        description="Multiaccess coded caching toolkit: build access topologies, "
        "verify delivery arrays, simulate delivery, emit comparison tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct a block design")
    p.add_argument("--catalog", help="catalog entry, e.g. fano-7-3-1")
    p.add_argument("--complete", metavar="G,L", help="all L-subsets of G points")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("gdd", help="construct a group divisible design")
    p.add_argument("--catalog")
    p.add_argument("--transversal", metavar="m,q,t")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gdd)

    p = sub.add_parser("oa", help="construct an orthogonal array")
    p.add_argument("--catalog")
    p.add_argument("--trivial", metavar="m,q", help="full enumeration, strength m")
    p.add_argument("--linear", metavar="m,q,s", help="polynomial evaluation, prime q")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oa)

    p = sub.add_parser("pda", help="construct a placement delivery array")
    p.add_argument("--mn", metavar="K,t", help="single-cache subset PDA")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pda)

    p = sub.add_parser("scheme", help="build the three scheme arrays")
    p.add_argument("--design", help="catalog name, complete:G,L, or @design.json")
    p.add_argument("--mu-gamma", type=int, dest="mu_gamma",
                   help="cached node-subset size per subfile")
    p.add_argument("--gdd-transversal", metavar="m,q,t")
    p.add_argument("--gdd-file")
    p.add_argument("--oa", default="auto",
                   help="trivial|linear|auto|catalog:NAME; trivial/auto pick the "
                   "built-in array for the strength given by --s")
    p.add_argument("--oa-file")
    p.add_argument("--s", type=int, help="placement array strength (default m)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", help="write the JSON scheme bundle here")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("simulate", help="run placement, delivery, and decode")
    p.add_argument("--scheme", required=True, help="scheme bundle JSON")
    p.add_argument("--mode", choices=("plain", "mds"), default="plain")
    p.add_argument("--demands", default="distinct",
                   help='"distinct", "random", or comma-separated file ids')
    p.add_argument("--files", type=int, help="library size (default: user count)")
    p.add_argument("--packet-bytes", type=int, default=64, dest="packet_bytes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", help="write the binary transcript here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tables", help="emit comparison tables as CSV")
    p.add_argument("which", choices=("table4", "fig3", "fig4"))
    p.add_argument("--nodes", type=int, default=15)
    p.add_argument("--L", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="verify a JSON object file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_PARAMS if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except BrokenPipeError:
        # `macc tables fig3 | head`: the rest goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VERIFY_FAILED
    except (InvalidParametersError, UnsupportedParametersError, NotFoundError,
            ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PARAMS
    except InvalidInputError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except MaccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
