"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 validation error (bad inputs, failed
cover/iso checks), 3 expectation violation in benchmark runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import bench
from .complex import (
    CombinatorialComplex,
    NeighborhoodKind,
    NeighborhoodSpec,
    _cc_from_doc,
    decode_json,
    encode_json,
    format_edge_list,
    parse_edge_list,
    parse_edge_list_blocks,
)
from .covering import CellMap, check_isomorphism, verify_covering
from .errors import BadParams, CCError, NotAChainComplex, ParseError
from .generators import (
    StripParams,
    TorusParams,
    cartesian_product,
    cycle_graph,
    cylinder,
    moebius,
    mog_example_pair,
    star_graph,
    torus,
)
from .invariants import (
    betti_gf2,
    boundary_edge_graph,
    connected_components,
    cross_diameter,
    cycle_lengths,
    diameter,
    euler_characteristic,
    orientability_2d,
)
from .lifting import CyclicLiftParams, MogParams, cyclic_lift, mog_pool, triangular_lift
from .refinement import Engine, HompBlock, PoolStage, SclBlock, distinguish, smcn_refine

USAGE_ERROR, VALIDATION_ERROR, EXPECTATION_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _read_input(path: str) -> str:
    """Whole text of an input file; a missing, unreadable or non-UTF-8 file is
    a ParseError."""
    try:
        with open(path, encoding="utf-8") as fp:
            return fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_arg(path: str) -> str:
    """Whole text of an `-i` argument: stdin for "-", else the file's."""
    return sys.stdin.read() if path == "-" else _read_input(path)


@contextmanager
def _output(path: str):
    """stdout for an `-o -` argument, else the file opened for writing and
    closed on exit; an unwritable path is BadParams."""
    if path == "-":
        yield sys.stdout
        return
    try:
        fp = open(path, "w")
    except OSError as exc:
        raise BadParams(f"cannot write {path}: {exc.strerror or exc}") from None
    with fp:
        yield fp


def _read_cc(path: str) -> CombinatorialComplex:
    return decode_json(_read_input(path))


def _parse_spec(text: str) -> NeighborhoodSpec:
    try:
        kind, ranks = text.split(":")
        r1, r2 = (int(x) for x in ranks.split(","))
        return NeighborhoodSpec(NeighborhoodKind(kind), r1, r2)
    except ValueError:
        raise ParseError(
            f"bad neighborhood spec {text!r}; expected KIND:r1,r2 with KIND in A|coA|B|BT"
        ) from None


def _parse_engine(text: str, rounds: int | None) -> Engine:
    if text == "homp":
        return Engine.homp_full() if rounds is None else Engine("homp", (HompBlock(None, rounds),))
    if text.startswith("scl:"):
        try:
            r1, r2, mark = text[4:].split(",")
            marking = {"dist": "distance", "bin": "binary"}[mark]
            if rounds is not None:
                return Engine(text, (SclBlock(int(r1), int(r2), marking, rounds), PoolStage()))
            return Engine.scl(int(r1), int(r2), marking)
        except (ValueError, KeyError):
            raise ParseError(f"bad engine {text!r}; expected scl:R1,R2,dist|bin") from None
    if text not in ("oracle", "smcn", "smcn:default"):
        raise ParseError(f"unknown engine {text!r}")
    if rounds is not None:
        raise ParseError(f"--rounds caps the homp and scl engines only, not {text!r}")
    return Engine.oracle() if text == "oracle" else Engine.smcn()


# -- subcommand handlers ----------------------------------------------------------


def _cmd_gen(args) -> int:
    out = sys.stdout
    if args.family == "torus":
        try:
            periods = tuple(int(x) for x in args.periods.split(","))
        except ValueError:
            raise ParseError(
                f"bad --periods {args.periods!r}; expected comma-separated integers"
            ) from None
        out.write(encode_json(torus(TorusParams(periods))).decode() + "\n")
    elif args.family in ("cylinder", "moebius"):
        params = StripParams(args.height, args.perimeter)
        cc = cylinder(params) if args.family == "cylinder" else moebius(params)
        out.write(encode_json(cc).decode() + "\n")
    elif args.family == "star":
        out.write(format_edge_list(star_graph(args.n, args.k)))
    elif args.family == "cycle":
        out.write(format_edge_list(cycle_graph(args.n)))
    elif args.family == "mog-pair":
        left, right = mog_example_pair()
        out.write(format_edge_list(left if args.side == "left" else right))
    else:  # product of two cycles
        out.write(
            format_edge_list(cartesian_product(cycle_graph(args.n), cycle_graph(args.m)))
        )
    return 0


def _cmd_lift(args) -> int:
    g = parse_edge_list(_read_arg(args.input))
    if args.method == "triangular":
        cc = triangular_lift(g)
    else:
        cc = cyclic_lift(g, CyclicLiftParams(args.max_cycle_len))
    sys.stdout.write(encode_json(cc).decode() + "\n")
    return 0


def _cmd_pool(args) -> int:
    if (args.eta is None) != (args.eps is None):
        raise ParseError("--eta and --eps go together: give both or neither")
    g = parse_edge_list(_read_arg(args.input))
    if args.eta is None:
        cc = mog_pool(g)  # automatically fine cover
    else:
        try:
            params = MogParams(Fraction(args.eta), Fraction(args.eps))
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"bad --eta {args.eta!r} or --eps {args.eps!r}; expected rationals such as 1/12"
            ) from None
        cc = mog_pool(g, params)
    sys.stdout.write(encode_json(cc).decode() + "\n")
    return 0


def _cmd_invariants(args) -> int:
    cc = _read_cc(args.file)
    spec = _parse_spec(args.spec)
    count, _ = connected_components(cc)
    report: dict = {
        "skeleton_sizes": list(cc.skeleton_sizes()),
        "components": count,
        "euler_characteristic": euler_characteristic(cc),
        "diameter": {str(spec): bench.distance_json(diameter(cc, spec))},
    }
    try:
        report["betti_gf2"] = list(betti_gf2(cc))
    except NotAChainComplex as exc:
        report["betti_gf2"] = None
        report["chain_complex_violation"] = list(exc.violation)
    if args.cross_k is not None:
        try:
            report["cross_diameter"] = {
                f"{spec};k={args.cross_k}": bench.distance_json(cross_diameter(cc, spec, args.cross_k))
            }
        except CCError as exc:
            report["cross_diameter"] = {f"{spec};k={args.cross_k}": f"undefined ({exc})"}
    if cc.dimension >= 2:
        verdict = orientability_2d(cc)
        report["orientability"] = verdict.verdict.value
        try:
            boundary = boundary_edge_graph(cc)
        except CCError as exc:
            report["boundary_cycle_lengths"] = report["boundary_edge_count"] = f"undefined ({exc})"
        else:
            report["boundary_cycle_lengths"] = cycle_lengths(boundary)
            report["boundary_edge_count"] = len(boundary.edges)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


def _cmd_distinguish(args) -> int:
    a, b = _read_cc(args.a), _read_cc(args.b)
    engine = _parse_engine(args.engine, args.rounds)
    verdict = distinguish(a, b, engine)
    print(str(verdict))
    if args.emit_colors and engine.stages is not None:
        # the engine's own stages, run jointly to their end
        dump = [
            {"rank_histograms": [list(map(list, h)) for h in fp.rank_histograms]}
            for fp in smcn_refine([a, b], engine.stages)
        ]
        print(json.dumps(dump))
    return 0


def _read_cell_map(path: str) -> CellMap:
    try:
        doc = json.loads(_read_input(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("cover JSON must be an object")
    try:
        source = _cc_from_doc(doc["source"], "cover JSON source")
        target = _cc_from_doc(doc["target"], "cover JSON target")
        rows = doc["assignment"]
    except KeyError as exc:
        raise ParseError(f"cover JSON missing field {exc.args[0]!r}") from exc
    if not isinstance(rows, list) or not all(
        isinstance(row, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        for row in rows
    ):
        raise ParseError("cover JSON assignment must be an array of integer arrays")
    return CellMap(source, target, tuple(tuple(row) for row in rows))


def _cmd_check_map(args) -> int:
    violation = args.check(_read_cell_map(args.file))
    if violation is None:
        print("Ok")
        return 0
    print(violation)
    return VALIDATION_ERROR


def _cmd_gen_torus_dataset(args) -> int:
    spec = bench.TorusDatasetSpec(args.min_nodes, args.max_nodes, args.max_components)
    pairs = bench.gen_torus_dataset(spec)
    with _output(args.output) as fp:
        bench.write_dataset(pairs, fp)
    print(f"wrote {len(pairs)} pairs", file=sys.stderr)
    if args.expect_pairs is not None and len(pairs) != args.expect_pairs:
        print(
            f"expected {args.expect_pairs} pairs but enumerated {len(pairs)}; "
            "enumeration dump:",
            file=sys.stderr,
        )
        print(bench.enumeration_dump(spec), file=sys.stderr)
        return EXPECTATION_ERROR
    return 0


def _cmd_label_lifted(args) -> int:
    text = _read_arg(args.input)
    lift = CyclicLiftParams(args.max_cycle_len)
    status = 0
    with _output(args.output) as out:
        for i, item in enumerate(parse_edge_list_blocks(text)):
            try:
                if isinstance(item, ParseError):  # a CCError, reported as the library's are
                    raise item
                record = bench.labeled_to_json(i, bench.label_lifted_graph(item, lift))
            except CCError as exc:
                print(f"record {i}: {exc}", file=sys.stderr)
                record = {"index": i, "error": str(exc)}
                status = VALIDATION_ERROR
            out.write(json.dumps(record) + "\n")
    return status


def _cmd_run_benchmark(args) -> int:
    records = bench.read_dataset(_read_input(args.dataset).splitlines())
    pairs = [(left, right) for left, right, _ in records]
    engines = [_parse_engine(name, None) for name in args.engines.split(",")]
    names = [engine.name for engine in engines]
    expectations = {}
    for item in args.expect or []:
        name, _, value = item.partition("=")
        try:
            expectations[name] = int(value)
        except ValueError:
            raise ParseError(f"bad --expect {item!r}; expected ENGINE=N") from None
        if name not in names:  # reports carry these names, e.g. smcn:default
            raise BadParams(
                f"--expect names engine {name!r}, which does not run; engines: {', '.join(names)}"
            )
    reports = bench.run_benchmark(
        pairs, engines, progress=lambda s: print(s, file=sys.stderr)
    )
    status = 0
    for rep in reports:
        finite_rounds = [r for r in rep.rounds if r is not None]
        earliest = min(finite_rounds) if finite_rounds else "n/a"
        print(
            f"{rep.engine}: separated {rep.separated}/{rep.total}, {rep.unknown} unknown "
            f"(earliest round {earliest}, {rep.seconds:.1f}s)"
        )
        if rep.engine in expectations and rep.separated != expectations[rep.engine]:
            print(
                f"expectation violated: {rep.engine} separated {rep.separated}, "
                f"expected {expectations[rep.engine]}",
                file=sys.stderr,
            )
            status = EXPECTATION_ERROR
        if expectations and rep.unknown:
            print(
                f"expectation violated: {rep.engine} left {rep.unknown} pair(s) unknown",
                file=sys.stderr,
            )
            status = EXPECTATION_ERROR
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "engine": r.engine,
                        "separated": r.separated,
                        "unknown": r.unknown,
                        "total": r.total,
                        "rounds": r.rounds,
                        "seconds": r.seconds,
                    }
                    for r in reports
                ]
            )
        )
    return status


def build_parser() -> _Parser:
    parser = _Parser(prog="cckit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a complex or graph")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("torus")
    g.add_argument("--periods", required=True, help="comma-separated, e.g. 3,4")
    g = gen_sub.add_parser("cylinder")
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--perimeter", type=int, required=True)
    g = gen_sub.add_parser("moebius")
    g.add_argument("--height", type=int, required=True)
    g.add_argument("--perimeter", type=int, required=True)
    g = gen_sub.add_parser("star")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g = gen_sub.add_parser("cycle")
    g.add_argument("--n", type=int, required=True)
    g = gen_sub.add_parser("cycle-product")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g = gen_sub.add_parser("mog-pair")
    g.add_argument("--side", choices=("left", "right"), required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("lift", help="lift a graph to a complex")
    p.add_argument("--method", choices=("triangular", "cyclic"), required=True)
    p.add_argument("--max-cycle-len", type=int, default=18)
    p.add_argument("-i", "--input", default="-")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("pool", help="pool a graph to a complex (Mapper)")
    p.add_argument("--method", choices=("mog",), default="mog")
    p.add_argument("--eta", default=None, help="cover stride (rational, e.g. 1/12)")
    p.add_argument("--eps", default=None, help="interval length (rational)")
    p.add_argument("-i", "--input", default="-")
    p.set_defaults(fn=_cmd_pool)

    p = sub.add_parser("invariants", help="report invariants of a complex")
    p.add_argument("file")
    p.add_argument("--spec", default="A:0,1")
    p.add_argument("--cross-k", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("distinguish", help="compare two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--engine",
        default="homp",
        help="homp | scl:R1,R2,dist|bin | smcn:default | oracle",
    )
    p.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="cap refinement rounds for the homp/scl engines (default: to stability)",
    )
    p.add_argument("--emit-colors", action="store_true")
    p.set_defaults(fn=_cmd_distinguish)

    p = sub.add_parser("verify-cover", help="verify a covering map JSON")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_map, check=verify_covering)

    p = sub.add_parser("check-iso", help="verify an isomorphism map JSON")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_map, check=check_isomorphism)

    p = sub.add_parser("gen-torus-dataset", help="generate the torus pair dataset")
    p.add_argument("min_nodes_pos", nargs="?", type=int, default=None)
    p.add_argument("max_nodes_pos", nargs="?", type=int, default=None)
    p.add_argument("max_components_pos", nargs="?", type=int, default=None)
    p.add_argument("--min-nodes", type=int, default=18)
    p.add_argument("--max-nodes", type=int, default=40)
    p.add_argument("--max-components", type=int, default=3)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--expect-pairs", type=int, default=None)
    p.set_defaults(fn=_cmd_gen_torus_dataset)

    p = sub.add_parser("label-lifted", help="label lifted graphs with invariants")
    p.add_argument("--max-cycle-len", type=int, default=18)
    p.add_argument("-i", "--input", default="-")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=_cmd_label_lifted)

    p = sub.add_parser("run-benchmark", help="run engines over a pair dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--engines", default="homp,smcn,oracle")
    p.add_argument("--expect", action="append", default=None, metavar="ENGINE=N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_run_benchmark)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-torus-dataset":
        if args.min_nodes_pos is not None:
            args.min_nodes = args.min_nodes_pos
        if args.max_nodes_pos is not None:
            args.max_nodes = args.max_nodes_pos
        if args.max_components_pos is not None:
            args.max_components = args.max_components_pos
    try:
        return args.fn(args)
    except CCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
