"""Command-line interface.

Subcommands: simulate, check, solve, bounds, construct, catalog, classify,
verify.  Graph arguments accept a catalog name, a file path, or "-" for
standard input; files may hold graph6 or "n m" edge-list text (autodetected).
Exit codes: 0 pass, 1 fail, 2 error.
"""

import argparse
import json
import sys

from .bounds import lower_bounds, upper_bounds_cubic
from .constructions import RECIPES, Recipe, build_recipe, catalog
from .fileio import load_graph, to_edge_list, to_graph6
from .graph import vset, vset_members
from .process import run_process
from .solver import ck_exact, verify_witness
from .structure import is_cubic, structure_report
from .verify import SUITES, run_suites

EXIT_PASS, EXIT_FAIL, EXIT_ERROR = 0, 1, 2


def _read_graph(source):
    graphs = catalog()
    if source in graphs:
        return graphs[source]
    if source == "-":
        return load_graph(sys.stdin.read())
    with open(source) as fh:
        return load_graph(fh.read())


def _parse_seed(text, n):
    ids = [int(tok) for tok in text.replace(",", " ").split()]
    for v in ids:
        if not 0 <= v < n:
            raise ValueError(f"seed vertex {v} is not a vertex of the graph (0..{n - 1})")
    return vset(ids)


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_simulate(args):
    g = _read_graph(args.graph)
    trace = run_process(g, _parse_seed(args.seed_set, g.n), args.k)
    _emit(args, trace.to_dict(), trace.to_text())
    return EXIT_PASS


def cmd_check(args):
    g = _read_graph(args.graph)
    trace = run_process(g, _parse_seed(args.seed_set, g.n), args.k)
    verdict = "converts" if trace.complete else "does not convert"
    _emit(args, {"complete": trace.complete, "time": trace.time},
          f"seed {verdict} the graph (threshold {args.k}, {trace.time} steps)")
    return EXIT_PASS if trace.complete else EXIT_FAIL


def cmd_solve(args):
    g = _read_graph(args.graph)
    res = ck_exact(g, args.k)
    payload = {
        "value": res.value,
        "witness": vset_members(res.witness),
        "method": res.method,
        "nodes_explored": res.nodes_explored,
        "elapsed": res.elapsed,
    }
    lines = [f"value: {res.value}",
             f"witness: {' '.join(map(str, vset_members(res.witness)))}",
             f"method: {res.method}",
             f"nodes: {res.nodes_explored}"]
    if args.certify:
        ok = verify_witness(g, args.k, res)
        payload["certified_minimum"] = ok
        lines.append(f"certified minimum: {'yes' if ok else 'NO'}")
        if not ok:
            _emit(args, payload, "\n".join(lines))
            return EXIT_FAIL
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def cmd_bounds(args):
    g = _read_graph(args.graph)
    entries = lower_bounds(g, args.k)
    if args.k == 2 and is_cubic(g) and g.n > 4:
        entries = entries + upper_bounds_cubic(g)
    payload = [
        {"name": e.name, "kind": e.kind, "value": str(e.value),
         "integer_value": e.integer_value, "source": e.source}
        for e in entries
    ]
    width = max(len(e.name) for e in entries)
    lines = [f"{e.name.ljust(width)}  {e.kind:5}  {str(e.value):>8}"
             f"  ({e.integer_value})  [{e.source}]" for e in entries]
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def cmd_construct(args):
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ValueError(f"parameter {item!r} is not key=value")
        key, val = item.split("=", 1)
        if key in params:
            raise ValueError(f"recipe {args.recipe!r} gets parameter {key!r} more than once")
        params[key] = val
    recipe = Recipe(name=args.recipe, params=params)
    g, seed = build_recipe(recipe)
    out = to_graph6(g) + "\n" if args.format == "graph6" else to_edge_list(g)
    sys.stdout.write(out)
    if seed is not None and args.format != "graph6":
        print("# seed: " + " ".join(map(str, vset_members(seed))))
    return EXIT_PASS


def cmd_catalog(args):
    graphs = catalog()
    if args.name:
        g = graphs.get(args.name)
        if g is None:
            print(f"unknown catalog graph {args.name!r}", file=sys.stderr)
            return EXIT_ERROR
        sys.stdout.write(to_graph6(g) + "\n" if args.format == "graph6" else to_edge_list(g))
        return EXIT_PASS
    for name in sorted(graphs):
        g = graphs[name]
        print(f"{name:14} n={g.n:3} m={g.edge_count}")
    return EXIT_PASS


def cmd_classify(args):
    g = _read_graph(args.graph)
    rep = structure_report(g)
    payload = {
        "n": g.n,
        "m": g.edge_count,
        "regular_degree": rep.regular_degree,
        "girth": rep.girth,
        "bridges": [list(e) for e in rep.bridge_list],
        "vertex_connectivity": rep.vertex_connectivity,
        "edge_connectivity": rep.edge_connectivity,
        "cyclically_4_connected": rep.cyclically_4_connected,
        "chromatic_class": rep.chromatic_class,
        "triangle_free": rep.triangle_free,
    }
    lines = [f"{key}: {value}" for key, value in payload.items()]
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def cmd_verify(args):
    ids = list(SUITES) if args.suite in (None, "all") else [args.suite]
    unknown = [s for s in ids if s not in SUITES]
    if unknown:
        print(f"unknown suite {unknown[0]!r}; choices: all, {', '.join(SUITES)}",
              file=sys.stderr)
        return EXIT_ERROR
    outcomes = run_suites(ids)
    if args.json:
        print(json.dumps([o.to_dict() for o in outcomes], indent=2))
    else:
        for o in outcomes:
            status = "PASS" if o.passed else "FAIL"
            print(f"{status}  {o.suite}  ({len(o.instances)} checks, {o.runtime:.2f}s)")
            if not o.passed:
                for inst in o.instances:
                    if not inst.passed:
                        print(f"      {inst.description}: expected {inst.expected!r},"
                              f" observed {inst.observed!r}")
    return EXIT_PASS if all(o.passed for o in outcomes) else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="threshold conversion processes on graphs: simulate, "
                    "solve exactly, bound, construct, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name, help_text, with_k=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True,
                       help="catalog name, file path, or - for stdin")
        if with_k:
            p.add_argument("-k", type=int, default=2, help="conversion threshold")
        p.add_argument("--json", action="store_true")
        return p

    p = add_graph_cmd("simulate", "run the conversion process from a seed set")
    p.add_argument("--seed-set", required=True, help='e.g. "0,3,5"')
    p.set_defaults(func=cmd_simulate)

    p = add_graph_cmd("check", "test whether a seed set converts the graph")
    p.add_argument("--seed-set", required=True)
    p.set_defaults(func=cmd_check)

    p = add_graph_cmd("solve", "compute the exact conversion number")
    p.add_argument("--certify", action="store_true",
                   help="re-verify the witness and its minimality")
    p.set_defaults(func=cmd_solve)

    p = add_graph_cmd("bounds", "evaluate applicable lower/upper bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build a graph from a recipe")
    p.add_argument("recipe", choices=RECIPES)
    p.add_argument("--param", action="append", default=[],
                   help="key=value, repeatable (e.g. --param k=3)")
    p.add_argument("--format", choices=("edges", "graph6"), default="edges")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("catalog", help="list or emit named graphs")
    p.add_argument("name", nargs="?")
    p.add_argument("--format", choices=("edges", "graph6"), default="edges")
    p.set_defaults(func=cmd_catalog)

    p = add_graph_cmd("classify", "report structural properties", with_k=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run theorem-verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   help="suite id or 'all'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # a crash is an error (2), never a "fail" (1)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
