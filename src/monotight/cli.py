"""Command-line entry point.

Every run prints one JSON object to stdout. Exit codes: 0 success,
1 verification failure, 2 invalid input (a parse error, a size past the
index range) or an unusable file path, 3 internal error (a bug). Exits 2
and 3 print one "error: ..." line on stderr (3: "error: internal: ...")
and nothing on stdout. Each `construct` name and `verify` suite is a
sub-parser with only the flags it reads, so argparse refuses any other.
Only `verify` imports the suites (`properties`), and only `design` and
`construct steiner` import `designs`, so no other command compiles or runs
them at start.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bounds, constructions, fileio, search
from .core import Hypergraph, mask_to_vertices, measure, shadow, t_tight_components


def _load_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        return fileio.read_hypergraph(fh)


def _load_coloring(path: str):
    with open(path) as fh:
        return fileio.read_coloring(fh)


def _cmd_components(args) -> dict:
    h = _load_hypergraph(args.hypergraph)
    comps = t_tight_components(h, args.t)
    return {
        "n": h.n,
        "k": h.k,
        "t": args.t,
        "count": len(comps),
        "components": [[list(mask_to_vertices(h.edges[i])) for i in comp] for comp in comps],
    }


def _cmd_shadow(args) -> dict:
    h = _load_hypergraph(args.hypergraph)
    members = shadow(h, args.s)
    return {
        "n": h.n,
        "k": h.k,
        "s": args.s,
        "count": len(members),
        "members": sorted(list(mask_to_vertices(m)) for m in members),
    }


def _cmd_measure(args) -> dict:
    c = _load_coloring(args.coloring)
    res = measure(c, args.t, args.s)
    return {
        "n": c.n,
        "k": c.k,
        "r": c.r,
        "t": args.t,
        "s": args.s,
        "value": res.value,
        "witness_color": res.witness_color,
        "witness_component_size": res.witness_size,
    }


def _cmd_bound(args) -> dict:
    params = {}
    for name in ("n", "r", "k", "t", "s", "m", "delta", "eps"):
        val = getattr(args, name)
        if val is not None:
            params[name] = val
    return bounds.evaluate_bound(args.kind, **params)


def _cmd_constants(args) -> dict:
    return bounds.special_constants()


def _cmd_construct(args) -> dict:
    c = args.build(args)
    with open(args.out, "w") as fh:
        fileio.write_coloring(c, fh)
    return {"name": args.name, "n": c.n, "k": c.k, "r": c.r, "out": args.out}


def _steiner(args):
    from . import designs

    system = _resolve_design(args.design)
    if system.class_of is None:
        classes, _ = designs.partition_blocks(system, args.t, order=args.order or "given")
    elif args.order is not None:
        raise ValueError("steiner on a design with class tags takes no --order")
    else:
        classes = system.parallel_classes()
    return constructions.steiner_coloring(system, classes, t=args.t)


def _resolve_design(spec: str):
    from . import designs

    if spec in ("fano", "s348", "ag23"):
        return designs.builtin_design(spec)
    if spec.startswith("ap") and spec[2:].isdecimal():
        return designs.affine_plane(int(spec[2:]))
    with open(spec) as fh:
        return fileio.read_design(fh)


def _cmd_design(args) -> dict:
    from . import designs

    if args.partition_t is None and args.order is not None:
        raise ValueError("design without --partition-t takes no --order")
    system = _resolve_design(args.name)
    report = {
        "name": args.name,
        "n": system.n,
        "h": system.h,
        "k": system.k,
        "blocks": len(system.blocks),
        "valid": True,
    }
    if args.partition_t is not None:
        classes, degree_lb = designs.partition_blocks(
            system, args.partition_t, order=args.order or "given"
        )
        report["classes"] = len(classes)
        report["class_count_lower_bound"] = degree_lb
    if args.out:
        with open(args.out, "w") as fh:
            fileio.write_design(system, fh)
        report["out"] = args.out
    return report


def _cmd_blowup(args) -> dict:
    c0 = _load_coloring(args.base)
    c = constructions.blow_up(c0, args.n)
    with open(args.out, "w") as fh:
        fileio.write_coloring(c, fh)
    return {"base_n": c0.n, "n": c.n, "k": c.k, "r": c.r, "out": args.out}


def _cmd_search(args) -> dict:
    res = search.exact_M(args.n, args.r, args.k, args.t, args.s, budget=args.budget)
    report = {
        "n": args.n,
        "r": args.r,
        "k": args.k,
        "t": args.t,
        "s": args.s,
        "value": res.value,
        "status": res.status,
        "nodes": res.nodes_explored,
        "seconds": res.wall_time,
        "lower_bound": bounds.general_lower_bound(args.n, args.r, args.k, args.t, args.s),
    }
    if res.status == "exact" and args.k == 3 and (args.t, args.s) == (2, 3):
        report["note"] = "exact value is new data for these parameters, not a published one"
    if args.emit_witness:
        with open(args.emit_witness, "w") as fh:
            fileio.write_coloring(res.witness, fh)
        report["witness"] = args.emit_witness
    return report


def _cmd_verify(args) -> dict:
    from . import properties

    if args.suite == "r2a":
        case = (args.n, args.k, args.t, args.s)
        if case == (None,) * 4:
            return properties.verify_r2a_suite()
        if None in case:
            raise ValueError("r2a takes all of --n, --k, --t, --s or none of them")
        return properties.verify_r2a_suite([case])
    # looked up at call time, so a wrapped properties.verify_<suite> is the one called;
    # the suite's own defaults apply to --trials and --seed when they are not given
    given = {name: getattr(args, name) for name in ("trials", "seed") if getattr(args, name) is not None}
    return getattr(properties, f"verify_{args.suite}")(**given)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # sub-parsers too: `--t` is not `--trials`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # `main` reports it as one "error:" line, exit 2
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="monotight")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("components", help="t-tight components of a hypergraph file")
    sp.add_argument("--hypergraph", required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(fn=_cmd_components)

    sp = sub.add_parser("shadow", help="s-shadow of a hypergraph file")
    sp.add_argument("--hypergraph", required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(fn=_cmd_shadow)

    sp = sub.add_parser("measure", help="largest monochromatic component shadow of a coloring")
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(fn=_cmd_measure)

    sp = sub.add_parser("bound", help="evaluate a named closed-form bound")
    sp.add_argument("--kind", required=True, choices=sorted(bounds._BOUND_KINDS))
    for name in ("n", "r", "k", "t", "s", "m"):
        sp.add_argument(f"--{name}", type=int)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--eps", type=float)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("constants", help="special constants of the two-coloring analysis")
    sp.set_defaults(fn=_cmd_constants)

    sp = sub.add_parser("construct", help="write an explicit coloring to a file")
    sp.set_defaults(fn=_cmd_construct)
    names = sp.add_subparsers(dest="name", required=True)
    cp = names.add_parser("all_red")
    for name in ("n", "k", "r"):
        cp.add_argument(f"--{name}", type=int, required=True)
    cp.add_argument("--out", required=True)
    # builders are looked up at call time, so a wrapped constructions.<name> is the one called
    cp.set_defaults(build=lambda a: constructions.all_red(a.n, a.k, a.r))
    for name in ("majority", "two_clique", "parity"):
        cp = names.add_parser(name)
        cp.add_argument("--n", type=int, required=True)
        cp.add_argument("--out", required=True)
        cp.set_defaults(build=lambda a: getattr(constructions, f"{a.name}_coloring")(a.n))
    cp = names.add_parser("steiner")
    cp.add_argument("--design", required=True, help="builtin name, apQ, or a design file")
    cp.add_argument("--t", type=int, default=1, help="default 1")
    cp.add_argument("--order", choices=["given", "complement-paired"], help="default given")
    cp.add_argument("--out", required=True)
    cp.set_defaults(build=_steiner)

    sp = sub.add_parser("design", help="emit/validate a Steiner system")
    sp.add_argument("name", help="builtin name (fano, s348, ag23), apQ, or a file")
    sp.add_argument("--partition-t", type=int)
    sp.add_argument("--order", choices=["given", "complement-paired"], help="default given")
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_design)

    sp = sub.add_parser("blowup", help="blow a base coloring up to n vertices")
    sp.add_argument("--base", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_blowup)

    sp = sub.add_parser("search", help="exact M(n,r,k,t,s) by branch-and-bound")
    sp.add_argument("exact", choices=["exact"], nargs="?", default="exact")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--budget", type=_positive_int)
    sp.add_argument("--emit-witness")
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("verify", help="run a named property suite")
    sp.set_defaults(fn=_cmd_verify)
    suites = sp.add_subparsers(dest="suite", required=True)
    for suite in ("kk", "density", "lowerbound", "blowup"):
        vp = suites.add_parser(suite)
        vp.add_argument("--trials", type=_positive_int)
        vp.add_argument("--seed", type=int)
    vp = suites.add_parser("r2a")
    for name in ("n", "k", "t", "s"):
        vp.add_argument(f"--{name}", type=int)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = {"subcommand": args.subcommand, **args.fn(args)}
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    except (OSError, ValueError, OverflowError) as exc:  # FormatError is a ValueError; C(n, k) may overflow
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input; exit 1 would read as "violations found"
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 3
    return 1 if report.get("violations") else 0
