"""Span tracing for the benchmark's traced run, and the per-layer metrics
computed from the spans.

The tracer wraps layer entry points from outside the package. `properties`
and `search` bind `_component_indices`, `_shadow_members`, `measure` and
friends by name at import time, so each probe replaces the function in every
module that binds it; wrapping only `monotight.core` would miss those calls.
"""

from __future__ import annotations

import time
from pathlib import Path

from workloads import (
    BUDGETED,
    PROVEN,
    SUITE_TRIALS,
    bounds,
    cli,
    constructions,
    core,
    fileio,
    instance_name,
    search,
)
from monotight import properties

LAYERS = ("core", "constructions", "fileio", "search", "properties", "bounds", "cli")


def _length(args, kwargs, result):
    first = args[0]
    return len(first) if isinstance(first, (list, tuple)) else 0


def _colors(result):
    return len(result.colors)


# (span name, attribute, modules that bind it, work done by one call)
PROBES = [
    ("core.component_indices", "_component_indices", (core, properties, search), _length),
    ("core.shadow_members", "_shadow_members", (core, properties, search), _length),
    ("core.measure", "measure", (core, properties, search, cli), lambda a, kw, res: len(a[0].colors)),
    ("constructions.two_clique", "two_clique_coloring", (constructions,), lambda a, kw, res: _colors(res)),
    ("constructions.majority", "majority_coloring", (constructions,), lambda a, kw, res: _colors(res)),
    ("constructions.parity", "parity_coloring", (constructions,), lambda a, kw, res: _colors(res)),
    ("constructions.blow_up", "blow_up", (constructions, properties), lambda a, kw, res: _colors(res)),
    # work is characters of text, i.e. bytes: the formats are ASCII
    ("fileio.write_coloring", "write_coloring", (fileio,), lambda a, kw, res: a[1].tell()),
    ("fileio.read_coloring", "read_coloring", (fileio,), lambda a, kw, res: a[0].tell()),
    ("search.exact_M", "exact_M", (search,), lambda a, kw, res: res.nodes_explored),
    ("search.initial_incumbent", "_initial_incumbent", (search,), None),
    ("search.verify_r2a", "verify_r2a", (search, properties), lambda a, kw, res: res["colorings_checked"]),
    ("search.random_coloring", "random_coloring", (search, properties), lambda a, kw, res: _colors(res)),
    *(
        (f"properties.{suite}", f"verify_{suite}", (properties,), lambda a, kw, res: res["trials"])
        for suite in SUITE_TRIALS
    ),
    ("properties.r2a", "verify_r2a_suite", (properties,), lambda a, kw, res: len(res["cases"])),
    ("bounds.general_lower_bound", "general_lower_bound", (bounds,), None),
    ("bounds.kk_shadow_bound", "kk_shadow_bound", (bounds,), None),
    ("bounds.density_component_bound", "density_component_bound", (bounds,), None),
    # work for cli.main is 1 when the exit code is not 0
    ("cli.main", "main", (cli,), lambda a, kw, res: int(res != 0)),
]


class Tracer:
    """Records one span per wrapped call while installed.

    A span is [name, parent index, start ns, end ns, work, failed], kept in
    memory and written out by `write`. Calls nest strictly in one thread, so
    the parent is the top of a stack.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._bindings = []
        for name, attr, modules, work in PROBES:
            original = getattr(modules[0], attr)
            wrapper = self._wrap(name, original, work)
            self._bindings += [(module, attr, original, wrapper) for module in modules]

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, stack[-1], clock(), 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\twork\tfailed\n")
            for i, (name, parent, start, end, work, failed) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{work}\t{failed}\n")


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, work, inclusive and self seconds, failures.

    Self time is the span's duration minus the part its child spans cover.
    Children of one span run one after another inside it, so that part is
    the sum of their durations.
    """
    covered = [0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, parent, start, end, work, failed) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0, "failures": 0})
        st["calls"] += 1
        st["work"] += work
        st["s"] += (end - start) / 1e9
        st["self_s"] += (end - start - covered[i]) / 1e9
        st["failures"] += failed
    return stats


# Per-layer metrics: (name, unit, better). The arrow in each comment names
# the end-to-end metric the layer should move, and on which workload.
PER_LAYER = [
    # -> edges_per_s on measure-large
    ("core.colex_edges.edges_per_s", "edges/s", "higher"),
    ("core.measure.self_s", "s", "lower"),
    # -> edges_per_s on measure-large, trials_per_s on verify-small
    ("core.component_indices.calls", "count", "lower"),
    ("core.component_indices.edges", "edges", "lower"),
    ("core.component_indices.self_s", "s", "lower"),
    ("core.shadow_members.calls", "count", "lower"),
    ("core.shadow_members.edges", "edges", "lower"),
    ("core.shadow_members.self_s", "s", "lower"),
    # -> edges_per_s on measure-large
    ("constructions.two_clique.s", "s", "lower"),
    ("constructions.majority.s", "s", "lower"),
    ("constructions.parity.s", "s", "lower"),
    # -> trials_per_s on verify-small
    ("constructions.blow_up.calls", "count", "lower"),
    ("constructions.blow_up.s", "s", "lower"),
    # -> edges_per_s on measure-large
    ("fileio.write_coloring.s", "s", "lower"),
    ("fileio.write_coloring.mb_per_s", "MB/s", "higher"),
    ("fileio.read_coloring.s", "s", "lower"),
    ("fileio.read_coloring.mb_per_s", "MB/s", "higher"),
    # -> nodes_per_s and wall_s on search-exact; nodes -> nodes_to_proof
    ("search.initial_incumbent.s", "s", "lower"),
    ("search.ns_per_node", "ns", "lower"),
    *((f"search.nodes.{instance_name(*inst)}", "nodes", "lower") for inst in [*PROVEN, BUDGETED]),
    ("search.nodes_to_proof", "nodes", "lower"),
    # -> trials_per_s on verify-small
    ("search.verify_r2a.colorings", "count", "lower"),
    ("search.verify_r2a.colorings_per_s", "1/s", "higher"),
    *((f"properties.{suite}.{field}", unit, better)
      for suite in SUITE_TRIALS
      for field, unit, better in (("trials", "count", "higher"), ("s", "s", "lower"))),
    ("properties.self_s", "s", "lower"),
    # -> wall_s on verify-small
    ("bounds.calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    *((f"{layer}.failures", "count", "lower") for layer in LAYERS),
    # median raw traced pass minus median raw untraced pass
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Enumeration sizes (n, k) each workload drains colex_edges at.
COLEX_SIZES = {
    "measure-large": [(120, 3), (72, 3)],
    "search-exact": [(6, 3), (7, 3)],
    "verify-small": [(6, 3), (6, 4), (10, 4), (12, 3), (21, 3)],
}


def colex_rate(workload: str) -> float:
    """Edges per second of draining core.colex_edges at the workload's sizes,
    repeated for at least a quarter of a second."""
    edges = 0
    start = time.perf_counter()
    while True:
        for n, k in COLEX_SIZES[workload]:
            for _ in core.colex_edges(n, k):
                edges += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.25:
            return edges / elapsed


def layer_metrics(
    spans: list[list],
    traced_passes: int,
    answers: dict[str, dict],
    colex_edges_per_s: float,
    overhead_s: float,
) -> dict[str, float]:
    """Every PER_LAYER metric; counts and times are per traced pass."""
    st = aggregate(spans)
    per = 1 / traced_passes

    def get(name, field):
        return st.get(name, {}).get(field, 0)

    def layer_sum(prefix, field):
        return sum(v[field] for k, v in st.items() if k.startswith(prefix + "."))

    def rate(num, den):
        return num / den if den else 0.0

    exact_s = get("search.exact_M", "s") - get("search.initial_incumbent", "s")
    nodes = {
        inst: answers.get("exact." + instance_name(*inst), {}).get("nodes", 0)
        for inst in [*PROVEN, BUDGETED]
    }
    out = {
        "core.colex_edges.edges_per_s": colex_edges_per_s,
        "core.measure.self_s": get("core.measure", "self_s") * per,
        "constructions.blow_up.calls": get("constructions.blow_up", "calls") * per,
        "constructions.blow_up.s": get("constructions.blow_up", "s") * per,
        "search.initial_incumbent.s": get("search.initial_incumbent", "s") * per,
        "search.ns_per_node": rate(exact_s * 1e9, get("search.exact_M", "work")),
        **{f"search.nodes.{instance_name(*inst)}": v for inst, v in nodes.items()},
        "search.nodes_to_proof": sum(nodes[inst] for inst in PROVEN),
        "search.verify_r2a.colorings": get("search.verify_r2a", "work") * per,
        "search.verify_r2a.colorings_per_s": rate(get("search.verify_r2a", "work"), get("search.verify_r2a", "s")),
        "properties.self_s": layer_sum("properties", "self_s") * per,
        "bounds.calls": layer_sum("bounds", "calls") * per,
        "bounds.self_s": layer_sum("bounds", "self_s") * per,
        "cli.calls": get("cli.main", "calls") * per,
        "cli.self_s": get("cli.main", "self_s") * per,
        "cli.exit_nonzero": get("cli.main", "work") * per,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans) * per,
    }
    for name in ("component_indices", "shadow_members"):
        out[f"core.{name}.calls"] = get(f"core.{name}", "calls") * per
        out[f"core.{name}.edges"] = get(f"core.{name}", "work") * per
        out[f"core.{name}.self_s"] = get(f"core.{name}", "self_s") * per
    for name in ("two_clique", "majority", "parity"):
        out[f"constructions.{name}.s"] = get(f"constructions.{name}", "s") * per
    for name in ("write_coloring", "read_coloring"):
        secs = get(f"fileio.{name}", "s")
        out[f"fileio.{name}.s"] = secs * per
        out[f"fileio.{name}.mb_per_s"] = rate(get(f"fileio.{name}", "work") / 1e6, secs)
    for suite in SUITE_TRIALS:
        out[f"properties.{suite}.trials"] = get(f"properties.{suite}", "work") * per
        out[f"properties.{suite}.s"] = get(f"properties.{suite}", "s") * per
    for layer in LAYERS:
        out[f"{layer}.failures"] = layer_sum(layer, "failures") * per
    return out
