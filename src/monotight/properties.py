"""Seeded randomized verification suites.

Each suite returns a report dict with the seed, trial count and violation
count; the CLI `verify` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import functools
import math
import random

from . import bounds
from .constructions import blow_up_rule, padded_index_set
from .core import (
    Coloring,
    _component_indices,  # unused; perfbench/test_perfbench.py reads properties._component_indices
    _shadow_members,
    _sub_masks,
    colex_edges,
    color_runs,
    component_shadows,
    edge_runs,
    mask_to_vertices,
    quotient_max_shadow_by_ts,
)
from .search import random_coloring, verify_r2a

SLACK = 1e-9


def random_edges(rng: random.Random, all_edges: list[int]) -> list[int]:
    """A non-empty random k-graph as its edge list, in colex order: each edge
    of all_edges, the list `colex_edges(n, k)`, kept with one shared random
    probability (re-drawn until at least one edge survives). The edges are a
    subset of a valid list, so no `Hypergraph` is built to check them."""
    rand = rng.random
    while True:
        p = rand()
        edges = [e for e in all_edges if rand() < p]
        if edges:
            return edges


def _counts_by_t(runs: list[tuple[int, int]], k: int) -> dict[int, list[tuple[int, ...]]]:
    """For each t in 1..k-1, the (1..k)-shadow counts of every t-tight
    component of the runs of k-edges, components ordered by first run index.

    t descends from k-1. A t-tight component is also t'-tight connected for
    every t' < t, and its shadows do not depend on t, so once the runs form a
    single component its counts serve every smaller t unchanged.
    """
    ss = range(1, k + 1)
    out: dict[int, list[tuple[int, ...]]] = {}
    for t in range(k - 1, 0, -1):
        counts = [cnt for _, cnt in component_shadows(runs, t, ss, k)]
        if len(counts) == 1:
            out.update((u, counts) for u in range(t, 0, -1))
            break
        out[t] = counts
    return out


def _max_shadow_by_ts(
    c: Coloring, enough: dict[tuple[int, int], float] | None = None
) -> dict[tuple[int, int], int]:
    """measure(c, t, s).value for every valid (t, s), sharing component work:
    one `_counts_by_t` per color, so a color class that is (k-1)-tight
    connected takes one component pass for all t.

    With `enough`, a map from (t, s) to a threshold, the remaining colors are
    skipped once every (t, s) in it has reached its threshold. Each value is
    then at least its threshold and at most the full maximum; a (t, s) that
    stays below its threshold gets the full maximum, since no color is skipped.
    """
    k = c.k
    ss = range(1, k + 1)
    out = {(t, s): 0 for t in range(1, k) for s in ss}
    for runs in color_runs(c).values():
        for t, comps in _counts_by_t(runs, k).items():
            for counts in comps:
                for s, cnt in zip(ss, counts):
                    if cnt > out[(t, s)]:
                        out[(t, s)] = cnt
        if enough is not None and all(out[ts] >= lo for ts, lo in enough.items()):
            break
    return out


def verify_lowerbound(trials: int = 1000, seed: int = 0) -> dict:
    """Random colorings: the largest monochromatic component shadow is at
    least r^(-s/(k-t)) * C(n, s) for every valid (t, s)."""
    rng = random.Random(seed)
    grid = [
        (n, r, k)
        for n in (6, 8, 10, 12)
        for r in (2, 3, 4)
        for k in (3, 4)
    ]
    # per grid cell, each (t, s)'s bound and the least value that passes it
    cell_bounds = [
        {(t, s): bounds.general_lower_bound(n, r, k, t, s) for t in range(1, k) for s in range(1, k + 1)}
        for n, r, k in grid
    ]
    cell_needs = [{ts: bound - SLACK for ts, bound in cell.items()} for cell in cell_bounds]
    violations = []
    for trial in range(trials):
        cell = trial % len(grid)
        n, r, k = grid[cell]
        c = random_coloring(n, r, k, seed=rng.randrange(2**63))
        need = cell_needs[cell]
        # a trial stops early only once every (t, s) passes, so a violating
        # trial computes every color and reports the true maximum
        for (t, s), val in _max_shadow_by_ts(c, enough=need).items():
            if val < need[(t, s)]:
                bound = cell_bounds[cell][(t, s)]
                violations.append({"n": n, "r": r, "k": k, "t": t, "s": s, "value": val, "bound": bound})
    return {"suite": "lowerbound", "trials": trials, "seed": seed, "violations": violations}


def verify_kk(trials: int = 500, seed: int = 0) -> dict:
    """Random k-graphs: the s-shadow count dominates the Kruskal-Katona
    bound binom(x, s) with binom(x, k) = |G|."""
    rng = random.Random(seed)
    edges_of = functools.cache(colex_edges)  # one edge list per shape, for this call only
    violations = []
    for trial in range(trials):
        k = 3 if trial % 2 == 0 else 4
        n = rng.randint(k + 1, 10)
        edges = random_edges(rng, edges_of(n, k))
        m = len(edges)
        # kk_shadow_bound(m, k, s) is binom_real(kk_root(m, k), s): one root per trial
        x = bounds.kk_root(m, k)
        runs = edge_runs(edges)
        for s in range(1, k + 1):
            if s == k:  # the k-shadow of a k-graph is its edge set
                actual = m
            else:
                actual = sum(bits.bit_count() for bits in _shadow_members(runs, s).values())
            bound = bounds.binom_real(x, s)
            if actual < bound - SLACK:
                violations.append({"n": n, "k": k, "s": s, "edges": m, "actual": actual, "bound": bound})
    return {"suite": "kk", "trials": trials, "seed": seed, "violations": violations}


def verify_density(trials: int = 300, seed: int = 0) -> dict:
    """Random k-graphs of density delta: for every t some t-tight component
    has s-shadow at least delta^(s/(k-t)) * C(n, s) for all s simultaneously.

    The components come from one `_counts_by_t` per graph, which descends t
    from k-1 and stops computing once the graph is one component;
    violations are still reported in ascending t."""
    rng = random.Random(seed)
    edges_of = functools.cache(colex_edges)  # one edge list per shape, for this call only
    violations = []
    for trial in range(trials):
        k = 3 if trial % 2 == 0 else 4
        n = rng.randint(k + 1, 10)
        edges = random_edges(rng, edges_of(n, k))
        delta = len(edges) / math.comb(n, k)
        ss = range(1, k + 1)
        by_t = _counts_by_t(edge_runs(edges), k)
        for t in range(1, k):
            need = [bounds.density_component_bound(n, k, t, s, delta) - SLACK for s in ss]
            if not any(all(cnt >= lo for cnt, lo in zip(counts, need)) for counts in by_t[t]):
                violations.append({"n": n, "k": k, "t": t, "delta": delta})
    return {"suite": "density", "trials": trials, "seed": seed, "violations": violations}


def _padded_intersection_violations(n: int, n0: int, k: int) -> tuple[int, list[dict]]:
    """Every pair of distinct edges e, f of K^k_n whose intersection is larger
    than that of their padded index sets. Returns the number of pairs checked,
    C(C(n, k), 2), and the violations in colex order of (e, f).

    A violating pair shares the j-set S = e & f with 1 <= j < k, and its
    padded sets share fewer than j vertices. So for each such S the edges
    through S are grouped by padded set, and only pairs of distinct padded
    sets are compared; there are at most C(n0, k) of those, whatever n is.
    A pair found through several S is reported once.
    """
    edges = colex_edges(n, k)
    padded = [padded_index_set(e, n0, k) for e in edges]
    through: dict[int, list[int]] = {}  # j-set S -> indices of the edges containing S
    for i, e in enumerate(edges):
        for j in range(1, k):
            for sub in _sub_masks(e, j):
                through.setdefault(sub, []).append(i)
    flagged: set[tuple[int, int]] = set()
    for sub, idxs in through.items():
        j = sub.bit_count()
        groups: dict[int, list[int]] = {}
        for i in idxs:
            groups.setdefault(padded[i], []).append(i)
        parts = list(groups.items())
        for pos, (pa, ia) in enumerate(parts):
            for pb, ib in parts[pos + 1 :]:
                if (pa & pb).bit_count() < j:
                    flagged.update((min(x, y), max(x, y)) for x in ia for y in ib)
    violations = [
        {"kind": "intersection", "n": n, "e": mask_to_vertices(edges[a]), "f": mask_to_vertices(edges[b])}
        for a, b in sorted(flagged)
    ]
    return math.comb(len(edges), 2), violations


def verify_blowup(trials: int = 200, seed: int = 0) -> dict:
    """Random base colorings on K^3_6 blown up to n in {15, 21}:

    (i) edge intersections never exceed the intersections of their padded
        part index sets. This depends only on n, not on the coloring, so it
        is checked once per n for every pair of edges of K^3_n: for each
        j-set S (1 <= j < 3), the edges through S are grouped by padded set
        and each pair of distinct groups is compared once
        (`_padded_intersection_violations`);
    (ii) the measured value of the blow-up obeys the recursive bound
        sum_l ceil(n/(n0-k+1))^s * C(s-1, l-1) * M(n0, r, k, t, l; c0).
        The base side is one `_max_shadow_by_ts` pass over the base's
        edges; the blown-up side is `quotient_max_shadow_by_ts` of the
        blow-up's rule (`blow_up_rule`), on the C(N+k-1, k) profile classes
        of its N = n0-k+1 parts, not its edges; ceil(n/N) is its largest part.
    """
    n0, k = 6, 3
    sizes = (15, 21)
    pairs_checked = 0
    violations = []
    for n in sizes:
        checked, found = _padded_intersection_violations(n, n0, k)
        pairs_checked += checked
        violations += found
    rng = random.Random(seed)
    combos = [(r, n) for r in (2, 3) for n in sizes]
    for trial in range(trials):
        r, n = combos[trial % len(combos)]
        c0 = random_coloring(n0, r, k, seed=rng.randrange(2**63))
        base = _max_shadow_by_ts(c0)
        parts, table = blow_up_rule(c0, n)
        blown = quotient_max_shadow_by_ts(parts, table)
        ceil_m = max(parts)
        for t, s in [(1, 2), (1, 3), (2, 3)]:
            lhs = blown[(t, s)]
            rhs = sum(
                ceil_m**s * math.comb(s - 1, ell - 1) * base[(t, ell)]
                for ell in range(1, s + 1)
            )
            if lhs > rhs:
                violations.append({"kind": "recursive-bound", "r": r, "n": n, "t": t, "s": s, "lhs": lhs, "rhs": rhs})
    return {"suite": "blowup", "trials": trials, "seed": seed, "pairs_checked": pairs_checked, "violations": violations}


def verify_r2a_suite(cases: list[tuple[int, int, int, int]] | None = None) -> dict:
    """Exhaustive two-coloring complete-shadow checks for a case list."""
    if cases is None:
        cases = [(5, 4, 1, 1), (5, 4, 1, 2), (6, 4, 1, 2), (6, 4, 2, 2), (5, 2, 1, 1), (6, 2, 1, 1)]
    reports = [verify_r2a(n, k, t, s) for (n, k, t, s) in cases]
    failed = [rep for rep in reports if not rep["pass"]]
    return {"suite": "r2a", "cases": reports, "violations": failed}
