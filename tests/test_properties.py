"""The verify suites' shared-work paths against one-question-at-a-time
references: `_counts_by_t`'s descent in t against one component pass per t,
lowerbound's early stop against every color computed, and the grouped
padded-intersection check against the pairwise loop."""

import math
import random

import pytest

from monotight import bounds, properties
from monotight.constructions import padded_index_set, steiner_coloring
from monotight.core import (
    Hypergraph,
    _sub_masks,
    colex_edges,
    color_runs,
    component_shadows,
    mask_to_vertices,
    measure,
    shadow,
    t_tight_components,
)
from monotight.designs import builtin_design, partition_blocks
from monotight.properties import (
    SLACK,
    _counts_by_t,
    _max_shadow_by_ts,
    _padded_intersection_violations,
    random_hypergraph,
    verify_density,
)
from monotight.search import random_coloring


def split_colorings():
    """Colorings with many colors for few edges, so that color classes
    split into several (k-1)-tight components, and the s348 Steiner
    coloring, whose classes are two disjoint K^3_4 and split at every t."""
    rng = random.Random(41)
    for k in (3, 4):
        for n in (6, 7):
            for r in (5, 6, 7, 8):
                for _ in range(2):
                    yield random_coloring(n, r, k, seed=rng.randrange(2**32))
    s348 = builtin_design("s348")
    yield steiner_coloring(s348, partition_blocks(s348, 1)[0], t=1)


def test_counts_by_t_match_one_component_pass_per_t():
    seen = {"split at k-1, joined below": 0, "split at every t": 0, "joined at k-1": 0}
    for c in split_colorings():
        k, ss = c.k, range(1, c.k + 1)
        runs_by_color = color_runs(c)
        for runs in runs_by_color.values():
            want = {t: [cnt for _, cnt in component_shadows(runs, t, ss, k)] for t in range(1, k)}
            assert _counts_by_t(runs, k) == want
            if len(want[k - 1]) == 1:
                seen["joined at k-1"] += 1
            elif len(want[1]) == 1:
                seen["split at k-1, joined below"] += 1
            elif want[1]:
                seen["split at every t"] += 1
    assert all(seen.values()), seen


def test_max_shadow_by_ts_matches_measure_when_classes_split():
    for c in [*split_colorings(), *lowerbound_colorings(48, 3)]:
        want = {(t, s): measure(c, t, s).value for t in range(1, c.k) for s in range(1, c.k + 1)}
        assert _max_shadow_by_ts(c) == want, (c.n, c.k, c.r)


LOWERBOUND_GRID = [(n, r, k) for n in (6, 8, 10, 12) for r in (2, 3, 4) for k in (3, 4)]


def lowerbound_colorings(trials: int, seed: int):
    """The colorings verify_lowerbound draws, in its order."""
    rng = random.Random(seed)
    for trial in range(trials):
        n, r, k = LOWERBOUND_GRID[trial % len(LOWERBOUND_GRID)]
        yield random_coloring(n, r, k, seed=rng.randrange(2**63))


def lowerbound_reference(trials: int, seed: int) -> dict:
    """verify_lowerbound with every color of every trial computed."""
    violations = []
    for c in lowerbound_colorings(trials, seed):
        for (t, s), val in _max_shadow_by_ts(c).items():
            bound = bounds.general_lower_bound(c.n, c.r, c.k, t, s)
            if val < bound - SLACK:
                violations.append({"n": c.n, "r": c.r, "k": c.k, "t": t, "s": s, "value": val, "bound": bound})
    return {"suite": "lowerbound", "trials": trials, "seed": seed, "violations": violations}


def test_max_shadow_by_ts_stops_between_threshold_and_full_maximum():
    stopped = 0
    for c in lowerbound_colorings(96, 5):
        full = _max_shadow_by_ts(c)
        enough = {ts: bounds.general_lower_bound(c.n, c.r, c.k, *ts) - SLACK for ts in full}
        got = _max_shadow_by_ts(c, enough)
        assert all(enough[ts] <= got[ts] <= full[ts] for ts in full), (c.n, c.k, c.r)
        stopped += got != full
        # a threshold no coloring reaches at one (t, s) keeps every color
        unreachable = {**enough, (1, 2): math.comb(c.n, 2) + 1}
        assert _max_shadow_by_ts(c, unreachable) == full
    # some trials stop before the color holding some maximum
    assert stopped >= 10, stopped


@pytest.mark.parametrize("where", [None, (1, 1), (1, 3), (2, 2), (3, 4)])
def test_verify_lowerbound_reports_the_full_maximum(monkeypatch, where):
    # the bound at one (t, s) is past any shadow, so every trial with that
    # (t, s) violates it and must compute every color; with where = None
    # the bounds are the real ones and nothing is violated
    real = bounds.general_lower_bound

    def fake(n, r, k, t, s):
        return math.comb(n, s) + 1 if (t, s) == where else real(n, r, k, t, s)

    monkeypatch.setattr(bounds, "general_lower_bound", fake)
    rep = properties.verify_lowerbound(trials=60, seed=11)
    assert rep == lowerbound_reference(60, 11)
    fulls = [_max_shadow_by_ts(c) for c in lowerbound_colorings(60, 11) if where and where[0] < c.k]
    assert [v["value"] for v in rep["violations"]] == [full[where] for full in fulls]
    assert {(v["t"], v["s"]) for v in rep["violations"]} == ({where} if where else set())


def density_reference(trials: int, seed: int) -> dict:
    """verify_density as one public t_tight_components and shadow per t."""
    rng = random.Random(seed)
    violations = []
    for trial in range(trials):
        k = 3 if trial % 2 == 0 else 4
        n = rng.randint(k + 1, 10)
        g = random_hypergraph(n, k, rng, colex_edges(n, k))
        delta = len(g.edges) / math.comb(n, k)
        ss = range(1, k + 1)
        for t in range(1, k):
            need = [bounds.density_component_bound(n, k, t, s, delta) - SLACK for s in ss]
            comps = [Hypergraph(n, k, [g.edges[i] for i in comp]) for comp in t_tight_components(g, t)]
            if not any(all(len(shadow(h, s)) >= lo for s, lo in zip(ss, need)) for h in comps):
                violations.append({"n": n, "k": k, "t": t, "delta": delta})
    return {"suite": "density", "trials": trials, "seed": seed, "violations": violations}


@pytest.mark.parametrize("suite", ["kk", "density"])
def test_random_graph_suites_build_one_edge_list_per_shape(monkeypatch, suite):
    # 13 shapes (n, k), k in {3, 4} and k < n <= 10, over hundreds of trials
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return colex_edges(n, k)

    monkeypatch.setattr(properties, "colex_edges", counting)
    getattr(properties, f"verify_{suite}")(500, 3)
    assert len(calls) == len(set(calls)) <= 13, sorted(calls)


@pytest.mark.parametrize("scale", [1.0, 1.25, 2.0])
def test_verify_density_matches_per_t_reference(monkeypatch, scale):
    # scaling the bound up makes some t fail and others pass in one trial,
    # so the report's order of violations is checked too
    real = bounds.density_component_bound
    monkeypatch.setattr(bounds, "density_component_bound", lambda *a: scale * real(*a))
    rep = verify_density(trials=80, seed=7)
    assert rep == density_reference(80, 7)
    if scale == 1.0:
        assert rep["violations"] == []
    else:
        # some trial fails at two values of t, reported in ascending t
        v = rep["violations"]
        assert any(
            (a["n"], a["k"], a["delta"]) == (b["n"], b["k"], b["delta"]) and a["t"] < b["t"]
            for a, b in zip(v, v[1:])
        )


def pairwise_violations(n: int, n0: int, k: int) -> tuple[int, list[dict]]:
    """The intersection check of verify_blowup as a loop over every pair."""
    edges = list(colex_edges(n, k))
    padded = [properties.padded_index_set(e, n0, k) for e in edges]
    violations = []
    for i, (e, pe) in enumerate(zip(edges, padded)):
        for f, pf in zip(edges[i + 1 :], padded[i + 1 :]):
            if (e & f).bit_count() > (pe & pf).bit_count():
                violations.append({"kind": "intersection", "n": n, "e": mask_to_vertices(e), "f": mask_to_vertices(f)})
    return math.comb(len(edges), 2), violations


def test_grouped_pair_check_matches_pairwise_loop(monkeypatch):
    rng = random.Random(43)
    nonempty = 0
    for case in range(40):
        k = rng.choice((3, 4))
        n0 = rng.choice((5, 6, 7))
        n = rng.randint(n0, 10)
        # each edge keeps its padded set or, with probability p, gets a random k-subset of {1..n0}
        p = rng.choice((0.02, 0.1, 0.5)) if case else 0.0
        base_sets = _sub_masks((1 << n0) - 1, k)
        table = {
            e: rng.choice(base_sets) if rng.random() < p else padded_index_set(e, n0, k)
            for e in colex_edges(n, k)
        }
        monkeypatch.setattr(properties, "padded_index_set", lambda e, n0, k: table[e])
        got = _padded_intersection_violations(n, n0, k)
        assert got == pairwise_violations(n, n0, k), (n, n0, k, p)
        nonempty += bool(got[1])
    assert nonempty >= 30
