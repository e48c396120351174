"""The verify suites' shared-work paths against one-question-at-a-time
references: `_counts_by_t`'s descent in t against one component pass per t,
and the grouped padded-intersection check against the pairwise loop."""

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
    for c in split_colorings():
        want = {(t, s): measure(c, t, s).value for t in range(1, c.k) for s in range(1, c.k + 1)}
        assert _max_shadow_by_ts(c) == want, (c.n, c.k, c.r)


def density_reference(trials: int, seed: int) -> dict:
    """verify_density as one public t_tight_components and shadow per t."""
    rng = random.Random(seed)
    violations = []
    for trial in range(trials):
        k = 3 if trial % 2 == 0 else 4
        n = rng.randint(k + 1, 10)
        g = random_hypergraph(n, k, rng)
        delta = len(g.edges) / math.comb(n, k)
        ss = range(1, k + 1)
        for t in range(1, k):
            need = [bounds.density_component_bound(n, k, t, s, delta) - SLACK for s in ss]
            comps = [Hypergraph(n, k, [g.edges[i] for i in comp]) for comp in t_tight_components(g, t)]
            if not any(all(len(shadow(h, s)) >= lo for s, lo in zip(ss, need)) for h in comps):
                violations.append({"n": n, "k": k, "t": t, "delta": delta})
    return {"suite": "density", "trials": trials, "seed": seed, "violations": violations}


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
