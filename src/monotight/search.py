"""Exact computation of M(n,r,k,t,s) by branch-and-bound over colorings,
plus exhaustive verification of the two-coloring complete-shadow theorem."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations, product

from . import constructions
from .core import (
    Coloring,
    _shadow_members,
    colex_edges,
    color_buckets,
    component_shadows,
    mask_to_vertices,
    measure,
)

_MISSING = object()
R2A_MAX_EDGES = 25  # verify_r2a enumerates 2^(C(n,k)-1) colorings


@dataclass
class SearchResult:
    value: int
    witness: Coloring
    status: str  # "exact" or "budget-exhausted"
    nodes_explored: int
    wall_time: float


def random_coloring(n: int, r: int, k: int, seed: int) -> Coloring:
    """Uniform independent edge colors from a seeded deterministic generator."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if r < 1:
        raise ValueError("r must be positive")
    rng = random.Random(seed)
    m = math.comb(n, k)
    return Coloring(n, k, r, [rng.randint(1, r) for _ in range(m)])


def _initial_incumbent(n: int, r: int, k: int, t: int, s: int) -> tuple[int, Coloring]:
    """Best available construction: the starting upper bound for the search."""
    candidates = [constructions.all_red(n, k, r)]
    if k == 3 and r == 2 and n >= 3:
        candidates.append(constructions.majority_coloring(n))
        candidates.append(constructions.parity_coloring(n))
        candidates.append(constructions.two_clique_coloring(n))
    best_val: int | None = None
    best_col: Coloring | None = None
    for cand in candidates:
        val = measure(cand, t, s).value
        if best_val is None or val < best_val:
            best_val, best_col = val, cand
    return best_val, best_col


def exact_M(
    n: int, r: int, k: int, t: int, s: int, budget: int | None = None
) -> SearchResult:
    """min over all r-colorings of K^k_n of the largest monochromatic
    t-tight component s-shadow.

    Depth-first over edges in colex order; colors must first appear in
    increasing index order (cuts the r! color symmetry). Each color class
    keeps an incremental union-find with per-component shadow sets, undone
    by trail on backtrack. A branch is pruned as soon as the running
    maximum shadow reaches the incumbent, which is sound because adding
    edges never shrinks components or shadows.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if not 1 <= t <= k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={k}")
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")
    if r < 1:
        raise ValueError("r must be positive")
    start = time.perf_counter()
    masks = list(colex_edges(n, k))
    m = len(masks)
    t_subs = [tuple(combinations(mask_to_vertices(mask), t)) for mask in masks]
    s_subs = [tuple(_shadow_members((mask,), s, k)) for mask in masks]

    best_val, best_col = _initial_incumbent(n, r, k, t, s)
    best_witness = list(best_col.colors)

    if r == 1:
        # the single coloring is the constant one
        return SearchResult(
            value=best_val,
            witness=Coloring(n, k, 1, [1] * m),
            status="exact",
            nodes_explored=1,
            wall_time=time.perf_counter() - start,
        )

    parent = list(range(m))
    shadows: list[set[int] | None] = [None] * m
    buckets: dict[tuple[int, tuple[int, ...]], int] = {}
    color = [0] * m
    state = {"best": best_val, "nodes": 0, "exhausted": False}
    witness_holder = [best_witness]

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def dfs(i: int, used: int, cur_max: int) -> None:
        if state["exhausted"]:
            return
        if i == m:
            if cur_max < state["best"]:
                state["best"] = cur_max
                witness_holder[0] = color.copy()
            return
        if budget is not None and state["nodes"] >= budget:
            state["exhausted"] = True
            return
        top = min(r, used + 1)
        for c in range(1, top + 1):
            state["nodes"] += 1
            # --- apply: give edge i color c ---
            shadows[i] = set(s_subs[i])
            bucket_trail = []
            union_trail = []
            for tm in t_subs[i]:
                key = (c, tm)
                prev = buckets.get(key, _MISSING)
                bucket_trail.append((key, prev))
                buckets[key] = i
                if prev is not _MISSING:
                    ra = find(prev)
                    rb = find(i)
                    if ra != rb:
                        if len(shadows[ra]) < len(shadows[rb]):
                            child, par = ra, rb
                        else:
                            child, par = rb, ra
                        child_set = shadows[child]
                        par_set = shadows[par]
                        added = [x for x in child_set if x not in par_set]
                        par_set.update(added)
                        parent[child] = par
                        union_trail.append((child, par, added))
            root = find(i)
            new_max = len(shadows[root])
            if new_max < cur_max:
                new_max = cur_max
            color[i] = c
            if new_max < state["best"]:
                dfs(i + 1, max(used, c), new_max)
            # --- undo ---
            color[i] = 0
            for child, par, added in reversed(union_trail):
                parent[child] = child
                par_set = shadows[par]
                for x in added:
                    par_set.remove(x)
            for key, prev in reversed(bucket_trail):
                if prev is _MISSING:
                    del buckets[key]
                else:
                    buckets[key] = prev
            shadows[i] = None
            if state["exhausted"]:
                return

    dfs(0, 0, 0)
    status = "budget-exhausted" if state["exhausted"] else "exact"
    witness = Coloring(n, k, r, witness_holder[0])
    return SearchResult(
        value=state["best"],
        witness=witness,
        status=status,
        nodes_explored=state["nodes"],
        wall_time=time.perf_counter() - start,
    )


def brute_force_M(n: int, r: int, k: int, t: int, s: int) -> int:
    """Raw enumeration over all r^m colorings; oracle for small instances."""
    m = math.comb(n, k)
    best = None
    for assignment in product(range(1, r + 1), repeat=m):
        val = measure(Coloring(n, k, r, list(assignment)), t, s).value
        if best is None or val < best:
            best = val
    return best


def verify_r2a(n: int, k: int, t: int, s: int) -> dict:
    """Exhaustively check that every 2-coloring of K^k_n has a monochromatic
    t-tight component with complete s-shadow (requires 2*max(t,s) <= k).

    Iterates all colorings with the first edge fixed red (color-swap
    symmetry), so at most 2^(R2A_MAX_EDGES - 1) of them; larger cases raise
    ValueError. Returns a report dict; 'counterexample' is None on pass.
    """
    if 2 * max(t, s) > k:
        raise ValueError(f"hypothesis 2*max(t,s) <= k violated: t={t}, s={s}, k={k}")
    if not 1 <= t <= k - 1 or not 1 <= s <= k or k > n:
        raise ValueError("parameter range violation")
    m = math.comb(n, k)
    if m > R2A_MAX_EDGES:
        raise ValueError(
            f"C({n},{k}) = {m} edges exceeds {R2A_MAX_EDGES}: "
            f"2^{m - 1} colorings are too many to enumerate"
        )
    masks = list(colex_edges(n, k))
    target = math.comb(n, s)
    checked = 0
    for bits in range(1 << (m - 1)):
        colors = [1] + [1 + ((bits >> j) & 1) for j in range(m - 1)]
        checked += 1
        by_color, _ = color_buckets(colors, 2, masks)
        if not any(
            cnt == target
            for col in (1, 2)
            for _, (cnt,) in component_shadows(by_color[col], t, (s,), k)
        ):
            return {
                "pass": False,
                "n": n,
                "k": k,
                "t": t,
                "s": s,
                "colorings_checked": checked,
                "counterexample": colors,
            }
    return {
        "pass": True,
        "n": n,
        "k": k,
        "t": t,
        "s": s,
        "colorings_checked": checked,
        "counterexample": None,
    }
