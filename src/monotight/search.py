"""Exact computation of M(n,r,k,t,s) by branch-and-bound over colorings.

The two-coloring complete-shadow theorem is verified as one such proof:
M(n, 2, k, t, s) = C(n, s)."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import constructions
from .core import (
    Coloring,
    _check_nk,
    _check_r,
    _check_tsk,
    _kset_count,
    _subset_ranks,
    colex_edges,
    mask_to_vertices,
    measure,
)

R2A_MAX_EDGES = 25  # largest C(n,k) verify_r2a takes; its exact_M proof covers 2^(C(n,k)-1) colorings


@dataclass
class SearchResult:
    value: int
    witness: Coloring
    status: str  # "exact" or "budget-exhausted"
    nodes_explored: int
    wall_time: float


def random_coloring(n: int, r: int, k: int, seed: int) -> Coloring:
    """Uniform independent edge colors from a seeded deterministic generator.

    Each color is `random.Random(seed).randint(1, r)`'s draw, made as CPython
    makes it: getrandbits(r.bit_length()), redrawn while it is r or more.
    """
    _check_nk(n, k)
    _check_r(r)
    draw = random.Random(seed).getrandbits
    width = r.bit_length()
    colors = []
    for _ in range(_kset_count(n, k)):
        v = draw(width)
        while v >= r:
            v = draw(width)
        colors.append(v + 1)
    return Coloring(n, k, r, colors)


def _initial_incumbent(n: int, r: int, k: int, t: int, s: int) -> tuple[int, Coloring]:
    """Best available construction: the starting upper bound for the search."""
    candidates = [constructions.all_red(n, k, r)]
    if k == 3 and r == 2 and n >= 3:
        candidates.append(constructions.majority_coloring(n))
        candidates.append(constructions.parity_coloring(n))
        candidates.append(constructions.two_clique_coloring(n))
    return min(((measure(c, t, s).value, c) for c in candidates), key=lambda pair: pair[0])


def _edge_tables(n: int, k: int, t: int, s: int) -> tuple[list[int], list[int]]:
    """Per-edge bitmask tables over the colex edges e_i of K^k_n.

    adj[i] has bit j set when the t-set of colex rank j lies in e_i, and
    shade[i] the same over the s-sets. Two edges are t-tight neighbours when
    they share a t-set, so e_i meets a set of edges exactly when adj[i]
    meets the OR of their adj masks, their t-shadow. The s-shadow of an edge
    set is the OR of its shade masks, complete when all C(n, s) bits are set.
    """
    edges = list(map(mask_to_vertices, colex_edges(n, k)))
    adj, shade = ([sum(1 << rank for rank in _subset_ranks(vs, j)) for vs in edges] for j in (t, s))
    return adj, shade


def _check_args(n: int, r: int, k: int, t: int, s: int) -> None:
    _check_nk(n, k)
    _check_tsk(k, t, s)
    _check_r(r)


def exact_M(
    n: int, r: int, k: int, t: int, s: int, budget: int | None = None
) -> SearchResult:
    """min over all r-colorings of K^k_n of the largest monochromatic
    t-tight component s-shadow.

    Depth-first over edges in colex order; colors must first appear in
    increasing index order (cuts the r! color symmetry), so edge i tries
    colors 1..last[i], where last[i] is one above the largest color before
    it, capped at q = min(r, C(n, k)). A component is one int,
    `sshadow << T | tshadow` with T = C(n, t), over the tables of
    `_edge_tables`: edges are t-tight neighbours when they share a t-set, so
    `comp & adj[i]` tests whether the component meets edge i, a merge is one
    `|`, and the size is the popcount of `comp >> T`. When s == t the
    t-shadow is the s-shadow, so T = 0 and a component is its shadow alone.
    A color with at most one component keeps it as a bare int (0: no
    edges), and only a color that has split keeps a list of them; a list
    that merges back into one component becomes an int again. Coloring edge
    i with c merges edge i with every component of c that meets adj[i].
    Only on a descent is the old value of c saved, and stepping back
    restores it, depth by depth, until a depth with a color left to try.
    The current depth's tables are held in locals, reloaded on a descent or
    a step back, and color[i] is written only when a node passes the bound.
    A branch is pruned as soon as the running maximum shadow reaches the
    incumbent, which is sound because adding edges never shrinks components
    or shadows. A coloring of the last edge that passes that test is a
    complete coloring below the incumbent, so it becomes the incumbent at
    once, without a step to depth C(n, k). The search is one loop over the
    edge depth with per-depth state, so its depth C(n, k) is not bounded by
    Python's recursion limit. The budget caps the nodes explored; a budget
    <= 0 explores none and returns the starting construction as a
    "budget-exhausted" result. With q = 1 the single coloring is one node.
    At most C(n, k) colors occur in a coloring, so for r above that the
    search, its nodes and its witness colors are those at r = C(n, k), and
    its cost does not grow with r; the witness keeps r.
    """
    _check_args(n, r, k, t, s)
    start = time.perf_counter()
    m = _kset_count(n, k)
    q = min(r, m)  # at most m colors occur, so every r >= m searches as r = m

    best, best_col = _initial_incumbent(n, q, k, t, s)
    limit = -1 if budget is None else max(budget, 0)  # `nodes` counts up from 0 and never meets -1
    if q == 1:
        # one node: the single coloring is the constant one, the incumbent
        exhausted = limit == 0
        return SearchResult(
            value=best,
            witness=Coloring(n, k, r, best_col.colors),
            status="budget-exhausted" if exhausted else "exact",
            nodes_explored=0 if exhausted else 1,
            wall_time=time.perf_counter() - start,
        )

    adj, shade = _edge_tables(n, k, t, s)
    T = 0 if s == t else math.comb(n, t)  # s == t: the t-shadow is the s-shadow
    own = [covered << T | near for near, covered in zip(adj, shade)]  # edge i alone as a component
    witness = best_col.colors
    # comps[c]: the components of color c, each one int `sshadow << T | tshadow`;
    # an int while c has at most one (0: no edges), a list once it has split
    comps: list[int | list[int]] = [0] * (q + 1)
    saved: list[int | list[int]] = [0] * m  # comps[color[i]] before edge i, when the search descended from i
    color = [0] * m  # color of edge i, written when a node passes the bound
    last = [1] * m  # largest color edge i may take: one above the largest before it, at most q
    run_max = [0] * m  # largest component shadow among edges before i
    leaf = m - 1
    nodes = 0
    exhausted = False
    i = c = 0  # c: the color edge i took last, 0 on arrival at depth i
    # depth i's adj[i], own[i], last[i] and run_max[i]
    near, base, cap, below = adj[0], own[0], last[0], run_max[0]
    while True:
        if c == cap:
            # no color left at depth i: step back to a depth that has one
            while i:
                i -= 1
                c = color[i]
                comps[c] = saved[i]
                cap = last[i]
                if c < cap:
                    break
            else:
                break
            near, base, below = adj[i], own[i], run_max[i]
        if nodes == limit:
            exhausted = True
            break
        c += 1
        nodes += 1
        merged = base
        old = comps[c]
        if old.__class__ is int:
            if old & near:
                new = merged = base | old
            else:
                new = [old, base] if old else base
        else:
            new = []
            for comp in old:
                if comp & near:
                    merged |= comp
                else:
                    new.append(comp)
            if new:
                new.append(merged)
            else:
                new = merged
        size = (merged >> T).bit_count()
        if size < below:
            size = below
        if size < best:
            color[i] = c
            if i == leaf:
                best, witness = size, color.copy()
            else:
                saved[i] = old
                comps[c] = new
                i += 1
                last[i] = cap = cap + 1 if c == cap < q else cap
                run_max[i] = below = size
                near, base = adj[i], own[i]
                c = 0

    return SearchResult(
        value=best,
        witness=Coloring(n, k, r, witness),
        status="budget-exhausted" if exhausted else "exact",
        nodes_explored=nodes,
        wall_time=time.perf_counter() - start,
    )


def verify_r2a(n: int, k: int, t: int, s: int) -> dict:
    """Exhaustively check that every 2-coloring of K^k_n has a monochromatic
    t-tight component with complete s-shadow (requires 2*max(t,s) <= k).

    That holds exactly when M(n, 2, k, t, s) = C(n, s), so this is one
    `exact_M` proof compared with C(n, s). Its search fixes edge 0 to color 1
    (color-swap symmetry), so the proof covers all 2^(m-1) such colorings;
    cases with more than R2A_MAX_EDGES edges raise ValueError. Returns a
    report dict; 'counterexample' is None on pass, else the colors of
    `exact_M`'s minimizing witness, and 'nodes' is the search's node count.
    """
    if 2 * max(t, s) > k:
        raise ValueError(f"hypothesis 2*max(t,s) <= k violated: t={t}, s={s}, k={k}")
    _check_tsk(k, t, s)
    _check_nk(n, k)
    m = math.comb(n, k)
    if m > R2A_MAX_EDGES:
        raise ValueError(
            f"C({n},{k}) = {m} edges exceeds {R2A_MAX_EDGES}: "
            f"2^{m - 1} colorings are too many to enumerate"
        )
    res = exact_M(n, 2, k, t, s)
    complete = res.value == math.comb(n, s)
    return {
        "pass": complete,
        "n": n,
        "k": k,
        "t": t,
        "s": s,
        "colorings_checked": 1 << (m - 1),
        "nodes": res.nodes_explored,
        "counterexample": None if complete else list(res.witness.colors),
    }
