"""Explicit colorings: constant, majority, two-clique, parity, blow-up, and
design-induced colorings."""

from __future__ import annotations

import math
from itertools import combinations

from .core import Coloring, _sub_masks, colex_edges, mask_to_vertices
from .designs import SteinerSystem


def _half_split(n: int) -> tuple[int, int]:
    """Bitmasks for {1..ceil(n/2)} and its complement."""
    hi = (n + 1) // 2
    first = (1 << hi) - 1
    return first, ((1 << n) - 1) ^ first


def all_red(n: int, k: int, r: int) -> Coloring:
    """The constant coloring: every edge gets color 1."""
    return Coloring(n, k, r, [1] * math.comb(n, k))


def majority_coloring(n: int) -> Coloring:
    """k=3, r=2: red iff the edge has more vertices in {1..ceil(n/2)}."""
    if n < 3:
        raise ValueError("n must be at least 3")
    red_side, _ = _half_split(n)
    colors = [1 if (e & red_side).bit_count() >= 2 else 2 for e in colex_edges(n, 3)]
    return Coloring(n, 3, 2, colors)


def two_clique_coloring(n: int) -> Coloring:
    """k=3, r=2: red inside {1..floor(x0*n)} or inside its complement, blue
    elsewhere, where x0 = (sqrt(21)-3)/2."""
    if n < 3:
        raise ValueError("n must be at least 3")
    x0 = (math.sqrt(21) - 3) / 2
    a = int(x0 * n)
    part_a = (1 << a) - 1
    part_b = ((1 << n) - 1) ^ part_a
    colors = [1 if (e & ~part_a == 0 or e & ~part_b == 0) else 2 for e in colex_edges(n, 3)]
    return Coloring(n, 3, 2, colors)


def parity_coloring(n: int) -> Coloring:
    """k=3, r=2: red iff the edge meets {1..ceil(n/2)} in an odd number of
    vertices."""
    if n < 3:
        raise ValueError("n must be at least 3")
    u_r, _ = _half_split(n)
    colors = [1 if (e & u_r).bit_count() % 2 == 1 else 2 for e in colex_edges(n, 3)]
    return Coloring(n, 3, 2, colors)


def blow_up(c0: Coloring, n: int) -> Coloring:
    """Blow-up extension of a base coloring on K^k_{n0} to K^k_n.

    {1..n} is split round-robin into N = n0-k+1 parts; an edge is colored by
    the base color of its touched part index set, padded up to size k with
    the reserved base vertices N+1..n0 (`padded_index_set`). At n = n0 the
    base coloring is copied, since the padded map is not the identity there.
    """
    n0, k = c0.n, c0.k
    if n < n0:
        raise ValueError(f"need n >= n0 = {n0}")
    if n == n0:
        return Coloring(n0, k, c0.r, list(c0.colors))
    base = dict(zip(colex_edges(n0, k), c0.colors))
    colors = [base[padded_index_set(e, n0, k)] for e in colex_edges(n, k)]
    return Coloring(n, k, c0.r, colors)


def padded_index_set(e: int, n0: int, k: int) -> int:
    """phi(I_e): the parts (v-1) mod (n0-k+1) that edge e touches, padded up
    to size k with the lowest reserved vertices, as a k-subset mask of
    {1..n0}. `blow_up` colors e by this base edge, whatever its n."""
    num_parts = n0 - k + 1
    parts_mask = 0
    for v in mask_to_vertices(e):
        parts_mask |= 1 << ((v - 1) % num_parts)
    pad = k - parts_mask.bit_count()
    return parts_mask | (((1 << pad) - 1) << num_parts)


def steiner_coloring(system: SteinerSystem, classes: list[list[int]], t: int = 1) -> Coloring:
    """Color each k-set of {1..n} by the index of the class containing its
    unique block. Classes must partition the blocks, and blocks within a
    class must pairwise intersect in at most t-1 vertices."""
    system.validate()
    seen = sorted(i for cls in classes for i in cls)
    if seen != list(range(len(system.blocks))):
        raise ValueError("classes must partition the block list")
    for ci, cls in enumerate(classes):
        for i, j in combinations(cls, 2):
            inter = (system.blocks[i] & system.blocks[j]).bit_count()
            if inter >= t:
                raise ValueError(
                    f"class {ci} has blocks {i} and {j} sharing {inter} >= {t} vertices"
                )
    class_of_block = {}
    for ci, cls in enumerate(classes):
        for b in cls:
            class_of_block[b] = ci + 1
    n, k = system.n, system.k
    block_of_kset: dict[int, int] = {}
    for bi, block in enumerate(system.blocks):
        for key in _sub_masks(block, k):
            block_of_kset[key] = bi
    colors = [class_of_block[block_of_kset[e]] for e in colex_edges(n, k)]
    return Coloring(n, k, len(classes), colors)
