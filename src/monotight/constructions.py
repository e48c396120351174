"""Explicit colorings: constant, majority, two-clique, parity, blow-up, and
design-induced colorings. Majority, parity and two-clique are one count
table over a vertex split each (`_two_part_coloring`).
"""

from __future__ import annotations

import math
from itertools import combinations

from .core import Coloring, _sub_masks, colex_edges, mask_to_vertices
from .designs import SteinerSystem


def all_red(n: int, k: int, r: int) -> Coloring:
    """The constant coloring: every edge gets color 1."""
    return Coloring(n, k, r, [1] * math.comb(n, k))


def _two_part_coloring(n: int, a: int, by_count: tuple[int, ...]) -> Coloring:
    """k=3, r=2: edge e gets color by_count[|e ∩ {1..a}|].

    As in `core.color_runs`, for each 2-set top the edges top | x with
    x < min(top) are consecutive in colex order, x ascending, so the block
    is min(size, a) edges with count c + 1, then the rest with count c.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    table = bytes(by_count)
    part = (1 << a) - 1
    colors = bytearray()
    for top in colex_edges(n, 2):
        size = (top & -top).bit_length() - 1
        inside = min(size, a)
        c = (top & part).bit_count()
        colors += table[c + 1 : c + 2] * inside + table[c : c + 1] * (size - inside)
    return Coloring(n, 3, 2, colors)


def majority_coloring(n: int) -> Coloring:
    """Red iff the edge has at least two vertices in {1..ceil(n/2)}."""
    return _two_part_coloring(n, (n + 1) // 2, (2, 2, 1, 1))


def two_clique_coloring(n: int) -> Coloring:
    """Red inside {1..floor(x0*n)} or inside its complement, blue elsewhere,
    where x0 = (sqrt(21)-3)/2."""
    return _two_part_coloring(n, int((math.sqrt(21) - 3) / 2 * n), (1, 2, 2, 1))


def parity_coloring(n: int) -> Coloring:
    """Red iff the edge meets {1..ceil(n/2)} in an odd number of vertices."""
    return _two_part_coloring(n, (n + 1) // 2, (2, 1, 2, 1))


def blow_up(c0: Coloring, n: int) -> Coloring:
    """Blow-up extension of a base coloring on K^k_{n0} to K^k_n.

    {1..n} is split round-robin into N = n0-k+1 parts; an edge is colored by
    the base color of its touched part index set, padded up to size k with
    the reserved base vertices N+1..n0 (`padded_index_set`). At n = n0 the
    base coloring itself is returned, since the padded map is not the
    identity there.
    """
    n0, k = c0.n, c0.k
    if n < n0:
        raise ValueError(f"need n >= n0 = {n0}")
    if n == n0:
        return c0
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
    width = (n + 7) // 8  # bytes keys, as in SteinerSystem: int masks past 61 vertices collide
    block_of_kset: dict[bytes, int] = {}
    for bi, block in enumerate(system.blocks):
        for sub in _sub_masks(block, k):
            block_of_kset[sub.to_bytes(width, "little")] = bi
    colors = [class_of_block[block_of_kset[e.to_bytes(width, "little")]] for e in colex_edges(n, k)]
    return Coloring(n, k, len(classes), colors)
