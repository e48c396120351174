"""Explicit colorings: constant, majority, two-clique, parity, blow-up, and
design-induced colorings.

Majority, parity, two-clique and every blow-up are partition rules: an
edge's color depends only on its profile, its vertices' part labels. A rule
is the pair (part sizes, table), the table keyed by ascending label k-tuples
(`two_part_rule`, `blow_up_rule`); `core.quotient_max_shadow_by_ts` measures
it without its edges, and `_partition_coloring` writes it out one colex
block at a time. Majority, parity and two-clique put {1..a} in part 0 and
the rest in part 1; a blow-up splits the vertices round-robin and gives a
profile the padded parts' base color.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement
from typing import TYPE_CHECKING, Sequence

from .core import Coloring, _colex_sums, _kset_count, _sub_masks, _subset_ranks, colex_edges, mask_to_vertices, vertices_to_mask

if TYPE_CHECKING:
    from .designs import SteinerSystem


def all_red(n: int, k: int, r: int) -> Coloring:
    """The constant coloring: every edge gets color 1."""
    return Coloring(n, k, r, [1] * _kset_count(n, k))


def _partition_coloring(
    k: int, r: int, part: Sequence[int], colors: dict[tuple[int, ...], int]
) -> Coloring:
    """The r-coloring of K^k_n, n = len(part), that gives each edge the color
    colors[labels], labels its k vertices' parts ascending; part[v-1] is
    vertex v's part, in range(p) with p = max(part) + 1; a negative label
    raises ValueError. Other keys raise ValueError; one naming a part from p
    up, which has no vertex, is skipped.

    As in `core.color_runs`, for each (k-1)-set top the edges top | x with
    x < min(top) are consecutive in colex order, x ascending, and their
    colors are a part -> color table applied to part[:min(top)-1]: one
    `bytes.translate` per block, or a `map` when the parts or colors do not
    fit a byte. A profile's key sums the weights (k+1)^label of its labels,
    its part counts as digits in base k + 1, and so does a top's key over
    top; its table, filled at the first top with that key, holds at entry i
    the color keyed by key plus part i's weight. An entry that no block
    reads gets 0, and so does a missing profile, which `Coloring` refuses.
    """
    n, p = len(part), max(part) + 1
    if min(part) < 0:
        raise ValueError(f"part labels are >= 0, got {min(part)}")
    if any(len(labels) != k or labels[0] < 0 or list(labels) != sorted(labels) for labels in colors):
        raise ValueError(f"a rule's table is keyed by ascending {k}-tuples of labels >= 0")
    weight = [(k + 1) ** i for i in range(p)]
    by_key = {sum(map(weight.__getitem__, labels)): color for labels, color in colors.items() if labels[-1] < p}
    keys = _colex_sums([weight[i] for i in part], k - 1)  # of the (k-1)-sets, in colex order
    if r <= 255 and p <= 256:
        part, out, blank = bytes(part), bytearray(), bytearray(256).copy
        expand = bytes.translate
    else:
        out, blank = [], ([0] * p).copy
        expand = lambda block, table: map(table.__getitem__, block)  # noqa: E731
    tables: dict[int, bytearray | list[int]] = {}  # key -> part -> color table
    for top, key in zip(colex_edges(n, k - 1), keys):
        table = tables.get(key)
        if table is None:
            table = tables[key] = blank()
            table[:p] = [by_key.get(key + w, 0) for w in weight]
        out += expand(part[: (top & -top).bit_length() - 1], table)
    return Coloring(n, k, r, out)


# name -> (a at n, the size of part 0 = {1..a}; by_count, by_count[i] the color
# of an edge with i vertices in part 0)
TWO_PART_RULES = {
    "majority": (lambda n: (n + 1) // 2, (2, 2, 1, 1)),
    "two_clique": (lambda n: int((math.sqrt(21) - 3) / 2 * n), (1, 2, 2, 1)),
    "parity": (lambda n: (n + 1) // 2, (2, 1, 2, 1)),
}


def two_part_rule(name: str, n: int) -> tuple[tuple[int, int], dict[tuple[int, ...], int]]:
    """The k=3, r=2 rule `name` of TWO_PART_RULES at n: its part sizes (a, n-a)
    and its profile -> color table, profile (0,)*i + (1,)*(3-i) taking
    by_count[i]."""
    split, by_count = TWO_PART_RULES[name]
    a = split(n)
    return (a, n - a), {(0,) * i + (1,) * (3 - i): by_count[i] for i in range(4)}


def _two_part_coloring(name: str, n: int) -> Coloring:
    """The rule `name` of TWO_PART_RULES expanded on K^3_n."""
    if n < 3:
        raise ValueError("n must be at least 3")
    _kset_count(n, 3)
    (a, b), colors = two_part_rule(name, n)
    return _partition_coloring(3, 2, [0] * a + [1] * b, colors)


def majority_coloring(n: int) -> Coloring:
    """Red iff the edge has at least two vertices in {1..ceil(n/2)}."""
    return _two_part_coloring("majority", n)


def two_clique_coloring(n: int) -> Coloring:
    """Red inside {1..floor(x0*n)} or inside its complement, blue elsewhere,
    where x0 = (sqrt(21)-3)/2."""
    return _two_part_coloring("two_clique", n)


def parity_coloring(n: int) -> Coloring:
    """Red iff the edge meets {1..ceil(n/2)} in an odd number of vertices."""
    return _two_part_coloring("parity", n)


def blow_up(c0: Coloring, n: int) -> Coloring:
    """Blow-up extension of a base coloring on K^k_{n0} to K^k_n.

    Each edge is colored by `blow_up_rule(c0, n)`, vertex v in part
    (v-1) mod N. At n = n0 the base coloring itself is returned, since the
    padded map is not the identity.
    """
    if n == c0.n:
        return c0
    _kset_count(n, c0.k)
    sizes, table = blow_up_rule(c0, n)
    return _partition_coloring(c0.k, c0.r, [v % len(sizes) for v in range(n)], table)


def blow_up_rule(c0: Coloring, n: int) -> tuple[list[int], dict[tuple[int, ...], int]]:
    """A blow-up's rule at n > n0 (at n0 the blow-up is c0 itself): the sizes
    of the N = n0-k+1 parts that split {1..n} round-robin, and a table that
    gives each ascending label k-tuple the base color of the parts it
    touches, label i as base vertex i+1, padded up to size k with the
    reserved base vertices N+1..n0 (`padded_index_set`)."""
    n0, k = c0.n, c0.k
    if n <= n0:
        raise ValueError(f"a blow-up rule needs n > n0 = {n0}")
    num_parts = n0 - k + 1
    base = dict(zip(colex_edges(n0, k), c0.colors))
    return [len(range(i, n, num_parts)) for i in range(num_parts)], {
        labels: base[padded_index_set(vertices_to_mask(i + 1 for i in labels), n0, k)]
        for labels in combinations_with_replacement(range(num_parts), k)
    }


def padded_index_set(e: int, n0: int, k: int) -> int:
    """phi(I_e): the parts (v-1) mod (n0-k+1) that edge e touches, padded up
    to size k with the lowest reserved vertices, as a k-subset mask of
    {1..n0}. `blow_up` colors e by this base edge, whatever its n."""
    num_parts = n0 - k + 1
    parts_mask = 0
    for bit in _sub_masks(e, 1):
        parts_mask |= 1 << ((bit.bit_length() - 1) % num_parts)
    pad = k - parts_mask.bit_count()
    return parts_mask | (((1 << pad) - 1) << num_parts)


def steiner_coloring(system: SteinerSystem, classes: list[list[int]], t: int = 1) -> Coloring:
    """Color each k-set of {1..n} by the index of the class containing its
    unique block. Classes must partition the blocks, and blocks within a
    class must pairwise intersect in at most t-1 vertices."""
    if not 1 <= t <= system.k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={system.k}")
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
    colors = [0] * math.comb(system.n, system.k)
    for ci, cls in enumerate(classes, 1):
        for b in cls:
            for rank in _subset_ranks(mask_to_vertices(system.blocks[b]), system.k):
                colors[rank] = ci
    return Coloring(system.n, system.k, len(classes), colors)
