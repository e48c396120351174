"""k-uniform hypergraphs, edge colorings, tight components and shadow counts.

Vertices are 1-based. An edge is an integer bitmask with bit v-1 set for
vertex v; Python integers are arbitrary-width, so the same representation
covers every n. Edge order is always colex: ranks, witnesses and file
formats all refer to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence


def vertices_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex indices are 1-based, got {v}")
        mask |= 1 << (v - 1)
    return mask


def mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def colex_rank(edge: int | Iterable[int], n: int, k: int) -> int:
    """Colex rank of a k-subset of {1..n}; accepts a bitmask or vertices."""
    vs = mask_to_vertices(edge) if isinstance(edge, int) else tuple(sorted(edge))
    if len(vs) != k:
        raise ValueError(f"expected a {k}-subset, got {len(vs)} vertices")
    if vs and (vs[0] < 1 or vs[-1] > n):
        raise ValueError(f"vertex out of range [1, {n}]: {vs}")
    return sum(math.comb(v - 1, i + 1) for i, v in enumerate(vs))


def colex_unrank(rank: int, n: int, k: int) -> int:
    """Bitmask of the k-subset of {1..n} with the given colex rank."""
    if not 0 <= rank < math.comb(n, k):
        raise ValueError(f"rank {rank} out of range [0, C({n},{k}))")
    mask = 0
    r = rank
    v = n
    for j in range(k, 0, -1):
        while math.comb(v - 1, j) > r:
            v -= 1
        r -= math.comb(v - 1, j)
        mask |= 1 << (v - 1)
        v -= 1
    return mask


def colex_edges(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {1..n} as bitmasks, in colex order."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    c = list(range(1, k + 1))
    last = k - 1
    for _ in range(math.comb(n, k)):
        yield vertices_to_mask(c)
        i = 0
        while i < last and c[i] + 1 == c[i + 1]:
            c[i] = i + 1
            i += 1
        c[i] += 1


class UnionFind:
    """Array-based union-find with path halving and union by size."""

    def __init__(self, num: int):
        self.parent = list(range(num))
        self.size = [1] * num

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        x, y = self.find(x), self.find(y)
        if x == y:
            return False
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]
        return True


@dataclass
class Hypergraph:
    """A k-uniform hypergraph on {1..n} with edges stored as bitmasks."""

    n: int
    k: int
    edges: list[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        full = (1 << self.n) - 1
        seen = set()
        for e in self.edges:
            if e.bit_count() != self.k:
                raise ValueError(f"edge {mask_to_vertices(e)} is not a {self.k}-set")
            if e & ~full:
                raise ValueError(f"edge {mask_to_vertices(e)} leaves [1, {self.n}]")
            if e in seen:
                raise ValueError(f"duplicate edge {mask_to_vertices(e)}")
            seen.add(e)

    @classmethod
    def from_vertex_lists(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, k, [vertices_to_mask(e) for e in edges])

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, list(colex_edges(n, k)))

    def __len__(self) -> int:
        return len(self.edges)


@dataclass
class Coloring:
    """An r-coloring of the complete k-graph, indexed by colex edge rank."""

    n: int
    k: int
    r: int
    colors: list[int]

    def __post_init__(self):
        m = math.comb(self.n, self.k)
        if len(self.colors) != m:
            raise ValueError(f"expected C({self.n},{self.k})={m} colors, got {len(self.colors)}")
        if self.r < 1:
            raise ValueError("r must be positive")
        if self.colors and not (1 <= min(self.colors) and max(self.colors) <= self.r):
            raise ValueError(f"colors must lie in [1, {self.r}]")

    def color_of(self, edge: int | Iterable[int]) -> int:
        return self.colors[colex_rank(edge, self.n, self.k)]

    def color_class(self, i: int) -> Hypergraph:
        """The hypergraph of edges with color i."""
        masks, _ = color_buckets(self.colors, self.r, colex_edges(self.n, self.k))
        return Hypergraph(self.n, self.k, masks[i] if 1 <= i <= self.r else [])


@dataclass
class ComponentPartition:
    """Partition of an edge list into t-tight components (edge indices)."""

    t: int
    components: list[list[int]]


@dataclass
class ShadowSet:
    """The s-subsets of {1..n} contained in at least one generating edge."""

    s: int
    members: set[int]

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass
class MeasureResult:
    """Largest monochromatic t-tight component shadow, with its witness."""

    value: int
    witness_color: int
    witness_component: frozenset[int]


def _component_indices(masks: Sequence[int], t: int) -> list[list[int]]:
    """Group edge masks into t-tight components; components sorted by first index.

    Edges sharing a t-subset intersect in >= t vertices, so bucketing by
    t-subsets and unioning each bucket realizes the iterated-merge closure.
    """
    uf = UnionFind(len(masks))
    buckets: dict[tuple[int, ...], int] = {}
    for idx, mask in enumerate(masks):
        vs = mask_to_vertices(mask)
        for sub in combinations(vs, t):
            prev = buckets.get(sub)
            if prev is None:
                buckets[sub] = idx
            else:
                uf.union(prev, idx)
    groups: dict[int, list[int]] = {}
    for idx in range(len(masks)):
        groups.setdefault(uf.find(idx), []).append(idx)
    return sorted(groups.values(), key=lambda g: g[0])


def t_tight_components(h: Hypergraph, t: int) -> ComponentPartition:
    """t-tight components of h: transitive closure of |e ∩ f| >= t merges."""
    if not 1 <= t <= h.k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={h.k}")
    return ComponentPartition(t=t, components=_component_indices(h.edges, t))


def _shadow_members(masks: Iterable[int], s: int, k: int) -> set[int]:
    members: set[int] = set()
    if s == k:
        members.update(masks)
        return members
    for mask in masks:
        vs = mask_to_vertices(mask)
        for sub in combinations(vs, s):
            m = 0
            for v in sub:
                m |= 1 << (v - 1)
            members.add(m)
    return members


def shadow(edges: Iterable[int], s: int) -> ShadowSet:
    """The s-shadow of an edge set given as bitmasks."""
    edges = list(edges)
    if s < 1:
        raise ValueError("s must be at least 1")
    if edges:
        k = edges[0].bit_count()
        if s > k:
            raise ValueError(f"need s <= k, got s={s}, k={k}")
    else:
        k = s
    return ShadowSet(s, _shadow_members(edges, s, k))


def color_buckets(
    colors: Sequence[int], r: int, edges: Iterable[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Edge masks and their colex ranks, bucketed by color.

    `edges` lists every edge in colex order and `colors[rank]` is the color
    of the edge of that rank. Bucket i holds color i; bucket 0 stays empty.
    """
    masks: list[list[int]] = [[] for _ in range(r + 1)]
    ranks: list[list[int]] = [[] for _ in range(r + 1)]
    for rank, (mask, col) in enumerate(zip(edges, colors)):
        masks[col].append(mask)
        ranks[col].append(rank)
    return masks, ranks


def component_shadows(
    masks: Sequence[int], t: int, ss: Sequence[int], k: int
) -> Iterator[tuple[list[int], tuple[int, ...]]]:
    """Each t-tight component of the k-edges `masks` (edge indices, ordered by
    first index) with its s-shadow count for every s in `ss`, in that order.

    A generator: a caller that stops early skips the remaining components.
    """
    if not masks:
        return
    for comp in _component_indices(masks, t):
        comp_masks = [masks[i] for i in comp]
        counts = tuple(
            [len(comp) if s == k else len(_shadow_members(comp_masks, s, k)) for s in ss]
        )
        del comp_masks  # not held while the caller works on the component
        yield comp, counts


def measure(c: Coloring, t: int, s: int) -> MeasureResult:
    """Largest s-shadow over monochromatic t-tight components of the coloring.

    Ties are broken by (color index, smallest contained edge rank). One colex
    pass buckets every edge of K^k_n by color, so all C(n, k) edge masks are
    held at once.
    """
    k = c.k
    if not 1 <= t <= k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={k}")
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")
    by_color_masks, by_color_ranks = color_buckets(c.colors, c.r, colex_edges(c.n, k))
    best: tuple[int, int, frozenset[int]] | None = None
    for col in range(1, c.r + 1):
        ranks = by_color_ranks[col]
        for comp, (cnt,) in component_shadows(by_color_masks[col], t, (s,), k):
            if best is None or cnt > best[0]:
                best = (cnt, col, frozenset(ranks[i] for i in comp))
    if best is None:
        return MeasureResult(0, 0, frozenset())
    return MeasureResult(value=best[0], witness_color=best[1], witness_component=best[2])
