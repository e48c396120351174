"""k-uniform hypergraphs, edge colorings, tight components and shadow counts.

Vertices are 1-based. An edge is an integer bitmask with bit v-1 set for
vertex v; Python integers are arbitrary-width, so the same representation
covers every n. Edge order is always colex: ranks, witnesses and file
formats all refer to it. Colex order of k-subsets is increasing order of
their bitmasks, so enumeration steps from one mask to the next larger one
with the same popcount.
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
    """All k-subsets of {1..n} as bitmasks, in colex order.

    Colex order is increasing-mask order, so each mask is followed by the
    next larger integer with k set bits (Gosper's next-bit-permutation,
    HAKMEM item 175).
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    x = (1 << k) - 1
    end = 1 << n
    while x < end:
        yield x
        low = x & -x
        ripple = x + low
        x = ripple | (((x ^ ripple) >> 2) // low)


def _sub_masks(mask: int, j: int) -> list[int]:
    """The j-subsets of the vertex set `mask`, as masks.

    j = 1 and j = |mask| - 1 peel the low bits once, yielding each bit or
    the mask without it; other sizes sum combinations of the bits.
    """
    flip = mask if j == mask.bit_count() - 1 else 0
    if not flip and j != 1:
        return list(map(sum, combinations(_sub_masks(mask, 1), j)))
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low ^ flip)
        rest ^= low
    return out


def _check_nk(n: int, k: int) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")


def _check_tsk(k: int, t: int, s: int) -> None:
    if not 1 <= t <= k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={k}")
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")


@dataclass
class Hypergraph:
    """A k-uniform hypergraph on {1..n} with edges stored as bitmasks."""

    n: int
    k: int
    edges: list[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        _check_nk(self.n, self.k)
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
        _check_nk(self.n, self.k)
        m = math.comb(self.n, self.k)
        if len(self.colors) != m:
            raise ValueError(f"expected C({self.n},{self.k})={m} colors, got {len(self.colors)}")
        if self.r < 1:
            raise ValueError("r must be positive")
        _check_colors(self.colors, self.r)

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


def _component_indices(
    masks: Sequence[int], t: int, return_keys: bool = False
) -> list[list[int]] | tuple[list[list[int]], list[list[int]]]:
    """Group edge masks into t-tight components; components sorted by first index.

    Edges sharing a t-subset intersect in >= t vertices, so bucketing by
    t-subsets and unioning each bucket realizes the iterated-merge closure.
    Union-find keeps every root at the smallest edge index of its set, so
    parent[i] <= i and one ascending pass flattens the forest.

    With `return_keys`, also returns each component's distinct t-subsets
    (as masks), aligned with the components: the t-shadow of the component.
    """
    parent = list(range(len(masks)))
    first: dict[int, int] = {}  # t-subset mask -> first edge index holding it
    setdefault = first.setdefault
    for idx, mask in enumerate(masks):
        root = idx
        for key in _sub_masks(mask, t):
            prev = setdefault(key, idx)
            if prev == idx:
                continue
            while parent[prev] != prev:
                parent[prev] = prev = parent[parent[prev]]
            if prev < root:
                parent[root] = root = prev
            elif prev > root:
                parent[prev] = root
    groups: dict[int, list[int]] = {}
    for idx in range(len(parent)):
        root = parent[idx] = parent[parent[idx]]
        if root == idx:
            groups[idx] = [idx]
        else:
            groups[root].append(idx)
    if not return_keys:
        return list(groups.values())
    keys: dict[int, list[int]] = {root: [] for root in groups}
    for key, idx in first.items():
        keys[parent[idx]].append(key)
    return list(groups.values()), list(keys.values())


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
        members.update(_sub_masks(mask, s))
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


def _check_colors(colors: Sequence[int], r: int) -> None:
    if colors and not (1 <= min(colors) and max(colors) <= r):
        raise ValueError(f"colors must lie in [1, {r}]")


def color_buckets(
    colors: Sequence[int], r: int, edges: Iterable[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Edge masks and their colex ranks, bucketed by color.

    `edges` lists every edge in colex order and `colors[rank]` is the color
    of the edge of that rank. Bucket i holds color i; bucket 0 stays empty.
    Colors are checked again here, since `Coloring.colors` is a mutable list
    that may have changed after construction; one outside [1, r] raises
    ValueError.
    """
    _check_colors(colors, r)
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
    # An s-subset of an edge with s <= t lies in one of its t-subsets, so
    # for s <= t the shadow comes from the component's t-subset keys.
    comps, comp_keys = _component_indices(masks, t, return_keys=True)
    for comp, keys in zip(comps, comp_keys):
        comp_masks = None
        counts = []
        for s in ss:
            if s == k:
                counts.append(len(comp))
            elif s == t:
                counts.append(len(keys))
            elif s < t:
                counts.append(len(_shadow_members(keys, s, t)))
            else:
                if comp_masks is None:
                    comp_masks = [masks[i] for i in comp]
                counts.append(len(_shadow_members(comp_masks, s, k)))
        del comp_masks  # not held while the caller works on the component
        yield comp, tuple(counts)


def measure(c: Coloring, t: int, s: int) -> MeasureResult:
    """Largest s-shadow over monochromatic t-tight components of the coloring.

    Ties are broken by (color index, smallest contained edge rank). One colex
    pass buckets every edge of K^k_n by color, so all C(n, k) edge masks are
    held at once.
    """
    k = c.k
    _check_tsk(k, t, s)
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
