"""k-uniform hypergraphs, edge colorings, tight components and shadow counts.

Vertices are 1-based. An edge is an integer bitmask with bit v-1 set for
vertex v; Python integers are arbitrary-width, so the same representation
covers every n. Edge order is always colex: ranks, witnesses and file
formats all refer to it. Colex order of k-subsets is increasing order of
their bitmasks, so the k-sets topped by vertex v follow all those below it,
and among themselves run in the colex order of their other k-1 vertices.
`_colex_sums` is the one walk over j-subsets, a chunk per top, and
`_sub_masks(mask, 1)` the one bit peel; only the run walks of `_run_keys`
and `_shadow_members` inline their own, for j <= 1, and `_subset_ranks`
lists colex ranks, not masks.

Components and shadows are computed on runs, not on single edges. For a
(k-1)-set `top` with lowest vertex a >= 2, the edges top | x with x < a
sit at consecutive colex ranks. A run (top, low) is a nonempty set of
them, with `low` the mask of their x; its edges pairwise share the k-1
vertices of top. A coloring of K^k_n has about C(n, k-1) runs per color
(`color_runs`); a plain edge list has one run per top (`edge_runs`).

Write a j-set as its lowest vertex and the rest Q. A j-set of the edge
top | x either holds x, its lowest vertex, and a (j-1)-subset Q of top, or
lies in top. So the j-subsets of a run's edges are Q | y for each
(j-1)-subset Q of top and each bit y of low | (top & (lowbit(Q) - 1)): one
(Q, bits) pair per Q, whatever the number of edges in the run. For j = 1
the one key is Q = 0, with bits low | top. For j = 2 each Q is one bit of
top: peeling top's bits from low to high gives each Q with bits low | (the
bits peeled before it). `_run_keys` walks these pairs for the component
kernel, and the shadow kernel `_shadow_members` walks its runs itself.

A partition rule (sizes, table) has parts of sizes[i] vertices and colors
an edge by its profile, its vertices' part labels ascending. It is measured
without its edges (`quotient_max_shadow_by_ts`), on the same run kernels.
Write a profile as a set of copy vertices, the j-th copy of label x being
bit x*k + j. Two classes a and b then share sum_i min(a_i, b_i) copies,
the most vertices an edge of a and an edge of b share, and a class with
edges is (k-1)-tight connected. So each color's classes with edges are a
k-graph on p*k copy vertices whose t-tight components are the rule's. A
class's s-subsets that are profiles are its s-subprofiles; subprofile b
stands for the prod_i C(|P_i|, b_i) s-sets with that profile, and a subset
that is no profile stands for none. The cost depends on p and k, not n.
"""

from __future__ import annotations

import math
import operator
import sys
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
    if mask < 0:
        raise ValueError(f"a vertex mask is nonnegative, got {mask}")
    return tuple(map(int.bit_length, _sub_masks(mask, 1)))


def colex_rank(edge: int | Iterable[int], n: int, k: int) -> int:
    """Colex rank of a k-subset of {1..n}; accepts a bitmask or vertices."""
    vs = mask_to_vertices(edge) if isinstance(edge, int) else tuple(sorted(set(edge)))
    if len(vs) != k:  # a repeated vertex counts once
        raise ValueError(f"expected a {k}-subset, got {len(vs)} distinct vertices")
    if vs and (vs[0] < 1 or vs[-1] > n):
        raise ValueError(f"vertex out of range [1, {n}]: {vs}")
    return sum(math.comb(v - 1, i + 1) for i, v in enumerate(vs))


def _subset_ranks(vs: Sequence[int], k: int) -> list[int]:
    """Colex ranks of the k-subsets of the ascending vertices vs, descending. A j-subset
    topped by vs[p] ranks C(vs[p]-1, j) plus one of the last C(p, j-1) (j-1)-subset ranks."""
    ranks = [v - 1 for v in reversed(vs)] if k else [0]
    for j in range(2, k + 1):
        below, ranks = ranks, []
        for p in range(len(vs) - 1, j - 2, -1):
            ranks += map(math.comb(vs[p] - 1, j).__add__, below[len(below) - math.comb(p, j - 1) :])
    return ranks


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


def colex_edges(n: int, k: int) -> list[int]:
    """All k-subsets of {1..n} as bitmasks, in colex order (increasing mask
    order): `_colex_sums` of the vertex bits, or [] for k outside [0, n]."""
    return _colex_sums([1 << v for v in range(n)], k) if 0 <= k <= n else []


def _colex_sums(weights: Sequence[int], j: int) -> list[int]:
    """For each j-subset of the positions of weights, in colex order, the sum
    of its weights. The j-subsets topped by position v are weights[v] plus
    each (j-1)-subset below v: the first C(v, j-1) sums, in colex order, of
    the (j-1)-subsets of all positions but the last, listed once by
    `itertools.combinations` of those weights taken from the last down
    (descending colex order) and reversed."""
    if not j:
        return [0]
    below = list(map(sum, combinations(weights[-2::-1], j - 1)))
    below.reverse()
    sums = []
    for v in range(j - 1, len(weights)):
        sums += map(weights[v].__add__, below[: math.comb(v, j - 1)])
    return sums


def _sub_masks(mask: int, j: int) -> list[int]:
    """The j-subsets of the vertex set `mask`, as masks.

    j = 1 peels the low bits once, yielding each bit, ascending, and
    j = |mask| - 1 > 1 the mask without each; other sizes are `_colex_sums`
    of the bits.
    """
    flip = mask if 1 < j == mask.bit_count() - 1 else 0
    if not flip and j != 1:
        return _colex_sums(_sub_masks(mask, 1), j)
    out = []
    rest = mask
    while rest:
        low = rest & -rest
        out.append(low ^ flip)
        rest ^= low
    return out


def _kset_count(n: int, k: int) -> int:
    """C(n, k), the length of a table indexed by k-set colex rank; a count
    past the largest list index raises ValueError naming C(n, k)."""
    count = math.comb(n, k)
    if count > sys.maxsize:
        try:
            size = str(count)
        except ValueError:  # too many digits for str: give its order of magnitude
            size = f"about 10^{math.log10(count):.1f}"
        raise ValueError(f"C({n}, {k}) = {size} k-sets exceed the largest list index, {sys.maxsize}")
    return count


def _check_nk(n: int, k: int) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")


def _check_r(r: int) -> None:
    if r < 1:
        raise ValueError("r must be at least 1")


def _check_t(k: int, t: int) -> None:
    if not 1 <= t <= k - 1:
        raise ValueError(f"need 1 <= t <= k-1, got t={t}, k={k}")


def _check_s(k: int, s: int) -> None:
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")


def _check_tsk(k: int, t: int, s: int) -> None:
    _check_t(k, t)
    _check_s(k, s)


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on {1..n} with edges stored as bitmasks.

    The edges are checked once, here, and stored immutable as a tuple:
    each one a k-subset of {1..n}, none twice.
    """

    n: int
    k: int
    edges: Sequence[int]

    def __post_init__(self):
        _check_nk(self.n, self.k)
        edges = tuple(self.edges)
        sizes = set(map(int.bit_count, edges))
        ordered = sorted(edges)  # not a set: int masks hash alike past vertex 61
        if edges and (sizes != {self.k} or ordered[0] < 0 or ordered[-1] >> self.n):
            full = (1 << self.n) - 1
            for e in edges:  # name the first bad edge in input order
                if e.bit_count() != self.k:
                    raise ValueError(f"edge {mask_to_vertices(e)} is not a {self.k}-set")
                if e & ~full:
                    raise ValueError(f"edge {mask_to_vertices(e)} leaves [1, {self.n}]")
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {mask_to_vertices(a)}")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_vertex_lists(cls, n: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(n, k, [vertices_to_mask(e) for e in edges])

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls(n, k, colex_edges(n, k))


@dataclass(frozen=True)
class Coloring:
    """An r-coloring of the complete k-graph, indexed by colex edge rank.

    The colors are checked once, here, and stored immutable: as bytes when
    r <= 255, else as a tuple of ints. Colorings built from equal colors
    compare equal, whatever sequence type the colors came in.
    """

    n: int
    k: int
    r: int
    colors: Sequence[int]

    def __post_init__(self):
        _check_nk(self.n, self.k)
        m = math.comb(self.n, self.k)
        if len(self.colors) != m:
            raise ValueError(f"expected C({self.n},{self.k})={m} colors, got {len(self.colors)}")
        _check_r(self.r)
        object.__setattr__(self, "colors", _stored_colors(self.colors, self.r))

    def color_class(self, i: int) -> Hypergraph:
        """The hypergraph of edges with color i (none for i outside [1, r])."""
        edges = colex_edges(self.n, self.k)
        return Hypergraph(self.n, self.k, [e for e, col in zip(edges, self.colors) if col == i])


@dataclass(frozen=True)
class MeasureResult:
    """Largest monochromatic t-tight component shadow, with its witness: the
    component's runs (top, low) of color `witness_color`, as `color_runs`
    gives them."""

    value: int
    witness_color: int
    witness_runs: tuple[tuple[int, int], ...]

    @property
    def witness_size(self) -> int:
        return sum(low.bit_count() for _, low in self.witness_runs)

    @property
    def witness_component(self) -> frozenset[int]:
        """The colex ranks of the witness's edges. The edges top | x sit at
        consecutive ranks from top | 1, so top | x, x the bit of vertex v,
        has rank colex_rank(top | 1) - 1 + v."""
        ranks = []
        for top, low in self.witness_runs:
            base = colex_rank(top | 1, top.bit_length(), top.bit_count() + 1) - 1
            ranks += map(base.__add__, mask_to_vertices(low))
        return frozenset(ranks)


def edge_runs(masks: Iterable[int]) -> list[tuple[int, int]]:
    """The edge masks as runs, one per top, in the order of each top's first edge."""
    runs: dict[int, int] = {}
    get = runs.get
    for e in masks:
        top = e & (e - 1)
        runs[top] = get(top, 0) | (e ^ top)
    return list(runs.items())


def _run_keys(runs: Iterable[tuple[int, int]], j: int) -> Iterator[tuple[int, int, int]]:
    """(run index, Q, bits) for each run and each j-subset Q of its top: the
    module docstring's pairs for the (j+1)-subsets of the run's edges, Q
    ascending for j = 1. Only j >= 2 lists a run's keys, with `_sub_masks`.
    `_component_indices` is its one caller; `_shadow_members` walks the same
    pairs in its own loops, with no run index to carry."""
    if not j:
        for idx, (top, low) in enumerate(runs):
            yield idx, 0, low | top
    elif j == 1:
        for idx, (top, low) in enumerate(runs):
            while top:
                key = top & -top
                yield idx, key, low
                low |= key
                top ^= key
    else:
        for idx, (top, low) in enumerate(runs):
            for key in _sub_masks(top, j):
                yield idx, key, low | (top & ((key & -key) - 1))


def _component_indices(
    runs: Sequence[tuple[int, int]], t: int
) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
    """Group runs into t-tight components; components sorted by first run index.

    The edges of a run share the k-1 >= t vertices of its top, so a run is
    t-tight connected. Two runs are adjacent exactly when they share a
    t-set, that is when they give one (t-1)-set Q bits that meet (see the
    module docstring). Per Q, the bits seen so far form disjoint (bits, run)
    classes, and a run merges every class its bits meet into one. Q keeps
    one pair while it has one class, as it mostly does, and a list of pairs
    only while its classes are split. Union-find keeps every root at the
    smallest run index, so parent[i] <= i and one ascending pass flattens
    the forest.

    Returns the components and, aligned with them, each component's t-shadow
    as its (Q, bits) classes: runs of t-sets, no t-set in two of them.
    """
    parent = list(range(len(runs)))
    # Q -> its disjoint classes: one (bits, run) pair, or a list of two or more
    classes: dict[int, tuple[int, int] | list[tuple[int, int]]] = {}
    get = classes.get
    cur = -1
    for idx, key, bits in _run_keys(runs, t - 1):
        if idx != cur:
            cur = root = idx
        old = get(key)
        if old is None:
            classes[key] = (bits, idx)
            continue
        if old.__class__ is tuple:  # one class: merge into it, or split off
            cbits, prev = old
            if not cbits & bits:
                classes[key] = [old, (bits, idx)]
                continue
            while parent[prev] != prev:
                parent[prev] = prev = parent[parent[prev]]
            if prev < root:
                parent[root] = root = prev
            elif prev > root:
                parent[prev] = root
            classes[key] = (bits | cbits, idx)
            continue
        kept = []
        merged = bits
        for cls in old:
            cbits, prev = cls
            if not cbits & bits:
                kept.append(cls)
                continue
            merged |= cbits
            while parent[prev] != prev:
                parent[prev] = prev = parent[parent[prev]]
            if prev < root:
                parent[root] = root = prev
            elif prev > root:
                parent[prev] = root
        if kept:
            kept.append((merged, idx))
            classes[key] = kept
        else:  # every class merged into this run's: one pair again
            classes[key] = (merged, idx)
    groups: dict[int, list[int]] = {}
    for idx in range(len(parent)):
        root = parent[idx] = parent[parent[idx]]
        if root == idx:
            groups[idx] = [idx]
        else:
            groups[root].append(idx)
    t_runs: dict[int, list[tuple[int, int]]] = {root: [] for root in groups}
    for key, found in classes.items():
        for bits, idx in (found,) if found.__class__ is tuple else found:
            t_runs[parent[idx]].append((key, bits))
    return list(groups.values()), list(t_runs.values())


def t_tight_components(h: Hypergraph, t: int) -> list[list[int]]:
    """The t-tight components of h, the transitive closure of |e ∩ f| >= t,
    as lists of indices into h.edges, each ascending and ordered by first index.
    They are found on h's runs and mapped back by top; runs are numbered by
    their first edge, so the order of the components carries over."""
    _check_t(h.k, t)
    runs = edge_runs(h.edges)
    found = _component_indices(runs, t)[0]
    comps: list[list[int]] = []
    comp_of: dict[int, list[int]] = {}  # top -> its component's edge indices
    for comp in found:
        comps.append([])
        comp_of.update((runs[i][0], comps[-1]) for i in comp)
    for idx, e in enumerate(h.edges):
        comp_of[e & (e - 1)].append(idx)
    return comps


def _shadow_members(runs: Sequence[tuple[int, int]], s: int) -> dict[int, int]:
    """The s-shadow of the runs' edges as (Q, bits) pairs, the s-sets Q | y for
    each bit y of bits (see the module docstring); no s-set occurs twice.

    The runs are walked here, not through `_run_keys`: s = 1 is one OR of
    low | top over the runs, s = 2 peels each top's bits low to high, and
    only s >= 3 lists a top's (s-1)-subsets. The keys come in `_run_keys`'
    order."""
    shade: dict[int, int] = {}
    if s == 1:
        bits = 0
        for top, low in runs:
            bits |= low | top
        if runs:
            shade[0] = bits
        return shade
    get = shade.get
    if s == 2:
        for top, low in runs:
            while top:
                key = top & -top
                shade[key] = get(key, 0) | low
                low |= key
                top ^= key
    else:
        for top, low in runs:
            for key in _sub_masks(top, s - 1):
                shade[key] = get(key, 0) | low | (top & ((key & -key) - 1))
    return shade


def shadow(h: Hypergraph, s: int) -> set[int]:
    """The s-shadow of h: the s-subsets of {1..n} in at least one edge, as masks."""
    _check_s(h.k, s)
    members = set()
    for key, bits in _shadow_members(edge_runs(h.edges), s).items():
        members.update(map(key.__or__, _sub_masks(bits, 1)))
    return members


def _stored_colors(colors: Sequence[int], r: int) -> bytes | tuple[int, ...]:
    """The colors as bytes when r <= 255, else as a tuple of ints; raise
    ValueError unless each one is an int in [1, r]."""
    try:
        if r <= 255:
            out = bytes(colors)
            ok = not out.translate(None, bytes(range(1, r + 1)))
        else:
            out = tuple(map(operator.index, colors))
            ok = not out or (1 <= min(out) and max(out) <= r)
    except (TypeError, ValueError):  # a non-int color, or one outside [0, 255]
        ok = False
    if not ok:
        raise ValueError(f"colors must lie in [1, {r}]")
    return out


def color_runs(c: Coloring) -> dict[int, list[tuple[int, int]]]:
    """Each color that occurs, ascending, with its runs; r itself costs nothing.

    For a (k-1)-set `top` with lowest vertex a >= 2, the edges top | x with
    x < a sit at consecutive colex ranks. Run (top, low) of color i holds
    the x whose edges have color i, one run per top in colex order; a top
    whose block holds no edge of color i gives no run.

    Up to 255 colors, the coloring stores its colors as bytes: each block is
    one slice of them, read by one `translate` and `int(..., 2)` per color
    that occurs but the last, which takes the rest. Above 255, the colors are
    a tuple: each color's edges are bucketed and merged by `edge_runs` into the same runs.
    """
    if c.r > 255:
        buckets: dict[int, list[int]] = {col: [] for col in sorted(set(c.colors))}
        for e, col in zip(colex_edges(c.n, c.k), c.colors):
            buckets[col].append(e)
        return {col: edge_runs(masks) for col, masks in buckets.items()}
    # int(..., 2) reads the last character as bit 0, so the colors are
    # reversed: the last character of a block's slice is the edge top | 1
    reverse = c.colors[::-1]
    # `in` on bytes is a memchr that stops at the first hit
    *each, last = [col for col in range(1, c.r + 1) if col in reverse]
    runs: dict[int, list[tuple[int, int]]] = {col: [] for col in (*each, last)}
    tables = [(b"0" * col + b"1" + b"0" * (255 - col), runs[col].append) for col in each]
    add_rest = runs[last].append
    hi = len(reverse)
    for top in colex_edges(c.n, c.k - 1):
        size = (top & -top).bit_length() - 1
        if size:
            block = reverse[hi - size : hi]
            hi -= size
            rest = (1 << size) - 1
            for table, add in tables:
                low = int(block.translate(table), 2)
                if low:
                    add((top, low))
                    rest ^= low
            if rest:
                add_rest((top, rest))
    return runs


def component_shadows(
    runs: Sequence[tuple[int, int]], t: int, ss: Sequence[int], k: int
) -> Iterator[tuple[list[int], tuple[int, ...]]]:
    """Each t-tight component of the runs of k-edges (run indices, ordered by
    first index) with its s-shadow count for every s in `ss`, in that order.

    A generator: a caller that stops early skips the remaining components.
    """
    # An s-subset of an edge with s <= t lies in one of its t-subsets, so for
    # s <= t the shadow comes from the component's runs of t-sets.
    comps, comp_t_runs = _component_indices(runs, t)
    for comp, t_runs in zip(comps, comp_t_runs):
        own = [runs[i] for i in comp]
        counts = []
        for s in ss:
            use, size = (t_runs, t) if s <= t else (own, k)
            if s == size:
                counts.append(sum(low.bit_count() for _, low in use))
            else:
                counts.append(sum(bits.bit_count() for bits in _shadow_members(use, s).values()))
        yield comp, tuple(counts)


def measure(c: Coloring, t: int, s: int) -> MeasureResult:
    """Largest s-shadow over monochromatic t-tight components of the coloring.

    Ties are broken by (color index, smallest contained edge rank). Each
    color's edges are held as runs (`color_runs`), about C(n, k-1) per color,
    not as C(n, k) edge masks, and the witness keeps the winning component's
    runs; only `MeasureResult.witness_component` expands them into ranks.
    A component whose s-shadow is all C(n, s) s-sets ends the scan: later
    colors and components can at best tie, and a tie keeps the first.
    """
    k = c.k
    _check_tsk(k, t, s)
    full = math.comb(c.n, s)
    best, found = 0, (0, [], [])
    for col, col_runs in color_runs(c).items():
        for comp, (cnt,) in component_shadows(col_runs, t, (s,), k):
            if cnt > best:
                best, found = cnt, (col, col_runs, comp)
                if cnt == full:
                    break
        if best == full:
            break
    col, col_runs, comp = found
    return MeasureResult(best, col, tuple(col_runs[i] for i in comp))


def quotient_max_shadow_by_ts(sizes: Sequence[int], table: dict[tuple[int, ...], int]) -> dict[tuple[int, int], int]:
    """measure(c, t, s).value for every valid (t, s), c being the partition
    rule (sizes, table) on p = len(sizes) parts: an edge gets table[labels],
    labels its vertices' part labels ascending, a k-tuple as
    `combinations_with_replacement(range(p), k)` lists them. No edge is
    built. An empty table, any other key, a negative part size and a profile
    with edges but no color raise ValueError.

    A profile is a set of copy vertices (see the module docstring), and
    `weight` maps each profile with vertex sets to prod_i C(sizes[i], b_i),
    their number; a class without edges is not in it. Per color, the classes
    with edges are the edges of a k-graph on p*k copy vertices, whose t-tight
    components (`_component_indices`) are the rule's. A component's s-shadow
    is the weight of its s-subsets (`_shadow_members`), a subset that is no
    profile weighing 0. A component that stays whole as t falls keeps its
    counts.
    """
    p, k = len(sizes), len(next(iter(table), ()))
    part_ids = range(p)  # each key checked on its own: an ascending k-tuple of part ids
    stray = [
        key for key in table
        if not (isinstance(key, tuple) and len(key) == k and all(x in part_ids for x in key) and all(map(operator.le, key, key[1:])))
    ]
    if stray or not 2 <= k <= sum(sizes):
        raise ValueError(f"need keys ascending k-tuples of labels in range({p}), 2 <= k <= n = {sum(sizes)}; got k = {k}, stray keys {sorted(stray)}")
    if min(sizes) < 0:
        raise ValueError(f"part sizes are >= 0, got {min(sizes)}")
    # by_size[j]: (mask, weight, labels) of each j-copy profile with vertex sets
    by_size: list[list[tuple[int, int, tuple[int, ...]]]] = [[(0, 1, ())]] + [[] for _ in range(k)]
    for x, size in enumerate(sizes):
        for j in range(k - 1, -1, -1):  # an extended profile lands above j
            for prof, w, labels in by_size[j]:
                for i in range(1, min(k - j, size) + 1):
                    by_size[j + i].append((prof | ((1 << i) - 1) << x * k, w * math.comb(size, i), labels + (x,) * i))
    weight = {prof: w for level in by_size for prof, w, _ in level}
    missing = [labels for _, _, labels in by_size[k] if labels not in table]  # by_size[k]: the classes with edges
    if missing:
        raise ValueError(f"profile {min(missing)} has edges but no color")
    groups: dict[int, list[int]] = {}
    for mask, _, labels in by_size[k]:
        groups.setdefault(table[labels], []).append(mask)
    out = {(t, s): 0 for t in range(1, k) for s in range(1, k + 1)}
    for masks in groups.values():
        runs = edge_runs(masks)
        # (first run, size) -> counts: a component at a smaller t holds the
        # one with its first run, so equal sizes mean the same component
        kept: dict[tuple[int, int], list[int]] = {}
        for t in range(k - 1, 0, -1):
            for comp, t_runs in zip(*_component_indices(runs, t)):
                counts = kept.get((comp[0], len(comp)))
                if counts is None:
                    own = [runs[i] for i in comp]
                    counts = kept[comp[0], len(comp)] = []
                    for s in range(1, k + 1):  # as in `component_shadows`
                        use, j = (t_runs, t) if s <= t else (own, k)  # runs of j-sets
                        pairs = use if s == j else _shadow_members(use, s).items()
                        counts.append(sum(weight.get(key | y, 0) for key, bits in pairs for y in _sub_masks(bits, 1)))
                for s, cnt in enumerate(counts, 1):
                    if cnt > out[t, s]:
                        out[t, s] = cnt
    return out
