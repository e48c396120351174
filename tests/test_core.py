import dataclasses
import io
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotight.core import (
    Coloring,
    Hypergraph,
    colex_edges,
    colex_rank,
    colex_unrank,
    color_runs,
    component_shadows,
    edge_runs,
    mask_to_vertices,
    measure,
    shadow,
    t_tight_components,
    vertices_to_mask,
    _component_indices,
    _shadow_members,
    _sub_masks,
    _subset_ranks,
)
from monotight import core, fileio
from monotight.constructions import all_red, majority_coloring, parity_coloring
from monotight.properties import _max_shadow_by_ts
from monotight.search import random_coloring


def naive_components(edges, t):
    """Literal fixpoint merge: repeatedly union any two sets holding edges
    that intersect in at least t vertices."""
    sets = [{i} for i in range(len(edges))]
    changed = True
    while changed:
        changed = False
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                if any(
                    (edges[i] & edges[j]).bit_count() >= t
                    for i in sets[a]
                    for j in sets[b]
                ):
                    sets[a] |= sets[b]
                    del sets[b]
                    changed = True
                    break
            if changed:
                break
    return sorted(tuple(sorted(s)) for s in sets)


def run_edges(runs):
    """The edges of the runs, as masks: top | x for each bit x of low."""
    return [top | 1 << (v - 1) for top, low in runs for v in mask_to_vertices(low)]


# 3-sets on vertices 1..6 and 60..70: their masks reach past bit 61, where
# bit v - 1 and bit v + 60 hash alike
FAR_EDGES = [vertices_to_mask(e) for e in combinations((*range(1, 7), *range(60, 71)), 3)]


def naive_measure(c, t, s):
    """measure from naive_components and explicit shadow sets, per color in
    index order and per component in order of its smallest edge rank."""
    edges = list(colex_edges(c.n, c.k))
    best = (0, 0, frozenset())
    for col in range(1, c.r + 1):
        ranks = [i for i, x in enumerate(c.colors) if x == col]
        for comp in naive_components([edges[i] for i in ranks], t):
            cnt = len(shadow(Hypergraph(c.n, c.k, [edges[ranks[i]] for i in comp]), s))
            if best[1] == 0 or cnt > best[0]:
                best = (cnt, col, frozenset(ranks[i] for i in comp))
    return best


def full_scan(c, t, s):
    """measure with no early stop: every color and every component, the
    first strictly larger shadow kept, as (value, color, runs)."""
    best = (0, 0, ())
    for col, col_runs in color_runs(c).items():
        for comp, (cnt,) in component_shadows(col_runs, t, (s,), c.k):
            if cnt > best[0]:
                best = (cnt, col, tuple(col_runs[i] for i in comp))
    return best


def oracle_colorings():
    """Seeded colorings with k in 2..5, r in 1..4 and n <= 9: uniform ones,
    and ones where every color but 1 is rare (empty or one-edge runs)."""
    rng = random.Random(29)
    for k, ns in ((2, range(2, 10)), (3, range(3, 10)), (4, range(4, 9)), (5, range(5, 8))):
        for n in ns:
            m = math.comb(n, k)
            for r in (1, 2, 3, 4):
                yield Coloring(n, k, r, [rng.randint(1, r) for _ in range(m)])
                rare = [1] * m
                for i in rng.sample(range(m), min(m, r - 1)):
                    rare[i] = rng.randint(2, r) if r > 1 else 1
                yield Coloring(n, k, r, rare)


class TestColexRanking:
    def test_first_and_last(self):
        assert colex_rank({1, 2, 3}, 5, 3) == 0
        assert colex_rank({3, 4, 5}, 5, 3) == 9

    def test_roundtrip_all_of_c53(self):
        for sub in combinations(range(1, 6), 3):
            mask = vertices_to_mask(sub)
            assert colex_unrank(colex_rank(mask, 5, 3), 5, 3) == mask

    @given(st.integers(5, 16), st.integers(2, 5), st.data())
    def test_roundtrip_random(self, n, k, data):
        k = min(k, n)
        rank = data.draw(st.integers(0, math.comb(n, k) - 1))
        mask = colex_unrank(rank, n, k)
        assert mask.bit_count() == k
        assert colex_rank(mask, n, k) == rank

    def test_colex_edges_order_matches_rank(self):
        for n, k in [(5, 3), (7, 2), (8, 4), (6, 6), (70, 3)]:
            ranks = [colex_rank(e, n, k) for e in colex_edges(n, k)]
            assert ranks == list(range(math.comb(n, k)))

    def test_colex_edges_is_increasing_mask_order(self):
        for n in range(11):
            for k in range(n + 1):
                want = sorted(sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), k))
                assert list(colex_edges(n, k)) == want, (n, k)
        assert list(colex_edges(3, 4)) == [] and list(colex_edges(3, -1)) == []

    def test_sub_masks_are_the_j_subsets(self):
        for mask in (0b1, 0b11, 0b1011, 0b110101, 0b11111):
            vs = mask_to_vertices(mask)
            for j in range(len(vs) + 1):
                want = sorted(vertices_to_mask(c) for c in combinations(vs, j))
                assert sorted(_sub_masks(mask, j)) == want, (mask, j)
        # one bit peel: j = 1 lists the bits ascending, two-bit masks included
        assert _sub_masks(0b11, 1) == [0b01, 0b10]
        assert mask_to_vertices((1 << 69) | (1 << 3)) == (4, 70)

    def test_subset_ranks_are_the_ranks_in_descending_colex_order(self):
        for mask in (0b1, 0b11, 0b1011, 0b110101, 0b11111, 0b1101100010111, 1 << 70 | 1 << 64 | 0b101):
            n = mask.bit_length()
            for k in range(1, 5):
                want = sorted((colex_rank(sub, n, k) for sub in _sub_masks(mask, k)), reverse=True)
                assert _subset_ranks(mask_to_vertices(mask), k) == want, (mask, k)

    def test_errors(self):
        with pytest.raises(ValueError):
            colex_unrank(10, 5, 3)
        with pytest.raises(ValueError):
            colex_rank({1, 2}, 5, 3)
        with pytest.raises(ValueError):
            colex_rank({1, 2, 9}, 5, 3)
        # [1, 1, 3] is no 3-set; summing its terms would give 0, the rank of {1, 2, 3}
        with pytest.raises(ValueError, match="^expected a 3-subset, got 2 distinct vertices$"):
            colex_rank([1, 1, 3], 5, 3)


class TestHypergraph:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Hypergraph.from_vertex_lists(5, 3, [[1, 2]])
        with pytest.raises(ValueError):
            Hypergraph.from_vertex_lists(5, 3, [[1, 2, 6]])
        with pytest.raises(ValueError):
            Hypergraph.from_vertex_lists(5, 3, [[1, 2, 3], [3, 2, 1]])
        with pytest.raises(ValueError, match="^vertex indices are 1-based, got 0$"):
            Hypergraph.from_vertex_lists(5, 3, [[0, 1, 2]])

    def test_duplicate_past_vertex_61_is_refused(self):
        # an int hashes as itself mod 2^61 - 1, so the masks of {62, 63, 64}
        # and {1, 2, 3} hash alike; neither is taken for the other
        edges = [[62, 63, 64], [1, 2, 3], [70, 5, 80], [2, 63, 79]]
        assert len(Hypergraph.from_vertex_lists(80, 3, edges).edges) == 4
        with pytest.raises(ValueError, match=r"duplicate edge \(5, 70, 80\)"):
            Hypergraph.from_vertex_lists(80, 3, edges + [[80, 70, 5]])

    def test_first_bad_edge_in_input_order_is_named(self):
        # many good edges first; 0b11 sorts first and {1, 2, 31} last, so the
        # message names whichever of the two comes first in the input
        good = list(colex_edges(30, 3))
        wide = vertices_to_mask([1, 2, 31])
        with pytest.raises(ValueError, match=r"^edge \(1, 2\) is not a 3-set$"):
            Hypergraph(30, 3, good + [0b11, wide])
        with pytest.raises(ValueError, match=r"^edge \(1, 2, 31\) leaves \[1, 30\]$"):
            Hypergraph(30, 3, good + [wide, 0b11])

    def test_negative_mask_is_refused(self):
        # -7 has three bits set in its magnitude; a mask of it names no vertices
        for edges in ([-7], [0b111, -7]):
            with pytest.raises(ValueError, match="nonnegative"):
                Hypergraph(5, 3, edges)
        with pytest.raises(ValueError, match="nonnegative"):
            colex_rank(-7, 5, 3)

    def test_complete(self):
        assert len(Hypergraph.complete(6, 3).edges) == 20

    def test_edges_cannot_be_appended(self):
        # edges are checked at construction only, so a duplicate edge or a
        # 2-set cannot be added to a 3-graph afterwards
        h = Hypergraph.from_vertex_lists(5, 3, [[1, 2, 3], [3, 4, 5]])
        with pytest.raises(AttributeError):
            h.edges.append(h.edges[0])
        with pytest.raises(AttributeError):
            h.edges.append(0b11)
        assert h.edges == (vertices_to_mask([1, 2, 3]), vertices_to_mask([3, 4, 5]))
        assert t_tight_components(h, 1) == [[0, 1]]

    @pytest.mark.parametrize(
        "field, value", [("edges", [0b111, 0b111, 0b11]), ("edges", ()), ("n", 3), ("k", 2)]
    )
    def test_fields_cannot_be_reassigned(self, field, value):
        h = Hypergraph.from_vertex_lists(5, 3, [[1, 2, 3], [3, 4, 5]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, field, value)
        assert (h.n, h.k, len(h.edges)) == (5, 3, 2)

    def test_edges_are_copied_from_the_input(self):
        edges = [0b111, 0b1110]
        h = Hypergraph(5, 3, edges)
        edges.append(0b11)
        assert h.edges == (0b111, 0b1110)
        assert Hypergraph(5, 3, iter(edges[:2])) == h


class TestComponents:
    def test_chain_t1(self):
        h = Hypergraph.from_vertex_lists(7, 3, [[1, 2, 3], [3, 4, 5], [5, 6, 7]])
        assert t_tight_components(h, 1) == [[0, 1, 2]]

    def test_chain_t2_singletons(self):
        h = Hypergraph.from_vertex_lists(7, 3, [[1, 2, 3], [3, 4, 5], [5, 6, 7]])
        assert t_tight_components(h, 2) == [[0], [1], [2]]

    def test_empty(self):
        h = Hypergraph(5, 3, [])
        assert t_tight_components(h, 1) == []

    def test_t_out_of_range(self):
        h = Hypergraph.from_vertex_lists(5, 3, [[1, 2, 3]])
        with pytest.raises(ValueError):
            t_tight_components(h, 3)
        with pytest.raises(ValueError):
            t_tight_components(h, 0)

    def test_against_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(4, 9)
            pool = list(colex_edges(n, 3))
            edges = [e for e in pool if rng.random() < rng.random()]
            if not edges:
                continue
            t = rng.randint(1, 2)
            got = sorted(tuple(c) for c in t_tight_components(Hypergraph(n, 3, edges), t))
            assert got == naive_components(edges, t)
        for _ in range(40):
            edges = rng.sample(FAR_EDGES, rng.randint(1, 60))
            t = rng.randint(1, 2)
            got = sorted(tuple(c) for c in t_tight_components(Hypergraph(70, 3, edges), t))
            assert got == naive_components(edges, t)

    def test_order_independence(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(4, 8)
            pool = list(colex_edges(n, 3))
            edges = [e for e in pool if rng.random() < 0.4]
            if not edges:
                continue
            t = rng.randint(1, 2)
            base = {frozenset(edges[i] for i in c) for c in t_tight_components(Hypergraph(n, 3, edges), t)}
            shuffled = edges[:]
            rng.shuffle(shuffled)
            other = {
                frozenset(shuffled[i] for i in c)
                for c in t_tight_components(Hypergraph(n, 3, shuffled), t)
            }
            assert base == other

    def test_edge_runs_merge_by_top(self):
        rng = random.Random(19)
        pools = [list(colex_edges(8, 3)), list(colex_edges(9, 4)), FAR_EDGES]
        for _ in range(30):
            for pool in pools:
                edges = rng.sample(pool, rng.randint(1, min(len(pool), 120)))  # shuffled
                tops = []  # each edge without its lowest vertex, first appearances in order
                for e in edges:
                    top = e ^ 1 << (mask_to_vertices(e)[0] - 1)
                    if top not in tops:
                        tops.append(top)
                runs = edge_runs(edges)
                assert [top for top, _ in runs] == tops
                assert sorted(run_edges(runs)) == sorted(edges)
                assert all(0 < low < top & -top for top, low in runs)

    def test_component_shadows_matches_components_and_shadow(self):
        # k-graphs on n <= 8 for k = 3..5 and samples of k-sets of {1..6, 60..70},
        # whose masks pass bit 61; at k = 5 the (t-1)- and (s-1)-subsets of a
        # 4-vertex top take every key size j = 0, 1, 2 and |top| - 1
        rng = random.Random(17)
        far = (*range(1, 7), *range(60, 71))
        cases = []
        for _ in range(60):
            k = rng.choice((3, 4, 5))
            if rng.random() < 0.7:
                n = rng.randint(k + 1, 8)
                edges = [e for e in colex_edges(n, k) if rng.random() < 0.3]
            else:
                n = 70
                edges = [vertices_to_mask(e) for e in rng.sample(list(combinations(far, k)), rng.randint(1, 40))]
            cases.append((edge_runs(edges), n, k, rng.randint(1, k - 1)))
        # key 0 splits into two classes, merges back into one at the third run,
        # and splits again at the last; key {9} splits and merges back at t = 2
        split_merge = [((2, 3), (1,)), ((5, 6), (4,)), ((3, 5), (1,)), ((7, 8), (6,)), ((10, 11), (9,))]
        key9 = [((5, 9), (1,)), ((6, 9), (2,)), ((7, 9), (1, 2))]
        for runs, t, want in ((split_merge, 1, [[0, 1, 2, 3], [4]]), (key9, 2, [[0, 1, 2]])):
            runs = [(vertices_to_mask(top), vertices_to_mask(low)) for top, low in runs]
            assert _component_indices(runs, t)[0] == want
            cases.append((runs, 11, 3, t))
        for runs, n, k, t in cases:
            ss = range(1, k + 1)
            got = list(component_shadows(runs, t, ss, k))
            comps, t_runs = _component_indices(runs, t)
            assert [comp for comp, _ in got] == comps
            edges = run_edges(runs)  # run by run, so each run's edges are consecutive
            first = [0]
            for _, low in runs:
                first.append(first[-1] + low.bit_count())
            assert sorted(tuple(e for i in comp for e in range(first[i], first[i + 1])) for comp in comps) == (
                naive_components(edges, t)
            )
            for comp, comp_t_runs in zip(comps, t_runs):
                # each t-set of the component once: the popcounts add up to the set
                t_sets = {key | 1 << (v - 1) for key, bits in comp_t_runs for v in mask_to_vertices(bits)}
                assert sum(bits.bit_count() for _, bits in comp_t_runs) == len(t_sets)
                assert t_sets == shadow_members(run_edges(runs[i] for i in comp), t, k)
            for comp, counts in got:
                comp_edges = run_edges(runs[i] for i in comp)
                assert counts == tuple(len(shadow_members(comp_edges, s, k)) for s in ss), (n, k, t)


def shadow_members(masks, s, k):
    """The s-subsets of the k-sets `masks`, as a set of masks: the per-edge
    reference for the (Q, bits) kernel `_shadow_members` and for `shadow`."""
    members = set()
    if s == k:
        members.update(masks)
        return members
    for mask in masks:
        members.update(_sub_masks(mask, s))
    return members


def one_pass_colorings():
    """Inputs for the single walk over colex blocks in `color_runs`: colors
    that skip 1 and lie far apart in a byte, a single color, and K^3_70 with a
    few edges recolored, so that tops pass vertex 61."""
    rng = random.Random(37)
    yield Coloring(9, 3, 200, [rng.choice((5, 137, 200)) for _ in range(math.comb(9, 3))])
    yield Coloring(6, 3, 1, [1] * math.comb(6, 3))
    yield Coloring(7, 4, 9, [9] * math.comb(7, 4))
    colors = [1] * math.comb(70, 3)
    for col, edge in ((2, (60, 62, 70)), (3, (1, 65, 66)), (2, (3, 61, 69)), (3, (68, 69, 70)), (2, (1, 2, 3))):
        colors[colex_rank(edge, 70, 3)] = col
    yield Coloring(70, 3, 3, colors)


def color_buckets(c):
    """Edge masks and their colex ranks, one list per color, bucket i holding
    color i and bucket 0 empty: the per-edge reference for `color_runs`."""
    masks = [[] for _ in range(c.r + 1)]
    ranks = [[] for _ in range(c.r + 1)]
    for rank, (mask, col) in enumerate(zip(colex_edges(c.n, c.k), c.colors)):
        masks[col].append(mask)
        ranks[col].append(rank)
    return masks, ranks


class TestColorBuckets:
    def test_buckets_partition_the_edges_by_color(self):
        c = random_coloring(7, 3, 3, seed=5)
        masks, ranks = color_buckets(c)
        all_edges = list(colex_edges(7, 3))
        assert masks[0] == [] and ranks[0] == []
        for col in range(1, 4):
            assert ranks[col] == [i for i, x in enumerate(c.colors) if x == col]
            assert masks[col] == [all_edges[i] for i in ranks[col]]
            assert list(c.color_class(col).edges) == masks[col]
        for col in (-1, 0, 4):
            assert list(c.color_class(col).edges) == []

    def test_expanded_runs_are_the_buckets(self):
        # only the colors that occur have an entry, on both color stores
        for c0 in (*oracle_colorings(), *one_pass_colorings()):
            for c in (c0, Coloring(c0.n, c0.k, 300, c0.colors)):
                runs = color_runs(c)
                masks, ranks = color_buckets(c)
                assert list(runs) == sorted(set(c.colors))
                for col in range(c.r + 1):
                    expanded = [
                        (top | (1 << j), colex_rank(top | 1, c.n, c.k) + j)
                        for top, low in runs.get(col, [])
                        for j in range(low.bit_length())
                        if low >> j & 1
                    ]
                    assert all(low and low < (top & -top) for top, low in runs.get(col, []))
                    assert expanded == list(zip(masks[col], ranks[col])), (c.n, c.k, c.r, col)

    def test_tuple_colors_give_the_bytes_runs(self):
        # above 255 colors the runs are merged by top, as the bytes path gives them
        for c in (*oracle_colorings(), *one_pass_colorings()):
            want = list(color_runs(c).items())
            assert list(color_runs(Coloring(c.n, c.k, 300, c.colors)).items()) == want, (c.n, c.k, c.r)

    @pytest.mark.parametrize("r", [200, 300])
    def test_only_the_colors_that_occur(self, r):
        # bytes at r = 200, a tuple at r = 300: r itself adds no entry
        c = Coloring(5, 3, r, [3, 7] * 5)
        assert isinstance(c.colors, bytes) == (r <= 255)
        assert list(color_runs(c)) == [3, 7]

    @pytest.mark.parametrize("r", [2, 300])
    def test_colors_cannot_be_assigned(self, r):
        # colors are checked at construction only, so they cannot change
        c = Coloring(4, 3, r, [1, 1, 1, 1])
        with pytest.raises(TypeError):
            c.colors[0] = 0

    @pytest.mark.parametrize("field, value", [("colors", [0, 0, 0, 0]), ("r", 1), ("n", 5)])
    def test_fields_cannot_be_reassigned(self, field, value):
        c = Coloring(4, 3, 2, [1, 2, 1, 2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, value)
        assert (c.n, c.r, list(c.colors)) == (4, 2, [1, 2, 1, 2])

    @pytest.mark.parametrize("r", [2, 12, 300])
    def test_colorings_from_any_sequence_compare_equal(self, r):
        colors = [1, 2, 2, 1, 2, 1, 1, 2, 1, 2]
        built = [
            Coloring(5, 3, r, seq)
            for seq in (colors, tuple(colors), bytes(colors), bytearray(colors))
        ]
        assert all(c == built[0] for c in built)
        assert all(list(c.colors) == colors for c in built)
        assert len({hash(c) for c in built}) == 1
        assert built[0] != Coloring(5, 3, r, colors[::-1])


    @pytest.mark.parametrize("n, k", [(2, 3), (5, 1), (4, 0), (0, 0)])
    def test_coloring_needs_2_le_k_le_n(self, n, k):
        # k > n would be an edgeless K^k_n whose every measure reads 0
        with pytest.raises(ValueError, match=f"need 2 <= k <= n, got k={k}, n={n}"):
            Coloring(n, k, 2, [1] * math.comb(n, k))

    @pytest.mark.parametrize("m", [9, 11])
    def test_coloring_needs_c_n_k_colors(self, m):
        with pytest.raises(ValueError, match=rf"^expected C\(5,3\)=10 colors, got {m}$"):
            Coloring(5, 3, 2, [1] * m)


def min_max_rule(colors, r):
    """The color check as one type test, one min and one max over the list:
    every color is an int (a bool is one) in [1, r]."""
    if not all(isinstance(x, int) for x in colors):
        return False
    return not colors or (1 <= min(colors) and max(colors) <= r)


def coloring_of(colors, r):
    """A Coloring of K^2_4 (6 edges) whose first colors are `colors` and
    whose other edges take color 1, which every r allows."""
    return Coloring(4, 2, r, colors + [1] * (6 - len(colors)))


def check_colors_passes(colors, r):
    try:
        coloring_of(colors, r)
    except ValueError:
        return False
    return True


CHECK_COLORS_CASES = [
    ([True, True], 1),
    ([True, False], 2),
    ([1.0, 2.0], 2),
    ([1.5, 2], 2),
    ([0.5, 1], 2),
    ([1, 2.5], 2),
    ([-1, 1], 2),
    ([-300, 1], 2),
    ([0, 1], 1),
    ([1, 256], 255),
    ([1, 255], 255),
    ([255, 256], 300),
    ([1, 300], 300),
    ([301], 300),
    ([], 1),
    ([], 300),
    ([2, 3], 1),
    ([1, 3, 2], 3),
]


class TestCheckColors:
    @pytest.mark.parametrize("colors, r", CHECK_COLORS_CASES)
    def test_matches_min_max_rule(self, colors, r):
        # the float cases [1.0, 2.0] and [1.5, 2] raise at construction
        if min_max_rule(colors, r):
            assert list(coloring_of(colors, r).colors)[: len(colors)] == colors
        else:
            with pytest.raises(ValueError, match=f"colors must lie in \\[1, {r}\\]"):
                coloring_of(colors, r)

    def test_random_lists_match_min_max_rule(self):
        rng = random.Random(37)
        for _ in range(2000):
            r = rng.choice([1, 2, 3, 9, 254, 255, 256, 300])
            colors = [rng.randint(-1, r + 1) for _ in range(rng.randint(0, 6))]
            assert min_max_rule(colors, r) == check_colors_passes(colors, r), (colors, r)


class TestShadow:
    def test_single_edge(self):
        e = vertices_to_mask([1, 2, 3])
        sh = shadow(Hypergraph(3, 3, [e]), 2)
        assert len(sh) == 3
        assert {mask_to_vertices(m) for m in sh} == {(1, 2), (1, 3), (2, 3)}

    def test_s_equals_k_identity(self):
        e = vertices_to_mask([1, 2, 3])
        assert shadow(Hypergraph(3, 3, [e]), 3) == {e}

    def test_complete_hypergraph_shadow_complete(self):
        assert len(shadow(Hypergraph.complete(5, 3), 2)) == math.comb(5, 2)

    def test_empty_and_errors(self):
        assert shadow(Hypergraph(5, 3, []), 2) == set()
        h = Hypergraph.from_vertex_lists(3, 3, [[1, 2, 3]])
        with pytest.raises(ValueError):
            shadow(h, 4)
        with pytest.raises(ValueError):
            shadow(h, 0)

    def test_s_is_checked_against_k_not_against_the_edges(self):
        # an edgeless 3-graph has no 4-shadow
        with pytest.raises(ValueError, match="need 1 <= s <= k, got s=4, k=3"):
            shadow(Hypergraph(5, 3, []), 4)

    @pytest.mark.parametrize("n_max, k", [(10, 3), (10, 4), (80, 3)])
    def test_kernel_and_shadow_match_the_set_oracle(self, n_max, k):
        # random k-graphs on n <= 10, and random 3-sets of {1..80}, whose
        # masks reach past bit 61, where int masks hash alike
        rng = random.Random(41 + n_max + k)
        for _ in range(40):
            if n_max <= 10:
                n = rng.randint(k + 1, n_max)
                edges = [e for e in colex_edges(n, k) if rng.random() < rng.random()]
            else:
                n = n_max
                edges = list({vertices_to_mask(rng.sample(range(1, n + 1), k)) for _ in range(rng.randint(1, 300))})
            h = Hypergraph(n, k, edges)
            for s in range(1, k + 1):
                want = shadow_members(edges, s, k)
                pairs = _shadow_members(edge_runs(edges), s)
                assert sum(bits.bit_count() for bits in pairs.values()) == len(want)
                assert shadow(h, s) == want

    def test_nesting(self):
        # E^(s) is the union of s-subsets of E^(s') for s <= s'
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(5, 9)
            edges = [e for e in colex_edges(n, 4) if rng.random() < 0.3]
            if not edges:
                continue
            h = Hypergraph(n, 4, edges)
            for s, s2 in [(1, 2), (2, 3), (1, 3), (3, 4)]:
                upper = shadow(h, s2)
                expanded = shadow(Hypergraph(n, s2, upper), s)
                assert shadow(h, s) == expanded
                assert len(upper) <= math.comb(n, s2)


class TestMeasure:
    def test_matches_naive_oracle(self):
        # value, witness color and witness component, for every (t, s)
        for c in oracle_colorings():
            for t in range(1, c.k):
                for s in range(1, c.k + 1):
                    res = measure(c, t, s)
                    got = (res.value, res.witness_color, res.witness_component)
                    assert got == naive_measure(c, t, s), (c.n, c.k, c.r, t, s)
                    assert res.witness_size == len(res.witness_component)

    def test_colors_above_one_byte_match_naive_oracle(self):
        rng = random.Random(31)
        colors = [rng.randint(1, 300) for _ in range(math.comb(8, 3))]
        colors[:2] = [1, 300]
        c = Coloring(8, 3, 300, colors)
        for t in (1, 2):
            for s in (1, 2, 3):
                res = measure(c, t, s)
                assert (res.value, res.witness_color, res.witness_component) == naive_measure(c, t, s)

    def test_one_edge_runs_keep_every_witness_edge(self):
        # above 255 colors the edges of one colex block merge into one run,
        # and the witness expands it back to every edge
        c = Coloring(4, 3, 300, [1] * 4)
        assert measure(c, 1, 1).witness_component == frozenset(range(4))

    def test_few_colors_above_one_byte_match_naive_oracle(self):
        # the oracle colorings again with r = 300: few colors in use, so many
        # same-block edges merge into one run on the tuple path
        for c in oracle_colorings():
            wide = Coloring(c.n, c.k, 300, c.colors)
            for t in range(1, c.k):
                for s in range(1, c.k + 1):
                    res = measure(wide, t, s)
                    got = (res.value, res.witness_color, res.witness_component)
                    assert got == naive_measure(c, t, s), (c.n, c.k, c.r, t, s)

    def test_colors_that_never_occur_cost_nothing(self):
        # a million colors of which four occur: measure and the file round
        # trip visit only those four, and agree with the same coloring at r = 4
        small = Coloring(4, 3, 4, [1, 2, 3, 4])
        wide = Coloring(4, 3, 10**6, [1, 2, 3, 4])
        for t in (1, 2):
            for s in (1, 2, 3):
                assert measure(wide, t, s) == measure(small, t, s)
        assert wide.color_class(1).edges == small.color_class(1).edges == (0b111,)
        files = []
        for c in (small, wide):
            buf = io.StringIO()
            fileio.write_coloring(c, buf)
            assert fileio.read_coloring(io.StringIO(buf.getvalue())) == c
            files.append(buf.getvalue().split("\n", 1))
        assert files[0][1] == files[1][1] == "1\n2\n3\n4\n"

    def test_complete_shadow_stop_matches_a_full_scan(self):
        # on both color stores: the stop changes no value and no witness
        for c0 in oracle_colorings():
            for c in (c0, Coloring(c0.n, c0.k, 300, c0.colors)):
                for t in range(1, c.k):
                    for s in range(1, c.k + 1):
                        res = measure(c, t, s)
                        got = (res.value, res.witness_color, res.witness_runs)
                        assert got == full_scan(c, t, s), (c.n, c.k, c.r, t, s)

    def test_complete_shadow_stop_keeps_the_first_color(self):
        # both colors of majority_coloring(120) touch every vertex at (1, 1)
        c = majority_coloring(120)
        per_color = [
            max(cnt for _, (cnt,) in component_shadows(col_runs, 1, (1,), 3))
            for col_runs in color_runs(c).values()
        ]
        assert per_color == [120, 120]
        res = measure(c, 1, 1)
        assert (res.value, res.witness_color) == (120, 1)

    def test_complete_shadow_stops_the_color_scan(self, monkeypatch):
        # every color of this coloring covers all 12 vertices, so the first
        # color's component ends the scan
        c = random_coloring(12, 3, 3, seed=0)
        for col_runs in color_runs(c).values():
            assert [cnt for _, (cnt,) in component_shadows(col_runs, 1, (1,), 3)] == [12]
        calls = []

        def counting(*args):
            calls.append(args)
            return component_shadows(*args)

        monkeypatch.setattr(core, "component_shadows", counting)
        assert measure(c, 1, 1).value == 12
        assert len(calls) == 1

    def test_all_red_spans(self):
        assert measure(all_red(5, 3, 2), 1, 1).value == 5

    def test_majority_paper_value(self):
        assert measure(majority_coloring(6), 2, 2).value == 12

    def test_parity_paper_value(self):
        assert measure(parity_coloring(12), 2, 3).value == 90

    def test_tie_breaking_prefers_lower_color(self):
        # two colors, fully symmetric halves: witness must come from color 1
        c = parity_coloring(8)
        res = measure(c, 2, 3)
        assert res.witness_color == 1

    def test_witness_consistency(self):
        c = majority_coloring(7)
        res = measure(c, 1, 2)
        masks = list(colex_edges(7, 3))
        comp = [masks[i] for i in res.witness_component]
        assert len(shadow(Hypergraph(7, 3, comp), 2)) == res.value

    def test_unused_color_never_selected(self):
        c = Coloring(5, 3, 3, [1] * math.comb(5, 3))
        assert measure(c, 1, 1).witness_color == 1

    def test_parameter_errors(self):
        c = all_red(5, 3, 2)
        with pytest.raises(ValueError):
            measure(c, 3, 1)
        with pytest.raises(ValueError):
            measure(c, 1, 4)

    def test_monotone_under_edge_additions(self):
        # pruning soundness: adding edges never shrinks the max component shadow
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(5, 9)
            pool = list(colex_edges(n, 3))
            rng.shuffle(pool)
            t = rng.randint(1, 2)
            s = rng.randint(1, 3)
            prev = 0
            edges = []
            for e in pool[: rng.randint(2, len(pool))]:
                edges.append(e)
                cur = max(cnt for _, (cnt,) in component_shadows(edge_runs(edges), t, (s,), 3))
                assert cur >= prev
                prev = cur

    def test_max_shadow_by_ts_matches_measure(self):
        # the shared-work path of the lowerbound suite against one measure per (t, s)
        rng = random.Random(23)
        for k in (3, 4):
            for r in (2, 3):
                for _ in range(3):
                    c = random_coloring(rng.randint(k + 1, 8), r, k, seed=rng.randrange(2**32))
                    want = {(t, s): measure(c, t, s).value for t in range(1, k) for s in range(1, k + 1)}
                    assert _max_shadow_by_ts(c) == want
