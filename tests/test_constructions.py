import math
import random
import tracemalloc
from itertools import combinations, combinations_with_replacement

import pytest

from monotight import bounds, properties
from monotight.constructions import (
    TWO_PART_RULES,
    _partition_coloring,
    all_red,
    blow_up,
    blow_up_rule,
    majority_coloring,
    padded_index_set,
    parity_coloring,
    steiner_coloring,
    two_clique_coloring,
    two_part_rule,
)
from monotight.core import (
    colex_edges,
    colex_rank,
    mask_to_vertices,
    measure,
    quotient_max_shadow_by_ts,
    shadow,
    t_tight_components,
    vertices_to_mask,
)
from monotight.designs import affine_plane, builtin_design, partition_blocks
from monotight.search import random_coloring


def test_all_red():
    c = all_red(6, 3, 2)
    for t in (1, 2):
        for s in (1, 2, 3):
            assert measure(c, t, s).value == math.comb(6, s)
    h = c.color_class(1)
    assert len(t_tight_components(h, 1)) == 1


# reference oracle: the per-edge rule of each construction, one mask test per edge
def _majority_rule(n):
    half = vertices_to_mask(range(1, (n + 1) // 2 + 1))
    return lambda e: 1 if (e & half).bit_count() >= 2 else 2


def _parity_rule(n):
    half = vertices_to_mask(range(1, (n + 1) // 2 + 1))
    return lambda e: 1 if (e & half).bit_count() % 2 == 1 else 2


def _two_clique_rule(n):
    a = int((math.sqrt(21) - 3) / 2 * n)
    part_a = vertices_to_mask(range(1, a + 1))
    part_b = vertices_to_mask(range(a + 1, n + 1))
    return lambda e: 1 if e & part_a == e or e & part_b == e else 2


TWO_PART = {
    "majority": (majority_coloring, _majority_rule),
    "parity": (parity_coloring, _parity_rule),
    "two_clique": (two_clique_coloring, _two_clique_rule),
}


@pytest.mark.parametrize("name", sorted(TWO_PART))
def test_two_part_coloring_matches_per_edge_rule(name):
    build, rule = TWO_PART[name]
    for n in [*range(3, 41), 120]:
        c = build(n)
        assert (c.n, c.k, c.r) == (n, 3, 2)
        assert list(c.colors) == list(map(rule(n), colex_edges(n, 3))), n


@pytest.mark.parametrize("n", range(4, 13))
def test_majority_matches_formula(n):
    expected = math.comb(n, 2) - math.comb(n // 2, 2)
    assert measure(majority_coloring(n), 1, 2).value == expected
    assert measure(majority_coloring(n), 2, 2).value == expected


def test_majority_single_components_per_color():
    # each color forms one 1-tight and one 2-tight component; the union of
    # their 2-shadows covers all pairs
    for n in (6, 7, 9):
        c = majority_coloring(n)
        pair_union = set()
        for col in (1, 2):
            h = c.color_class(col)
            assert len(t_tight_components(h, 1)) == 1
            assert len(t_tight_components(h, 2)) == 1
            pair_union |= shadow(h, 2)
        assert len(pair_union) == math.comb(n, 2)


def test_parity_components_n12():
    c = parity_coloring(12)
    sizes = []
    for col in (1, 2):
        h = c.color_class(col)
        sizes += [len(comp) for comp in t_tight_components(h, 2)]
    assert sorted(sizes) == [20, 20, 90, 90]
    assert sum(sizes) == math.comb(12, 3)


def test_two_clique_red_components():
    c = two_clique_coloring(20)
    red = c.color_class(1)
    comps = t_tight_components(red, 1)
    assert len(comps) == 2


def test_two_clique_blue_count_small():
    # blue edge count matches C(n,3) - C(a,3) - C(n-a,3) by direct enumeration
    for n in (12, 30, 50):
        c = two_clique_coloring(n)
        a = int((math.sqrt(21) - 3) / 2 * n)
        blue = sum(1 for col in c.colors if col == 2)
        assert blue == math.comb(n, 3) - math.comb(a, 3) - math.comb(n - a, 3)


def test_measure_closed_forms_at_n40():
    # the forms the benchmark pins at n = 120, on the byte-slice path of measure
    n = 40
    a = int((math.sqrt(21) - 3) / 2 * n)
    assert measure(two_clique_coloring(n), 1, 3).value == (
        math.comb(n, 3) - math.comb(a, 3) - math.comb(n - a, 3)
    )
    assert measure(majority_coloring(n), 2, 2).value == math.comb(n, 2) - math.comb(n // 2, 2)


def test_blow_up_identity_at_base_size():
    c0 = random_coloring(6, 2, 3, seed=42)
    assert blow_up(c0, 6).colors == c0.colors


def test_blow_up_preserves_constant():
    c0 = all_red(6, 3, 2)
    c = blow_up(c0, 15)
    assert set(c.colors) == {1}


# (k, n0, n) with n > n0 >= k: every pair of edges of K^k_n is checked
PADDED_CASES = [
    (2, 3, 4), (2, 3, 9), (2, 4, 7), (2, 5, 16),
    (3, 4, 9), (3, 5, 11), (3, 6, 15), (3, 7, 12),
    (4, 5, 9), (4, 6, 11), (4, 7, 10),
]


def literal_padded_index_set(e, n0, k):
    """phi(I_e) from its vertices: the parts (v-1) mod (n0-k+1) as vertices
    of {1..n0}, then the lowest reserved vertices until there are k."""
    num_parts = n0 - k + 1
    parts = sorted({(v - 1) % num_parts + 1 for v in mask_to_vertices(e)})
    return vertices_to_mask(parts + list(range(num_parts + 1, num_parts + 1 + k - len(parts))))


def test_blow_up_intersection_invariant():
    for k, n0, n in PADDED_CASES:
        edges = list(colex_edges(n, k))
        padded = [padded_index_set(e, n0, k) for e in edges]
        assert padded == [literal_padded_index_set(e, n0, k) for e in edges], (k, n0, n)
        assert set(padded) <= set(colex_edges(n0, k))
        for i, (e, pe) in enumerate(zip(edges, padded)):
            for f, pf in zip(edges[i + 1 :], padded[i + 1 :]):
                assert (e & f).bit_count() <= (pe & pf).bit_count(), (k, n0, n, e, f)


@pytest.mark.parametrize("k, n0, n", PADDED_CASES)
def test_blow_up_matches_per_edge_rank_oracle(k, n0, n):
    for r in (2, 3, 300):  # above 255 colors the colors are a tuple, not bytes
        c0 = random_coloring(n0, r, k, seed=1000 * k + 10 * n + r)
        want = [c0.colors[colex_rank(padded_index_set(e, n0, k), n0, k)] for e in colex_edges(n, k)]
        c = blow_up(c0, n)
        assert (c.n, c.k, c.r) == (n, k, r)
        assert list(c.colors) == want


def _oracle_checked_blow_up_peak(c0, n):
    """blow_up(c0, n)'s tracemalloc peak, once its colors match the per-edge rank oracle."""
    n0, k = c0.n, c0.k
    tracemalloc.start()
    try:
        c = blow_up(c0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(c.colors) == [c0.colors[colex_rank(padded_index_set(e, n0, k), n0, k)] for e in colex_edges(n, k)]
    return peak


def test_blow_up_with_many_parts_matches_the_oracle_in_bounded_memory():
    # K^2_258 -> 260: 257 parts, past a byte, so the kernel takes its list
    # path; its table is C(258, 2) profiles of 2 labels each
    peak = _oracle_checked_blow_up_peak(random_coloring(258, 3, 2, seed=1), 260)
    assert peak < 25 * 2**20, peak


def test_blow_up_frees_its_base_table_before_the_kernel():
    # a random K^4_30 base to n = 34: 27 parts, C(30, 4) = 27,405 base edges
    # and C(30, 4) label tuples; with the edge -> color dict of the base
    # still held while the kernel runs, the peak is about 9 MB
    peak = _oracle_checked_blow_up_peak(random_coloring(30, 2, 4, seed=1), 34)
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("k", [2, 3, 4])
def test_partition_coloring_matches_its_rule(k):
    # p shuffled (not interval) parts plus one label no vertex takes, and a
    # random counts -> color table drawn per edge, then handed to the kernel
    # keyed by each profile's k part labels ascending; labels from 299 up do
    # not fit a byte
    rng = random.Random(k)
    for p in (1, 2, 3, 4):
        for r in (3, 300):
            for offset in (0, 299):
                for n in range(max(k, p), 13):
                    labels = [offset + i for i in range(p + 1)]
                    labels.remove(rng.choice(labels))
                    part = [labels[v % p] for v in range(n)]
                    rng.shuffle(part)
                    masks = [
                        vertices_to_mask(v for v in range(1, n + 1) if part[v - 1] == label)
                        for label in labels
                    ]
                    table = {}

                    def rule(e):
                        counts = tuple((e & m).bit_count() for m in masks)
                        return table.setdefault(counts, rng.randint(1, r))

                    want = list(map(rule, colex_edges(n, k)))
                    profiles = {}
                    for counts, color in table.items():
                        profile = [label for label, a in zip(labels, counts) for _ in range(a)]
                        profiles[tuple(profile)] = color
                    c = _partition_coloring(k, r, part, profiles)
                    assert (c.n, c.k, c.r) == (n, k, r)
                    assert list(c.colors) == want, (k, p, r, offset, n)


@pytest.mark.parametrize("r", [2, 300])
def test_partition_coloring_refuses_a_profile_missing_from_its_table(r):
    # parts {1, 2, 3} and {4, 5, 6}: profile (0, 0, 1) occurs but has no color
    table = {(1, 1, 1): 1, (0, 1, 1): 1, (0, 0, 0): 1}
    with pytest.raises(ValueError, match=rf"^colors must lie in \[1, {r}\]$"):
        _partition_coloring(3, r, [0, 0, 0, 1, 1, 1], table)


@pytest.mark.parametrize("r", [2, 300])
def test_partition_coloring_refuses_a_negative_part_label(r):
    # r = 300 takes the list path, which indexes its tables by label, so an
    # unchecked -1 would read the last part's entries
    table = {labels: 1 for labels in combinations_with_replacement(range(2), 3)}
    with pytest.raises(ValueError, match=r"^part labels are >= 0, got -1$"):
        _partition_coloring(3, r, [0, 0, 0, 1, 1, -1], table)


def test_verify_blowup_reports_a_broken_padded_map(monkeypatch):
    # every edge through vertex 1 goes to base edge {1, 2, 3}: then {1, 2, 6}
    # and {2, 6, 10} share 2 vertices but their padded sets share only 1
    def broken(e, n0, k):
        return 0b111 if e & 1 else padded_index_set(e, n0, k)

    monkeypatch.setattr(properties, "padded_index_set", broken)
    rep = properties.verify_blowup(trials=1, seed=0)
    assert any(v["kind"] == "intersection" for v in rep["violations"])
    assert rep["pairs_checked"] == math.comb(455, 2) + math.comb(1330, 2) == 987_070


def test_blow_up_recursive_inequality_sample():
    rng = random.Random(21)
    n0, k = 6, 3
    for trial in range(10):
        r = 2 + trial % 2
        n = 15 if trial % 2 == 0 else 21
        c0 = random_coloring(n0, r, k, seed=rng.randrange(2**32))
        c = blow_up(c0, n)
        ceil_m = -(-n // (n0 - k + 1))
        for t, s in [(1, 2), (1, 3), (2, 3)]:
            lhs = measure(c, t, s).value
            rhs = sum(
                ceil_m**s * math.comb(s - 1, ell - 1) * measure(c0, t, ell).value
                for ell in range(1, s + 1)
            )
            assert lhs <= rhs


@pytest.mark.parametrize("n0, k", [(n0, k) for n0 in (5, 6, 7) for k in (3, 4)])
def test_quotient_matches_the_expanded_blow_up(n0, k):
    # every (t, s) of seeded blow-ups up to n = 30, parts of size below k
    # (classes without edges) included at n just above n0
    rng = random.Random(100 * n0 + k)
    for trial in range(12):
        r = 2 + trial % 2
        n = n0 + 1 if trial < 2 else rng.randint(n0 + 1, 30)
        c0 = random_coloring(n0, r, k, seed=rng.randrange(2**32))
        got = quotient_max_shadow_by_ts(*blow_up_rule(c0, n))
        assert got == properties._max_shadow_by_ts(blow_up(c0, n)), (n0, k, r, n)


@pytest.mark.parametrize("name", sorted(TWO_PART_RULES))
def test_quotient_matches_the_expanded_two_part_rules(name):
    build, _ = TWO_PART[name]
    for n in range(3, 31):
        assert quotient_max_shadow_by_ts(*two_part_rule(name, n)) == properties._max_shadow_by_ts(build(n)), n


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_quotient_closed_forms_at_large_n(n):
    # the closed forms measure-large pins at n = 120, at sizes whose colorings could not be built
    (a, b), table = two_part_rule("two_clique", n)
    value = quotient_max_shadow_by_ts((a, b), table)[1, 3]
    assert value == math.comb(n, 3) - math.comb(a, 3) - math.comb(b, 3)
    assert quotient_max_shadow_by_ts(*two_part_rule("majority", n))[2, 2] == math.comb(n, 2) - math.comb(n // 2, 2)
    ratio = quotient_max_shadow_by_ts(*two_part_rule("parity", n))[2, 3] / math.comb(n, 3)
    assert abs(ratio - 3 / 8) < (1e-6 if n == 10**6 else 1e-4)  # lambda_target_2323


def test_quotient_matches_the_expanded_contiguous_rules():
    # random rules on parts of 0..4 consecutive vertices, empty parts and a
    # trailing empty part included: the expansion skips labels past max(part)
    rng = random.Random(5)
    checked = 0
    for k in (2, 3, 4):
        for p in (1, 2, 3, 4):
            for trial in range(40):
                sizes = [rng.randint(0, 4) for _ in range(p)]
                if trial % 4 == 0:
                    sizes[-1] = 0
                if sum(sizes) < k:
                    continue
                r = rng.randint(1, 3)
                table = {labels: rng.randint(1, r) for labels in combinations_with_replacement(range(p), k)}
                part = [label for label, size in enumerate(sizes) for _ in range(size)]
                want = properties._max_shadow_by_ts(_partition_coloring(k, r, part, table))
                assert quotient_max_shadow_by_ts(sizes, table) == want, (k, sizes, r, table)
                checked += 1
    assert checked > 300


def _singleton_rule(c):
    # the coloring as a rule with one part per vertex: vertex v has label v - 1
    labels = (tuple(v - 1 for v in mask_to_vertices(e)) for e in colex_edges(c.n, c.k))
    return (1,) * c.n, dict(zip(labels, c.colors))


def test_quotient_of_singleton_parts_is_the_coloring_itself():
    # with one vertex per part, the copy-vertex k-graph of each color is that
    # color's own edges, every copy past the first having no vertex set
    rng = random.Random(8)
    for k in (2, 3, 4):
        for trial in range(15):
            n, r = rng.randint(k, 8), rng.randint(1, 3)
            c = random_coloring(n, r, k, seed=rng.randrange(2**32))
            assert quotient_max_shadow_by_ts(*_singleton_rule(c)) == properties._max_shadow_by_ts(c), (n, r, k)


def test_quotient_of_thirty_parts_runs_in_bounded_memory():
    # 4,960 classes on 90 copy vertices: the run kernels' tables peak near
    # 1 MB, where one mask per class over every subprofile needs about 6 MB
    sizes, table = _singleton_rule(random_coloring(30, 2, 3, seed=1))
    tracemalloc.start()
    try:
        quotient_max_shadow_by_ts(sizes, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_quotient_checks_keys_without_listing_every_class():
    # 150 empty parts add C(154, 3) classes of 152 labels, none of them in the
    # table; listing them all to name stray keys peaks near 56 MB
    table = {labels: 1 + i % 2 for i, labels in enumerate(combinations_with_replacement(range(3), 3))}
    want = quotient_max_shadow_by_ts((2, 2, 2), table)
    tracemalloc.start()
    try:
        got = quotient_max_shadow_by_ts((2, 2, 2) + (0,) * 150, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2**20, peak


# on parts {1, 2, 3} and {4, 5, 6}: (0, 0, 1) occurs but has no color, and
# (1, 0, 0) and (1, 1, 0) are not ascending
MISSING = {(0, 0, 0): 1, (0, 1, 1): 2, (1, 1, 1): 1}
UNSORTED = {(0, 0, 0): 1, (1, 0, 0): 2, (1, 1, 0): 2, (1, 1, 1): 1}
REFUSED_RULES = {
    "missing profile": (lambda: quotient_max_shadow_by_ts((3, 3), MISSING), r"profile \(0, 0, 1\) has edges"),
    "non-ascending key": (lambda: quotient_max_shadow_by_ts((3, 3), UNSORTED), r"stray keys \[\(1, 0, 0\), \(1, 1, 0\)\]"),
    "non-ascending key, expanded": (lambda: _partition_coloring(3, 2, [0, 0, 0, 1, 1, 1], UNSORTED), "ascending 3-tuples"),
    "key past the parts": (lambda: quotient_max_shadow_by_ts((3, 3), {**MISSING, (0, 0, 2): 1}), r"\(0, 0, 2\)"),
    "empty table": (lambda: quotient_max_shadow_by_ts((3, 3), {}), "got k = 0"),
    "fewer vertices than k": (lambda: quotient_max_shadow_by_ts((1, 1), MISSING), r"2 <= k <= n = 2; got k = 3"),
    "negative part size": (lambda: quotient_max_shadow_by_ts((4, -1, 3), MISSING), r"^part sizes are >= 0, got -1$"),
    "empty table, expanded": (lambda: _partition_coloring(3, 2, [0, 0, 0, 1, 1, 1], {}), "colors must lie"),
    "blow-up rule at n0": (lambda: blow_up_rule(random_coloring(6, 2, 3, seed=0), 6), r"needs n > n0 = 6"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_RULES))
def test_a_rule_off_the_table_contract_is_refused(name):
    call, message = REFUSED_RULES[name]
    with pytest.raises(ValueError, match=message):
        call()


def test_blow_up_argument_errors():
    c0 = all_red(6, 3, 2)
    with pytest.raises(ValueError):
        blow_up(c0, 5)


def test_constructions_respect_general_lower_bound():
    for c in (majority_coloring(8), parity_coloring(8), two_clique_coloring(8)):
        for t in (1, 2):
            for s in (1, 2, 3):
                assert measure(c, t, s).value >= bounds.general_lower_bound(
                    8, 2, 3, t, s
                ) - 1e-9


def test_steiner_coloring_affine_plane():
    ap = affine_plane(3)
    c = steiner_coloring(ap, ap.parallel_classes(), t=1)
    assert c.r == 4
    for col in range(1, 5):
        h = c.color_class(col)
        for comp in t_tight_components(h, 1):
            verts = 0
            for i in comp:
                verts |= h.edges[i]
            assert verts.bit_count() == 3
            assert len(comp) == 3


def test_steiner_coloring_past_61_vertices():
    # AG(2, 11) has 121 vertices; every pair takes the class of its one line
    ap = affine_plane(11)
    c = steiner_coloring(ap, ap.parallel_classes(), t=1)
    expected = [0] * math.comb(121, 2)
    for block, ci in zip(ap.blocks, ap.class_of):
        for pair in combinations(mask_to_vertices(block), 2):
            expected[colex_rank(pair, 121, 2)] = ci + 1
    assert list(c.colors) == expected


def test_steiner_coloring_components_are_block_cliques():
    d = builtin_design("s348")
    classes, _ = partition_blocks(d, 1, order="complement-paired")
    c = steiner_coloring(d, classes, t=1)
    block_sets = {b for b in d.blocks}
    for col in range(1, c.r + 1):
        h = c.color_class(col)
        for comp in t_tight_components(h, 1):
            verts = 0
            for i in comp:
                verts |= h.edges[i]
            assert verts in block_sets
            assert len(comp) == math.comb(4, 3)


def test_steiner_coloring_rejects_conflicting_class():
    d = builtin_design("fano")
    # all blocks in one class: any two Fano lines share a vertex
    with pytest.raises(ValueError):
        steiner_coloring(d, [list(range(7))], t=1)
    # each block in one class, block 6 missing or given twice
    for classes in ([[i] for i in range(6)], [[i] for i in range(7)] + [[6]]):
        with pytest.raises(ValueError, match="^classes must partition the block list$"):
            steiner_coloring(d, classes, t=1)


@pytest.mark.parametrize("t", [0, 3])
def test_steiner_coloring_rejects_t_outside_1_to_k(t):
    # the parallel classes are conflict-free at every t, so only the range check refuses
    ap = affine_plane(5)
    with pytest.raises(ValueError, match=rf"need 1 <= t <= k, got t={t}, k=2"):
        steiner_coloring(ap, ap.parallel_classes(), t=t)


@pytest.mark.parametrize("name", sorted(TWO_PART))
def test_small_n_errors(name):
    build, _ = TWO_PART[name]
    with pytest.raises(ValueError, match="^n must be at least 3$"):
        build(2)
