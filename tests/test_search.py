import hashlib
import math
import random
import tracemalloc
from itertools import product

import pytest

from monotight import bounds, search
from monotight.constructions import all_red, majority_coloring, parity_coloring
from monotight.core import Coloring, colex_edges, measure
from monotight.search import exact_M, random_coloring, verify_r2a


def brute_force_M(n: int, r: int, k: int, t: int, s: int) -> int:
    """Raw enumeration over all r^m colorings; the oracle for small instances."""
    search._check_args(n, r, k, t, s)
    best = None
    for assignment in product(range(1, r + 1), repeat=math.comb(n, k)):
        val = measure(Coloring(n, k, r, list(assignment)), t, s).value
        if best is None or val < best:
            best = val
    return best


def test_exact_paper_values_small():
    assert exact_M(5, 2, 3, 1, 1).value == 5
    assert exact_M(6, 2, 3, 2, 2).value == 12


def test_exact_single_color():
    res = exact_M(6, 1, 3, 1, 2)
    assert res.value == math.comb(6, 2)
    assert res.status == "exact"
    # the single coloring is one node, so a budget of one still proves
    res = exact_M(6, 1, 3, 1, 2, budget=1)
    assert (res.value, res.status, res.nodes_explored) == (math.comb(6, 2), "exact", 1)
    assert res.witness == all_red(6, 3, 1)


def test_exact_matches_brute_force_oracle():
    # instances small enough to enumerate raw (<= 12 edges)
    cases = [
        (4, 2, 3, 1, 1),
        (4, 2, 3, 2, 2),
        (4, 2, 3, 2, 3),
        (4, 3, 3, 1, 2),
        (5, 2, 4, 1, 2),
        (5, 2, 4, 2, 2),
        (5, 2, 2, 1, 1),
        # k = 4 with s < t
        (5, 2, 4, 3, 1),
        (5, 2, 4, 3, 2),
        (5, 3, 4, 2, 1),
        (5, 3, 4, 3, 2),
        # two colors outside 2*max(t, s) <= k, where M(n, 2, k, t, s) < C(n, s)
        (5, 2, 3, 2, 2),
        (5, 2, 3, 1, 2),
        (5, 2, 4, 2, 3),
        (6, 2, 5, 1, 3),
    ]
    for n, r, k, t, s in cases:
        assert math.comb(n, k) <= 12
        assert exact_M(n, r, k, t, s).value == brute_force_M(n, r, k, t, s)


def test_witness_soundness():
    for n, r, k, t, s in [(5, 2, 3, 1, 2), (5, 3, 3, 2, 2), (6, 2, 3, 2, 1)]:
        res = exact_M(n, r, k, t, s)
        assert measure(res.witness, t, s).value == res.value


def test_sandwich_invariant():
    for n, t, s in [(5, 1, 2), (6, 2, 2), (5, 2, 3)]:
        res = exact_M(n, 2, 3, t, s)
        assert res.value >= bounds.general_lower_bound(n, 2, 3, t, s) - 1e-9
        for c in (all_red(n, 3, 2), majority_coloring(n), parity_coloring(n)):
            assert res.value <= measure(c, t, s).value


def test_budget_exhaustion():
    res = exact_M(6, 2, 3, 2, 2, budget=10)
    assert res.status == "budget-exhausted"
    assert res.nodes_explored <= 10
    # even then the reported value is a valid upper bound with a witness
    assert measure(res.witness, 2, 2).value == res.value


@pytest.mark.parametrize("inst", [(6, 3, 3, 2, 2), (5, 3, 3, 2, 2)])
def test_budget_is_never_overshot(inst):
    # the budget is checked before every node, siblings after a backtrack too
    exact = exact_M(*inst).value
    t, s = inst[3:]
    for budget in range(1, 400):
        res = exact_M(*inst, budget=budget)
        assert res.nodes_explored <= budget
        assert res.value >= exact
        assert measure(res.witness, t, s).value == res.value


@pytest.mark.parametrize(
    "inst, budget, expected",
    [
        ((5, 2, 3, 1, 2), None, (9, "exact", 265)),
        ((5, 3, 3, 2, 2), None, (7, "exact", 720)),
        ((6, 2, 3, 2, 1), None, (6, "exact", 2849)),
        ((5, 2, 4, 1, 2), None, (10, "exact", 19)),
        ((6, 2, 3, 2, 2), 10, (12, "budget-exhausted", 10)),
        ((7, 2, 3, 2, 3), 20000, (17, "budget-exhausted", 20000)),
        ((6, 2, 3, 2, 3), None, (9, "exact", 48875)),
        ((6, 2, 3, 1, 3), None, (10, "exact", 184755)),
        ((6, 3, 3, 2, 2), None, (9, "exact", 95952)),
        # the default r2a cases, with (5, 2, 4, 1, 2) above
        ((5, 2, 4, 1, 1), None, (5, "exact", 5)),
        ((6, 2, 4, 1, 2), None, (15, "exact", 2423)),
        ((6, 2, 4, 2, 2), None, (15, "exact", 2423)),
        ((5, 2, 2, 1, 1), None, (5, "exact", 227)),
        ((6, 2, 2, 1, 1), None, (6, "exact", 3415)),
        # a budget equal to the proof's node count still proves
        ((5, 2, 3, 1, 2), 265, (9, "exact", 265)),
        # a color already split into several components, or splitting at the
        # node, at 53% and 38% of these nodes
        ((7, 3, 3, 2, 2), 100000, (11, "budget-exhausted", 100000)),
        ((6, 4, 3, 2, 2), None, (5, "exact", 418)),
    ],
)
def test_search_tree_node_counts(inst, budget, expected):
    # the node count pins the search tree: color order, pruning and budget
    res = exact_M(*inst, budget=budget)
    assert (res.value, res.status, res.nodes_explored) == expected


@pytest.mark.parametrize(
    "inst, budget, sha256",
    [
        ((6, 2, 3, 2, 3), None, "bb4351a62069a98cc02f4596af7c4ab97357d86cf6c2b52c05c2f3ce981ee61c"),
        ((6, 2, 3, 1, 3), None, "c3bc5251ba7fe659d6acd226e7c409f692d1b443f9da0c64c080b134ea92ea9f"),
        ((6, 3, 3, 2, 2), None, "49d16c63ad705e61400cb80bc02e4a0c6147d711ff7678dc2174f9e53523e61a"),
        ((7, 2, 3, 2, 3), 20000, "7f026fad2f9285001867aaa1d1561d1b38ca18c56db4350d8614e6f2571d15d1"),
        ((7, 3, 3, 2, 2), 100000, "3e541d075a347983014ac7169e0080dd506e43e4a8e6fc62162fa9fedd126e5c"),
        ((6, 4, 3, 2, 2), None, "4939fc584ec2f30fb0ab8594305510689906cba322bfa85d2e8d5f099462daba"),
        # one row per component encoding: s < t, s == t (the graph case), t < s < k
        ((6, 2, 3, 2, 1), None, "9b8f65607d891ebc9ee18add4f866748456ebce2d8f0bd9c9a8e508871617f27"),
        ((6, 2, 2, 1, 1), None, "69801b353a8f248b5399788172cf8a7758625782651ae1e8b733fd3f5cd875a8"),
        ((5, 2, 3, 1, 2), None, "920aaaf0652473e9dc5d08a1cbc04154b503ec37a1d3ba311b151eace50d4699"),
    ],
)
def test_search_witness_colorings(inst, budget, sha256):
    # the witness pins the order of leaves and incumbent updates, which the
    # node count alone does not
    res = exact_M(*inst, budget=budget)
    assert hashlib.sha256(bytes(res.witness.colors)).hexdigest() == sha256
    assert measure(res.witness, *inst[3:]).value == res.value


@pytest.mark.parametrize("budget", [0, -3])
@pytest.mark.parametrize("inst", [(6, 3, 3, 2, 2), (5, 2, 3, 1, 2), (5, 1, 3, 1, 2)])
def test_budget_at_most_zero_explores_no_node(inst, budget):
    res = exact_M(*inst, budget=budget)
    assert (res.nodes_explored, res.status) == (0, "budget-exhausted")
    assert measure(res.witness, *inst[3:]).value == res.value


@pytest.mark.parametrize(
    "inst",
    [
        (4, 0, 3, 1, 1),
        (4, -1, 3, 1, 1),
        (2, 2, 3, 1, 1),
        (4, 2, 1, 1, 1),
        (4, 2, 3, 0, 1),
        (4, 2, 3, 3, 1),
        (4, 2, 3, 1, 0),
        (4, 2, 3, 1, 4),
    ],
)
def test_oracle_and_search_refuse_the_same_inputs(inst):
    with pytest.raises(ValueError) as oracle:
        brute_force_M(*inst)
    with pytest.raises(ValueError) as searched:
        exact_M(*inst)
    assert str(oracle.value) == str(searched.value)


@pytest.mark.parametrize("n, k, t, s", [(4, 3, 1, 1), (5, 3, 2, 2), (4, 2, 1, 2), (3, 3, 1, 1)])
@pytest.mark.parametrize("budget", [None, 5])
def test_colors_above_the_edge_count_search_as_the_edge_count(n, k, t, s, budget):
    # at most C(n, k) colors occur, so every r >= C(n, k) gives the result of
    # r = C(n, k); only the witness keeps r
    m = math.comb(n, k)
    base = exact_M(n, m, k, t, s, budget=budget)
    for r in (m + 1, m + 7, 300, 10**6):
        res = exact_M(n, r, k, t, s, budget=budget)
        assert (res.value, res.status, res.nodes_explored) == (
            base.value, base.status, base.nodes_explored
        )
        assert list(res.witness.colors) == list(base.witness.colors)
        assert res.witness.r == r


def test_search_cost_does_not_grow_with_r():
    tracemalloc.start()
    try:
        res = exact_M(4, 10**5, 3, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.value, res.nodes_explored, list(res.witness.colors)) == (3, 10, [1, 2, 3, 4])
    assert res.witness.r == 10**5
    assert peak < 200_000  # bytes; a list per color would take megabytes


def test_budgeted_large_search_holds_no_table_per_edge_pair():
    # components are keyed by their t-shadow, so the tables hold C(n, t) +
    # C(n, s) bits per edge, not a mask over the C(30, 3) = 4060 edges
    tracemalloc.start()
    try:
        res = exact_M(30, 2, 3, 1, 1, budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.status, res.nodes_explored) == ("budget-exhausted", 1000)
    assert measure(res.witness, 1, 1).value == res.value
    assert peak < 1_500_000  # bytes


def test_parameter_errors():
    with pytest.raises(ValueError):
        exact_M(5, 2, 3, 3, 1)
    with pytest.raises(ValueError):
        exact_M(5, 2, 3, 1, 4)
    with pytest.raises(ValueError):
        exact_M(2, 2, 3, 1, 1)


def test_random_coloring_deterministic():
    a = random_coloring(8, 3, 3, seed=123)
    b = random_coloring(8, 3, 3, seed=123)
    assert a.colors == b.colors
    c = random_coloring(8, 3, 3, seed=124)
    assert a.colors != c.colors


@pytest.mark.parametrize("r", [1, 2, 3, 4, 7, 8, 255, 256, 300])
def test_random_coloring_draws_what_randint_draws(r):
    # the colors are drawn by getrandbits with rejection; they must stay
    # exactly the values randint(1, r) gives from the same seed
    for n, k, seed in [(3, 2, 0), (6, 3, 1), (8, 4, 2**63 - 1), (9, 2, 12345), (12, 3, 7)]:
        rng = random.Random(seed)
        want = [rng.randint(1, r) for _ in range(math.comb(n, k))]
        assert list(random_coloring(n, r, k, seed).colors) == want, (n, k, seed)


def test_random_coloring_histogram_5_sigma():
    r = 2
    m = math.comb(12, 3)
    c = random_coloring(12, r, 3, seed=7)
    ones = sum(1 for x in c.colors if x == 1)
    mean = m / r
    sigma = math.sqrt(m * (1 / r) * (1 - 1 / r))
    assert abs(ones - mean) <= 5 * sigma


def test_random_colorings_respect_lower_bound():
    for seed in range(50):
        c = random_coloring(9, 3, 3, seed=seed)
        for t in (1, 2):
            for s in (1, 2, 3):
                assert measure(c, t, s).value >= bounds.general_lower_bound(
                    9, 3, 3, t, s
                ) - 1e-9


def test_verify_r2a_small_cases():
    assert verify_r2a(5, 4, 1, 2)["pass"]
    assert verify_r2a(5, 2, 1, 1)["pass"]


def test_verify_r2a_hypothesis_enforced():
    with pytest.raises(ValueError):
        verify_r2a(6, 3, 2, 2)


def test_verify_r2a_range_errors_name_the_rule():
    with pytest.raises(ValueError, match="need 1 <= t <= k-1, got t=0, k=4"):
        verify_r2a(6, 4, 0, 2)
    with pytest.raises(ValueError, match="need 1 <= s <= k, got s=0, k=4"):
        verify_r2a(6, 4, 1, 0)
    with pytest.raises(ValueError, match="need 2 <= k <= n, got k=4, n=3"):
        verify_r2a(3, 4, 1, 2)


def test_verify_r2a_refuses_more_than_25_edges():
    # C(8, 2) = 28 is the smallest valid case above the cap of 2^24 colorings
    with pytest.raises(ValueError, match="C\\(8,2\\) = 28"):
        verify_r2a(8, 2, 1, 1)
    with pytest.raises(ValueError, match="exceeds 25"):
        verify_r2a(8, 4, 1, 2)


# the default r2a cases with at most 15 edges, then cases outside 2*max(t, s) <= k
R2A_GRID = [
    (5, 4, 1, 1),
    (5, 4, 1, 2),
    (6, 4, 1, 2),
    (6, 4, 2, 2),
    (5, 2, 1, 1),
    (6, 2, 1, 1),
    (5, 3, 2, 2),
    (5, 3, 1, 2),
    (5, 4, 2, 3),
    (4, 3, 2, 3),
    (6, 5, 1, 3),
]


@pytest.mark.parametrize("n, k, t, s", [*R2A_GRID, (7, 3, 2, 3), (12, 4, 2, 2), (46, 2, 1, 2)])
def test_edge_tables_match_their_definitions(n, k, t, s):
    adj, shade = search._edge_tables(n, k, t, s)
    masks = list(colex_edges(n, k))
    t_sets = list(colex_edges(n, t))
    s_sets = list(colex_edges(n, s))
    assert len(adj) == len(shade) == len(masks)
    for e, near, covered in zip(masks, adj, shade):
        assert near == sum(1 << j for j, f in enumerate(t_sets) if f & e == f)
        assert covered == sum(1 << j for j, f in enumerate(s_sets) if f & e == f)


@pytest.mark.parametrize(
    "case, expected",
    # (M(n, 2, k, t, s), C(n, s))
    [
        ((5, 3, 2, 2), (9, 10)),
        ((5, 3, 1, 2), (9, 10)),
        ((5, 4, 2, 3), (9, 10)),
        ((4, 3, 2, 3), (2, 4)),
        ((6, 5, 1, 3), (19, 20)),
    ],
)
def test_r2a_first_failure_outside_hypothesis(case, expected):
    # outside 2*max(t, s) <= k some 2-coloring has no complete component:
    # M(n, 2, k, t, s) < C(n, s), and the witness is such a coloring
    n, k, t, s = case
    res = exact_M(n, 2, k, t, s)
    assert (res.value, math.comb(n, s)) == expected
    assert measure(res.witness, t, s).value == res.value


def test_verify_r2a_reports_the_witness_of_a_failed_proof(monkeypatch):
    n, k, t, s = 5, 4, 1, 2
    witness = Coloring(n, k, 2, [1, 2, 2, 1, 2])

    def short(*args, **kwargs):
        return search.SearchResult(math.comb(n, s) - 1, witness, "exact", 7, 0.0)

    monkeypatch.setattr(search, "exact_M", short)
    rep = verify_r2a(n, k, t, s)
    assert rep["pass"] is False
    assert rep["counterexample"] == list(witness.colors)
    assert rep["nodes"] == 7


def test_verify_r2a_default_cases_checked():
    reports = [
        verify_r2a(*case)
        for case in [(5, 4, 1, 1), (5, 4, 1, 2), (6, 4, 1, 2), (6, 4, 2, 2), (5, 2, 1, 1), (6, 2, 1, 1)]
    ]
    assert all(rep["pass"] and rep["counterexample"] is None for rep in reports)
    assert [rep["colorings_checked"] for rep in reports] == [16, 16, 16384, 16384, 512, 16384]
    # the exact_M node counts pinned in test_search_tree_node_counts
    assert [rep["nodes"] for rep in reports] == [5, 19, 2423, 2423, 227, 3415]
