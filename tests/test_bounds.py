import math
import random
from fractions import Fraction

import pytest

from monotight import bounds
from monotight.core import Hypergraph, colex_edges, shadow
from monotight.properties import random_edges


def test_binom_real_integer_cases():
    assert bounds.binom_real(5, 3) == pytest.approx(10)
    assert bounds.binom_real(3.5, 2) == pytest.approx(4.375)
    assert bounds.binom_real(7, 0) == 1
    with pytest.raises(ValueError):
        bounds.binom_real(5, -1)


def test_binom_real_strictly_increasing():
    for s in (2, 3, 5):
        prev = bounds.binom_real(s, s)
        x = s + 0.1
        while x < 40:
            cur = bounds.binom_real(x, s)
            assert cur > prev
            prev = cur
            x += 0.1


def test_kk_root_examples():
    assert bounds.kk_root(10, 3) == pytest.approx(5.0, abs=1e-11)
    for k in (1, 2, 3, 6):
        assert bounds.kk_root(1, k) == pytest.approx(k, abs=1e-11)
    x = bounds.kk_root(7, 3)
    assert abs(x * (x - 1) * (x - 2) - 42) < 1e-10
    with pytest.raises(ValueError):
        bounds.kk_root(0.5, 3)


def test_kk_root_inverts_binom_real_on_integers():
    for k in (2, 3, 4):
        for x in range(k, 41):
            m = math.comb(x, k)
            assert bounds.kk_root(m, k) == pytest.approx(x, abs=1e-9)


@pytest.mark.parametrize("m, k", [(10_000, 1), (100_000_000, 2)])
def test_kk_root_past_float_spacing(m, k):
    # the root is past 4,500, where 1e-12 is below one float spacing
    root = bounds.kk_root(m, k)
    assert bounds.binom_real(root, k) == pytest.approx(m, rel=1e-9)


@pytest.mark.parametrize("m, k", [(20, 171), (10**6, 170)])
def test_kk_root_where_the_factorial_leaves_float_range(m, k):
    # k! and the partial products of (x - i) pass 1.8e308; the root does not
    root = bounds.kk_root(m, k)
    assert k < root < k + 4
    assert bounds.binom_real(root, k) == pytest.approx(m, rel=1e-9)


def bisected_kk_root(m, k):
    """The reference for kk_root's Newton iteration: the root bracketed by
    doubling from [k, k + 1], then bisected to width 1e-12.

    For k >= 50 it bisects log C(x, k) from `math.lgamma` against log m, at
    O(1) per step instead of binom_real's k products. For small k the root
    of a large m is a large x, where the lgamma terms cancel (off by 7e-6
    relative at k = 3, m = 10**30), so there it bisects binom_real itself.
    """
    if k >= 50:
        log_m = math.log(m)
        lgamma = math.lgamma

        def fun(x):
            return lgamma(x + 1) - lgamma(k + 1) - lgamma(x - k + 1) - log_m

    else:

        def fun(x):
            return bounds.binom_real(x, k) - m

    hi = float(k) + 1.0
    while fun(hi) < 0:
        hi = k + 2 * (hi - k)
    return bounds._bisect_root(fun, float(k), hi, 1e-12)


def test_bisect_root_refuses_an_interval_without_a_sign_change():
    # x^2 + 1 > 0 at both ends (and everywhere): nothing to halve toward
    with pytest.raises(ValueError, match="^root not bracketed$"):
        bounds._bisect_root(lambda x: x * x + 1, -1.0, 2.0, 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 50, 170, 171])
def test_kk_root_matches_bisection(k):
    for m in [*range(1, 2001), 10**6, 10**12, 10**30]:
        assert bounds.kk_root(m, k) == pytest.approx(bisected_kk_root(m, k), rel=1e-12, abs=0), m


def test_kk_root_of_an_int_past_float_range():
    # C(x, 3) = 10**400 at x near (6 * 10**400) ** (1/3)
    root = bounds.kk_root(10**400, 3)
    assert root == pytest.approx(3.9148676411688e133, rel=1e-12)
    assert bounds.kk_shadow_bound(10**400, 3, 1) == root
    assert bounds.kk_root(math.inf, 3) == math.inf
    with pytest.raises(ValueError):
        bounds.kk_root(math.nan, 3)


def test_kk_root_refuses_k_past_its_limit():
    with pytest.raises(ValueError, match=f"k must lie in \\[1, {bounds.KK_MAX_K}\\]"):
        bounds.kk_root(20, bounds.KK_MAX_K + 1)


def test_kk_shadow_bound_examples():
    assert bounds.kk_shadow_bound(10, 3, 2) == pytest.approx(10, abs=1e-9)
    for n, k, s in [(7, 3, 2), (9, 4, 2), (10, 3, 1)]:
        assert bounds.kk_shadow_bound(math.comb(n, k), k, s) == pytest.approx(
            math.comb(n, s), abs=1e-8
        )


def test_kk_shadow_bound_dominated_by_real_shadows():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(4, 10)
        g = Hypergraph(n, 3, random_edges(rng, colex_edges(n, 3)))
        for s in (1, 2, 3):
            actual = len(shadow(g, s))
            assert actual >= bounds.kk_shadow_bound(len(g.edges), 3, s) - 1e-9


def test_general_lower_bound_values():
    assert bounds.general_lower_bound(9, 4, 2, 1, 1) == pytest.approx(2.25)
    assert bounds.general_lower_bound(10, 1, 3, 1, 2) == math.comb(10, 2)
    assert bounds.general_lower_bound(8, 7, 3, 1, 1) == pytest.approx(8 / math.sqrt(7))


def test_general_lower_bound_past_float_range_of_r():
    # r = 10^400 does not fit a float; the bound is 4 * 10^-200, which does
    value = bounds.general_lower_bound(4, 10**400, 3, 1, 1)
    assert value == pytest.approx(4e-200)
    assert bounds.evaluate_bound("general_lower", n=4, r=10**400, k=3, t=1, s=1)["value"] == value
    # where r fits a float the value is the plain power, bit for bit
    for r in (1, 2, 3, 7, 10**6):
        for k, t, s in ((3, 1, 1), (3, 2, 3), (4, 1, 3), (4, 3, 2)):
            assert bounds.general_lower_bound(9, r, k, t, s) == r ** (-s / (k - t)) * math.comb(9, s)


def test_density_component_bound_endpoints():
    assert bounds.density_component_bound(8, 3, 1, 2, 1.0) == math.comb(8, 2)
    assert bounds.density_component_bound(8, 3, 1, 2, 0.0) == 0
    with pytest.raises(ValueError):
        bounds.density_component_bound(8, 3, 1, 2, 1.5)


def test_fg_vertex_bound():
    assert bounds.fg_vertex_bound(9, 4, 2) == (3, 3.0)
    assert bounds.fg_vertex_bound(10, 1, 3) == (1, 10.0)
    assert bounds.fg_vertex_bound(16, 5, 3) == (2, 8.0)
    with pytest.raises(ValueError, match="^k must be at least 2$"):
        bounds.fg_vertex_bound(9, 4, 1)


def _fg_sum(q, k):
    return sum(q**i for i in range(k))


@pytest.mark.parametrize("k", range(2, 71))
def test_fg_vertex_bound_q_is_minimal(k):
    # r = 2^(k-1) is the least r whose bit length reaches k, where the
    # search range grows from [1, 2] to [1, r]
    edges = [2 ** (k - 1) - 1, 2 ** (k - 1), 2 ** (k - 1) + 1, 2**k - 1]
    for r in [*(range(1, 2001) if k < 7 else ()), 10**9, 10**18, *edges]:
        q, _ = bounds.fg_vertex_bound(9, r, k)
        assert _fg_sum(q, k) >= r and (q == 1 or _fg_sum(q - 1, k) < r), (r, k, q)


def test_fg_vertex_bound_extremes():
    assert bounds.fg_vertex_bound(9, 10**9, 2)[0] == 10**9 - 1
    assert bounds.fg_vertex_bound(9, 10**18, 3)[0] == 10**9
    assert bounds.fg_vertex_bound(9, 5, 10**18)[0] == 1  # k >= r
    assert bounds.fg_vertex_bound(9, 10**18, 10**17)[0] == 2  # 2^(k-1) > r


def test_asymptotic_upper_scales_lower():
    for n, r, k, t, s in [(9, 4, 2, 1, 1), (12, 3, 4, 2, 3), (20, 5, 3, 1, 2)]:
        for eps in (0.1, 0.5, 1.0):
            lo = bounds.general_lower_bound(n, r, k, t, s)
            hi = bounds.asymptotic_upper_bound(n, r, k, t, s, eps)
            assert lo <= hi
            assert hi / lo == pytest.approx(1 + eps)
    with pytest.raises(ValueError):
        bounds.asymptotic_upper_bound(9, 4, 2, 1, 1, 0)


def test_reference_bounds():
    table = bounds.reference_bounds(12, 3)
    assert table["spanning_vertices"] == pytest.approx(6)
    assert table["component_edges"] == pytest.approx(66 / 7.25)
    table = bounds.reference_bounds(9, 4)
    assert table["spanning_vertices"] == pytest.approx(3)
    assert bounds.reference_bounds(10, 2)["component_edges"] == pytest.approx(
        math.comb(10, 2) / 3.25
    )
    with pytest.raises(ValueError, match="^r must be at least 2$"):
        bounds.reference_bounds(10, 1)


def test_special_constants_residuals():
    sc = bounds.special_constants()
    assert sc["x0"] == pytest.approx((math.sqrt(21) - 3) / 2, abs=1e-13)
    assert abs(2 * sc["x0"] ** 3 + (1 - sc["x0"]) ** 3 - 1) < 1e-12
    assert abs(sc["lambda_2313"] - (6 * math.sqrt(21) - 27)) < 1e-13
    assert abs(sc["lambda_2313"] - (1 - sc["x0"] ** 3 - (1 - sc["x0"]) ** 3)) < 1e-12
    assert abs((1 - sc["z_root"]) ** 3 - sc["z_root"]) < 1e-12
    assert 0.3176 <= sc["z_root"] <= 0.3178
    assert Fraction(sc["lambda_target_2323"]) == Fraction(3, 8)


# optimize_2323's value and minimizer as the grid-and-golden-section search
# computed them before the closed form replaced it
PINNED_MINMAX = 0.24092126589209284
PINNED_ARGMIN = (0.9119379945687243, 0.6823278038280194)
_GOLD = (math.sqrt(5) - 1) / 2


def _branches(x, y):
    x3 = x**3
    return y**3 * x3, (1 - y) * x3, (1 - (1 - x) ** 3 - y * x3) / 2


def _objective(x, y):
    return max(_branches(x, y))


def _golden_min(fun, a, b, iters=120):
    c, d = b - _GOLD * (b - a), a + _GOLD * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLD * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLD * (b - a)
            fd = fun(d)
    return (a + b) / 2


def numeric_minmax(step):
    """The min-max by search: the best point of a grid with this step over
    x in [0.5, 1], y in [0, 1], then golden section in x around it with an
    inner golden section in y (the objective is unimodal in each).

    Returns the grid minimum and the refined (x, y, value)."""
    grid_min, bx = min(
        (_objective(0.5 + i * step, j * step), 0.5 + i * step)
        for i in range(round(0.5 / step) + 1)
        for j in range(round(1 / step) + 1)
    )

    def best_y(x):
        return _golden_min(lambda y: _objective(x, y), 0.0, 1.0)

    x = _golden_min(lambda x: _objective(x, best_y(x)), max(0.5, bx - 2 * step), min(1.0, bx + 2 * step))
    y = best_y(x)
    return grid_min, (x, y, _objective(x, y))


def test_optimize_2323():
    x, y, value = bounds.optimize_2323()
    assert abs(value - PINNED_MINMAX) <= 1e-12
    assert abs(x - PINNED_ARGMIN[0]) <= 1e-12 and abs(y - PINNED_ARGMIN[1]) <= 1e-12
    assert value == bounds._minmax_objective(x, y)
    assert bounds._minmax_objective(1.0, 1.0) == pytest.approx(1.0)  # corner of the box
    f1, f2, f3 = _branches(x, y)
    assert abs(f1 - f2) <= 1e-12 and abs(f2 - f3) <= 1e-12
    sc = bounds.special_constants()
    assert (sc["minmax_argmin"], sc["minmax_2323"]) == ([x, y], value)
    assert y == 1 - sc["z_root"]
    assert sc["z_root"] == bounds._z_root()
    # every float that `monotight constants` prints, bit for bit
    assert [repr(v) for v in (sc["x0"], sc["lambda_2313"], sc["z_root"], sc["minmax_2323"], *sc["minmax_argmin"])] == [
        "0.7912878474779199",
        "0.49545416973504075",
        "0.31767219617197995",
        "0.240921265892094",
        "0.9119379945687249",
        "0.68232780382802",
    ]


def test_optimize_2323_against_numeric_search():
    x, y, value = bounds.optimize_2323()
    grid_min, (nx, ny, nvalue) = numeric_minmax(0.005)
    assert value <= grid_min
    assert abs(nx - x) <= 1e-9 and abs(ny - y) <= 1e-9
    assert abs(nvalue - value) <= 1e-12
    for dx in (-1e-6, 0, 1e-6):
        for dy in (-1e-6, 0, 1e-6):
            assert _objective(x + dx, y + dy) >= value


def test_evaluate_bound_dispatch():
    rep = bounds.evaluate_bound("general_lower", n=9, r=4, k=2, t=1, s=1)
    assert rep["value"] == pytest.approx(2.25)
    rep = bounds.evaluate_bound("fg_vertex", n=9, r=4, k=2)
    assert rep["params"]["q"] == 3
    with pytest.raises(ValueError):
        bounds.evaluate_bound("nope")
    with pytest.raises(ValueError):
        bounds.evaluate_bound("general_lower", n=9)
