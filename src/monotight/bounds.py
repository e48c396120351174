"""Closed-form bounds, generalized binomials, root solvers, and the
two-coloring min-max point.

All bounds are returned as reals and never rounded; comparison layers are
expected to apply their own slack.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import _check_r, _check_s, _check_tsk

# the largest k kk_root takes: each of its Newton steps sums 2k terms
KK_MAX_K = 100_000


def binom_real(x: float, s: int) -> float:
    """Generalized binomial (x)(x-1)...(x-s+1)/s! for real x, as a product of (x-i)/(s-i)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    prod = 1.0
    for i in range(s):
        prod *= (x - i) / (s - i)
    return prod


def kk_root(m: float, k: int) -> float:
    """The unique x >= k with binom_real(x, k) = m, for m >= 1 and k <= KK_MAX_K.

    Newton's method on f(d) = sum_{j=1..k} log1p(d/j) - log(m), where
    x = k + d, so an int m past the float range still has a root. f is
    increasing and concave for d > -1, so Newton steps from below rise
    towards the root without passing it. The start is the AM-GM lower bound
    C(x, k) <= (x - (k-1)/2)^k / k!, that is x >= (k! m)^(1/k) + (k-1)/2.
    The iteration stops at the first step that does not raise d.
    """
    if not m >= 1:
        raise ValueError("m must be at least 1")
    if not 1 <= k <= KK_MAX_K:
        raise ValueError(f"k must lie in [1, {KK_MAX_K}], got {k}")
    log_m = math.log(m)
    if log_m == math.inf:
        return math.inf
    d = max(0.0, math.exp((math.lgamma(k + 1) + log_m) / k) + (k - 1) / 2 - k)
    js = range(1, k + 1)
    while True:
        f = sum(math.log1p(d / j) for j in js) - log_m
        step = f / sum(1 / (j + d) for j in js)
        if not d - step > d:
            return k + d
        d -= step


def kk_shadow_bound(m: int, k: int, s: int) -> float:
    """Shadow lower bound: a k-graph with m edges has at least this many
    s-subsets covered by its edges."""
    _check_s(k, s)
    return binom_real(kk_root(m, k), s)


def general_lower_bound(n: int, r: int, k: int, t: int, s: int) -> float:
    """r^(-s/(k-t)) * C(n, s): valid for every r-coloring of K^k_n."""
    _check_tsk(k, t, s)
    _check_r(r)
    try:
        scale = r ** (-s / (k - t))
    except OverflowError:  # r does not fit a float; the power still does
        scale = math.exp(-s / (k - t) * math.log(r))
    return scale * math.comb(n, s)


def density_component_bound(n: int, k: int, t: int, s: int, delta: float) -> float:
    """delta^(s/(k-t)) * C(n, s): some t-tight component of any k-graph with
    at least delta*C(n,k) edges has an s-shadow this large."""
    _check_tsk(k, t, s)
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    return delta ** (s / (k - t)) * math.comb(n, s)


def asymptotic_upper_bound(n: int, r: int, k: int, t: int, s: int, eps: float) -> float:
    """(1+eps) * r^(-s/(k-t)) * C(n, s)."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    return (1 + eps) * general_lower_bound(n, r, k, t, s)


def fg_vertex_bound(n: int, r: int, k: int) -> tuple[int, float]:
    """Smallest q with r <= q^(k-1) + ... + q + 1, and the vertex bound n/q.

    q is bisected over [1, r], where the sum grows with q and reaches r by
    q = r, or over [1, 2] once k > r.bit_length(): then 2^(k-1) > r, and
    the one probe, q = 1, sums to k with no power taken.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_r(r)
    if k < 2:
        raise ValueError("k must be at least 2")
    lo, hi = 1, r if k <= r.bit_length() else 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _geometric_sum(mid, k) >= r:
            hi = mid
        else:
            lo = mid + 1
    return lo, n / lo


def _geometric_sum(q: int, k: int) -> int:
    """q^(k-1) + ... + q + 1."""
    return k if q == 1 else (q**k - 1) // (q - 1)


def reference_bounds(n: int, r: int) -> dict[str, float]:
    """Graph-case reference values for comparison output."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if r < 2:
        raise ValueError("r must be at least 2")
    return {
        "spanning_vertices": n / (r - 1),
        "component_edges": math.comb(n, 2) / (r * r - r + 1.25),
    }


def _bisect_root(fun: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """A root of fun in [lo, hi], halved down to width tol, or to adjacent
    floats when tol is below their spacing there."""
    flo = fun(lo)
    if flo * fun(hi) > 0:
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if flo * fun(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _minmax_objective(x: float, y: float) -> float:
    x3 = x * x * x
    return max(y**3 * x3, (1 - y) * x3, (1 - (1 - x) ** 3 - y * x3) / 2)


def _z_root() -> float:
    """The root of (1 - z)^3 = z on (0, 1)."""
    return _bisect_root(lambda z: (1 - z) ** 3 - z, 0.0, 1.0, 1e-14)


def optimize_2323() -> tuple[float, float, float]:
    """The minimizer (x, y) and minimum of
    max(y^3 x^3, (1-y) x^3, (1-(1-x)^3 - y x^3)/2) over x in [0.5, 1],
    y in [0, 1], where all three branches are equal.

    The first two are equal when y^3 = 1 - y, so y = 1 - z with z the root
    of (1 - z)^3 = z; the last two then reduce to z x^2 + 3x - 3 = 0. The
    value is the objective at that point, so it is an attained value.
    """
    z = _z_root()
    x = (math.sqrt(9 + 12 * z) - 3) / (2 * z)
    y = 1 - z
    return x, y, _minmax_objective(x, y)


def special_constants() -> dict:
    """Constants of the two-coloring analysis, as the CLI prints them.

    x0 is computed both in closed form, (sqrt(21)-3)/2, and as the root of
    2x^3 + (1-x)^3 = 1 on (1/2, 1); the two must agree to 1e-12.
    """
    x0_closed = (math.sqrt(21) - 3) / 2
    x0_root = _bisect_root(lambda x: 2 * x**3 + (1 - x) ** 3 - 1, 0.5, 1.0, 1e-14)
    if abs(x0_closed - x0_root) > 1e-12:
        raise AssertionError("closed form and bisection disagree on x0")
    lam = 6 * math.sqrt(21) - 27
    x, y, value = optimize_2323()
    return {
        "x0": x0_closed,
        "lambda_2313": lam,
        "z_root": 1 - y,
        "minmax_2323": value,
        "minmax_argmin": [x, y],
        "lambda_target_2323": "3/8",
    }


_BOUND_KINDS = {
    "general_lower": (general_lower_bound, ("n", "r", "k", "t", "s")),
    "density_lower": (density_component_bound, ("n", "k", "t", "s", "delta")),
    "kk_shadow": (kk_shadow_bound, ("m", "k", "s")),
    "fg_vertex": (None, ("n", "r", "k")),
    "asymptotic_upper": (asymptotic_upper_bound, ("n", "r", "k", "t", "s", "eps")),
    "reference": (None, ("n", "r")),
}


def evaluate_bound(kind: str, **params) -> dict:
    """Dispatch a named bound; returns its kind, params and evaluated value.

    A missing or unused parameter, or a value that leaves the float range,
    raises ValueError.
    """
    if kind not in _BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    fun, names = _BOUND_KINDS[kind]
    if set(params) != set(names):
        raise ValueError(f"bound {kind!r} takes parameters {list(names)}, got {list(params)}")
    args = {p: params[p] for p in names}
    extra: dict = {}
    try:
        if kind == "fg_vertex":
            q, value = fg_vertex_bound(**args)
            extra = {"q": q}
        elif kind == "reference":
            extra = reference_bounds(**args)
            value = extra["spanning_vertices"]
        else:
            value = fun(**args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"bound {kind!r} is out of float range")
    return {"kind": kind, "params": {**args, **extra}, "value": value}
