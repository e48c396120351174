"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import pytest

from monotight import bounds
from monotight.constructions import (
    all_red,
    majority_coloring,
    parity_coloring,
    steiner_coloring,
    two_clique_coloring,
)
from monotight.core import measure, t_tight_components
from monotight.designs import affine_plane, builtin_design, partition_blocks
from monotight.properties import (
    verify_blowup,
    verify_density,
    verify_kk,
    verify_lowerbound,
    verify_r2a_suite,
)
from monotight.search import exact_M

SEED = 20240817


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    assert ok, line


def test_criterion_1_exact_small_values():
    ok = True
    details = []
    for n in (4, 5, 6):
        pair_target = math.comb(n, 2) - math.comb(n // 2, 2)
        for (t, s), expected in [
            ((1, 1), n),
            ((2, 1), n),
            ((1, 2), pair_target),
            ((2, 2), pair_target),
        ]:
            start = time.perf_counter()
            res = exact_M(n, 2, 3, t, s)
            elapsed = time.perf_counter() - start
            good = res.value == expected and res.status == "exact" and elapsed <= 60
            ok &= good
            details.append(f"M({n},2,3,{t},{s})={res.value}/{expected} {elapsed:.1f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_r2a_exhaustive():
    start = time.perf_counter()
    rep = verify_r2a_suite(
        [(5, 4, 1, 1), (5, 4, 1, 2), (6, 4, 1, 2), (6, 4, 2, 2), (5, 2, 1, 1), (6, 2, 1, 1)]
    )
    elapsed = time.perf_counter() - start
    ok = not rep["violations"] and elapsed <= 60
    report(2, ok, f"6 cases in {elapsed:.1f}s")


def test_criterion_3_lower_bound_universality():
    rep = verify_lowerbound(trials=1000, seed=SEED)
    report(3, not rep["violations"], f"{rep['trials']} colorings, {len(rep['violations'])} violations")


def test_criterion_4_kruskal_katona_property():
    rep = verify_kk(trials=500, seed=SEED)
    report(4, not rep["violations"], f"{rep['trials']} graphs, {len(rep['violations'])} violations")


def test_criterion_5_density_property():
    rep = verify_density(trials=300, seed=SEED)
    report(5, not rep["violations"], f"{rep['trials']} instances, {len(rep['violations'])} violations")


def test_criterion_6_blowup():
    start = time.perf_counter()
    rep = verify_blowup(trials=200, seed=SEED)
    elapsed = time.perf_counter() - start
    ok = not rep["violations"] and elapsed <= 300
    report(6, ok, f"200 bases in {elapsed:.1f}s, {len(rep['violations'])} violations")


def test_criterion_7_construction_values():
    ok = True
    details = []
    for n in range(6, 15):
        expected = math.comb(n, 2) - math.comb(n // 2, 2)
        got = measure(majority_coloring(n), 2, 2).value
        ok &= got == expected
        details.append(f"majority({n})={got}")
    sizes = []
    c = parity_coloring(12)
    for col in (1, 2):
        sizes += [len(comp) for comp in t_tight_components(c.color_class(col), 2)]
    ok &= sorted(sizes) == [20, 20, 90, 90]
    details.append(f"parity(12) comps={sorted(sizes)}")
    ratio = measure(two_clique_coloring(300), 1, 3).value / math.comb(300, 3)
    lam = 6 * math.sqrt(21) - 27
    ok &= abs(ratio - lam) <= 0.01
    # finite-n value from exact enumeration of the blue component
    a = int((math.sqrt(21) - 3) / 2 * 300)
    formula = math.comb(300, 3) - math.comb(a, 3) - math.comb(300 - a, 3)
    ok &= round(ratio * math.comb(300, 3)) == formula
    details.append(f"two_clique(300) ratio={ratio:.4f}")
    report(7, ok, "; ".join(details[-3:]))


def test_criterion_8_steiner_sharpness():
    ok = True
    details = []
    for q in (3, 5, 7):
        ap = affine_plane(q)
        c = steiner_coloring(ap, ap.parallel_classes(), t=1)
        assert c.r == q + 1
        comp_vertices = set()
        for col in range(1, c.r + 1):
            h = c.color_class(col)
            for comp in t_tight_components(h, 1):
                verts = 0
                for i in comp:
                    verts |= h.edges[i]
                comp_vertices.add(verts.bit_count())
        ok &= comp_vertices == {q}
        ok &= q == (q * q) / (c.r - 1)
        details.append(f"AG(2,{q}): components span {sorted(comp_vertices)} vertices")
    d = builtin_design("s348")
    classes, _ = partition_blocks(d, 1, order="complement-paired")
    c = steiner_coloring(d, classes, t=1)
    shapes = set()
    for col in range(1, 8):
        h = c.color_class(col)
        for comp in t_tight_components(h, 1):
            verts = 0
            for i in comp:
                verts |= h.edges[i]
            shapes.add((len(comp), verts.bit_count()))
    ok &= shapes == {(4, 4)}  # every component is a K^3_4
    val = measure(c, 1, 1).value
    ok &= val >= bounds.general_lower_bound(8, 7, 3, 1, 1) - 1e-9
    details.append(f"S(3,4,8): shadow {val} >= 8/sqrt(7)")
    report(8, ok, "; ".join(details))


def test_criterion_9_constants():
    sc = bounds.special_constants()
    ok = abs(sc["x0"] - (math.sqrt(21) - 3) / 2) < 1e-12
    ok &= abs(sc["lambda_2313"] - (6 * math.sqrt(21) - 27)) < 1e-12
    ok &= 0.3176 <= sc["z_root"] <= 0.3178
    ok &= abs((1 - sc["z_root"]) ** 3 - sc["z_root"]) < 1e-12
    # the min-max sits where its three branches are equal, and no point of a
    # 0.0025-step grid over x in [0.5, 1], y in [0, 1] lies below it
    x, y, value = bounds.optimize_2323()
    x3 = x**3
    f1, f2, f3 = y**3 * x3, (1 - y) * x3, (1 - (1 - x) ** 3 - y * x3) / 2
    ok &= abs(f1 - f2) <= 1e-12 and abs(f2 - f3) <= 1e-12
    xs = [0.5 + i * 0.0025 for i in range(201)]
    ys = [j * 0.0025 for j in range(401)]
    ok &= all(bounds._minmax_objective(gx, gy) >= value for gx in xs for gy in ys)
    ok &= 0.24 <= value <= 0.2410
    report(9, ok, f"x0={sc['x0']:.12f} z={sc['z_root']:.6f} minmax={value:.8f}")


def test_criterion_10_declared_substitutions():
    # the asymptotic statements (large-r upper bound, limit values, exact
    # Lambda(2,3,2,3)) are not reproducible at desk scale; in their place the
    # bound sandwich lower <= exact <= every construction is checked here on
    # exact-search runs, alongside criteria 3-6 above.
    ok = True
    for n, t, s in [(5, 1, 2), (5, 2, 3), (6, 2, 2)]:
        res = exact_M(n, 2, 3, t, s)
        lo = bounds.general_lower_bound(n, 2, 3, t, s)
        ok &= lo - 1e-9 <= res.value
        for c in (all_red(n, 3, 2), majority_coloring(n), parity_coloring(n), two_clique_coloring(n)):
            ok &= res.value <= measure(c, t, s).value
    report(10, ok, "bound sandwich on exact-search runs; asymptotics declared out of desk scale")
