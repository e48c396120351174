"""The three benchmark workloads: inputs built from a seed, the timed
operations, and the answers recorded for them.

Importing this module imports `monotight` from the `src/` directory next to
`perfbench/`, and from nowhere else, so the benchmark always measures the
checkout it sits in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "monotight" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no monotight package under {SRC}")
sys.path.insert(0, str(SRC))

import monotight  # noqa: E402
from monotight import bounds, cli, constructions, core, fileio, search  # noqa: E402

if not Path(monotight.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: imported monotight from {monotight.__file__}, not {SRC}")

N_LARGE = 120
N_RANDOM = 72
LARGE_TS = {"two_clique": (1, 3), "majority": (2, 2), "parity": (2, 3), "random": (1, 2)}
PROVEN = [(6, 2, 3, 2, 3), (6, 2, 3, 1, 3), (6, 3, 3, 2, 2)]
BUDGETED = (7, 2, 3, 2, 3)
SEARCH_BUDGET = 500_000
SUITE_TRIALS = {"lowerbound": 200, "density": 300, "kk": 500, "blowup": 20}


def instance_name(n: int, r: int, k: int, t: int, s: int) -> str:
    return f"n{n}r{r}k{k}t{t}s{s}"


# Answers recorded at the commit that introduced the benchmark. A run whose
# answer differs counts the operation as failed: a speed-up that moves a
# value is a bug.
EXPECTED: dict[str, dict] = {
    # C(n,3) - C(a,3) - C(n-a,3) with a = floor((sqrt(21)-3)/2 * n) = 94
    "measure.two_clique": {
        "value": math.comb(N_LARGE, 3) - math.comb(94, 3) - math.comb(N_LARGE - 94, 3),
        "roundtrip": True,
    },
    # C(n,2) - C(n/2,2)
    "measure.majority": {
        "value": math.comb(N_LARGE, 2) - math.comb(N_LARGE // 2, 2),
        "roundtrip": True,
    },
    "measure.parity": {"value": 106200, "roundtrip": True},
    # each color class of a random 3-coloring of K^3_72 is 1-tight connected
    # and covers every pair, whatever the seed
    "measure.random": {"value": math.comb(N_RANDOM, 2), "roundtrip": True},
    "exact." + instance_name(*PROVEN[0]): {"value": 9, "status": "exact", "nodes": 48875},
    "exact." + instance_name(*PROVEN[1]): {"value": 10, "status": "exact", "nodes": 184755},
    "exact." + instance_name(*PROVEN[2]): {"value": 9, "status": "exact", "nodes": 95952},
    "exact." + instance_name(*BUDGETED): {"within_bounds": True, "witness_value_matches": True},
    **{
        f"verify.{suite}": {"exit": 0, "violations": 0, "trials": trials}
        for suite, trials in SUITE_TRIALS.items()
    },
    "verify.r2a": {
        "exit": 0,
        "violations": 0,
        "colorings_checked": [16, 16, 16384, 16384, 512, 16384],
    },
}


@dataclass
class Op:
    """One timed operation. `run` is timed; `check` is not, and turns the
    raw result into (answer, units of work done, mismatch messages)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, int, list[str]]]


@dataclass
class Workload:
    name: str
    work_unit: str  # what one unit of work is: edges, nodes or trials
    ops: list[Op]


def mismatches(name: str, answer: dict) -> list[str]:
    """Differences between an answer and the one recorded for the operation."""
    return [
        f"{name}: {key} = {answer.get(key)!r}, recorded {want!r}"
        for key, want in EXPECTED[name].items()
        if answer.get(key) != want
    ]


def _roundtrip_and_measure(c: core.Coloring, t: int, s: int):
    out = io.StringIO()
    fileio.write_coloring(c, out)
    back = fileio.read_coloring(io.StringIO(out.getvalue()))
    return c, back, core.measure(back, t, s)


def _measure_op(key: str, make: Callable[[], core.Coloring]) -> Op:
    name = f"measure.{key}"
    t, s = LARGE_TS[key]

    def check(raw):
        c, back, res = raw
        roundtrip = (back.n, back.k, back.r, back.colors) == (c.n, c.k, c.r, c.colors)
        answer = {"value": res.value, "roundtrip": roundtrip}
        return answer, len(c.colors), mismatches(name, answer)

    return Op(name, lambda: _roundtrip_and_measure(make(), t, s), check)


def _measure_large(seed: int) -> Workload:
    rng = random.Random(seed)
    colors = [rng.randint(1, 3) for _ in range(math.comb(N_RANDOM, 3))]
    random_c = core.Coloring(N_RANDOM, 3, 3, colors)
    # builders are looked up at call time, so a traced run sees its wrappers
    return Workload(
        "measure-large",
        "edges",
        [
            _measure_op("two_clique", lambda: constructions.two_clique_coloring(N_LARGE)),
            _measure_op("majority", lambda: constructions.majority_coloring(N_LARGE)),
            _measure_op("parity", lambda: constructions.parity_coloring(N_LARGE)),
            _measure_op("random", lambda: random_c),
        ],
    )


def _proven_op(inst: tuple[int, ...]) -> Op:
    name = "exact." + instance_name(*inst)

    def check(res):
        answer = {"value": res.value, "status": res.status, "nodes": res.nodes_explored}
        return answer, res.nodes_explored, mismatches(name, answer)

    return Op(name, lambda: search.exact_M(*inst), check)


def _budgeted_op() -> Op:
    name = "exact." + instance_name(*BUDGETED)
    n, r, k, t, s = BUDGETED

    def check(res):
        lower = math.ceil(bounds.general_lower_bound(n, r, k, t, s))
        upper = min(
            core.measure(c, t, s).value
            for c in (
                constructions.all_red(n, k, r),
                constructions.majority_coloring(n),
                constructions.parity_coloring(n),
                constructions.two_clique_coloring(n),
            )
        )
        answer = {
            "value": res.value,
            "status": res.status,
            "nodes": res.nodes_explored,
            "within_bounds": lower <= res.value <= upper
            and res.status in ("exact", "budget-exhausted")
            and res.nodes_explored <= SEARCH_BUDGET + r,
            "witness_value_matches": core.measure(res.witness, t, s).value == res.value,
        }
        return answer, res.nodes_explored, mismatches(name, answer)

    return Op(name, lambda: search.exact_M(*BUDGETED, budget=SEARCH_BUDGET), check)


def _search_exact(seed: int) -> Workload:
    # The instances are fixed: their node counts are part of the answer, so
    # the seed has nothing to vary here.
    return Workload("search-exact", "nodes", [*map(_proven_op, PROVEN), _budgeted_op()])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _suite_op(suite: str, seed: int) -> Op:
    name = f"verify.{suite}"
    argv = ["verify", suite, "--trials", str(SUITE_TRIALS[suite]), "--seed", str(seed)]

    def check(raw):
        code, text = raw
        report = json.loads(text)
        answer = {"exit": code, "violations": len(report["violations"]), "trials": report["trials"]}
        return answer, report["trials"], mismatches(name, answer)

    return Op(name, lambda: _run_cli(argv), check)


def _r2a_op() -> Op:
    name = "verify.r2a"

    def check(raw):
        code, text = raw
        report = json.loads(text)
        checked = [case["colorings_checked"] for case in report["cases"]]
        answer = {"exit": code, "violations": len(report["violations"]), "colorings_checked": checked}
        return answer, sum(checked), mismatches(name, answer)

    return Op(name, lambda: _run_cli(["verify", "r2a"]), check)


def _verify_small(seed: int) -> Workload:
    return Workload(
        "verify-small", "trials", [*(_suite_op(suite, seed) for suite in SUITE_TRIALS), _r2a_op()]
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "measure-large": _measure_large,
    "search-exact": _search_exact,
    "verify-small": _verify_small,
}


def setup(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
