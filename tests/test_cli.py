import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotight import bounds, constructions, designs, fileio, properties, search
from monotight.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_measure_on_majority_file(tmp_path, capsys):
    path = tmp_path / "maj6.col"
    code, _ = run(capsys, "construct", "majority", "--n", "6", "--out", str(path))
    assert code == 0
    code, rep = run(capsys, "measure", "--coloring", str(path), "--t", "2", "--s", "2")
    assert code == 0
    assert rep["value"] == 12


def test_constants_subcommand(capsys):
    code, rep = run(capsys, "constants")
    assert code == 0
    assert rep["x0"] == pytest.approx((math.sqrt(21) - 3) / 2)
    assert rep["lambda_2313"] == pytest.approx(6 * math.sqrt(21) - 27)
    assert 0.3176 <= rep["z_root"] <= 0.3178


def test_verify_r2a_exit_zero(capsys):
    code, rep = run(capsys, "verify", "r2a", "--n", "5", "--k", "4", "--t", "1", "--s", "2")
    assert code == 0
    assert rep["cases"][0]["pass"]


def test_verify_r2a_failed_proof_exits_1(monkeypatch, capsys):
    witness = constructions.all_red(5, 4, 2)

    def short(n, r, k, t, s, budget=None):
        return search.SearchResult(math.comb(n, s) - 1, witness, "exact", 1, 0.0)

    monkeypatch.setattr(search, "exact_M", short)
    code, rep = run(capsys, "verify", "r2a", "--n", "5", "--k", "4", "--t", "1", "--s", "2")
    assert code == 1
    assert len(rep["violations"]) == 1
    assert rep["violations"][0]["counterexample"] == list(witness.colors)


def test_components_and_shadow(tmp_path, capsys):
    path = tmp_path / "h.hg"
    path.write_text("7 3\n1 2 3\n3 4 5\n5 6 7\n")
    code, rep = run(capsys, "components", "--hypergraph", str(path), "--t", "1")
    assert code == 0
    assert rep["count"] == 1
    code, rep = run(capsys, "shadow", "--hypergraph", str(path), "--s", "2")
    assert code == 0
    assert rep["count"] == 9


def test_search_subcommand(tmp_path, capsys):
    wit = tmp_path / "wit.col"
    code, rep = run(
        capsys,
        "search", "--n", "5", "--r", "2", "--k", "3", "--t", "1", "--s", "1",
        "--emit-witness", str(wit),
    )
    assert code == 0
    assert rep["value"] == 5
    assert rep["status"] == "exact"
    assert wit.exists()


def test_search_labels_novel_parameters(capsys):
    code, rep = run(capsys, "search", "--n", "4", "--r", "2", "--k", "3", "--t", "2", "--s", "3")
    assert code == 0
    assert "note" in rep
    # a budgeted run's value is only an upper bound (18 here; M is 17), not new data
    argv = ["search", "--n", "7", "--r", "2", "--k", "3", "--t", "2", "--s", "3", "--budget", "10"]
    code, rep = run(capsys, *argv)
    assert code == 0
    assert rep["status"] == "budget-exhausted"
    assert "note" not in rep


def test_search_with_r_past_float_range(capsys):
    # r = 10^400 does not fit a float, but the bound r^(-1/2) * C(4, 1) = 4e-200 does
    code, rep = run(capsys, "search", "--n", "4", "--r", str(10**400), "--k", "3", "--t", "1", "--s", "1")
    assert code == 0
    assert (rep["value"], rep["status"]) == (3, "exact")
    assert math.isfinite(rep["lower_bound"])
    assert rep["lower_bound"] == pytest.approx(4e-200)


def test_blowup_roundtrip(tmp_path, capsys):
    base = tmp_path / "base.col"
    out = tmp_path / "blown.col"
    run(capsys, "construct", "parity", "--n", "6", "--out", str(base))
    code, rep = run(capsys, "blowup", "--base", str(base), "--n", "10", "--out", str(out))
    assert code == 0
    assert rep["n"] == 10
    code, rep = run(capsys, "measure", "--coloring", str(out), "--t", "1", "--s", "1")
    assert code == 0


def test_design_subcommand(capsys):
    code, rep = run(capsys, "design", "ap5", "--partition-t", "1")
    assert code == 0
    assert rep["blocks"] == 30
    assert rep["classes"] == 6


def test_broken_design_file_exits_2(tmp_path, capsys):
    path = tmp_path / "fano.des"
    code, _ = run(capsys, "design", "fano", "--out", str(path))
    assert code == 0
    broken = tmp_path / "broken.des"
    broken.write_text("".join(path.read_text().splitlines(keepends=True)[:7]))
    for argv in (
        ["design", str(broken)],
        ["construct", "steiner", "--design", str(broken), "--out", str(tmp_path / "x.col")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected 7 blocks, got 6\n"
    code, rep = run(capsys, "design", str(path))
    assert code == 0 and rep["valid"] and rep["blocks"] == 7


def test_design_file_with_k_0_exits_2(tmp_path, capsys):
    # C(7, 0) / C(3, 0) = 1, so one block would pass as a design of 0-sets
    path = tmp_path / "k0.des"
    path.write_text("7 3 0\n1 2 3\n")
    assert main(["design", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need n > h >= k >= 1, got n=7, h=3, k=0\n"


def test_design_file_named_like_an_affine_plane(tmp_path, monkeypatch, capsys):
    # "ap" followed by digits only names AG(2, q); anything else is a file
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, "design", "fano", "--out", "ap5.des")
    assert code == 0
    code, rep = run(capsys, "design", "ap5.des")
    assert code == 0 and rep["valid"] and (rep["n"], rep["blocks"]) == (7, 7)
    code, rep = run(capsys, "design", "ap5")
    assert code == 0 and (rep["n"], rep["blocks"]) == (25, 30)


def test_bad_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("5 3\n1 2\n")
    code = main(["components", "--hypergraph", str(path), "--t", "1"])
    assert code == 2
    code = main(["measure", "--coloring", str(tmp_path / "missing.col"), "--t", "1", "--s", "1"])
    assert code == 2


def test_deterministic_json(tmp_path, capsys):
    args = ["bound", "--kind", "general_lower", "--n", "9", "--r", "4", "--k", "2", "--t", "1", "--s", "1"]
    code = main(args)
    first = capsys.readouterr().out
    code = main(args)
    second = capsys.readouterr().out
    assert first == second


def exit_code(*argv):
    """main's return code; a parse error is returned as 2, not raised as SystemExit."""
    return main(list(argv))


@pytest.mark.parametrize("name", ["majority", "two_clique", "parity", "all_red"])
def test_construct_without_n_exits_2(tmp_path, capsys, name):
    argv = ["construct", name, "--out", str(tmp_path / "c.col")]
    if name == "all_red":
        argv += ["--k", "3", "--r", "2"]
    assert exit_code(*argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("given", [["--n", "5"], ["--n", "5", "--k", "4", "--t", "1"], ["--s", "2"]])
def test_verify_r2a_partial_case_exits_2(capsys, given):
    assert exit_code("verify", "r2a", *given) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trials", ["-5", "0", "x"])
def test_verify_nonpositive_trials_exits_2(capsys, trials):
    assert exit_code("verify", "kk", "--trials", trials) == 2
    assert capsys.readouterr().out == ""


# each argv gives flags its subcommand does not read; "@out" is a path in a
# fresh directory that must stay unwritten
REFUSED = {
    "majority-k-r": (["construct", "majority", "--n", "6", "--k", "4", "--r", "5", "--out", "@out"], ["--k", "--r"]),
    "parity-k": (["construct", "parity", "--n", "6", "--k", "3", "--out", "@out"], ["--k"]),
    "two_clique-r": (["construct", "two_clique", "--n", "6", "--r", "2", "--out", "@out"], ["--r"]),
    "all_red-t": (["construct", "all_red", "--n", "4", "--k", "3", "--r", "2", "--t", "2", "--out", "@out"], ["--t"]),
    "majority-design": (["construct", "majority", "--n", "6", "--design", "fano", "--out", "@out"], ["--design"]),
    "steiner-n": (["construct", "steiner", "--design", "fano", "--n", "7", "--out", "@out"], ["--n"]),
    "steiner-tagged-order": (["construct", "steiner", "--design", "ap3", "--order", "given", "--out", "@out"], ["--order"]),
    "design-order": (["design", "fano", "--order", "complement-paired", "--out", "@out"], ["--order"]),
    "kk-n": (["verify", "kk", "--trials", "1", "--n", "5"], ["--n"]),
    "lowerbound-t-s": (["verify", "lowerbound", "--trials", "1", "--seed", "2", "--t", "1", "--s", "2"], ["--t", "--s"]),
    "density-k": (["verify", "density", "--k", "3"], ["--k"]),
    "blowup-n-k-t-s": (["verify", "blowup", "--n", "5", "--k", "4", "--t", "1", "--s", "2"], ["--n", "--k", "--t", "--s"]),
    "r2a-trials": (["verify", "r2a", "--trials", "3"], ["--trials"]),
    "r2a-seed": (["verify", "r2a", "--n", "5", "--k", "4", "--t", "1", "--s", "2", "--seed", "0"], ["--seed"]),
    "bound-n": (["bound", "--kind", "kk_shadow", "--m", "20", "--k", "3", "--s", "2", "--n", "9"], ["'n'"]),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_flag_that_does_nothing_exits_2(tmp_path, capsys, case):
    argv, flags = REFUSED[case]
    out = tmp_path / "out"
    assert exit_code(*(str(out) if tok == "@out" else tok for tok in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "internal" not in captured.err
    assert all(flag in captured.err for flag in flags), captured.err
    assert not out.exists()


def test_verify_seed_defaults_to_zero(capsys):
    # the argv the benchmark runs, and the same suite without --seed
    code, rep = run(capsys, "verify", "kk", "--trials", "3", "--seed", "5")
    assert (code, rep["seed"], rep["trials"]) == (0, 5, 3)
    code, rep = run(capsys, "verify", "kk", "--trials", "3")
    assert (code, rep["seed"], rep["trials"]) == (0, 0, 3)


def test_large_affine_plane_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert exit_code("design", "ap100003") == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q must be at most {designs.AFFINE_PLANE_MAX_Q}, got 100003\n"


def test_verify_unknown_suite_exits_2(capsys):
    assert exit_code("verify", "nosuch") == 2
    assert capsys.readouterr().out == ""


def test_search_has_no_threads_option(capsys):
    assert exit_code("search", "--n", "4", "--r", "2", "--k", "3", "--t", "1", "--s", "1", "--threads", "2") == 2
    code, rep = run(capsys, "search", "--n", "4", "--r", "2", "--k", "3", "--t", "1", "--s", "1")
    assert code == 0
    assert "threads" not in rep


def readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("monotight ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.txt").write_text("7 3\n1 2 3\n3 4 5\n5 6 7\n")
    for line in examples:
        argv = shlex.split(line, comments=True)[1:]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        assert json.loads(out)["subcommand"] == argv[0], line


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "monotight", "constants"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["subcommand"] == "constants"


# Runs each argv (JSON) through cli.main in a fresh interpreter and prints,
# after the import and after each run, which deferred modules are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from monotight import cli

def deferred():
    return [m for m in ("monotight.properties", "monotight.designs") if m in sys.modules]

report = {"import": deferred(), "runs": []}
for argv in map(json.loads, sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report["runs"].append([code, deferred()])
print(json.dumps(report))
"""

_MAJ = ["construct", "majority", "--n", "6", "--out", "maj6.col"]
_MEASURE = ["measure", "--coloring", "maj6.col", "--t", "2", "--s", "2"]
_SEARCH = ["search", "--n", "5", "--r", "2", "--k", "3", "--t", "1", "--s", "2", "--budget", "10"]


@pytest.mark.parametrize(
    "argvs, loaded",
    [
        ([], []),
        ([_MAJ, _MEASURE, _SEARCH], []),
        ([["verify", "kk", "--trials", "2"]], ["monotight.properties"]),
        ([["design", "fano"]], ["monotight.designs"]),
        ([["construct", "steiner", "--design", "fano", "--out", "fano.col"]], ["monotight.designs"]),
    ],
    ids=["import", "measure-search", "verify", "design", "steiner"],
)
def test_a_command_imports_the_suites_and_designs_only_if_it_runs_them(tmp_path, argvs, loaded):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *map(json.dumps, argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["import"] == []
    assert report["runs"] == [[0, loaded]] * len(argvs)


def test_uncaught_exception_exits_3_with_one_stderr_line(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("broken search")

    monkeypatch.setattr(search, "exact_M", broken)
    code = exit_code("search", "--n", "4", "--r", "2", "--k", "3", "--t", "1", "--s", "1")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ")
    assert captured.err.count("\n") == 1


def test_x0_cross_check_failure_exits_3(monkeypatch, capsys):
    # a bisection that misses the root: the closed form and it disagree on x0
    monkeypatch.setattr(bounds, "_bisect_root", lambda fun, lo, hi, tol: 0.5)
    with pytest.raises(AssertionError, match="disagree on x0"):
        bounds.special_constants()
    code = exit_code("constants")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: internal: AssertionError(")
    assert captured.err.count("\n") == 1


def test_search_deeper_than_recursion_limit(capsys):
    # C(46, 2) = 1035 edges, one search depth per edge
    code, rep = run(capsys, "search", "--n", "46", "--r", "2", "--k", "2", "--t", "1", "--s", "2", "--budget", "5000")
    assert code == 0
    assert rep["status"] == "budget-exhausted"
    assert rep["nodes"] == 5000


@pytest.mark.parametrize("budget", ["0", "-1", "x"])
def test_search_nonpositive_budget_exits_2(capsys, budget):
    assert exit_code("search", "--n", "4", "--r", "2", "--k", "3", "--t", "1", "--s", "1", "--budget", budget) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q", [1, 9])
def test_affine_plane_of_order_not_prime_exits_2(capsys, q):
    assert exit_code("design", f"ap{q}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q must be prime, got {q}\n"


def test_verify_r2a_oversized_case_exits_2(capsys):
    # C(8, 4) = 70 edges would mean 2^69 colorings
    assert exit_code("verify", "r2a", "--n", "8", "--k", "4", "--t", "1", "--s", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "C(8,4) = 70" in captured.err


def test_construct_k_above_n_exits_2(tmp_path, capsys):
    out = tmp_path / "x.col"
    assert exit_code("construct", "all_red", "--n", "2", "--k", "3", "--r", "2", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 2 <= k <= n" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("design", ["ap5", "fano"])
@pytest.mark.parametrize("t", ["0", "3"])
def test_construct_steiner_t_out_of_range_exits_2(tmp_path, capsys, design, t):
    # with or without class tags, t is checked against k = 2
    out = tmp_path / "x.col"
    assert exit_code("construct", "steiner", "--design", design, "--t", t, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need 1 <= t <= k, got t={t}, k=2\n"
    assert not out.exists()


def test_measure_k_above_n_exits_2(tmp_path, capsys):
    # the header of an edgeless K^3_2: C(2, 3) = 0 colors follow
    path = tmp_path / "x.col"
    path.write_text("2 3 2\n")
    assert exit_code("measure", "--coloring", str(path), "--t", "1", "--s", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 2 <= k <= n" in captured.err


@pytest.mark.parametrize("m, k", [("10000", "1"), ("100000000", "2")])
def test_kk_shadow_bound_with_large_m_returns(capsys, m, k):
    start = time.perf_counter()
    code, rep = run(capsys, "bound", "--kind", "kk_shadow", "--m", m, "--k", k, "--s", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert math.isfinite(rep["value"])


def test_kk_shadow_bound_past_factorial_float_range(capsys):
    # 171! does not fit a float; the bound does
    code, rep = run(capsys, "bound", "--kind", "kk_shadow", "--m", "20", "--k", "171", "--s", "1")
    assert code == 0
    assert rep["value"] == pytest.approx(171.5593894118033, rel=1e-12)


def test_kk_shadow_bound_of_m_past_float_range(capsys):
    # C(x, 3) ~ x^3 / 6, so the root of C(x, 3) = 10**400 is about
    # (6 * 10**400) ** (1/3) = 60 ** (1/3) * 10**133 = 3.9149e133
    code, rep = run(capsys, "bound", "--kind", "kk_shadow", "--m", str(10**400), "--k", "3", "--s", "1")
    assert code == 0
    assert rep["value"] == pytest.approx(60 ** (1 / 3) * 1e133, rel=1e-9)


@pytest.mark.parametrize("m", ["0", "-5", "inf"])
def test_kk_shadow_bound_refuses_m_below_one_or_not_an_int(capsys, m):
    assert exit_code("bound", "--kind", "kk_shadow", "--m", m, "--k", "3", "--s", "1") == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("k", [bounds.KK_MAX_K + 1, 10**22])
def test_kk_shadow_bound_refuses_k_past_its_limit(capsys, k):
    start = time.perf_counter()
    assert exit_code("bound", "--kind", "kk_shadow", "--m", "20", "--k", str(k), "--s", "1") == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"k must lie in [1, {bounds.KK_MAX_K}]" in captured.err


def test_fg_vertex_bound_with_large_r_returns(capsys):
    start = time.perf_counter()
    code, rep = run(capsys, "bound", "--kind", "fg_vertex", "--n", "9", "--r", "1000000000", "--k", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert rep["params"]["q"] == 999999999


BOUND_ARGS = {
    "eps-nan": ["asymptotic_upper", "--n", "9", "--r", "2", "--k", "3", "--t", "1", "--s", "2", "--eps", "nan"],
    "eps-inf": ["asymptotic_upper", "--n", "9", "--r", "2", "--k", "3", "--t", "1", "--s", "2", "--eps", "inf"],
    "fg-n-negative": ["fg_vertex", "--n", "-4", "--r", "3", "--k", "2"],
    "reference-n-zero": ["reference", "--n", "0", "--r", "2"],
    "general-overflow": ["general_lower", "--n", "1" + "0" * 200, "--r", "2", "--k", "3", "--t", "1", "--s", "3"],
}


@pytest.mark.parametrize("case", sorted(BOUND_ARGS))
def test_bad_bound_input_exits_2(capsys, case):
    kind, *rest = BOUND_ARGS[case]
    assert exit_code("bound", "--kind", kind, *rest) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "internal" not in captured.err


@pytest.mark.parametrize("target", ["out", "coloring"])
def test_unusable_path_exits_2(tmp_path, capsys, target):
    # a directory where a file is expected raises IsADirectoryError, an OSError
    if target == "out":
        argv = ["construct", "all_red", "--n", "4", "--k", "3", "--r", "2", "--out", str(tmp_path)]
    else:
        argv = ["measure", "--coloring", str(tmp_path), "--t", "1", "--s", "2"]
    assert exit_code(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "internal" not in captured.err


# Path-valued arguments name files in a fresh directory per example ("@" is
# the directory itself); each path argument prefers the file it reads or
# writes. The design names include invalid ones.
FUZZ_PATHS = ["@h.hg", "@c.col", "@d.des", "@missing", "@", "@new.col"]
FUZZ_FILE_FOR = {"hypergraph": "@h.hg", "coloring": "@c.col", "base": "@c.col"}
FUZZ_DESIGNS = ["fano", "s348", "ag23", "ap2", "ap3", "ap4", "ap0", "ap-1", "apx", "@d.des", "@missing"]
FUZZ_FLOATS = ["0", "0.5", "1", "-0.5", "2", "nan", "inf", "x"]
FUZZ_JUNK = ["junk", "--bogus", "-x", "", "--", "7", "-1", "1.5", "nan", "--n=3", "exact"]


def _fuzz_values(action):
    # small ints only, so that no generated case runs unbounded
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "budget":
        return st.integers(-1, 2000).map(str)
    if action.dest == "trials":
        return st.integers(-1, 3).map(str)
    if action.type is float:
        return st.sampled_from(FUZZ_FLOATS)
    if action.type is not None:
        return st.one_of(st.integers(1, 4), st.integers(-1, 7)).map(str)
    if action.dest in ("design", "name"):
        return st.sampled_from(FUZZ_DESIGNS)
    return st.one_of(st.just(FUZZ_FILE_FOR.get(action.dest, "@new.col")), st.sampled_from(FUZZ_PATHS))


@st.composite
def cli_argv(draw):
    argv, flags = [], []
    parser = build_parser()
    while parser is not None:
        actions, parser = parser._actions, None
        for action in actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):  # a subcommand, name or suite
                argv.append(draw(st.sampled_from(sorted(action.choices) + ["nosuch"])))
                parser = action.choices.get(argv[-1])
                continue
            # required arguments are always given, and so are --budget and
            # --trials: an unbudgeted search or a default-size suite runs for
            # seconds. r2a has no --trials, and runs in milliseconds.
            if not (action.required or action.dest in ("budget", "trials")) and not draw(st.booleans()):
                continue
            value = draw(_fuzz_values(action))
            if action.option_strings:
                flags.append([action.option_strings[0], value])
            else:
                argv.append(value)
    argv += [tok for pair in draw(st.permutations(flags)) for tok in pair]
    if draw(st.booleans()):
        for junk in draw(st.lists(st.sampled_from(FUZZ_JUNK), min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_argv_fuzz_keeps_exit_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "h.hg").write_text("7 3\n1 2 3\n3 4 5\n5 6 7\n")
        with open(Path(tmp) / "c.col", "w") as fh:
            fileio.write_coloring(constructions.majority_coloring(5), fh)
        with open(Path(tmp) / "d.des", "w") as fh:
            fileio.write_design(designs.builtin_design("fano"), fh)
        argv = [str(Path(tmp) / tok[1:]) if tok.startswith("@") else tok for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:  # bad input, parse errors included: one error line
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    if out.getvalue():
        assert isinstance(json.loads(out.getvalue()), dict)


def test_repeated_vertex_in_explicit_coloring_exits_2(tmp_path, capsys):
    # read as edge {1, 2, 3}, this file would be a complete explicit coloring
    path = tmp_path / "rep.col"
    path.write_text("4 3 2\n1 1 3 2\n1 2 4 1\n1 3 4 1\n2 3 4 1\n")
    assert main(["measure", "--coloring", str(path), "--t", "1", "--s", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: expected a 3-subset, got 2 distinct vertices\n"


PARSE_ERRORS = {
    "unknown-flag": (["measure", "--coloring", "x", "--t", "1", "--s", "1", "--bogus"], "unrecognized arguments: --bogus"),
    "missing-required": (["measure", "--coloring", "x", "--t", "1"], "required: --s"),
    "bad-choice": (["construct", "nosuch", "--out", "x"], "invalid choice: 'nosuch'"),
    "no-subcommand": ([], "required: subcommand"),
    # read as --trials 2 if argparse took a unique prefix for the whole flag
    "abbreviated-flag": (["verify", "kk", "--tr", "2"], "unrecognized arguments: --tr"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_is_one_error_line(capsys, case):
    argv, words = PARSE_ERRORS[case]
    assert main(argv) == 2  # returned, not raised as SystemExit
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert words in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--help"])
    assert exc.value.code == 0
    assert "--coloring" in capsys.readouterr().out


OVERFLOW = {
    # C(100, 50) edges do not fit a list index
    "search": (["search", "--n", "100", "--r", "2", "--k", "50", "--t", "1", "--s", "1", "--budget", "5", "--emit-witness", "@out"], "C(100, 50)"),
    "all_red": (["construct", "all_red", "--n", "100", "--k", "50", "--r", "2", "--out", "@out"], "C(100, 50)"),
    # C(1000000, 5000) has more digits than an int converts to a str
    "search-huge": (["search", "--n", "1000000", "--r", "2", "--k", "5000", "--t", "1", "--s", "1"], "C(1000000, 5000)"),
    "all_red-huge": (["construct", "all_red", "--n", "1000000", "--k", "5000", "--r", "2", "--out", "@out"], "C(1000000, 5000)"),
    # two 199-vertex blocks of {1..200}: C(200, 100) k-sets to check
    "design": (["design", "@des"], "C(200, 100)"),
    # refused before any per-vertex list is built
    "majority": (["construct", "majority", "--n", "10000000000000000000", "--out", "@out"], "C(10000000000000000000, 3)"),
    "blowup": (["blowup", "--base", "@base", "--n", "10000000000000000000", "--out", "@out"], "C(10000000000000000000, 2)"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW))
def test_size_past_index_range_exits_2(tmp_path, capsys, case):
    out, des, base = tmp_path / "out", tmp_path / "big.des", tmp_path / "base.col"
    full = " ".join(map(str, range(1, 201)))
    des.write_text("200 199 100\n" + full.rsplit(" ", 1)[0] + "\n" + full.split(" ", 1)[1] + "\n")
    with open(base, "w") as fh:
        fileio.write_coloring(constructions.all_red(4, 2, 2), fh)
    start = time.perf_counter()
    argv, size = OVERFLOW[case]
    assert main([str({"@out": out, "@des": des, "@base": base}.get(tok, tok)) for tok in argv]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {size} = ") and captured.err.count("\n") == 1
    assert "internal" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("given", [["--k", "3"], ["--r", "2"], []])
def test_construct_all_red_without_r_or_k_exits_2(tmp_path, capsys, given):
    out = tmp_path / "x.col"
    assert main(["construct", "all_red", "--n", "5", *given, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    missing = ", ".join(flag for flag in ("--k", "--r") if flag not in given)
    assert captured.err == f"error: the following arguments are required: {missing}\n"
    assert not out.exists()


def test_reference_bound(capsys):
    code, rep = run(capsys, "bound", "--kind", "reference", "--n", "10", "--r", "3")
    assert code == 0
    assert rep["value"] == 5.0
    assert rep["params"] == {"n": 10, "r": 3, "spanning_vertices": 5.0, "component_edges": pytest.approx(45 / 7.25)}


def test_construct_steiner_without_design_exits_2(tmp_path, capsys):
    out = tmp_path / "x.col"
    assert main(["construct", "steiner", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the following arguments are required: --design\n"
    assert not out.exists()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # a --order left over from the first call would refuse the second: ap3 carries class tags
    assert build_parser() is build_parser()
    fano = ["construct", "steiner", "--design", "fano", "--order", "complement-paired"]
    code, rep = run(capsys, *fano, "--out", str(tmp_path / "fano.col"))
    assert code == 0 and rep["r"] == 7
    code, rep = run(capsys, "construct", "steiner", "--design", "ap3", "--out", str(tmp_path / "ap3.col"))
    assert code == 0 and rep["r"] == 4


_MAX_SHADOW_BY_TS = properties._max_shadow_by_ts
_QUOTIENT = properties.quotient_max_shadow_by_ts


def _zero_base(c):
    # the base coloring's shadows read 0, so every blow-up breaks the recursive bound;
    # the blow-ups themselves are measured by the quotient kernel, not here
    return dict.fromkeys(_MAX_SHADOW_BY_TS(c), 0)


# each suite's bound raised past any shadow it is compared with, or, for
# blowup's recursive bound, its base values read as 0
BROKEN_BOUNDS = {
    "lowerbound": (bounds, "general_lower_bound", lambda n, r, k, t, s: math.comb(n, s) + 1),
    "kk": (bounds, "kk_root", lambda m, k: 100.0),
    "density": (bounds, "density_component_bound", lambda n, k, t, s, delta: math.comb(n, s) + 1),
    "blowup": (properties, "_max_shadow_by_ts", _zero_base),
}


@pytest.mark.parametrize("suite", sorted(BROKEN_BOUNDS))
def test_broken_bound_is_reported_and_exits_1(monkeypatch, capsys, suite):
    # no suite can pass whatever it measures
    module, name, fake = BROKEN_BOUNDS[suite]
    monkeypatch.setattr(module, name, fake)
    code, rep = run(capsys, "verify", suite, "--trials", "2")
    assert code == 1
    assert rep["violations"]
    if suite == "blowup":
        assert {v["kind"] for v in rep["violations"]} == {"recursive-bound"}


def test_inflated_blow_up_values_are_reported_and_exit_1(monkeypatch, capsys):
    # the blown-up side of the recursive bound, read from the quotient kernel,
    # past any base side: the bound is checked on that side too
    def inflated(sizes, colors):
        return {ts: value + math.comb(sum(sizes), 3) ** 2 for ts, value in _QUOTIENT(sizes, colors).items()}

    monkeypatch.setattr(properties, "quotient_max_shadow_by_ts", inflated)
    code, rep = run(capsys, "verify", "blowup", "--trials", "2")
    assert code == 1
    assert len(rep["violations"]) == 2 * 3
    assert {v["kind"] for v in rep["violations"]} == {"recursive-bound"}
