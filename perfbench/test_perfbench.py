"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from monotight import core, properties, search  # noqa: E402


def test_wrong_expected_value_is_caught(monkeypatch):
    name = "exact." + workloads.instance_name(*workloads.PROVEN[0])
    monkeypatch.setitem(workloads.EXPECTED, name, {**workloads.EXPECTED[name], "value": 8})
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "search-exact", "--seed", "1", "--seconds", "1"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 4


def test_self_time_subtracts_child_coverage():
    recorded = [
        ["a", -1, 0, 100, 0, 0],
        ["b", 0, 10, 30, 5, 0],
        ["c", 1, 12, 20, 0, 1],
        ["b", 0, 50, 60, 5, 0],
    ]
    stats = spans.aggregate(recorded)
    assert stats["a"]["self_s"] * 1e9 == 70
    assert round(stats["b"]["self_s"] * 1e9) == 22
    assert stats["b"]["calls"] == 2 and stats["b"]["work"] == 10
    assert stats["c"]["failures"] == 1


def test_tracer_sees_calls_bound_by_name_and_restores_them():
    originals = (properties._component_indices, search.measure, core.measure)
    tracer = spans.Tracer()
    tracer.install()
    try:
        c = search.random_coloring(6, 2, 3, seed=1)
        properties._max_shadow_by_ts(c)
        search.measure(c, 1, 2)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert {"search.random_coloring", "core.component_indices", "core.shadow_members"} <= set(names)
    measure_span = names.index("core.measure")
    children = [span[0] for span in tracer.spans if span[1] == measure_span]
    assert children and set(children) <= {"core.component_indices", "core.shadow_members"}
    assert (properties._component_indices, search.measure, core.measure) == originals


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER
    ]
    layer = spans.layer_metrics([], 1, {}, 1.0, 0.0)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}


def test_tree_without_the_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_an_operation_that_raises_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    wl = workloads.Workload("x", "trials", [workloads.Op("boom", boom, lambda raw: ({}, 1, []))])
    (op,) = run.run_pass(wl, None)["ops"]
    assert op["s"] is None and op["problems"] == ["boom: raised an exception"]
