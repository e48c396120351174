"""Benchmark for monotight: three workloads, end-to-end metrics, and a traced
run that splits each workload's time by layer.

Usage, from the repository root (standard library only):

    python3 perfbench/run.py --workload measure-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, each in its own process

The package is imported from `src/` next to `perfbench/`; a tree without it
makes the benchmark exit with a non-zero code before printing any result.

Load
----
One process, one thread, closed loop, pinned to one CPU: the benchmark runs
a workload's operations back to back, one pass after another, and starts
another pass only while the median pass still fits in `--seconds`. Only the operations
are timed; checking their answers is not. Each workload runs in a process
of its own, so `peak_rss_mb` belongs to that workload alone.

Workloads
---------
measure-large
    Builds `two_clique_coloring`, `majority_coloring` and `parity_coloring`
    at n = 120 (280,840 edges each) and takes a uniform random 3-coloring of
    K^3_72 drawn from the seed. Each goes through `fileio.write_coloring` and
    `read_coloring` on an in-memory buffer, as the CLI's file path does, and
    is measured with `core.measure` at (t, s) = (1,3), (2,2), (2,3) and (1,2).
    Why: a few huge inputs, so the per-edge loops of `core`, `constructions`
    and `fileio` do nearly all the work and `search` is idle. s = k skips the
    shadow step and s < k is dominated by it, so a change to either path
    shows; three colorings are defined by a vertex partition and one is not,
    so a partition-only shortcut shows its share, not a whole-workload win.
search-exact
    `search.exact_M` proves (n,r,k,t,s) = (6,2,3,2,3), (6,2,3,1,3) and
    (6,3,3,2,2), and runs (7,2,3,2,3) under a budget of 500,000 nodes.
    Why: node cost plus pruning; `core.measure` only sets the starting
    incumbent. The budgeted instance fixes the node count, so it isolates the
    cost per node; the proven instances isolate the nodes to proof. The
    instances are fixed, so the seed changes nothing here.
verify-small
    Runs `cli.main(["verify", suite, ...])` in-process, stdout captured, for
    `lowerbound` (200 trials), `density` (300), `kk` (500), `blowup` (20),
    all with `--seed` set to the benchmark seed, and for the default `r2a`
    cases. Why: thousands of colorings with n <= 21, so the same `core`
    kernel runs on many tiny inputs; per-call overhead, the loops in
    `properties`, the calls into `bounds`, `blow_up` and r2a's 2^(m-1)
    enumeration dominate. A kernel change that helps measure-large but adds
    per-call cost shows here as a loss.

Answers
-------
Every operation's answer (value, status, nodes, violations, exit code,
colorings checked) is compared with the value recorded in
`workloads.EXPECTED`. A mismatch or an exception counts the operation as
failed, the result says `"correct": false`, and the exit code is 1.

Timing
------
On a shared 2-vCPU x86-64 virtual machine, speed drifts by up to 2x over
tens of seconds as other tenants load the host, far more than the changes
the benchmark must detect. So every timing is scaled to a
fixed machine speed: `reference_s()`, a fixed job that calls nothing in the
package, runs before the first operation of a pass and after each one, and
an operation's time is multiplied by REF_S over the mean of the reference
times on either side of it. Setup probes are scaled the same way. The
human-readable report also gives the raw medians (`wall_raw_s`,
`setup_raw_s`). REF_S only sets the unit; both commits of a comparison use
the same one.

Output
------
Human-readable lines come first: the environment (Python version, nproc, git
commit, seed), then every end-to-end metric by name with its unit, and with
`--trace 1` every per-layer metric. The same report is written as JSON to
`perfbench/out/result-<workload>-trace<0|1>.json`; a traced run also writes
its spans, one per line, to `perfbench/out/spans-<workload>.tsv`. The last
line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {"<name>": {"value": float, "unit": str}, ...}}

`attempted` and `failed` count operations. With `--trace 0` the metrics are
the end-to-end ones below; with `--trace 1` they are the per-layer ones in
`spans.PER_LAYER`, counted and timed per traced pass.

End-to-end metrics (untraced passes):
    setup_s      s    median over several processes of the speed-scaled time
                      from spawn of setup_probe.py until its inputs are ready:
                      interpreter start, package import, inputs from the seed
    wall_s       s    median over passes of the summed, speed-scaled time of
                      the workload's operations
    work_per_s   1/s  work over timed seconds; work is edges measured
                      (measure-large, reported as edges_per_s), search nodes
                      (search-exact, nodes_per_s) or suite trials plus r2a
                      colorings checked (verify-small, trials_per_s)
    peak_rss_mb  MB   peak resident set size of the workload's process
The human-readable report adds `fail_ratio` and, on search-exact, the exact
count `nodes_to_proof`. Timings there carry their median, the highest
percentile with at least ten samples beyond it (the maximum when there are
fewer than eleven samples), and the sample count.

A traced run alternates untraced and traced passes. Per-layer times are raw
seconds, not speed-scaled, and so is the tracing overhead `trace.overhead_s`:
the median raw traced pass minus the median raw untraced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 15
# about what reference_s() takes on an idle 2-vCPU x86-64 virtual machine
# under Python 3.11; it only fixes the unit of the speed-scaled timings
REF_S = 0.05
THROUGHPUT = {"edges": "edges_per_s", "nodes": "nodes_per_s", "trials": "trials_per_s"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def git_commit(root: Path) -> str:
    """HEAD's commit read from root/.git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or the max."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def describe(samples: list[float]) -> str:
    label, value = tail(samples)
    return f"median {statistics.median(samples):.6g}, {label} {value:.6g}, n={len(samples)}"


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python job that allocates and frees
    dicts and lists of tuples, as the package's kernels do. It gauges how
    fast the machine runs right now and calls nothing in the package. Its
    rounds are small, so it adds little to the process's peak memory."""
    start = time.perf_counter()
    for _ in range(16):
        counts: dict[int, int] = {}
        pairs = []
        for i in range(6_250):
            key = (i * 2654435761) & 0xFFFF
            counts[key] = counts.get(key, 0) + 1
            pairs.append((key, i))
        pairs.sort()
    return time.perf_counter() - start


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled seconds from each setup probe's spawn to the
    moment its inputs are ready."""
    raw, scaled = [], []
    ref_before = reference_s()
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=workloads.ROOT,
            check=True,
            timeout=120,
            stdout=subprocess.PIPE,
            text=True,
        )
        secs = float(proc.stdout) - start
        ref_after = reference_s()
        raw.append(secs)
        scaled.append(secs * 2 * REF_S / (ref_before + ref_after))
        ref_before = ref_after
    return raw, scaled


def run_pass(wl: workloads.Workload, tracer: spans.Tracer | None) -> dict:
    """Run each operation once. Only `op.run` is timed, and only it is traced;
    the reference job runs before the first operation and after each one."""
    ops = []
    ref_before = reference_s()
    for op in wl.ops:
        secs, answer, work, problems = None, {}, 0, []
        try:
            if tracer:
                tracer.install()
            try:
                start = time.perf_counter()
                raw = op.run()
                secs = time.perf_counter() - start
            finally:
                if tracer:
                    tracer.uninstall()
        except Exception:
            traceback.print_exc()
            problems = [f"{op.name}: raised an exception"]
        ref_after = reference_s()
        if secs is not None:
            try:
                answer, work, problems = op.check(raw)
            except Exception:
                traceback.print_exc()
                problems = [f"{op.name}: its result could not be checked"]
        for problem in problems:
            print(f"MISMATCH {problem}", file=sys.stderr)
        scale = 2 * REF_S / (ref_before + ref_after)
        ref_before = ref_after
        ops.append({"name": op.name, "s": secs, "scale": scale, "answer": answer, "work": work,
                    "problems": problems})
    timed = [o for o in ops if o["s"] is not None]
    return {
        "traced": tracer is not None,
        "raw_s": sum(o["s"] for o in timed),
        "wall_s": sum(o["s"] * o["scale"] for o in timed),
        "ops": ops,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (full report, last-line result)."""
    setup_raw, setup_scaled = time_setup(name, seed)
    wl = workloads.setup(name, seed)
    tracer = spans.Tracer() if trace else None
    passes, durations = [], []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        passes.append(run_pass(wl, tracer if traced else None))
        durations.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - started
        if (not trace or len(passes) >= 2) and elapsed + statistics.median(durations) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_ops = [o for p in passes for o in p["ops"]]
    failed = sum(1 for o in all_ops if o["problems"])
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    work = sum(o["work"] for p in plain for o in p["ops"])
    answers = {o["name"]: o["answer"] for o in passes[-1]["ops"]}
    e2e = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls),
        "work_per_s": work / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(workloads.ROOT),
            "seed": seed,
            "workload": name,
            "seconds": seconds,
            "trace": int(trace),
        },
        "end_to_end": {
            **e2e,
            THROUGHPUT[wl.work_unit]: e2e["work_per_s"],
            "fail_ratio": failed / len(all_ops),
            "setup_raw_s": statistics.median(setup_raw),
            "wall_raw_s": statistics.median(p["raw_s"] for p in plain),
        },
        "samples": {
            "setup_s": setup_scaled,
            "wall_s": walls,
            "setup_raw_s": setup_raw,
            "wall_raw_s": [p["raw_s"] for p in plain],
            **{
                f"{op.name}.s": [
                    o["s"] * o["scale"] for p in plain for o in p["ops"] if o["name"] == op.name and o["s"] is not None
                ]
                for op in wl.ops
            },
            "speed": [o["scale"] for o in all_ops],
        },
        "answers": answers,
        "problems": [pr for o in all_ops for pr in o["problems"]],
    }
    if name == "search-exact":
        report["end_to_end"]["nodes_to_proof"] = sum(
            answers.get("exact." + workloads.instance_name(*inst), {}).get("nodes", 0)
            for inst in workloads.PROVEN
        )
    units = {
        **END_TO_END,
        THROUGHPUT[wl.work_unit]: f"{wl.work_unit}/s",
        "fail_ratio": "failed/attempted",
        "setup_raw_s": "s",
        "wall_raw_s": "s",
        "nodes_to_proof": "nodes",
    }
    if trace:
        traced_walls = [p["raw_s"] for p in passes if p["traced"]]
        layer = spans.layer_metrics(
            tracer.spans,
            len(traced_walls),
            answers,
            spans.colex_rate(name),
            statistics.median(traced_walls) - statistics.median(p["raw_s"] for p in plain),
        )
        report["per_layer"] = layer
        report["samples"]["traced_wall_raw_s"] = traced_walls
        tracer.write(OUT / f"spans-{name}.tsv")
        metrics = {m: {"value": layer[m], "unit": unit} for m, unit, _ in spans.PER_LAYER}
    else:
        metrics = {m: {"value": e2e[m], "unit": unit} for m, unit in END_TO_END.items()}
    report["units"] = units

    result = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed, "metrics": metrics}
    return report, result


def print_report(report: dict) -> None:
    env = report["environment"]
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    samples = report["samples"]
    for metric, value in report["end_to_end"].items():
        spread = f"  ({describe(samples[metric])})" if metric in samples else ""
        print(f"{env['workload']} {metric} = {value:.6g} {report['units'][metric]}{spread}")
    for key, values in samples.items():
        if key not in report["end_to_end"] and values:
            unit = "x" if key == "speed" else "s"
            print(f"{env['workload']} {key}: {describe(values)} {unit}")
    units = {m: unit for m, unit, _ in spans.PER_LAYER}
    for metric, value in report.get("per_layer", {}).items():
        print(f"{env['workload']} {metric} = {value:.6g} {units[metric]}")


def run_all(args) -> int:
    """Each workload in its own process; prints their reports and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=workloads.ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the operations, the reference job and the setup probes,
        # which inherit it, so the reference gauges the CPU the work runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
