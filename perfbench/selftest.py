#!/usr/bin/env python3
"""Self-test of the planner benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload at its tiny size on two seeds, untraced and traced,
and checks that:
  * the last stdout line is the result object, correct, with every metric
    BENCHMARK.json names (end-to-end untraced, per-layer traced) and its unit;
  * a second seed yields different inputs that still plan and check clean;
  * deterministic metrics (plan quality, ok ratio, every counter) repeat
    exactly for the same seed, except fleet's racy cache counters;
  * every traced plan is byte-identical to the CLI's plan for the same op;
  * without the repository around it the benchmark exits non-zero and
    prints no result.
It also runs the tracer's unit tests.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path("perfbench")
SEEDS = (101, 102)
DETERMINISTIC_UNITS = {"cycles", "bits", "bytes", "count"}
DETERMINISTIC_NAMES = {"ok_ops_ratio", "tdcsoc.profile_cache.useful_ratio", "selenc.memo.hit_ratio"}
# Fleet's two outer workers race to build shared SOCs and profiles, so on
# fleet-sweep these counters legitimately change between repeats; plan
# content and the per-plan counters still repeat exactly.
FLEET_RACY = ("tdcsoc.widths_", "tdcsoc.profile_cache.", "selenc.memo.", "fleet.soc_cache.",
              "fleet.redundant_")


def run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}"
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def check_result(result, expected, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert list(result["metrics"]) == list(expected), f"{where}: metric names {list(result['metrics'])}"
    for name, spec in result["metrics"].items():
        assert spec["unit"] == expected[name], f"{where}: {name} unit {spec['unit']}"
        assert isinstance(spec["value"], (int, float)), f"{where}: {name} value {spec['value']}"


def deterministic(workload, result):
    return {n: m["value"] for n, m in result["metrics"].items()
            if (m["unit"] in DETERMINISTIC_UNITS or n in DETERMINISTIC_NAMES)
            and not (workload == "fleet-sweep" and n.startswith(FLEET_RACY))}


def bare_checkout_fails():
    bare = BENCH / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("work", "out", "target"))
    shutil.copy("BENCHMARK.json", bare)
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fleet-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                         capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0, "benchmark succeeded outside a repository checkout"
    assert "correct" not in res.stdout, "benchmark printed a result outside a repository checkout"


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    res = subprocess.run(["cargo", "test", "--release", "--offline", "-q", "--manifest-path",
                          str(BENCH / "tracer" / "Cargo.toml")], capture_output=True, text=True)
    assert res.returncode == 0, f"tracer unit tests failed:\n{res.stdout[-2000:]}{res.stderr[-2000:]}"
    print("tracer unit tests: ok")
    for w in spec["workloads"]:
        name = w["name"]
        for trace, expected in ((0, e2e), (1, layers)):
            first, rec_a = run(name, SEEDS[0], trace)
            again, _ = run(name, SEEDS[0], trace)
            other, rec_b = run(name, SEEDS[1], trace)
            for result, seed in ((first, SEEDS[0]), (again, SEEDS[0]), (other, SEEDS[1])):
                check_result(result, expected, f"{name} seed {seed} trace {trace}")
            assert deterministic(name, first) == deterministic(name, again), \
                f"{name} trace {trace}: deterministic metrics differ between repeats"
            assert rec_a["detail"]["inputs"] != rec_b["detail"]["inputs"], \
                f"{name}: seeds {SEEDS} generated the same inputs"
            if trace:
                for rec in (rec_a, rec_b):
                    assert rec["detail"]["traced_plans_identical"] == rec["result"]["attempted"], \
                        f"{name}: traced plans were not all byte-identical to the CLI's"
            print(f"{name} trace {trace}: ok")
    bare_checkout_fails()
    print("bare checkout exits non-zero: ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
