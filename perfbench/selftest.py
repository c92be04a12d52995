#!/usr/bin/env python3
"""Self-tests for the benchmark. Run from the root of a source tree:

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. a tiny-scale run (--tiny) prints every end-to-end metric (--trace 0)
     and every per-layer metric (--trace 1) by name with its unit;
  2. with every expected answer corrupted (--corrupt-expected) the
     workload's oracle reports a mismatch and the run exits non-zero;
  3. generated inputs are byte-identical for the same seed and differ for
     another seed;
and that run.py exits non-zero without a result in a directory that
holds only BENCHMARK.json and perfbench/. Work files go under
.bench_build/selftest/. Exits 0 when every check passes.
"""
import filecmp
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_build", "selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def tiny_run(bench, workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    result = last_json(proc.stdout)
    label = f"{workload} tiny --trace {trace}"
    check(proc.returncode == 0 and result is not None and set(result) == RESULT_KEYS
          and result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{label}: exits 0 with a correct result")
    if result is None:
        return
    wanted = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    metrics = result.get("metrics", {})
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]].get("unit") != m["unit"]
               or not isinstance(metrics[m["name"]].get("value"), (int, float))]
    check(not missing and len(metrics) == len(wanted),
          f"{label}: prints every metric with its unit" +
          (f" (missing or wrong: {missing})" if missing else ""))


def corrupted_run(workload):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--tiny", "--corrupt-expected"])
    result = last_json(proc.stdout)
    check(proc.returncode != 0 and result is not None and result["correct"] is False
          and result["failed"] > 0,
          f"{workload}: the oracle catches corrupted expected answers")


def same_seed(workload):
    paths = [os.path.join(WORK_DIR, f"{workload}-{tag}.txt") for tag in ("a", "b", "c")]
    for path, seed in zip(paths, ("7", "7", "8")):
        run(["--workload", workload, "--seed", seed, "--seconds", "1",
             "--trace", "0", "--dump-inputs", path])
    exists = all(os.path.isfile(p) and os.path.getsize(p) > 0 for p in paths)
    check(exists and filecmp.cmp(paths[0], paths[1], shallow=False)
          and not filecmp.cmp(paths[0], paths[2], shallow=False),
          f"{workload}: same seed gives byte-identical inputs, another seed differs")


def bare_directory():
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "chase-wide", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "without the sources next to it, run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    os.makedirs(WORK_DIR, exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        tiny_run(bench, workload, 0)
        tiny_run(bench, workload, 1)
        corrupted_run(workload)
        same_seed(workload)
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
