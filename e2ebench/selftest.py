#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 e2ebench/selftest.py

Checks, from the root of a source tree:
  * a short run of every workload prints, in its last line, exactly the
    result keys, passes the correctness gate, and reports every metric
    BENCHMARK.json names (end-to-end untraced, per-layer traced) as a
    finite number with the declared unit;
  * the correctness gate counts a deliberately altered copy of a reply
    as a failed operation;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run_bench(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(spec, workload, trace, result):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{where}: gate {result['correct']} "
             f"{result['failed']}/{result['attempted']} failed")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{where}: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} = {value!r} is not a finite number")
        if m.get("unit") != want[name]:
            fail(f"{where}: {name} unit {m.get('unit')!r}, "
                 f"declared {want[name]!r}")


def check_gate():
    proc = subprocess.run([str(BUILD / "e2ebench"), "--selftest-gate"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or \
            json.loads(proc.stdout).get("gate_selftest") is not True:
        fail("the gate did not count an altered reply as failed")


def check_bare(spec):
    bare = BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                             "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("a tree without the sources still produced a result")


# corpus_serve runs and reports every metric but is not registered in
# BENCHMARK.json (see README.md), so it is listed here as well.
WORKLOADS = ("synth_scale", "ser_campaign", "corpus_serve")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace in (0, 1):
            check_result(spec, name, trace, run_bench(spec, name, trace))
            print(f"selftest: ok: {name} trace={trace}")
    check_gate()
    print("selftest: ok: altered reply counted as failed")
    check_bare(spec)
    print("selftest: ok: bare tree exits non-zero without a result")


if __name__ == "__main__":
    main()
