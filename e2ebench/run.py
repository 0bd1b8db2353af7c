#!/usr/bin/env python3
"""Build and run the rchls repository benchmark (see README.md here).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the `e2ebench` driver (Release) into .bench_build/; later calls reuse it.
The driver's full JSON document (fingerprint, gate, phases, metrics) is
printed and kept under .bench_build/results/; the last line of stdout is
the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Exits non-zero, printing no result, when the build or the
run fails.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2ebench"
WORKLOADS = ("synth_scale", "ser_campaign", "corpus_serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "e2ebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 1

    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    results = BUILD / "results"
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work, ROOT),
           "--out-dir", os.path.relpath(results, ROOT),
           "--git-rev", source_rev()]
    try:
        # Relative work paths keep the daemon's socket path short.
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return 1
    sys.stderr.write(proc.stderr)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout)

    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))

    metrics = doc["per_layer" if args.trace else "end_to_end"]
    for key, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            log(f"metric {key} is not a finite number")
            return 1
    result = {"correct": bool(doc["correct"]),
              "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]),
              "metrics": metrics}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
