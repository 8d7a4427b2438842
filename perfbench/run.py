#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs one
workload (or all of them) on it.

    python3 perfbench/run.py --workload walk_ira --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10 --trace 1
    python3 perfbench/run.py --test        # histogram unit test only

Run it from the repository root. Build products, scratch files and trace
files go under $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; metrics holds every end_to_end metric BENCHMARK.json
declares (--trace 0) or every per_layer one (--trace 1). The lines before
it print every metric the run measured, by name and unit, and the run
descriptor. Exit status is 0 only when the build, the run, the database
audit and the layer self-check all succeeded.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["walk_ira", "walk_read", "served_disk_ira"]
# A run must end within 180 s, so a hung run is stopped a little earlier.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    """Configures (once) and builds target; returns the binary's path."""
    out = os.path.join(build_dir, "perfbench")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            # A failed configure must not leave a cache that looks usable.
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, target)


def source_id():
    """The git commit when the checkout is a git work tree, else a digest
    of the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_one(binary, build_dir, workload, args, sid):
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--source-id", sid]
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        # One file per workload: the latest traced run overwrites it.
        trace_file = os.path.join(build_dir, "traces", workload + ".json")
        cmd += ["--trace-out", trace_file]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail("%s: run did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s: no report (exit status %d)" % (workload, proc.returncode))

    print("== %s  seed %d  %s s  trace %d" %
          (workload, args.seed, args.seconds, args.trace))
    for section in ("end_to_end", "per_layer"):
        for name, m in report[section].items():
            n = " (n=%d)" % m["samples"] if m["samples"] else ""
            print("  %-30s %16.6f %s%s" % (name, m["value"], m["unit"], n))
    print("  descriptor " + json.dumps(report["descriptor"], sort_keys=True))
    if trace_file:
        print("  trace file " + trace_file)
    for p in report["problems"]:
        print("  PROBLEM " + p)
    if proc.returncode != 0 or not report["correct"]:
        fail("%s: run failed its checks (exit status %d)" %
             (workload, proc.returncode))

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in declared_metrics(args.trace):
        m = report[section].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            fail("%s: metric %s (%s) not measured" %
                 (workload, spec["name"], spec["unit"]))
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": True, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the histogram unit test")
    args = ap.parse_args()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"

    if args.test:
        test = build(build_dir, "histogram_test")
        sys.exit(subprocess.run([test]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    start = time.time()
    binary = build(build_dir, "perfbench")
    print("perfbench: build ready in %.1f s" % (time.time() - start),
          file=sys.stderr)
    sid = source_id()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_one(binary, build_dir, w, args, sid) for w in names]
    if len(results) > 1:
        for w, r in zip(names, results):
            print("result %s %s" % (w, json.dumps(r)))
    print(json.dumps(results[-1]))


if __name__ == "__main__":
    main()
