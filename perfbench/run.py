#!/usr/bin/env python3
"""Entry point of the repository benchmark (named by BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Checks that BENCHMARK.json (metric names and
units) and perfbench/METRICS.json (what each metric means, and which
end-to-end metric and workload each per-layer metric should move) list the
same workloads and metrics, builds the engine and the smokebench binary
from source in Release mode (perfbench/CMakeLists.txt, build directory
$CARGO_TARGET_DIR or .bench_build), runs its self-checks, then one measured
run. smokebench's lines go to stdout, build output to stderr; the last line
is the JSON result with BENCHMARK.json's end-to-end metrics (--trace 0) or
its per-layer metrics (--trace 1). Exits nonzero without a result line when
the catalogue, the sources, the build, the self-checks or the run fail, or
a listed metric was not measured; exits 1 with correct=false when an output
check fails.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_catalogue(root):
    """BENCHMARK.json's workloads and metrics, checked against METRICS.json.

    Returns (workloads, end-to-end {name: unit}, per-layer {name: unit},
    per-layer {name: workload it should move}).
    """
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(root, "perfbench", "METRICS.json")) as f:
            docs = json.load(f)
        workloads = [w["name"] for w in bench["workloads"]]
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        doc_workloads, doc_e2e, doc_layer = (
            docs["workloads"], docs["end_to_end"], docs["per_layer"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric catalogue: %r" % e)
    problems = []
    for kind, listed, described in (("workloads", workloads, doc_workloads),
                                    ("end_to_end", e2e, doc_e2e),
                                    ("per_layer", layer, doc_layer)):
        if sorted(listed) != sorted(described):
            problems.append("%s differ: BENCHMARK.json only %s, METRICS.json "
                            "only %s" % (kind,
                                         sorted(set(listed) - set(described)),
                                         sorted(set(described) - set(listed))))
    for name, d in doc_layer.items():
        if d.get("moves") not in e2e:
            problems.append("%s moves %r, not an end-to-end metric"
                            % (name, d.get("moves")))
        if d.get("workload") not in workloads:
            problems.append("%s names workload %r" % (name, d.get("workload")))
    if problems:
        fail("BENCHMARK.json and perfbench/METRICS.json disagree:\n  "
             + "\n  ".join(problems))
    return workloads, e2e, layer, {n: d["workload"] for n, d in doc_layer.items()}


def source_digest(root):
    """SHA-1 over every engine source file (path and contents)."""
    h = hashlib.sha1()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit_id(root):
    """The git commit of the checkout, or "none" outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def parse_output(stdout):
    """smokebench's `metric` lines ({name: (value, unit)}) and result line."""
    metrics, result = {}, None
    for line in stdout.splitlines():
        f = line.split()
        if len(f) == 5 and f[0] == "metric" and f[2] == "=":
            try:
                metrics[f[1]] = (float(f[3]), f[4])
            except ValueError:
                metrics[f[1]] = (math.nan, f[4])
        elif f and f[0] == "result":
            result = dict(kv.split("=", 1) for kv in f[1:] if "=" in kv)
    return metrics, result


def main():
    root = os.getcwd()
    workloads, e2e, layer, layer_workload = load_catalogue(root)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(root, "src", "core", "smoke_engine.h")):
        fail("engine sources not found under ./src; run from the repository root")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    binary = os.path.join(build_dir, "smokebench")

    # Everything after the build shares one deadline.
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    try:
        selftest = subprocess.run([binary, "--selftest"], stdout=sys.stderr,
                                  timeout=remaining())
        if selftest.returncode != 0:
            fail("benchmark self-checks failed")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id(root),
               "--source-digest", source_digest(root)]
        if args.trace:
            out_dir = os.path.join(build_dir, "reports")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                out_dir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=remaining())
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    metrics, result = parse_output(run.stdout)
    if run.returncode not in (0, 1) or result is None:
        fail("smokebench failed with exit code %d" % run.returncode)

    listed = layer if args.trace else e2e
    values = {}
    for name, unit in listed.items():
        if name in metrics:
            value, got_unit = metrics[name]
            if got_unit != unit:
                fail("%s is reported in %s, BENCHMARK.json says %s"
                     % (name, got_unit, unit))
        elif args.trace and layer_workload[name] != args.workload:
            value = 0.0  # a layer call this workload does not make
        else:
            fail("%s was not measured" % name)
        if not math.isfinite(value) or (not args.trace and value <= 0):
            fail("%s = %r is not a measurement" % (name, value))
        values[name] = {"value": value, "unit": unit}

    correct = result.get("correct") == "1" and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)),
                      "metrics": values}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
