#!/usr/bin/env python3
"""Veritas benchmark: build it, run one workload, check it, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a Veritas checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
rebuild what changed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The full record (dataset spec, generation report, seed, checks,
per-workload metric names) is written to .bench_build/results/, next to the
Chrome-trace spans of traced runs. A failed check exits 1; a missing source
tree or a failed build exits without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")
DIGESTS = os.path.join(BUILD, "digests")
BINARY = os.path.join(BUILD, "veritas_bench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Veritas sources next to perfbench/ (src/ is missing)", 2)
    # Compiler temporaries go under the build tree, not the system /tmp.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs,
                   "--target", "veritas_bench"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def digest_check(record):
    """Selections must not change between runs of the same checkout."""
    key_source = json.dumps([record["workload"], record["spec"],
                             record["session"]], sort_keys=True)
    key = hashlib.sha1(key_source.encode()).hexdigest()[:16]
    os.makedirs(DIGESTS, exist_ok=True)
    path = os.path.join(DIGESTS, "%s-%s.txt" % (record["workload"], key))
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == record["digest"]
    with open(path, "w") as f:
        f.write(record["digest"] + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    expected = declared_metrics(args.trace == 1)

    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", RESULTS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("veritas_bench exited %d without a record" % proc.returncode, 1)
    record = json.loads(lines[-1])

    metrics = record["metrics"]
    checks = dict(record["checks"])
    checks["digest_stable_across_runs"] = digest_check(record)
    checks["metrics_as_declared"] = (
        set(metrics) == set(expected)
        and all(metrics[n]["unit"] == u for n, u in expected.items()))
    checks["metrics_finite"] = all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in metrics.values())
    correct = (proc.returncode == 0 and record["correct"]
               and all(checks.values()))
    record["checks"] = checks
    record["correct"] = correct

    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1)
    for check, ok in sorted(checks.items()):
        if not ok:
            print("perfbench: check failed: " + check, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
