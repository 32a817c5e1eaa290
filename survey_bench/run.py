#!/usr/bin/env python3
"""Survey benchmark: build survey_bench from source and run one workload.

Run from the repository root:

    python3 survey_bench/run.py --workload apertif_beams --seed 1 \
        --seconds 15 --trace 0

Workloads: apertif_beams, lofar_stream, apertif_highdm (see BENCHMARK.json
for why each exists). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. The exit status is non-zero
when the build fails, an output check fails, or the printed metrics do not
match the names and units BENCHMARK.json declares.

The build goes to .bench_build/survey_bench under the repository root;
the run writes only its tuning-cache file below that directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "survey_bench")
WORKLOADS = ("apertif_beams", "lofar_stream", "apertif_highdm")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources: expected src/ next to %s" % os.path.basename(HERE))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
        ]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "survey_bench")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: " + line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    declared_metrics(args.trace)  # fail before building in a bare directory
    binary = build()
    workdir = os.path.join(BUILD, "run", args.workload)
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--source", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if not lines:
        fail("survey_bench printed nothing (exit %d)" % proc.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
