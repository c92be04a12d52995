#!/usr/bin/env python3
"""The nuchase benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It configures and builds
perfbench/CMakeLists.txt (the nuchase libraries, nuchase_server and the
harness) in Release mode under .bench_build/, then runs the harness. The
last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}); the line before it,
prefixed "detail ", records the seed, sample counts and a host and build
fingerprint (nproc, CPU model, build type, source commit).

Extra harness flags (--tiny, --corrupt-expected, --dump-inputs FILE) are
passed through; perfbench/selftest.py uses them. See perfbench/README.md
for the workloads and metrics.
"""
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds in Release; returns False when it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no nuchase sources next to perfbench/ (src/CMakeLists.txt missing)")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target",
         "perfbench_harness", "nuchase_server_bin"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return build_type() == "Release"


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_commit():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    if not build():
        return 2
    out_dir = os.path.join(BUILD_ROOT, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_harness"), *argv,
               "--out-dir", out_dir,
               "--server-bin", os.path.join(BUILD, "nuchase", "tools", "nuchase_server")]
    harness = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = harness.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        sys.stdout.write(harness.stdout)
        return harness.returncode or 1
    detail = json.loads(lines[-2][len("detail "):])
    detail.update({"cpu_model": cpu_model(), "build_type": build_type(),
                   "commit": source_commit()})
    for line in lines[:-2]:
        print(line)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(lines[-1], flush=True)
    return harness.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
