#!/usr/bin/env python3
"""Build and run the SIWA benchmark.

    python3 siwabench/run.py --workload corpus|deep|lintd|farm \
        --seed N --seconds S --trace 0|1
    python3 siwabench/run.py --selftest

Run from anywhere inside a checkout: the script builds the benchmark
package (siwabench/CMakeLists.txt, which compiles the library from the
checkout's src/) into .bench_build/siwabench, or into
$CARGO_TARGET_DIR/siwabench when that is set, then runs one workload in a
fresh process. Build output goes to stderr; the benchmark's summary and
its final JSON result line go to stdout. Scratch files (the farm corpus)
live under the build directory and are removed at the end of the run.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "siwabench")
RUN_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 850  # the first run in a checkout may take 900 s


def fail(message):
    print("siwabench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "siwabench")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    for needed in ("src/CMakeLists.txt", "examples/siwa_farm.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no library sources in this checkout (missing %s)" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def run(command):
    """Runs `command`, waiting for it (and killing it past the timeout)."""
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    selftest = argv == ["--selftest"]
    out = build(["siwabench_selftest" if selftest else "siwabench",
                 "siwa_farm"])
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    if selftest:
        return run([os.path.join(out, "siwabench_selftest"),
                    os.path.join(out, "siwa_farm"), workdir])
    return run([os.path.join(out, "siwabench")] + argv +
               ["--workdir", workdir,
                "--farm-bin", os.path.join(out, "siwa_farm")])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
