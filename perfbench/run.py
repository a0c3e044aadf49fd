#!/usr/bin/env python3
"""Build the library and the perfbench binary from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout root, configured as
RelWithDebInfo, and is incremental after the first run. Build output goes
to stderr; the binary's output goes to stdout, whose last line is the
result object. Any other argument is passed to the binary unchanged (see
perfbench/README.md). Exits non-zero, without a result, when the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: build step timed out: %s" % " ".join(cmd),
              file=sys.stderr)
        return False
    return r.returncode == 0


def build():
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
            return None
    if not run_quiet(["cmake", "--build", out, "-j", jobs], 850):
        return None
    exe = os.path.join(out, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def main(argv):
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--root", ROOT] + argv
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as p:
        try:
            out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return p.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
