#!/usr/bin/env python3
"""Builds and runs the QuickDrop end-to-end benchmark.

    python3 perfbench/run.py --workload train|serve_http \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is compiled from the
checkout's own sources (perfbench/ plus src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; build output goes to stderr. The last line
of standard output is the run's JSON result (see perfbench/NOTES.md).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "qd_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "qd_perfbench")


def main(argv):
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    work = os.path.join(build_root, "work")
    command = [binary] + args + ["--work-dir", work]
    if opts.get("--trace") == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.jsonl" % (opts.get("--workload", "run"), opts.get("--seed", "0"))
        command += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
