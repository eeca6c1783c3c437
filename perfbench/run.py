#!/usr/bin/env python3
"""Builds the benchmark in Release and runs one workload (or the smoke test).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The library is compiled from the repository's own sources by
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the repository root); the root build files are
not used. Build output goes to standard error, so the last line of standard
output is the JSON result. Each run removes its durability and publish
directories under .perfbench_run/ when it ends; a traced run leaves its
trace file there.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def configured_for(cache, source):
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip()) == source
    except OSError:
        pass
    return False


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "dspc"))):
        fail("the library sources (CMakeLists.txt, src/dspc) are not next to "
             "perfbench/; run from a full checkout")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and not configured_for(cache, os.path.realpath(HERE)):
        import shutil
        shutil.rmtree(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "dspc_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "dspc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="oracle self-test plus every workload at toy size")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    work_dir = os.path.join(ROOT, ".perfbench_run")
    if args.smoke:
        cmd = [binary, "--smoke", "--work-dir", work_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    sys.stdout.flush()
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, forward)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
