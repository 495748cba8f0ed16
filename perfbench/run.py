#!/usr/bin/env python3
"""Build the arrow directory benchmark from source and run one workload.

    python3 perfbench/run.py --workload <sim|analysis|net|cluster> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), and traces and daemon journals to
`perfbench-out/` inside it. The last line of standard output is the run's
JSON result; the exit code is non-zero when the build, the run or an output
check fails.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
build = subprocess.run(
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join(here, "Cargo.toml")],
    env={**os.environ, "CARGO_TARGET_DIR": target},
    stdout=sys.stderr,
)
if build.returncode != 0:
    sys.exit("perfbench: build failed")
# The single-threaded workloads run on one CPU, the highest-numbered one this
# process may use: CPU 0 takes the device interrupts, and left to the kernel
# the CPU they landed on moved their calibrated times by ~12% from run to run.
args = sys.argv[1:]
if any(a == "--workload" and b in ("sim", "analysis") for a, b in zip(args, args[1:])):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
exe = os.path.join(target, "release", "perfbench")
os.execv(exe, [exe, "--out", os.path.join(target, "perfbench-out")] + args)
