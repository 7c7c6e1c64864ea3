#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload testbed_tune --seed 1 --seconds 30

The first call configures and builds `perfbench/` (the simulator libraries
from `src/` plus `perfbench.cc`) into `.bench_build/perfbench`; later calls only
re-check the build. The program's last stdout line is the result object:
`{"correct", "attempted", "failed", "metrics"}`. Build output goes to
stderr. Workloads and metrics are described in perfbench/NOTES.md.

Maintainers re-record the reference results (one line per input-pool
member, see perfbench.cc) with:

    python3 perfbench/run.py --record
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mron_perfbench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["testbed_tune", "cluster1023_recovery", "whatif_search"]


def build():
    """Configure once, then (re)build `mron_perfbench`; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "mron_perfbench"],
                   check=True, stdout=sys.stderr)


def record():
    lines = ["# Reference results: one line per input-pool member.",
             "# Regenerate with: python3 perfbench/run.py --record"]
    for workload in WORKLOADS:
        out = subprocess.run([BINARY, "--workload=" + workload, "--record"],
                             cwd=ROOT, check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        lines.extend(out.splitlines())
    with open(REFERENCE, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", default=REFERENCE,
                   help="reference results to check against")
    p.add_argument("--record", action="store_true",
                   help="rewrite the reference results and exit")
    args = p.parse_args()
    if not args.record and args.workload is None:
        p.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.record:
        record()
        return 0
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--reference=" + os.path.abspath(args.reference)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
