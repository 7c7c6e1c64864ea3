#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, with one-second runs of every workload:
  * a plain run (--trace 0) prints every end_to_end metric named in
    BENCHMARK.json and a traced run (--trace 1) every per_layer metric,
    each with its declared unit, in a result line with exactly the keys
    correct/attempted/failed/metrics, and no operation fails;
  * a corrupted reference makes operations fail (failed > 0, correct
    false);
  * a directory holding only BENCHMARK.json and the benchmark's own files
    (no simulator sources) exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(args):
    code, lines = run(args)
    if code != 0 or not lines:
        raise AssertionError("run %s exited %d" % (args, code))
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError("result keys %s" % sorted(res))
    if res["attempted"] < 1:
        raise AssertionError("no operation attempted")
    return res


def check_metrics(res, declared, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError("%s metrics differ from BENCHMARK.json: "
                             "missing %s, extra %s, units %s" % (
                                 what, sorted(set(want) - set(got)),
                                 sorted(set(got) - set(want)),
                                 {k: (got[k], want[k]) for k in got
                                  if k in want and got[k] != want[k]}))
    for name, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError("%s: non-numeric value" % name)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            res = result(["--workload", name, "--seed", "1", "--seconds",
                          "1", "--trace", str(trace)])
            check_metrics(res, declared, "%s --trace %d" % (name, trace))
            if not res["correct"] or res["failed"] != 0:
                raise AssertionError("%s: operations failed" % name)
            print("ok   %s --trace %d: %d ops" % (name, trace,
                                                  res["attempted"]))

    os.makedirs(SCRATCH, exist_ok=True)
    corrupt = os.path.join(SCRATCH, "corrupt-reference.txt")
    with open(os.path.join(HERE, "reference.txt")) as src, \
            open(corrupt, "w") as dst:
        for line in src:
            # Shift every recorded prediction by one part in a thousand.
            dst.write(" ".join(
                "predicted_s=%.17g" % (float(f.split("=")[1]) * 1.001)
                if f.startswith("predicted_s=") else f
                for f in line.split()) + "\n")
    res = result(["--workload", "whatif_search", "--seed", "1", "--seconds",
                  "1", "--reference", corrupt])
    if res["correct"] or res["failed"] == 0:
        raise AssertionError("corrupted reference went unnoticed")
    print("ok   corrupted reference: %d of %d ops failed" % (
        res["failed"], res["attempted"]))

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines = run(["--workload", "whatif_search", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError("benchmark without sources did not fail")
    print("ok   without simulator sources: exit %d, no result" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
