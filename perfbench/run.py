#!/usr/bin/env python3
"""Build the DSE service and its benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The benchmark is not part of the repository's dune project. Both forms
first copy dune-project, lib/, bin/ and the benchmark's sources into a
project of their own under .bench_build/src (perfbench/build.dune becomes
its perfbench/dune) and build `dse.exe` and `perfbench.exe` there.

The first form then replaces itself with the benchmark, passing its
arguments through; the last stdout line is the JSON result. The second
runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that each prints every metric BENCHMARK.json names, with its unit,
and no failed request; it also starts `dse route` forty times and submits
at once, and fails if a gateway dies of its start-up race (see
gateway_grace in perfbench.ml).
"""

import json
import os
import shutil
import subprocess
import sys

STAGE = os.path.join(".bench_build", "src")
BINARY = os.path.join(STAGE, "_build", "default", "perfbench", "perfbench.exe")
DSE = os.path.join(STAGE, "_build", "default", "bin", "dse.exe")


def stage():
    for needed in ("dune-project", os.path.join("bin", "dse.ml"), "lib",
                   os.path.join("perfbench", "build.dune")):
        if not os.path.exists(needed):
            sys.exit("perfbench: %s not found; run from the repository root" % needed)
    os.makedirs(STAGE, exist_ok=True)
    # copies keep their modification times, so an unchanged source does
    # not make dune rebuild
    shutil.copy2("dune-project", STAGE)
    for tree in ("lib", "bin"):
        shutil.rmtree(os.path.join(STAGE, tree), ignore_errors=True)
        shutil.copytree(tree, os.path.join(STAGE, tree))
    bench = os.path.join(STAGE, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    os.makedirs(bench)
    for name in os.listdir("perfbench"):
        if name.endswith(".ml"):
            shutil.copy2(os.path.join("perfbench", name), bench)
    shutil.copy2(os.path.join("perfbench", "build.dune"), os.path.join(bench, "dune"))


def build():
    stage()
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/dse.exe", "./perfbench/perfbench.exe"],
        cwd=STAGE,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def self_check():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            done = subprocess.run(
                [BINARY, "--workload", name, "--seed", "1", "--seconds", "2",
                 "--trace", trace, "--dse", DSE],
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = done.stdout.strip().splitlines()
            where = "%s --trace %s" % (name, trace)
            if done.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (where, done.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: %d of %d requests failed" %
                                (where, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (where, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s in %s, expected %s" %
                                    (where, m["name"], got["unit"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (where, sorted(extra)))
            print("%s: %d metrics, %d/%d failed" %
                  (where, len(metrics), result["failed"], result["attempted"]))
    probe = subprocess.run([BINARY, "--gateway-probe", "40", "--dse", DSE])
    if probe.returncode != 0:
        problems.append("gateway start-up probe: a gateway died on its first request")
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    if sys.argv[1:] == ["--self-check"]:
        self_check()
    build()
    os.execv(BINARY, [BINARY] + sys.argv[1:] + ["--dse", DSE])


if __name__ == "__main__":
    main()
