#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (--quick grids, short runs).

Run from the repository root:  python3 perfbench/selftest.py

Checks, for every workload and both --trace modes, that run.py prints
every metric BENCHMARK.json names with its unit, that every job passed
its correctness checks (fail_share 0), that the traced pass splits
Core::run exactly into engine and core self time, and that the
simulated digest does not depend on the seed or on tracing. Finally it
checks that run.py fails without a result when the simulator sources
are missing. Exits 0 when everything holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    p = subprocess.run([sys.executable, script, "--workload", workload,
                        "--seed", str(seed), "--seconds", "2",
                        "--trace", str(trace), "--quick"],
                       cwd=cwd, capture_output=True, text=True, timeout=900)
    return p


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    digests = {}
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            for seed in ((1, 2) if trace == 0 else (1,)):
                tag = f"{w} trace={trace} seed={seed}"
                p = run(w, seed, trace)
                check(p.returncode == 0, f"{tag}: exit 0")
                if p.returncode != 0:
                    print(p.stderr[-3000:])
                    continue
                result = json.loads(p.stdout.strip().splitlines()[-1])
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, f"{tag}: result keys")
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1,
                      f"{tag}: fail_share 0 "
                      f"({result['failed']}/{result['attempted']})")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected[trace],
                      f"{tag}: every metric printed with its unit")
                check("fail_share" in p.stderr, f"{tag}: fail_share line")
                m = re.search(r"digest \S+ ([0-9a-f]{16})", p.stderr)
                check(m is not None, f"{tag}: digest printed")
                if m:
                    digests.setdefault(w, set()).add(m.group(1))
                if trace == 1:
                    split = dict(re.findall(r"(\w+_ns)=(\d+)", p.stderr))
                    run_ns, eng, core = (int(split.get(k, -1)) for k in
                                         ("core_run_ns", "engine_ns",
                                          "core_self_ns"))
                    check(eng > 0 and core > 0 and eng + core == run_ns,
                          f"{tag}: engine + core self == Core::run "
                          f"({eng} + {core} vs {run_ns})")
        check(len(digests.get(w, ())) == 1,
              f"{w}: digest independent of seed and tracing")

    # Without the simulator sources the benchmark must fail, not report.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = run("fig-sweep", 1, 0, cwd=bare,
            script=os.path.join(bare, "perfbench", "run.py"))
    last = p.stdout.strip().splitlines()[-1:] or [""]
    check(p.returncode != 0 and not last[0].startswith("{"),
          "no result and non-zero exit without the sources")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
