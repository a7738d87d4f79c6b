#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ with CMake and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload {taint-heavy,stall-ff,fig-sweep} \
        --seed N --seconds S --trace {0,1} [--quick]

--trace 0 prints the end-to-end metrics (nothing instrumented);
--trace 1 prints the per-layer metrics of a separate traced pass.
The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics"; build output and the human report
go to stderr. Exits non-zero without a result if the build or the run
fails. Everything it writes stays under .bench_build/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "spt_perfbench")
WORKLOADS = ("taint-heavy", "stall-ff", "fig-sweep")
SETUP_REPEATS = 11
DEADLINE_S = 175.0


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=870)


def harness(mode, args, work_dir, env, timeout):
    """Runs the harness in its own process group, so that on a timeout
    its measuring child processes are killed with it; returns stdout."""
    cmd = [BINARY, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work-dir", work_dir]
    if mode == "run":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_group_gone(proc.pid)
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out


def wait_group_gone(pgid, limit_s=10.0):
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def setup_seconds(args, work_dir, env):
    """Median over fresh processes of process start -> first timed call
    (registry build, grid construction, cache-dir creation)."""
    samples = []
    for i in range(SETUP_REPEATS):
        spawned = time.monotonic_ns()
        out = harness("setup", args, f"{work_dir}-setup{i}", env, 60)
        samples.append((int(out.split()[-1]) - spawned) / 1e9)
    return statistics.median(samples)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true",
                    help="reduced-size grids (self-test)")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    # The benchmark configures the runner itself; inherited SPT_* knobs
    # (cache dir, sweep socket, worker count, log level) must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPT_")}
    work_dir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    try:
        build()
        setup_s = setup_seconds(args, work_dir, env) if args.trace == 0 \
            else None
        left = DEADLINE_S - (time.monotonic() - start)
        out = harness("run", args, work_dir, env, max(left, 1.0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        for path in [work_dir] + [f"{work_dir}-setup{i}"
                                  for i in range(SETUP_REPEATS)]:
            shutil.rmtree(path, ignore_errors=True)

    result = json.loads(out.strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
