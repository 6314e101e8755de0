#!/usr/bin/env python3
"""Time-to-verdict benchmark: build the toolchain, run one workload once.

Run from the root of an asura_sql checkout:

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's result as one JSON object
(correct, attempted, failed, metrics).  The full record, with the
environment and the per-class figures, is written atomically to
perfbench/results/.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

WORKLOADS = ["cold-cli", "warm-audit", "explore", "explore-2d"]

# The workloads that run one domain.  They and every process they start
# are held on one core, so that the host-speed reference (src/calib.ml)
# is timed on the core that does the work: the cores of a shared host
# drift apart in speed.
ONE_CORE = {"cold-cli", "warm-audit", "explore"}

# Variables that change what is measured (domain count, planner, flight
# recorder, inline threshold, GC settings): cleared for the benchmark
# and everything it starts; each workload pins its own domain count.
PINNED = [
    "ASURA_DOMAINS",
    "ASURA_PLANNER",
    "ASURA_PLAN_BUILD",
    "ASURA_FLIGHTREC",
    "ASURA_PAR_INLINE",
    "OCAMLRUNPARAM",
]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def git_rev():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def write_atomically(path, doc):
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        print("run from the root of an asura_sql checkout", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k not in PINNED}
    env["DUNE_CACHE"] = "disabled"  # keep build products inside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/asura.exe",
         "./perfbench/bin/main.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1

    exe = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
    asura = os.path.abspath(os.path.join("_build", "default", "bin", "asura.exe"))
    cores = os.sched_getaffinity(0)
    if args.workload in ONE_CORE:
        cores = {min(cores)}
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--asura", asura],
        env=env, stdout=subprocess.PIPE,
        preexec_fn=lambda: os.sched_setaffinity(0, cores))
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    out = proc.stdout.read().decode()
    # wait4 gives the peak resident set of the run and of every process
    # it waited for (the cold commands, the set-up forks)
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"benchmark exited {code} without a result", file=sys.stderr)
        return code or 1

    detail = result.pop("detail")
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss * 1024 / 1e6, "unit": "MB"}
    detail.update(
        git_rev=git_rev(), host_cores=os.cpu_count(), seconds=args.seconds,
        date=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    write_atomically(
        os.path.join("perfbench", "results",
                     f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        dict(result, detail=detail))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
