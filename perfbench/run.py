#!/usr/bin/env python3
r"""Steady benchmark of lego on pglite: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload feedback-mem --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds perfbench/ (the lego libraries from src/
plus the lego_perf program) into .bench_build/. Every run then starts
lego_perf in a private mount namespace with a tmpfs mounted on a directory
under .bench_build/, so paged databases and fleet journals live in memory,
inside the checkout, and vanish with the run. The last line of stdout is
the JSON result; build logs and per-repetition details go to stderr.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lego_perf")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures once, then builds lego_perf (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lego sources under %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "lego_perf",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def tmpfs_wrapper(mountpoint):
    """Command prefix that runs the rest under a private tmpfs at
    `mountpoint`, or [] when this machine has no user/mount namespaces."""
    prefix = ["unshare", "--user", "--map-root-user", "--mount", "--",
              "sh", "-c",
              'mount -t tmpfs -o size=1g perfbench "$1" && shift && exec "$@"',
              "sh", mountpoint]
    try:
        probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return prefix if probe.returncode == 0 else []


def run_lego_perf(cmd, timeout):
    """Runs lego_perf in its own process group and returns its stdout; the
    whole group is killed if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("lego_perf overran %d s" % timeout)
    except BaseException:
        # Interrupted ourselves: take lego_perf and its fleet workers down
        # too, and wait for them before the scratch directory goes.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        fail("lego_perf exited with %d" % proc.returncode)
    return out


def validate(result, expected):
    """Checks the result object against the contract in BENCHMARK.json."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("result keys %r" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("%s is not a whole number" % key)
    if result["attempted"] < 1:
        fail("nothing attempted")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in expected]:
        fail("metrics %r, expected %r" %
             (list(metrics), [m["name"] for m in expected]))
    for m in expected:
        got = metrics[m["name"]]
        if not NAME_RE.match(m["name"]):
            fail("bad metric name %r" % m["name"])
        if got.get("unit") != m["unit"]:
            fail("%s unit %r, expected %r" % (m["name"], got.get("unit"),
                                               m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s value %r is not a finite number" % (m["name"], value))


def main():
    # SIGTERM unwinds like Ctrl-C, so the cleanup in run_lego_perf and main
    # runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--budget", type=int, default=0,
                        help="override the workload's execution budget "
                             "(benchmark self-tests only)")
    args = parser.parse_args()

    build()
    tmp = os.path.join(BUILD, "tmp-%d" % os.getpid())
    os.makedirs(tmp)
    try:
        cmd = tmpfs_wrapper(tmp)
        if not cmd:
            print("perfbench: no private tmpfs available; scratch files go "
                  "to disk and the paged figures will include its fsyncs",
                  file=sys.stderr)
        cmd += [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--tmp", tmp]
        if args.budget > 0:
            cmd += ["--budget", str(args.budget)]
        started = time.monotonic()
        out = run_lego_perf(cmd, timeout=int(2 * args.seconds) + 90)
        print("perfbench: %s finished in %.1f s" %
              (args.workload, time.monotonic() - started), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail("lego_perf printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("unparseable result line: %s" % e)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    validate(result, expected)
    if not args.trace:
        zero = [n for n, m in result["metrics"].items() if m["value"] <= 0]
        if zero:
            print("perfbench: end-to-end metrics not positive: %s" %
                  ", ".join(zero), file=sys.stderr)
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
