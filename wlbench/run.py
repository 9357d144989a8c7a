#!/usr/bin/env python3
"""Build and run the standing benchmark.

Usage, from the root of a wlcq checkout:

    python3 wlbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 wlbench/run.py --quick

The first form builds bin/wlcq.exe and the benchmark with dune, then
runs one workload; the last line of its stdout is the result object.
Outputs (daemon log, spans, OpenMetrics snapshots) go to .wlbench/.

--quick is the benchmark's self-test: every workload with a few
requests, checking that every metric named in BENCHMARK.json is
emitted with its unit, that a planted wrong expected answer counts as a
failed operation, and that each daemon drains with exit 0 and removes
its socket.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "wlbench", "wlbench.exe")


def fail(msg):
    print("wlbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("bin", "wlcq.ml"), "BENCHMARK.json"):
        if not os.path.exists(need):
            fail("run from the root of a wlcq checkout (%s is missing)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/wlcq.exe", "./wlbench/wlbench.exe", "./wlbench/peak_rss.exe"],
        stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def run(args):
    return subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, timeout=600)


def last_two(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if len(lines) < 2:
        return None, None
    return json.loads(lines[-2])["wlbench_report"], json.loads(lines[-1])


def quick():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(["--workload", name, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--quick"])
            report, res = last_two(r.stdout)
            tag = "%s trace %d" % (name, trace)
            if r.returncode != 0 or res is None:
                problems.append(tag + ": no result (exit %d)" % r.returncode)
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(tag + ": result keys " + ",".join(sorted(res)))
            if not res["correct"] or res["failed"] != 0:
                problems.append(tag + ": not correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if want != got:
                problems.append(tag + ": metrics differ from BENCHMARK.json: %s"
                                % sorted(set(want.items()) ^ set(got.items())))
            if not all(isinstance(m["value"], (int, float))
                       for m in res["metrics"].values()):
                problems.append(tag + ": a metric value is not a number")
            if name.startswith("serve") and not (
                    report.get("daemon_exit") == 0 and report.get("socket_removed") is True):
                problems.append(tag + ": daemon did not drain with exit 0 "
                                "and remove its socket")
        r = run(["--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", "0", "--quick", "--plant-wrong"])
        _, res = last_two(r.stdout)
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append(name + ": planted wrong answer was not counted as a failure")
    for p in problems:
        print("FAIL " + p)
    print("quick self-test: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    build()
    if sys.argv[1:] == ["--quick"]:
        quick()
    # the benchmark replaces this process, so a signal sent to the
    # command reaches it (and through it, its daemon) directly
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
