#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a checkout.

  python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py compare OLD.txt NEW.txt

A run builds perfbench/main.exe with dune (no shared cache, so nothing is
written outside the checkout), runs one workload in a fresh process and
passes its output through; the last line is the result JSON.  `all` runs
the four workloads one after another, each in its own process.
`compare` reads saved outputs of several runs per side (a run's `meta`
line and result line) and prints each metric's median and quartiles per
workload; it refuses to compare runs made on different core counts.
See perfbench/README.md.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["plan", "sweep", "serve-open", "serve-overload"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "--display=quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        sys.exit("perfbench: dune not found on PATH")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def run_one(args):
    """Run main.exe; echo its output; return (exit code, last line)."""
    cmd = [EXE] + args + ["--nproc", str(nproc())]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as p:
        try:
            out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            sys.exit("perfbench: run timed out")
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    return p.returncode, (lines[-1] if lines else "")


def run_all(args):
    rows, ok = [], True
    for w in WORKLOADS:
        code, last = run_one(["--workload", w] + args)
        try:
            res = json.loads(last)
        except ValueError:
            res = {"correct": False, "metrics": {}}
        ok = ok and code == 0 and res["correct"]
        rows += [(w, k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        rows.append((w, "correct", res["correct"], ""))
    print("\n%-16s %-36s %16s %s" % ("workload", "metric", "value", "unit"))
    for w, k, v, u in rows:
        print("%-16s %-36s %16.6g %s" % (w, k, v, u) if not isinstance(v, bool)
              else "%-16s %-36s %16s" % (w, k, v))
    return 0 if ok else 1


def load_runs(path):
    """Pair each `meta` line with the result line that follows it."""
    runs, meta = [], None
    with open(path) as f:
        for line in f:
            if line.startswith("meta "):
                meta = json.loads(line[5:])
            elif line.startswith('{"correct"') and meta is not None:
                runs.append((meta, json.loads(line)))
                meta = None
    return runs


def compare(old_path, new_path):
    sides = {"old": load_runs(old_path), "new": load_runs(new_path)}
    cores = {(m["nproc"], m["domains"]) for runs in sides.values() for m, _ in runs}
    if len(cores) > 1:
        print("perfbench: runs were made on different core counts %s; "
              "timings are not comparable" % sorted(cores))
        return 1
    table = {}
    for side, runs in sides.items():
        for meta, res in runs:
            for k, m in res["metrics"].items():
                table.setdefault((meta["workload"], k), {}).setdefault(side, []).append(m["value"])
    print("%-16s %-36s %-4s %5s %14s %14s %14s" %
          ("workload", "metric", "side", "runs", "q1", "median", "q3"))
    for (w, k), by_side in sorted(table.items()):
        for side in ("old", "new"):
            vs = by_side.get(side, [])
            if len(vs) >= 2:
                q1, q2, q3 = statistics.quantiles(vs, n=4)
            elif vs:
                q1 = q2 = q3 = vs[0]
            else:
                continue
            print("%-16s %-36s %-4s %5d %14.6g %14.6g %14.6g" % (w, k, side, len(vs), q1, q2, q3))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare OLD.txt NEW.txt")
        return compare(argv[1], argv[2])
    if not os.path.exists(os.path.join("perfbench", "dune")):
        sys.exit("perfbench: run from the root of the repository")
    build()
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        return run_all(argv[:i] + argv[i + 2:])
    code, _ = run_one(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
