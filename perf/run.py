#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (perf/README.md).

One run of one workload (what BENCHMARK.json's command runs); the last
line of stdout is the result JSON:

  python3 perf/run.py --workload W --seed N --seconds S --trace 0|1 [--out DIR]

Repetitions and their statistics:

  python3 perf/run.py repeat --runs 10 --out DIR [--workloads W,...]
  python3 perf/run.py summary DIR              # medians, quartiles, spreads
  python3 perf/run.py compare PARENT_DIR CHANGE_DIR
  python3 perf/run.py selftest ASSOC_PERF      # the quick ctest
  python3 perf/run.py verdict-test             # compare's rule, known answers

The build lands in .bench_build/perf at the repository root.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
BUILD = os.path.join(ROOT, ".bench_build", "perf")
WORK = os.path.join(ROOT, ".bench_build", "work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def child_env():
    # Compilers and the programs under test keep their temporaries in
    # the checkout, not in the system's temporary directory.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure and build assoc_perf; exit 2 when that fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", PERF, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode:
            sys.exit(2)
    return os.path.join(BUILD, "assoc_perf")


def perf_cmd(exe, workload, seed, seconds, trace, out=None, quick=False):
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if not quick:
        # The self-test keeps to its build directory's own work dir.
        cmd.append(f"--work={WORK}")
    if out:
        cmd.append(f"--out={out}")
    if quick:
        cmd.append("--quick")
    return cmd


def run_one(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    a = p.parse_args(argv)
    exe = build()
    cmd = perf_cmd(exe, a.workload, a.seed, a.seconds, a.trace, a.out)
    return subprocess.run(cmd, env=child_env()).returncode


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def repeat(argv):
    p = argparse.ArgumentParser(prog="run.py repeat")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads")
    a = p.parse_args(argv)
    spec = load_spec()
    names = (a.workloads.split(",") if a.workloads
             else [w["name"] for w in spec["workloads"]])
    exe = build()
    # Always seeds 1..runs at BENCHMARK.json's run_seconds, so any two
    # sets pair up seed by seed and measure runs of the same length.
    # Seed-major order, so a slow spell of the host lands on every
    # workload instead of on one.
    for seed in range(1, a.runs + 1):
        for w in names:
            cmd = perf_cmd(exe, w, seed, spec["run_seconds"], 0, a.out)
            r = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                               text=True)
            res = last_json(r.stdout)
            print(f"{w} seed {seed}: exit {r.returncode} "
                  f"correct {res and res['correct']}", file=sys.stderr)
            if r.returncode:
                return r.returncode
    return 0


def load_runs(directory):
    """{workload: [result, ...]} from a directory of --out files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.seed*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(argv):
    p = argparse.ArgumentParser(prog="run.py summary")
    p.add_argument("dir")
    a = p.parse_args(argv)
    spec = load_spec()
    runs = load_runs(a.dir)
    out = {"runs_per_workload": {}, "stamp": None, "workloads": {}}
    for w, rs in sorted(runs.items()):
        stamp = dict(rs[0]["stamp"])
        for k in ("seed", "jobs", "clients"):
            stamp.pop(k)
        out["stamp"] = out["stamp"] or stamp
        out["runs_per_workload"][w] = len(rs)
        row = {"jobs": rs[0]["stamp"]["jobs"],
               "clients": rs[0]["stamp"]["clients"]}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, q2, q3 = quartiles(vals)
            row[m["name"]] = {"median": q2, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / q2, "bound": m["bound"],
                              "unit": m["unit"], "n": len(vals)}
        out["workloads"][w] = row
    # A traced run's per-layer values, when the directory holds one.
    for path in sorted(glob.glob(os.path.join(a.dir, "*.layers.json"))):
        with open(path) as f:
            r = json.load(f)
        out.setdefault("layers", {})[r["workload"]] = {
            k: v["value"] for k, v in r["metrics"].items()}
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def verdict(parent, change, better, bound):
    """The choosing-metrics rule for one (metric, workload) row.

    A median worse by more than the bound is a regression however
    noisy the parent is: "unresolved" only ever replaces "unchanged".
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    gain = sign * (cm - pm)
    worse = -gain / pm
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse > bound:
        v = "regressed"
    elif won >= 0.9 and gain > (p3 - p1):
        v = "improved"
    elif (p3 - p1) / pm > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return won, worse, v


def verdict_test(argv):
    """Known answers of verdict(); the perf_verdict ctest runs this."""
    argparse.ArgumentParser(prog="run.py verdict-test").parse_args(argv)
    steady = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    noisy = [100.0, 60, 140, 70, 130, 100, 80, 120, 90, 110]
    cases = [
        # (parent, change, better, bound, want)
        (steady, steady, "lower", 0.1, "unchanged"),
        (steady, [v * 2 for v in steady], "lower", 0.1, "regressed"),
        (steady, [v / 2 for v in steady], "higher", 0.1, "regressed"),
        (steady, [v / 2 for v in steady], "lower", 0.1, "improved"),
        # A noisy parent cannot hide a 2x-worse change...
        (noisy, [v * 2 for v in noisy], "lower", 0.1, "regressed"),
        # ...but does leave a small shift unresolved.
        (noisy, [v * 1.05 for v in noisy], "lower", 0.1, "unresolved"),
    ]
    bad = 0
    for parent, change, better, bound, want in cases:
        _, worse, got = verdict(parent, change, better, bound)
        if got != want:
            bad += 1
            print(f"verdict-test: worse {worse:+.1%} ({better} is better, "
                  f"bound {bound}): got {got}, want {want}", file=sys.stderr)
    print(f"verdict-test: {bad} failure(s) of {len(cases)}")
    return 1 if bad else 0


def compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent")
    p.add_argument("change")
    a = p.parse_args(argv)
    spec = load_spec()
    parent, change = load_runs(a.parent), load_runs(a.change)
    regressed = False
    print(f"{'workload':13} {'metric':15} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5} {'worse':>7} verdict")
    for w in sorted(set(parent) & set(change)):
        # Pairs are runs with the same seed on both sides.
        ps = {r["stamp"]["seed"]: r for r in parent[w]}
        cs = {r["stamp"]["seed"]: r for r in change[w]}
        seeds = sorted(set(ps) & set(cs))
        if not seeds:
            continue
        for m in spec["end_to_end"]:
            pv = [ps[s]["metrics"][m["name"]]["value"] for s in seeds]
            cv = [cs[s]["metrics"][m["name"]]["value"] for s in seeds]
            won, worse, v = verdict(pv, cv, m["better"], m["bound"])
            regressed |= v == "regressed"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{w:13} {m['name']:15} "
                  f"{pq[1]:12.6g} [{pq[0]:10.6g}, {pq[2]:10.6g}] "
                  f"{cq[1]:12.6g} [{cq[0]:10.6g}, {cq[2]:10.6g}] "
                  f"{won:5.2f} {worse:+7.1%} {v}")
    return 1 if regressed else 0


def selftest(argv):
    p = argparse.ArgumentParser(prog="run.py selftest")
    p.add_argument("exe")
    a = p.parse_args(argv)
    spec = load_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    start = time.monotonic()
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = perf_cmd(a.exe, w["name"], 1, 1, trace, quick=True)
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            res = last_json(r.stdout)
            where = f"{w['name']} trace={trace}"
            if r.returncode or res is None:
                failures.append(f"{where}: exit {r.returncode}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append(f"{where}: correct {res['correct']} "
                                f"failed {res['failed']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(got) & set(want[trace])
                               if got[k] != want[trace][k])
                failures.append(f"{where}: missing {missing} extra {extra} "
                                f"wrong unit {wrong}")
    for f in failures:
        print("selftest:", f, file=sys.stderr)
    print(f"selftest: {len(failures)} failure(s) in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failures else 0


def main():
    modes = {"repeat": repeat, "summary": summary, "compare": compare,
             "selftest": selftest, "verdict-test": verdict_test}
    if len(sys.argv) > 1 and sys.argv[1] in modes:
        return modes[sys.argv[1]](sys.argv[2:])
    return run_one(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
