#!/usr/bin/env python3
"""Build and run the bench_report benchmark.

Run from the repository root:

  python3 bench_report/run.py --workload toy --seed 1 --seconds 12 --trace 0
      Build (if needed) and run one workload; the last stdout line is the
      result JSON.  Exit code 0 means every correctness check passed.
  python3 bench_report/run.py suite [--repeats 5] [--sets 1] [--trace 0|1]
                                    [--seconds S] [--seed N] [--out FILE]
      Run every workload (each in its own process), print a table of every
      metric per workload, optionally save the result set.  Exits non-zero
      if any run fails a correctness check.
  python3 bench_report/run.py compare base=A.json head=B.json
      One row per (metric, workload): improved, unchanged, regressed or
      unresolved, using the bounds in BENCHMARK.json.
  python3 bench_report/run.py smoke [--bin PATH]
      Every workload once in quick mode, traced and untraced; fails unless
      every check passes and every metric BENCHMARK.json names is printed.

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to
the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the driver; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("bench_report: runtime sources not found under " + str(ROOT))
        return None
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "--target", "bench_report", "-j", jobs]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        return None
    return out / "bench_report"


def run_binary(binary, workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (exit code, stdout lines, result or None)."""
    out = build_dir()
    sock_dir = out / "sock"
    sock_dir.mkdir(parents=True, exist_ok=True)
    args = [str(binary), "workload=" + workload, "seed=%d" % seed,
            "seconds=%s" % seconds, "trace=%d" % trace,
            "quick=%d" % int(quick),
            # Relative, so the socket paths fit sun_path.
            "sock_dir=" + os.path.relpath(sock_dir, ROOT),
            "trace_dir=" + str(out / "traces")]
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench_report: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def host_description():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = ""
    try:
        compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "os": platform.platform(), "compiler": compiler}


def cmd_single(args):
    binary = build()
    if binary is None:
        return 1
    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        return 1
    return code


def cmd_suite(args):
    bench = load_benchmark()
    binary = build()
    if binary is None:
        return 1
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    ok = True
    sets = []
    for s in range(args.sets):
        values = {w: {} for w in names}
        units = {}
        for r in range(args.repeats):
            seed = args.seed + s * args.repeats + r
            for w in names:
                code, lines, result = run_binary(binary, w, seed, seconds,
                                                 args.trace)
                if result is None or code != 0 or not result["correct"]:
                    ok = False
                    log("FAILED: %s seed %d" % (w, seed))
                    for line in lines[-5:]:
                        log("  " + line)
                    continue
                for m, v in result["metrics"].items():
                    values[w].setdefault(m, []).append(v["value"])
                    units[m] = v["unit"]
                log("set %d run %d %s done" % (s + 1, r + 1, w))
        sets.append({"runs": args.repeats, "workloads": {
            w: {m: dict(unit=units[m], **summarize(vs))
                for m, vs in ms.items()}
            for w, ms in values.items()}})
    print_table(sets, names)
    if args.out:
        doc = {"host": host_description(), "seconds": seconds,
               "trace": args.trace, "sets": sets}
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def print_table(sets, names):
    for i, s in enumerate(sets):
        print("# set %d (%d runs per workload): median [q1, q3]" %
              (i + 1, s["runs"]))
        metrics = []
        for w in names:
            for m in s["workloads"].get(w, {}):
                if m not in metrics:
                    metrics.append(m)
        for m in metrics:
            for w in names:
                st = s["workloads"].get(w, {}).get(m)
                if st is None:
                    continue
                spread = (st["q3"] - st["q1"]) / st["median"] \
                    if st["median"] else 0.0
                print("%-40s %-8s %14.6g %-5s [%.6g, %.6g] spread %.1f%%" %
                      (m, w, st["median"], st["unit"], st["q1"], st["q3"],
                       100 * spread))


def pooled(doc):
    out = {}
    for s in doc["sets"]:
        for w, ms in s["workloads"].items():
            for m, st in ms.items():
                out.setdefault((w, m), []).extend(st["values"])
    return out


def verdict(base, head, bound, better):
    """choosing-metrics rules: a spread wider than the bound is
    unresolved unless every head run beats every base run."""
    mb, mh = statistics.median(base), statistics.median(head)
    if mb == 0 or mh == 0:
        return "unresolved", 0.0

    def iqr(v, m):
        if len(v) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(sorted(v), n=4)
        return (q3 - q1) / abs(m)

    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mh - mb) / abs(mb)
    spread = max(iqr(base, mb), iqr(head, mh))
    pairs = [(h, b) for h in head for b in base]
    wins = sum(1 for h, b in pairs if sign * (h - b) < 0) / len(pairs)
    if spread > bound:
        return ("improved" if wins == 1.0 else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if -worse > iqr(base, mb) and wins >= 0.9:
        return "improved", worse
    return "unchanged", worse


def cmd_compare(args):
    kv = dict(a.split("=", 1) for a in args.files if "=" in a)
    if "base" not in kv or "head" not in kv:
        log("usage: run.py compare base=A.json head=B.json")
        return 2
    with open(kv["base"]) as f:
        base = pooled(json.load(f))
    with open(kv["head"]) as f:
        head = pooled(json.load(f))
    bench = load_benchmark()
    regressed = False
    print("%-16s %-8s %14s %14s %8s  %s" %
          ("metric", "workload", "base", "head", "change", "verdict"))
    for spec in bench["end_to_end"]:
        for w in [x["name"] for x in bench["workloads"]]:
            key = (w, spec["name"])
            if key not in base or key not in head:
                print("%-16s %-8s %14s %14s %8s  missing" %
                      (spec["name"], w, "-", "-", "-"))
                continue
            v, worse = verdict(base[key], head[key], spec["bound"],
                               spec["better"])
            regressed = regressed or v == "regressed"
            print("%-16s %-8s %14.6g %14.6g %+7.1f%%  %s" %
                  (spec["name"], w, statistics.median(base[key]),
                   statistics.median(head[key]), 100 * worse, v))
    return 1 if regressed else 0


def cmd_smoke(args):
    bench = load_benchmark()
    binary = Path(args.bin) if args.bin else build()
    if binary is None:
        return 1
    ok = True
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run_binary(binary, w, 1, 1, trace,
                                             quick=True)
            want = {m["name"] for m in bench[key]}
            got = set(result["metrics"]) if result else set()
            missing = sorted(want - got)
            good = code == 0 and result is not None and result["correct"] \
                and not missing and result["attempted"] > 0
            print("%-8s trace=%d %s%s" % (w, trace, "ok" if good else "FAIL",
                  " missing " + ",".join(missing) if missing else ""))
            if not good:
                for line in lines[-5:]:
                    print("  " + line)
            ok = ok and good
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("suite", "compare", "smoke"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "suite":
            p.add_argument("--repeats", type=int, default=5)
            p.add_argument("--sets", type=int, default=1)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--seconds", type=float, default=None)
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--out")
            return cmd_suite(p.parse_args(argv[1:]))
        if argv[0] == "compare":
            p.add_argument("files", nargs="*")
            return cmd_compare(p.parse_args(argv[1:]))
        p.add_argument("--bin")
        return cmd_smoke(p.parse_args(argv[1:]))

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
