#!/usr/bin/env python3
"""Benchmark of the incremental-CFG-patching rewriter.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload cold_corpus|edit_stream|chromium_scale \
        --seed N --seconds S --trace 0|1 [--latency-limit-ms L]

builds the rewriter and the icpbench program from source into
.bench_build/ (the first run builds, later runs only check), runs one
workload, prints a human-readable report and, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, from a separate traced run. The full result (host block,
every named metric with its sample count, determinism counts, span
self times) is kept in .bench_build/results/.

Other modes:

    python3 perfbench/run.py suite [--runs N] [--seconds S] [--out FILE]
        N timed runs (seeds 1..N) and one traced run per workload,
        collected into one result file.
    python3 perfbench/run.py compare A.json B.json
        medians and quartiles of every end-to-end metric side by side,
        per workload, plus per-span self-time deltas of the traced runs.
    python3 perfbench/run.py selftest [--all]
        seeded inputs repeat at one seed and differ across seeds;
        counts that must repeat exactly do so across two runs.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "icpbench")
RESULTS = os.path.join(".bench_build", "results")
WORKLOADS = ["cold_corpus", "edit_stream", "chromium_scale"]
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build icpbench and the icp CLI; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "icpbench", "icp_cli"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log("build: cannot run %s: %s" % (cmd[0], e))
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: %s" % " ".join(cmd))
            return False
    return True


def commit_id():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_icpbench(argv, timeout):
    """Run icpbench in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("icpbench timed out after %d s" % timeout)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_one(workload, seed, seconds, trace, limit_ms):
    """One run; returns the full result dict or None."""
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(".bench_build", "w%d" % os.getpid())
    out = os.path.join(RESULTS, "%s-s%d-t%d.json" % (workload, seed, trace))
    if os.path.exists(out):
        os.remove(out)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [os.path.join(BUILD, "icpbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out, "--work", work,
            "--icp", os.path.join(BUILD, "icp_tools", "icp"),
            "--commit", commit_id(), "--latency-limit-ms", str(limit_ms)]
    try:
        rc = run_icpbench(argv, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0 or not os.path.exists(out):
        log("icpbench failed (exit %s)" % rc)
        return None
    with open(out) as f:
        return json.load(f)


def report(result, names):
    """Human-readable lines for a run (stdout, before the JSON line)."""
    host = result["host"]
    print("icpbench %s seed %d trace %d: nproc %d, %s, %s, commit %s" % (
        result["workload"], result["seed"], result["trace"], host["nproc"],
        host["build_type"], host["compiler"], host["commit"][:12]))
    print("  correct %s, attempted %d, failed %d (failed_ops_frac %g)" % (
        result["correct"], result["attempted"], result["failed"],
        result["failed_ops_frac"]))
    for reason in result["failures"][:5]:
        print("  failure: %s" % reason)
    section = "per_layer" if result["trace"] else "named"
    for name, m in sorted(result[section].items()):
        extra = []
        if m.get("samples"):
            extra.append("n=%d" % m["samples"])
        if m.get("note"):
            extra.append(m["note"])
        if m.get("absent"):
            extra.append("absent")
        print("  %-28s %14.6g %-8s %s" % (name, m["value"], m["unit"],
                                         "; ".join(extra)))
    missing = [n for n in names if n not in result[
        "per_layer" if result["trace"] else "end_to_end"]]
    return missing


def cmd_run(args):
    spec = benchmark_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    if not build():
        return 1
    result = run_one(args.workload, args.seed, args.seconds, args.trace,
                     args.latency_limit_ms)
    if result is None:
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    missing = report(result, names)
    if missing:
        log("result lacks metrics: %s" % ", ".join(missing))
        return 1
    metrics = {}
    for name in names:
        m = result[section][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def cmd_suite(args):
    if not build():
        return 1
    suite = {"workloads": {}}
    for workload in args.workloads:
        entry = {"runs": [], "trace": None}
        for seed in range(1, args.runs + 1):
            r = run_one(workload, seed, args.seconds, 0, args.latency_limit_ms)
            if r is None:
                return 1
            log("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in r["end_to_end"].items()})))
            entry["runs"].append(r)
            suite["host"] = r["host"]
        r = run_one(workload, args.runs + 1, args.seconds, 1,
                    args.latency_limit_ms)
        if r is None:
            return 1
        entry["trace"] = r
        suite["workloads"][workload] = entry
    with open(args.out, "w") as f:
        json.dump(suite, f, indent=1)
    log("wrote %s" % args.out)
    return 0


def load_suite(path):
    """A suite file, or a single run's result file as a one-run suite."""
    with open(path) as f:
        data = json.load(f)
    if "workloads" in data:
        return data
    entry = {"runs": [], "trace": None}
    if data.get("trace"):
        entry["trace"] = data
    else:
        entry["runs"].append(data)
    return {"host": data.get("host"), "workloads": {data["workload"]: entry}}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_compare(args):
    a, b = load_suite(args.a), load_suite(args.b)
    for side, s in (("A", a), ("B", b)):
        h = s.get("host") or {}
        print("%s: %s  nproc %s, %s, %s, commit %s" % (
            side, getattr(args, side.lower()), h.get("nproc"),
            h.get("build_type"), h.get("compiler"), h.get("commit")))
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa = a["workloads"].get(workload, {"runs": [], "trace": None})
        wb = b["workloads"].get(workload, {"runs": [], "trace": None})
        print("\n%s (runs: A %d, B %d)" % (workload, len(wa["runs"]),
                                           len(wb["runs"])))
        print("  %-24s %-9s %12s %12s %12s | %12s %12s %12s %8s" % (
            "metric", "unit", "A q1", "A median", "A q3", "B q1",
            "B median", "B q3", "delta"))
        names = sorted({n for r in wa["runs"] + wb["runs"]
                        for n in r["end_to_end"]} |
                       {n for r in wa["runs"] + wb["runs"]
                        for n in r["named"]})
        for name in names:
            row, unit, medians = [], "", []
            for runs in (wa["runs"], wb["runs"]):
                vals = []
                for r in runs:
                    m = r["end_to_end"].get(name) or r["named"].get(name)
                    if m is not None:
                        vals.append(m["value"])
                        unit = m["unit"]
                if vals:
                    q1, med, q3 = quartiles(vals)
                    row += ["%12.5g" % q1, "%12.5g" % med, "%12.5g" % q3]
                    medians.append(med)
                else:
                    row += ["%12s" % "-"] * 3
                    medians.append(None)
            delta = "-"
            if None not in medians and medians[0]:
                delta = "%+.1f%%" % ((medians[1] / medians[0] - 1) * 100)
            print("  %-24s %-9s %s %s %s | %s %s %s %8s" % (
                name, unit, *row, delta))
        ta = (wa["trace"] or {}).get("spans", {})
        tb = (wb["trace"] or {}).get("spans", {})
        if ta or tb:
            print("  span self time per op (ms), traced runs:")
            ops_a = sum(v["count"] for k, v in ta.items() if k.startswith("op:"))
            ops_b = sum(v["count"] for k, v in tb.items() if k.startswith("op:"))
            for span in sorted(set(ta) | set(tb)):
                sa = ta.get(span, {}).get("self_ms", 0.0) / max(ops_a, 1)
                sb = tb.get(span, {}).get("self_ms", 0.0) / max(ops_b, 1)
                print("    %-36s A %10.4f  B %10.4f  delta %+10.4f" % (
                    span, sa, sb, sb - sa))
    return 0


def cmd_selftest(args):
    if not build():
        return 1
    ok = True
    icpbench = os.path.join(BUILD, "icpbench")
    workloads = WORKLOADS if args.all else ["cold_corpus", "edit_stream"]

    def input_hash(workload, seed):
        work = os.path.join(".bench_build", "selftest-%d" % os.getpid())
        os.makedirs(work, exist_ok=True)
        proc = subprocess.run([icpbench, "--workload", workload, "--seed",
                               str(seed), "--inputs-only", "--work", work],
                              stdout=subprocess.PIPE, text=True)
        shutil.rmtree(work, ignore_errors=True)
        return proc.stdout.strip().split()[-1] if proc.returncode == 0 else None

    for workload in WORKLOADS:
        h1, h1b, h2 = (input_hash(workload, 1), input_hash(workload, 1),
                       input_hash(workload, 2))
        good = h1 is not None and h1 == h1b and h1 != h2
        ok &= good
        print("inputs %-15s seed 1: %s %s, seed 2: %s  %s" % (
            workload, h1, h1b, h2, "ok" if good else "FAIL"))

    for workload in workloads:
        runs = [run_one(workload, 7, 2, 0, args.latency_limit_ms)
                for _ in range(2)]
        if None in runs:
            print("determinism %-15s FAIL (run failed)" % workload)
            ok = False
            continue
        da, db = runs[0]["determinism"], runs[1]["determinism"]
        diff = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
        good = not diff and bool(da) and all(r["correct"] for r in runs)
        ok &= good
        print("determinism %-15s %d counts %s%s" % (
            workload, len(da), "ok" if good else "FAIL",
            (": " + ", ".join(diff)) if diff else ""))
        if workload == "edit_stream":
            # edit.<binary>.<kind><site>.dirty|emitted: a code edit
            # dirties and re-emits one function, an unread data byte
            # none.
            want = {"code": 1, "data": 0}

            def kind(key):
                parts = key.split(".")
                return parts[2].rstrip("0123456789") if parts[0] == "edit" else ""

            checked = [k for k in da if kind(k) in want]
            bad = [k for k in checked if da[k] != want[kind(k)]]
            good = bool(checked) and not bad
            ok &= good
            print("edit counts (%d) %s%s" % (len(checked),
                                             "ok" if good else "FAIL: ",
                                             ", ".join(bad)))
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    os.chdir(ROOT)
    argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        description="Benchmark of the incremental-CFG-patching rewriter.")
    if argv and argv[0] in ("suite", "compare", "selftest"):
        mode = argv.pop(0)
        if mode == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
            return cmd_compare(parser.parse_args(argv))
        parser.add_argument("--latency-limit-ms", type=float, default=100.0)
        if mode == "selftest":
            parser.add_argument("--all", action="store_true")
            return cmd_selftest(parser.parse_args(argv))
        parser.add_argument("--runs", type=int, default=5)
        parser.add_argument("--seconds", type=int, default=30)
        parser.add_argument("--workloads", nargs="+", default=WORKLOADS)
        parser.add_argument("--out", default=os.path.join(RESULTS, "suite.json"))
        return cmd_suite(parser.parse_args(argv))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-ms", type=float, default=100.0)
    return cmd_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
