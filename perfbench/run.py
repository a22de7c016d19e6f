#!/usr/bin/env python3
"""Repository benchmark: one timed run of one workload.

    python3 perfbench/run.py --workload enum-dblp --seed 1 --seconds 20 --trace 0

Run from the repository root. The script
  1. builds perfbench/perfbench.exe and the daemon with dune;
  2. makes the workload's inputs for this seed once, in their own process,
     and caches them under perfbench/_work/inputs/;
  3. runs the timed process on those files only (with --trace 1: one
     untraced and one traced process, reporting per-layer metrics and the
     tracing overhead of every end-to-end metric);
  4. checks that deterministic counters repeat exactly across runs of one
     seed;
  5. prints a context line holding the workload's own figures ("detail":
     delays, serving latencies, per-module times and counters), then the
     record: correct, attempted, failed, metrics.

Every workload reports the same metrics, whose names and units come from
BENCHMARK.json. A build failure, a crashed run or a timeout exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

DEADLINE_S = 170  # a run must end within 180 s
BUILD_S = 850  # the run that builds may take 900 s
WORK = os.path.join("perfbench", "_work")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "scliques_daemon_main.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_child(argv, deadline, capture):
    """Run argv in its own process group; kill the whole group (the
    daemon serve-churn starts included) when the deadline passes."""
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("timed out: " + " ".join(argv))
    finally:
        # nothing the child started may outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        die("failed with exit code %d: %s" % (proc.returncode, " ".join(argv)))
    return out.decode() if capture else ""


def dune_argv():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found")


def build(deadline):
    run_child(
        dune_argv()
        + ["build", "--root", ".", "--display", "quiet",
           "perfbench/perfbench.exe", "bin/scliques_daemon_main.exe"],
        deadline,
        capture=False,
    )


def inputs_dir(workload, seed, deadline):
    """The seed's inputs, made once per build of perfbench.exe."""
    with open(EXE, "rb") as f:
        version = hashlib.md5(f.read()).hexdigest()[:12]
    final = os.path.join(WORK, "inputs", "%s-%d-%s" % (workload, seed, version))
    if os.path.exists(os.path.join(final, "READY")):
        return final
    tmp = "%s.tmp%d" % (final, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    run_child([EXE, "prepare", workload, str(seed), tmp], deadline, capture=False)
    open(os.path.join(tmp, "READY"), "w").close()
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return final


def timed_run(workload, inputs, seconds, traced, deadline):
    work = os.path.join(WORK, "run-%d-%d" % (os.getpid(), int(traced)))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(WORK, "spans-%s.jsonl" % workload)
    try:
        out = run_child(
            [EXE, "run", workload, inputs, work, str(seconds),
             "1" if traced else "0", DAEMON, spans],
            deadline,
            capture=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        die("the timed run printed nothing")
    return json.loads(lines[-1])


def filesystem_of(path):
    """Type of the file system holding path, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                rest = fields[fields.index("-") + 1:]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, rest[0]
    except OSError:
        pass
    return fstype


def check_counters(workload, seed, seconds, counters, errors):
    """Deterministic counters must repeat exactly across runs of one seed."""
    path = os.path.join(WORK, "counters", "%s-%d-%s.json" % (workload, seed, seconds))
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    for name, value in sorted(counters.items()):
        if name in seen and seen[name] != value:
            errors.append("counter %s differs across runs of seed %d: %d, then %d"
                          % (name, seed, seen[name], value))
        seen.setdefault(name, value)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(seen, f, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}

    # only the first run in a checkout compiles; it may take longer
    build(start + BUILD_S)
    deadline = max(start + DEADLINE_S, time.monotonic() + DEADLINE_S - 10)
    inputs = inputs_dir(args.workload, args.seed, deadline)

    errors = []
    runs = [timed_run(args.workload, inputs, args.seconds, False, deadline)]
    if args.trace:
        runs.append(timed_run(args.workload, inputs, args.seconds, True, deadline))
    counters = {}
    for record in runs:
        errors += record["errors"]
        counters.update(record["counters"])
    check_counters(args.workload, args.seed, args.seconds, counters, errors)

    plain = runs[0]
    if args.trace:
        traced = runs[1]
        values = dict(traced["layers"])
        # what the untraced run measures per layer (allocation) is taken
        # without the tracer's own cost
        values.update(plain["layers"])
        for name, v in plain["metrics"].items():
            if traced["metrics"].get(name) is not None and v is not None:
                values["trace_overhead." + name] = traced["metrics"][name] - v
        declared = layers
    else:
        values = plain["metrics"]
        declared = e2e

    metrics = {}
    for name, v in sorted(values.items()):
        if name not in declared:
            errors.append("undeclared metric %s" % name)
        elif v is None or not math.isfinite(v):
            errors.append("metric %s is not a finite number" % name)
        else:
            metrics[name] = {"value": v, "unit": declared[name]["unit"]}
    for name in sorted(set(declared) - set(metrics)):
        errors.append("metric %s is missing" % name)
    if not args.trace:
        for name, v in metrics.items():
            if v["value"] <= 0:
                errors.append("end-to-end metric %s is not positive" % name)

    for e in errors:
        print("perfbench: check failed: " + e, file=sys.stderr)
    context = dict(plain["info"])
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   cores=os.cpu_count(), state_dir_fs=filesystem_of(WORK))
    detail = {}
    for record in reversed(runs):  # the untraced run's figures win
        detail.update(record["detail"])
    context["detail"] = dict(sorted(detail.items()))
    print(json.dumps({"context": context}, sort_keys=True))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": not errors and failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
