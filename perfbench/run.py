#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds pf-broker and the benchmark program
(perfbench/pfbench.ml) with dune, then runs the phases of one run, each in
a fresh process, all pinned to one CPU. `pfbench gen` first writes the seeded inputs to a file
the other phases load, then:

  --trace 0  set-up samples (`pfbench setup`, several) and the timed run
             (`pfbench run`); prints every end-to-end metric.
  --trace 1  the traced run (`pfbench trace`); prints every per-layer metric.

Each metric is the median over the phases that measured it. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. Metric names and units come from
BENCHMARK.json at the repository root. Scratch files go to .bench_run/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BROKER = "_build/default/bin/pf_broker.exe"
PFBENCH = "_build/default/perfbench/pfbench.exe"
RUN_DIR = ".bench_run"

# Set-up samples per run, each in its own process; setup_s (in process
# also recovery_s, for broker-churn also peak_rss_mb) is their median.
SETUP_TRIALS = 5

# A run whose open-loop generator started its sends later than this
# (p99, ms), or later than one period of its open loop if that is longer
# (a whole send behind), measured the generator, not the system: it is
# invalid.
LATE_LIMIT_MS = 20.0

# Every phase of a run must end well inside the 180 s a run may take.
PHASE_TIMEOUT_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def filesystem_of(path):
    """Type of the filesystem holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def pin_to_one_cpu():
    """Pin this process, and so every phase and pf-broker it starts, to
    one CPU: the phases scale their time figures by a probe run beside
    the work (perfbench/measure.ml, host speed), which must share the
    work's core."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0]


def build():
    for need in ("dune-project", "lib", "bin/pf_broker.ml", "perfbench/pfbench.ml", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a predfilter source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--profile", "release", "./bin/pf_broker.exe", "./perfbench/pfbench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def phase(name, args, inputs):
    if name == "gen":
        cmd = [PFBENCH, "gen", args.workload, str(args.seed), inputs]
    else:
        cmd = [PFBENCH, name, inputs, str(args.seconds), BROKER]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: the phase then stops the pf-broker it started
        p.terminate()
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        fail(f"phase {name} exceeded {PHASE_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if p.returncode != 0 or (name != "gen" and not lines):
        fail(f"phase {name} exited with {p.returncode}")
    return json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(RUN_DIR, exist_ok=True)

    cpu = pin_to_one_cpu()
    t0 = time.time()
    inputs = os.path.join(RUN_DIR, f"inputs-{args.workload}-{args.seed}-{os.getpid()}.bin")
    try:
        phase("gen", args, inputs)
        if args.trace:
            phases = [phase("trace", args, inputs)]
        else:
            phases = [phase("setup", args, inputs) for _ in range(SETUP_TRIALS)] + [phase("run", args, inputs)]
    finally:
        if os.path.exists(inputs):
            os.remove(inputs)

    samples = {}
    for p in phases:
        for k, v in p["metrics"].items():
            if v is not None:
                samples.setdefault(k, []).append(v)
    merged = {k: statistics.median(v) for k, v in samples.items()}
    errors = [e for p in phases for e in p["errors"]]
    late = merged.get("loadgen.late_p99_ms")
    limit = max(LATE_LIMIT_MS, float(phases[-1]["info"].get("open_loop_period_ms", 0)))
    if late is not None and late > limit:
        errors.append(f"invalid run: the open-loop generator ran {late:.1f} ms late at p99 "
                      f"(limit {limit:g} ms)")
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "ocaml": phases[-1]["info"].get("ocaml"),
        "domains": phases[-1]["info"].get("domains"),
        "wal_filesystem": filesystem_of(RUN_DIR),
        "cpu": cpu,
        "elapsed_s": round(time.time() - t0, 1),
        "probe_median_ns": [p["info"].get("probe_median_ns") for p in phases],
        "failed_frac": failed / max(1, attempted),
    }
    print("# " + json.dumps(host))
    # the measured phase's record: raw (unscaled) figures, and for
    # broker-churn the churn's subscribe latency, which is not gated
    print("# info " + json.dumps(phases[-1]["info"]))
    for e in errors:
        print("# ERROR " + e)
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in merged:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": merged[name], "unit": unit}
        print(f"{name:40s} {merged[name]:16.6g} {unit}")
    print(f"{'failed_frac':40s} {host['failed_frac']:16.6g} ratio")
    with open(os.path.join(RUN_DIR, f"result-{args.workload}-{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump({"host": host, "errors": errors, "metrics": metrics,
                   "phases": [{"info": p["info"], "metrics": p["metrics"]} for p in phases]}, f, indent=1)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    # a wrong answer or an invalid run still reports, but fails the command
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
