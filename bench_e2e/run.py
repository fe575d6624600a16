#!/usr/bin/env python3
"""Real-engine end-to-end benchmark: build, run one workload, check, report.

Run from the root of a fairmpi checkout:

    python3 bench_e2e/run.py --workload pairwise --seed 1 --seconds 10 --trace 0

Builds bench_e2e (and the engine library from ../src) with CMake into
$CARGO_TARGET_DIR (default .bench_build), runs the driver, prints every
metric by name and unit, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 runs two processes, each for half of --seconds: an untraced one
and a traced one (obs on, sampled spans around the public calls), and
reports the per-layer metrics plus the tracing overhead between the two.
The traced run's spans are written, in Chrome trace-event format, under
<build dir>/traces/.

Workload names and metric names, units and bounds are read from
BENCHMARK.json at the repository root, the one place they are declared.

Exit status: 0 when every check passed, 1 when a check failed or the driver
hit its time limit, 2 when the benchmark cannot build or run here.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESS_LIMIT_S = 170  # the whole command must end within 180 s


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


# Gated name -> the driver's own metric name, per kind of workload. Every
# workload reports each end-to-end metric BENCHMARK.json declares; what it
# measures there is in README.md.
SOURCE = {
    "p2p": {"rate": "msg_rate", "lat_p50_us": "window_p50_us", "lat_tail_us": "window_p90_us"},
    "allreduce_8B": {"rate": "allreduce_rate", "lat_p50_us": "allreduce_8B_p50_us",
                     "lat_tail_us": "allreduce_8B_p99_us"},
    "allreduce_1MiB": {"rate": "allreduce_rate", "lat_p50_us": "allreduce_1MiB_p50_us",
                       "lat_tail_us": "allreduce_1MiB_p90_us"},
}


def source_of(workload):
    return SOURCE.get(workload, SOURCE["p2p"])


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then (re)build; both are no-ops when up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "include", "fairmpi"))):
        fail("no fairmpi sources next to bench_e2e (../src, ../include)")
    out = os.path.join(build_dir(), "bench_e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def run_driver(binary, args, deadline):
    """Run the driver; returns (exit code, parsed result or None)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FAIRMPI_")}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        print("run.py: driver exceeded %.0f s" % timeout, file=sys.stderr)
        return 4, None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return r.returncode, None


def print_report(res):
    host = res.get("host", {})
    print("workload %s  seed %s  %s s%s" % (res["workload"], res["seed"], res["seconds"],
                                            "  traced" if res.get("traced") else ""))
    print("host: nproc %s, cpu %s, llc %s, build %s" % (host.get("nproc"), host.get("cpu_model"),
                                                       host.get("llc"), host.get("build_type")))
    for p in res.get("placement", []):
        print("  worker %d %s %d: rank %d cpu %d cri %d (expected %d)" % (
            p["worker"], p["role"], p["index"], p["rank"], p["cpu"], p["cri"], p["cri_expected"]))
    print("correct %s  attempted %s  failed %s" % (res["correct"], res["attempted"], res["failed"]))
    if res.get("hang"):
        print("time limit hit: %s ops unfinished" % res["unfinished"])
    for name, m in res.get("metrics", {}).items():
        print("  %-24s %14.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject",
                    help="negative check: corrupt, fail_settle, wrong_binding, hang, hang_sender")
    a = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    if not 0 < a.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    deadline = time.monotonic() + PROCESS_LIMIT_S
    binary = build()
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.inject:
        base += ["--inject", a.inject]

    if a.trace == 0:
        code, res = run_driver(binary, base + ["--seconds", str(a.seconds)], deadline)
        runs = [res]
    else:
        half = str(a.seconds / 2)
        code, plain = run_driver(binary, base + ["--seconds", half], deadline)
        res = None
        if plain is not None and code == 0:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            out = os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))
            code, res = run_driver(binary, base + ["--seconds", half, "--trace-out", out], deadline)
        runs = [plain, res]
    for r in runs:
        if r is not None:
            print_report(r)
    if any(r is None or "metrics" not in r for r in runs):
        return 1  # refused, timed out or crashed: the driver said why on stderr

    src = source_of(a.workload)
    if a.trace == 0:
        metrics = {}
        for m in spec["end_to_end"]:
            raw = res["metrics"][src.get(m["name"], m["name"])]
            metrics[m["name"]] = {"value": raw["value"], "unit": m["unit"]}
    else:
        layers = dict(res["layers"])
        rate = src["rate"]
        untraced, traced = plain["metrics"][rate]["value"], res["metrics"][rate]["value"]
        layers["trace.overhead_frac"] = 1.0 - traced / untraced if untraced > 0 else 0.0
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for n, m in metrics.items():
            print("  %-42s %14.6g %s" % (n, m["value"], m["unit"]))
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
