#!/usr/bin/env python3
"""Host-cost benchmark of the Amber simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the harness with dune, then:

  --trace 0  runs the workload again and again, each time in a fresh
             process, for S seconds, and reports the medians of the
             end-to-end metrics: wall_rel (the simulated phase's wall
             time over that of a fixed calibration workload timed right
             after it in the same process), setup_s and heap_peak_mb;
  --trace 1  makes one untraced run, one traced run (per-step timing,
             gauge sampling, Chrome trace checked by
             scripts/check_trace.py), one run each with Scope.Profile and
             Watch attached, the isolated unit costs and `bench host`, and
             reports the per-layer metrics.

Every run passes the workload's correctness gate and prints a digest of
its simulated outputs; runs of one seed must agree on it.  The metric
names and units come from BENCHMARK.json.  The last line of standard
output is the result object.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")
BENCH = os.path.join(ROOT, "_build", "default", "bench", "main.exe")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
MIN_RUNS = 3
RUN_TIMEOUT_S = 60
# Host-only environment: no shared dune cache outside the checkout.
ENV = dict(os.environ, DUNE_CACHE="disabled")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for f in ("dune-project", "lib", "bench", "scripts"):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail(f"{f} is missing: run from a full checkout of the repository")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/harness.exe", "bench/main.exe"],
        cwd=ROOT,
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=840,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def harness(*args):
    """One harness process; its last stdout line is a JSON object."""
    try:
        r = subprocess.run(
            [HARNESS, *map(str, args)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {RUN_TIMEOUT_S}s"}
    lines = r.stdout.strip().splitlines()
    if r.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"ok": False, "error": f"exit {r.returncode}: {r.stderr.strip()[-300:]}"}


class Runs:
    """Counts attempted and failed runs; a run fails its correctness
    gate, raises, or disagrees with the first digest seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, res, label):
        self.attempted += 1
        ok = res.get("ok", False)
        if "digest" in res:
            if self.digest is None:
                self.digest = res["digest"]
            elif res["digest"] != self.digest:
                ok = False
                res["error"] = f"digest {res['digest']} differs from {self.digest}; {res.get('error')}"
        if not ok:
            self.failed += 1
            print(f"FAILED {label}: {res.get('error')}")
        return ok


def emit(runs, metrics, spec):
    out = {}
    for m in spec:
        v = metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    print(f"fail_frac = {runs.failed}/{runs.attempted}")
    print(
        json.dumps(
            {
                "correct": runs.failed == 0,
                "attempted": runs.attempted,
                "failed": runs.failed,
                "metrics": out,
            }
        )
    )


def print_sim(workload, seed, res):
    print(f"digest {workload} seed={seed} {res.get('digest')}")
    sim = res.get("sim", {})
    if sim:
        print("simulated, in virtual time: " + ", ".join(f"{k}={v:.6g}" for k, v in sim.items()))


def timed(workload, seed, seconds, spec):
    runs = Runs()
    measured = []
    verified = False
    deadline = time.monotonic() + seconds
    while runs.attempted < MIN_RUNS or time.monotonic() < deadline:
        # The first run checks against the reference; later runs must
        # reproduce its digest, which covers the checked outputs.
        res = harness("run", workload, seed, 0 if verified else 1)
        if runs.add(res, f"run {runs.attempted}"):
            verified = True
        # A run that failed its gate but ran to the end is still timed;
        # the result line reports it as failed.
        if "wall_s" in res:
            measured.append(res)
    metrics = {}
    if measured:
        med = lambda f: statistics.median(f(r) for r in measured)
        metrics = {
            "wall_rel": med(lambda r: r["wall_s"] / r["calib_s"]),
            "setup_s": med(lambda r: r["setup_s"]),
            "heap_peak_mb": med(lambda r: r["heap_peak_mb"]),
        }
        print_sim(workload, seed, measured[0])
        print(
            f"{workload}: {len(measured)} runs, median wall_s {med(lambda r: r['wall_s']):.4f}, "
            f"calib_s {med(lambda r: r['calib_s']):.4f}, wall_rel {metrics['wall_rel']:.4f}, "
            f"setup_s {metrics['setup_s']:.6f}, heap_peak_mb {metrics['heap_peak_mb']:.3f}"
        )
    emit(runs, metrics, spec["end_to_end"])


def bench_host_switch_ns():
    """Per consume/resume round trip, from `bench host`'s fiber case
    (one fiber start plus ten consumes)."""
    try:
        out = subprocess.run(
            [BENCH, "host"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        ).stdout
    except subprocess.TimeoutExpired:
        return None
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6}
    m = re.search(r"fiber start\+consume x10\s+([0-9.]+) (ns|us|ms)", out)
    return float(m.group(1)) * scale[m.group(2)] / 10.0 if m else None


def traced(workload, seed, spec):
    runs = Runs()
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    base = harness("run", workload, seed, 1)
    runs.add(base, "untraced run")
    tr = harness("trace", workload, seed, trace_path)
    runs.add(tr, "traced run")
    layer = dict(base.get("layer", {}))
    layer.update(tr.get("layer", {}))
    layer.update(base.get("sim", {}))
    wall = base.get("wall_s", 0.0)
    layer["bench.wall_s"] = wall
    layer["bench.calib_s"] = base.get("calib_s", 0.0)
    if "wall_s" in tr:  # ran to the end, so its trace was written
        chk = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "check_trace.py"), trace_path],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        print(chk.stdout.strip())
        runs.add({"ok": chk.returncode == 0, "error": "see above"}, "trace check")
    if wall > 0 and tr.get("wall_s"):
        layer["bench.trace_overhead_x"] = tr["wall_s"] / wall
    if workload != "check":
        for mode, key in (("profile", "scope.profile_x"), ("watch", "watch.watch_x")):
            res = harness(mode, workload, seed)
            res.pop("digest", None)
            runs.add(res, f"{mode} run")
            if "wall_s" in res and wall > 0:
                layer[key] = res["wall_s"] / wall
    units = harness("units", round(layer.get("sim.engine.pending_mean", 1)))
    costs = {
        "sim.event_queue.op_ns": units.get("op_ns"),
        "hw.ethernet.send_ns": units.get("send_ns"),
        "sim.fiber.switch_ns": bench_host_switch_ns(),
    }
    missing = [k for k, v in costs.items() if not v]
    runs.add({"ok": not missing, "error": f"no estimate for {missing}"}, "unit costs")
    layer.update({k: v or 0.0 for k, v in costs.items()})
    events = layer.get("sim.engine.events", 0)
    est = {
        "sim.event_queue.host_s_est": layer["sim.event_queue.op_ns"] * events,
        "sim.fiber.host_s_est": layer["sim.fiber.switch_ns"]
        * layer.get("hw.machine.dispatches", 0),
        "hw.ethernet.host_s_est": layer["hw.ethernet.send_ns"]
        * layer.get("hw.ethernet.packets", 0),
    }
    est = {k: v * 1e-9 for k, v in est.items()}
    layer.update(est)
    layer["other.host_s_est"] = wall - sum(est.values())
    if wall > 0:
        layer["sim.engine.events_per_s"] = events / wall
        layer["analysis.modelcheck.schedules_per_s"] = (
            layer.get("analysis.modelcheck.schedules", 0) / wall
        )
        layer["analysis.modelcheck.decisions_per_s"] = (
            layer.get("analysis.modelcheck.decisions", 0) / wall
        )
        if layer.get("workloads.sor.reference_s"):
            layer["workloads.sor.overhead_frac"] = (
                1.0 - layer["workloads.sor.reference_s"] / wall
            )
    print_sim(workload, seed, base)
    print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    emit(runs, layer, spec["per_layer"])


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        fail("BENCHMARK.json is missing at the repository root")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    if a.trace:
        traced(a.workload, a.seed, spec)
    else:
        timed(a.workload, a.seed, a.seconds, spec)


if __name__ == "__main__":
    main()
