#!/usr/bin/env python3
"""The repository benchmark: Revelio explanation workloads, end to end.

Run from the repository root:

  python3 perfbench/run.py --workload tree_cycles_node --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload mutag_serve --seed 1 --seconds 15 --trace 1
  python3 perfbench/run.py --ledger --workload all --trials 3 --seconds 4

The first call builds perfbench/ (and the Revelio libraries it links) from
source into .bench_build/. With --trace 0 it prints every end-to-end metric of
perfbench/spec.json; with --trace 1 a separate traced process writes a Chrome
trace and a counter snapshot, and every per-layer metric is derived from those
two files. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero when
an output check failed or the program could not be built or run.

--ledger reruns each workload in child processes with one layer knocked out at
a time (through the program's environment variables), interleaved with all-on
runs, and reports each knock-out's ratio on expl_per_s and latency_p50_ms as a
median with a bootstrap confidence interval.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUNS_DIR = os.path.join(".bench_build", "runs")

with open(os.path.join(HERE, "spec.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and brings the perfbench binary up to date (a no-op when it is)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(step))


def run_program(workload, seed, seconds, mode, extra_env=None, setup_reps=None):
    """Runs the measuring program once; returns (result dict, output directory)."""
    out_dir = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-{mode}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--out", out_dir]
    if setup_reps is not None:
        cmd += ["--setup-reps", str(setup_reps)]
    env = dict(os.environ)
    # All-on means the program's defaults: drop any knock-out inherited from
    # the caller's environment.
    for knockout in SPEC["knockouts"]:
        for var in knockout["env"]:
            env.pop(var, None)
    env.update(extra_env or {})
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-8000:])
        fail(f"{workload} ({mode}) exited with {proc.returncode}")
    with open(os.path.join(out_dir, "result.json")) as f:
        return json.load(f), out_dir


# --- Per-layer metrics, derived from trace.json + counters.json ------------------

def load_trace(out_dir):
    with open(os.path.join(out_dir, "trace.json")) as f:
        trace = json.load(f)
    if trace.get("dropped_events", 0):
        fail(f"trace recorder dropped {trace['dropped_events']} events")
    events = trace["traceEvents"]
    spans = defaultdict(list)
    for event in events:
        spans[event["name"]].append(event["dur"] / 1000.0)  # ms
    with open(os.path.join(out_dir, "counters.json")) as f:
        metrics = json.load(f)["metrics"]
    return spans, metrics


def derive_per_layer(out_dir):
    spans, snapshot = load_trace(out_dir)
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})

    def total(name):
        if not spans.get(name):
            fail(f"trace has no '{name}' span")
        return sum(spans[name])

    def mean(name):
        return total(name) / len(spans[name])

    def counter(name):
        return float(counters.get(name, 0))

    def gauge(name):
        if name not in gauges:
            fail(f"counter snapshot has no '{name}' gauge")
        return float(gauges[name])

    def ratio(num, den):
        return num / den if den else 0.0

    expl = gauge("bench.traced_explanations")
    traced_pass_ms = total("bench.explain_all.pass")
    threads = gauge("bench.threads")
    single = mean("bench.explain.single")
    epoch0 = mean("bench.core.explain_epochs1")
    batch = total("bench.explain.batch") / gauge("bench.instances")
    epochs = SPEC["explainer_epochs"]
    vector_ops = counter("tensor.simd.vector_ops")
    dispatches = counter("parallel.dispatches")
    fallbacks = counter("parallel.serial_fallback")
    hits, misses = counter("tensor.pool.hit"), counter("tensor.pool.miss")

    values = {
        "datasets.build_ms": total("bench.datasets.build"),
        "graph.khop_ms": total("bench.graph.khop"),
        "gnn.train_ms": total("bench.eval.prepare_model") - total("bench.datasets.build"),
        "eval.select_ms": total("bench.eval.select"),
        "gnn.layer_edges_ms": mean("bench.gnn.layer_edges"),
        "gnn.forward_ms": mean("bench.gnn.forward"),
        "gnn.backward_ms": mean("bench.gnn.backward"),
        "flow.flows_per_instance_p50": gauge("bench.flow.flows_per_instance_p50"),
        "flow.flows_per_instance_max": gauge("bench.flow.flows_per_instance_max"),
        "flow.enumerate_ms": mean("bench.flow.enumerate"),
        "flow.enumerate_mflows_per_s":
            gauge("bench.flow.flows_total") / (total("bench.flow.enumerate") / 1e3) / 1e6,
        "tensor.pool_hit_ratio": ratio(hits, hits + misses),
        "tensor.simd_vector_share":
            ratio(vector_ops, vector_ops + counter("tensor.simd.scalar_tail")),
        "tensor.spmm_bytes_per_expl": counter("tensor.spmm.bytes") / expl,
        "tensor.matmul_flops_per_expl": counter("tensor.matmul.flops") / expl,
        "tensor.scatter_add_bytes_per_expl": counter("tensor.scatter_add.bytes") / expl,
        "nn.adam_step_ms": mean("bench.nn.adam_step"),
        "core.epoch0_ms": epoch0,
        "core.epoch_ms": (single - epoch0) / (epochs - 1),
        "plan.replays_per_expl": counter("plan.replays") / expl,
        "plan.replay_pool_acquires": counter("plan.replay_pool_acquires") / expl,
        "explain.single_ms_per_expl": single,
        "explain.batch_ms_per_expl": batch,
        "explain.megabatch_gain": single / batch,
        "megabatch.instances_per_group":
            ratio(counter("megabatch.instances"), counter("megabatch.groups")),
        "util.parallel_dispatches_per_expl": dispatches / expl,
        "util.serial_fallback_share": ratio(fallbacks, fallbacks + dispatches),
        "util.worker_busy_share":
            counter("parallel.worker_busy_us") / (traced_pass_ms * 1e3 * threads),
        "serve.queue_wait_p50_ms": gauge("bench.serve.queue_wait_p50_ms"),
        "serve.queue_wait_p95_ms": gauge("bench.serve.queue_wait_p95_ms"),
        "serve.run_ms_p50": gauge("bench.serve.run_ms_p50"),
        "serve.batch_size_mean": gauge("bench.serve.batch_size_mean"),
        "serve.shed": gauge("bench.serve.shed"),
        "serve.timed_out": gauge("bench.serve.timed_out"),
        "serve.gen_lag_ms_max": gauge("bench.serve.gen_lag_ms_max"),
        "obs.trace_overhead":
            (expl / (traced_pass_ms / 1e3)) / gauge("bench.untraced_expl_per_s"),
    }
    # Probe rooflines: FLOPs and bytes computed from tensor shapes (gauges set
    # by the program), over the measured probe time.
    for probe in ("mask_build", "aggregate", "combine", "attention"):
        seconds = total(f"bench.tensor.{probe}") / 1e3
        values[f"tensor.{probe}_ms"] = mean(f"bench.tensor.{probe}")
        values[f"tensor.{probe}_gflops"] = \
            gauge(f"bench.tensor.{probe}.computed_flops") / seconds / 1e9
        values[f"tensor.{probe}_gbps"] = \
            gauge(f"bench.tensor.{probe}.computed_bytes") / seconds / 1e9
    return values


# --- Result line -------------------------------------------------------------------

def result_line(result, metrics):
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def run_benchmark(args):
    build()
    mode = "trace" if args.trace else "e2e"
    result, out_dir = run_program(args.workload, args.seed, args.seconds, mode)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  attempted {result['attempted']}  failed {result['failed']}")
    for message in result.get("check_failures", []):
        print(f"  CHECK FAILED: {message}")
    metrics = {}
    if args.trace:
        derived = derive_per_layer(out_dir)
        for m in SPEC["per_layer"]:
            value = derived[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:36s} {value:14.6g} {m['unit']:10s} -> {m['moves']}")
        print(f"  trace files: {out_dir}/trace.json {out_dir}/counters.json")
    else:
        measured = result["metrics"]
        for m in SPEC["end_to_end"]:
            entry = measured[m["name"]]
            print(f"  {m['name']:18s} {entry['value']:14.6g} {m['unit']:6s} "
                  f"(n={entry['samples']})")
            if m.get("reported_in_result_line", True):
                metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
        for key, value in sorted(result.get("info", {}).items()):
            print(f"  info.{key} = {value:g}")
    print(result_line(result, metrics))
    return 0 if result["correct"] else 1


# --- Ledger ------------------------------------------------------------------------

def bootstrap_ci(values, rng, resamples=2000, level=0.95):
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(resamples))
    lo = medians[int((1 - level) / 2 * resamples)]
    hi = medians[min(resamples - 1, int((1 + level) / 2 * resamples))]
    return lo, hi


def run_ledger(args):
    build()
    workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
    rng = random.Random(args.seed)
    ledger = []
    for workload in workloads:
        ratios = defaultdict(lambda: defaultdict(list))
        for trial in range(args.trials):
            order = list(SPEC["knockouts"])
            rng.shuffle(order)

            def measure(env):
                result, _ = run_program(workload, args.seed, args.seconds, "e2e",
                                        extra_env=env, setup_reps=1)
                if not result["correct"]:
                    fail(f"ledger run of {workload} with {env} failed its output checks")
                return {k: result["metrics"][k]["value"] for k in ("expl_per_s", "latency_p50_ms")}

            before = measure({})
            for knockout in order:
                knocked = measure(knockout["env"])
                after = measure({})
                for metric in ("expl_per_s", "latency_p50_ms"):
                    on = 0.5 * (before[metric] + after[metric])
                    ratios[knockout["name"]][metric].append(knocked[metric] / on)
                before = after
            print(f"ledger {workload}: trial {trial + 1}/{args.trials} done", file=sys.stderr)
        for knockout in SPEC["knockouts"]:
            for metric, values in ratios[knockout["name"]].items():
                lo, hi = bootstrap_ci(values, rng)
                if lo <= 1.0 <= hi:
                    verdict = "inside noise"
                else:
                    slower = (hi < 1.0) if metric == "expl_per_s" else (lo > 1.0)
                    verdict = "layer pays" if slower else "layer costs"
                ledger.append({"workload": workload, "knockout": knockout["name"],
                               "env": knockout["env"], "metric": metric,
                               "ratio_median": statistics.median(values),
                               "ci95": [lo, hi], "trials": len(values), "verdict": verdict})
    print(f"{'workload':18s} {'knock-out':12s} {'metric':15s} {'ratio':>7s} "
          f"{'95% CI':>17s}  verdict")
    for row in ledger:
        print(f"{row['workload']:18s} {row['knockout']:12s} {row['metric']:15s} "
              f"{row['ratio_median']:7.3f} [{row['ci95'][0]:6.3f}, {row['ci95'][1]:6.3f}]  "
              f"{row['verdict']}")
    os.makedirs(".bench_build", exist_ok=True)
    path = os.path.join(".bench_build", "ledger.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trials": args.trials,
                   "ratio": "knocked-out / mean of the adjacent all-on runs",
                   "rows": ledger}, f, indent=1)
    print(f"ledger written to {path}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(WORKLOADS) + " (ledger: 'all' or a list)")
    parser.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", action="store_true")
    parser.add_argument("--trials", type=int, default=3, help="ledger trials per knock-out")
    args = parser.parse_args()
    chosen = args.workload.split(",") if args.ledger and args.workload != "all" else [args.workload]
    if args.workload != "all" or not args.ledger:
        for name in chosen:
            if name not in WORKLOADS:
                parser.error(f"unknown workload {name}")
    if args.seconds <= 0 or (args.ledger and args.trials < 1):
        parser.error("--seconds and --trials must be positive")
    sys.exit(run_ledger(args) if args.ledger else run_benchmark(args))


if __name__ == "__main__":
    main()
