"""The parhox benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the parhox sources under
src/ and needs nothing installed.  The workload runs in a fresh worker
process (bench/worker.py); a few more fresh processes only repeat the
set-up, so that `setup_s` is a median.  With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, measured with every layer function wrapped (see
bench/tracer.py).  Lines before it list every metric by name with its unit,
the per-function self times of a traced run included.  bench/README.md
describes the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["battery-v4", "battery-small", "kpar-rewrite", "hochschild-kpar"]

SETUP_PROBES = 9        # extra set-up-only processes per run
TIME_LIMIT = 170.0      # seconds one run may take in all
MARGIN = 15.0           # kept free when deciding to start another iteration


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline):
    """Run bench/worker.py with parhox from src/; return its JSON summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} passed the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def module_self_times(layers):
    """Self seconds summed per parhox module (the layer)."""
    out = {}
    for name, rec in layers.items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + rec["self_s"]
    return out


def layer_metrics(summary):
    """Every per-layer number of a traced summary, by metric name."""
    out = {"traced.wall_s": summary["wall_s"]}
    for name, rec in summary["layers"].items():
        out[f"{name}.self_s"] = rec["self_s"]
        out[f"{name}.calls"] = rec["calls"]
    for module, seconds in module_self_times(summary["layers"]).items():
        out.setdefault(f"{module}.self_s", seconds)
    counts = summary["counts"]
    out.update(counts)
    cells = counts.get("linalg.rank.cells", 0)
    out["linalg.rank.nnz_ratio"] = counts["linalg.rank.nnz"] / cells \
        if cells else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="the parhox benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not os.path.isfile(os.path.join(ROOT, "src", "parhox", "cli.py")):
        print(f"error: no parhox sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(MANIFEST) as fh:
        manifest = json.load(fh)

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work]
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        budget = deadline - time.monotonic() - MARGIN
        summary = run_worker(
            common + ["--seconds", str(args.seconds), "--budget", str(budget)]
            + (["--trace"] if args.trace else []), deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
        if not args.trace:
            shutil.rmtree(work, ignore_errors=True)
    setups.append(summary["setup_s"])

    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{summary['iterations']} iteration(s) of {summary['items']} items")
    print(f"fail_ratio = {failed / attempted:.4f} ({failed}/{attempted})")
    if args.trace:
        values = layer_metrics(summary)
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        print(f"spans written to {os.path.relpath(work, ROOT)}/spans.json")
        print("self time by layer (s), largest first:")
        for module, seconds in sorted(module_self_times(summary["layers"])
                                      .items(), key=lambda kv: -kv[1]):
            print(f"  {module:52s} {seconds:10.4f}")
        print("self time by function (s, calls), largest first:")
        for name, rec in sorted(summary["layers"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:52s} {rec['self_s']:10.4f} {rec['calls']:8d}")
        for name in sorted(summary["counts"]):
            print(f"  {name} = {summary['counts'][name]} count")
    else:
        values = {"wall_s": summary["wall_s"],
                  "wall_q_s": summary["wall_q_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": summary["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        if summary["wall_fp_s"]:
            print(f"wall_fp_s = {summary['wall_fp_s']:.4f} s")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
