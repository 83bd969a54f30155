#!/usr/bin/env python3
"""Record the benchmark's reference spectra, its steadiness and its baseline.

Usage, from the root of a checkout:

    python3 perfbench/record.py rho
        Run each workload once per recorded seed (full and smoke size) and
        write the spectra to perfbench/reference.json.
    python3 perfbench/record.py spread --workload W --seeds 0 1 2 ... [--trace 1]
        Run the benchmark once per seed and print, per metric, the median and
        the quartile spread as a share of the median, against the bound in
        BENCHMARK.json.
    python3 perfbench/record.py baseline
        Assemble perfbench/baseline.json from the result files that earlier
        `spread` runs left in .perfbench_work/results.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULTS = run.WORK / "results"

# The layer table of ROADMAP.md, measured once by hand (jet n=2000, wells n=1000):
# (row, workload, span names, only spans under this parent, seconds there).
ROADMAP_TABLE = [
    ("bickley_pairs", "jet", ["dynamics.bickley_pairs"], None, 0.72),
    ("Gram assembly and centering", "jet", ["kernels.gram_matrix", "kernels.center_gram"],
     "cca.kernel_cca", 0.38),
    ("kernel_cca total", "jet", ["cca.kernel_cca"], None, 4.47),
    ("kmeans (9 clusters, 10 restarts)", "jet", ["clustering.kmeans"], None, 0.12),
    ("12 000-point evaluate_eigenfunctions", "jet", ["cca.evaluate_eigenfunctions"], None, 0.60),
    ("five_well_pairs(1000)", "wells", ["dynamics.five_well_pairs"], None, 1.02),
]


def record_rho():
    import workloads

    reference = json.loads(workloads.REFERENCE.read_text())
    env = run.child_env(len(os.sched_getaffinity(0)))
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        for smoke in (False, True):
            for seed in (reference["dev_seed"], reference["heldout_seed"]):
                w = cls(seed, smoke)
                rundir = run.WORK / f"record-{name}-{seed}"
                rundir.mkdir(parents=True, exist_ok=True)
                try:
                    w.prepare(rundir)
                    run.spawn(rundir / "report.json", env, 170, cli_args=w.cli_args(rundir / "out"))
                    rho = workloads._load_csv(rundir / "out" / "rho.csv").ravel()
                finally:
                    w.cleanup()
                    shutil.rmtree(rundir, ignore_errors=True)
                table.setdefault(name, {}).setdefault(w.size, {})[str(seed)] = rho.tolist()
                print(name, w.size, seed, rho.round(6).tolist(), flush=True)
    reference["rho"] = table
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def spread(workload, seeds, trace):
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    values = {}
    for seed in seeds:
        started = time.monotonic()
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.monotonic() - started:.1f} s correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                  if k in bounds), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        if k not in bounds:
            continue
        q = _quartiles(vals)
        print(f"{k:<16} median {q['median']:10.5g} spread {q['spread']:7.4f} bound {bounds[k]} "
              f"{'ok' if q['spread'] < bounds[k] / 3 else 'WIDE'}")


def _quartiles(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(vals)}


def baseline():
    reference = json.loads((run.HERE / "reference.json").read_text())
    recorded = {reference["dev_seed"], reference["heldout_seed"]}
    out = {"end_to_end": {}, "per_layer": {}, "layer_table": []}
    traced_spans = {}
    for path in sorted(RESULTS.glob("*-trace[01].json")):
        r = json.loads(path.read_text())
        out["env"] = {k: v for k, v in r["env"].items() if k not in ("seed", "input_bytes")}
        if r["trace"] and r["seed"] in recorded:
            out["per_layer"].setdefault(r["workload"], {})[str(r["seed"])] = {
                k: v["value"] for k, v in r["metrics"].items()}
            out.setdefault("spans", {}).setdefault(r["workload"], {})[str(r["seed"])] = r["layer_table"]
            traced_spans.setdefault(r["workload"], {})[str(r["seed"])] = [
                e["spans"] for e in r["executions"] if e["traced"]]
        elif not r["trace"]:
            e2e = out["end_to_end"].setdefault(r["workload"], {"seeds": [], "runs": {}})
            e2e["seeds"].append(r["seed"])
            for k, v in r["metrics"].items():
                e2e["runs"].setdefault(k, []).append(v["value"])
            e2e.setdefault("failed", 0)
            e2e["failed"] += len(r["errors"])
            e2e.setdefault("attempted", 0)
            e2e["attempted"] += len(r["executions"]) + len(r["errors"])
    for e2e in out["end_to_end"].values():
        e2e["summary"] = {k: _quartiles(v) for k, v in e2e["runs"].items()}
        e2e["failed_frac"] = e2e["failed"] / e2e["attempted"]
    dev = str(reference["dev_seed"])
    for label, workload, names, parent, roadmap_s in ROADMAP_TABLE:
        per_exec = []
        for spans in traced_spans[workload][dev]:
            by_id = {s["id"]: s for s in spans}
            per_exec.append(sum(
                s["end"] - s["start"] for s in spans if s["name"] in names and (
                    parent is None or by_id.get(s["parent"], {}).get("name") == parent)))
        out["layer_table"].append({"layer": label, "workload": workload, "roadmap_s": roadmap_s,
                                   "traced_median_s": statistics.median(per_exec),
                                   "traced_executions": len(per_exec)})
    (run.HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for row in out["layer_table"]:
        print(f"{row['layer']:<40} traced {row['traced_median_s']:6.2f} s  "
              f"roadmap {row['roadmap_s']:5.2f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("rho")
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, default=0)
    sub.add_parser("baseline")
    args = parser.parse_args()
    if args.what == "rho":
        record_rho()
    elif args.what == "spread":
        spread(args.workload, args.seeds, args.trace)
    else:
        baseline()


if __name__ == "__main__":
    main()
