#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cohsets CLI pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {jet,wells,cmd} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload jet --seed 0 --seconds 1 --trace 1 --smoke

Closed loop, one client: the pipeline runs again and again, each time in a
fresh process, until S seconds have passed (at least three times). Each
execution's artifacts are checked after the process exits: the first in
full, later ones for byte equality with it. Every execution also gives a
set-up sample; import-only probes top them up to seven.

--trace 0 reports the end-to-end metrics: medians of wall_s, cpu_s,
peak_rss_mb and setup_s, plus quality (coherence of the written labels for
jet and wells, mode alignment for cmd). --trace 1 alternates untraced and
traced executions and reports per-layer medians from the traced ones, and
trace.overhead_s, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --smoke shrinks every workload so a run with
all checks takes seconds. The program is always the source tree under ./src.
"""

import argparse
import ctypes
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170.0       # a run must end within 180 s, checks included
MIN_EXECUTIONS = 3
MIN_SETUPS = 7          # set-up samples: every execution, then import-only probes

BENCHMARK = ROOT / "BENCHMARK.json"


class Failure(Exception):
    """One pipeline execution failed: it raised, exited non-zero or failed a check."""


def environment(backend, blas_threads, seed, extra):
    """Backend, BLAS, thread setting, versions, git SHA, seeds and cache size."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        ref = ROOT / ".git" / sha.removeprefix("ref: ")
        if sha.startswith("ref: ") and ref.is_file():
            sha = ref.read_text().strip()
    reference = json.loads((HERE / "reference.json").read_text())
    return {
        "backend": backend,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "recorded_seeds": {"dev": reference["dev_seed"], "heldout": reference["heldout_seed"]},
        "llc_bytes": libc.sysconf(194),  # glibc _SC_LEVEL3_CACHE_SIZE
        **extra,
    }


def child_env(blas_threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def spawn(report, env, timeout, trace=False, run_id="probe", cli_args=()):
    """Run child.py once and return its report; kill and reap it on timeout."""
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(report), repr(time.monotonic()),
           "1" if trace else "0", run_id, *cli_args]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise Failure(f"{run_id}: timed out after {timeout:.0f} s")
    if proc.returncode != 0 or not report.exists():
        raise Failure(f"{run_id}: exit code {proc.returncode}: {err.strip()[-500:]}")
    data = json.loads(report.read_text())
    if not Path(data["package"]).resolve().is_relative_to(SRC.resolve()):
        raise Failure(f"cohsets was imported from {data['package']}, not from {SRC}")
    return data


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, rundir, env, seconds, trace, min_runs, min_setups, deadline):
    """The closed loop. Returns (executions, set-up samples, errors, check)."""
    import workloads

    report = rundir / "report.json"
    executions, setups, errors, durations = [], [], [], []
    reference_digest, check = None, None
    t_begin = time.monotonic()
    for i in itertools.count():
        t_iter = time.monotonic()
        if deadline - t_iter < 5:
            errors.append(f"exec {i}: no time left before the run limit")
            break
        traced = trace and i % 2 == 1
        out = rundir / f"out{i}"
        try:
            data = spawn(report, env, deadline - t_iter, traced, f"{workload.name}-{workload.seed}-{i}",
                         workload.cli_args(out))
            digest = workloads.artifact_digest(out)
            if reference_digest is None:
                check = workload.check(out)
                reference_digest = digest
            elif digest != reference_digest:
                changed = sorted(k for k in digest if digest[k] != reference_digest.get(k))
                raise Failure(f"rerun artifacts differ from the first run: {changed}")
            data["traced"] = traced
            executions.append(data)
            setups.append(data["setup_s"])
            print(f"exec {i}: {'traced' if traced else 'untraced'} wall {data['wall_s']:.3f} s "
                  f"cpu {data['cpu_s']:.3f} s rss {data['peak_rss_mb']:.1f} MB "
                  f"setup {data['setup_s']:.3f} s", flush=True)
        except (Failure, workloads.CheckError, OSError, ValueError) as exc:
            errors.append(f"exec {i}: {exc}")
            print(f"exec {i}: FAILED: {exc}", flush=True)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        durations.append(time.monotonic() - t_iter)
        next_end = time.monotonic() + median(durations)
        if (i + 1 >= min_runs and next_end - t_begin > seconds) or next_end > deadline:
            break
    while len(setups) < min_setups and time.monotonic() + 10 < deadline:
        try:
            setups.append(spawn(report, env, 60)["setup_s"])
        except Failure as exc:
            errors.append(f"set-up probe: {exc}")
            break
    return executions, setups, errors, check


def run(workload_name, seed, seconds, trace, smoke):
    started = time.monotonic()
    if not (SRC / "cohsets" / "cli.py").is_file():
        raise SystemExit(f"error: no source tree at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))  # the coherence check uses coherence_score
    import spans
    import workloads

    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    blas_threads = len(os.sched_getaffinity(0))
    env = child_env(blas_threads)
    workload = workloads.WORKLOADS[workload_name](seed, smoke)
    rundir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        extra = workload.prepare(rundir)
        warm_up = spawn(rundir / "report.json", env, 60)  # fills byte-code and page caches
        env_record = environment(warm_up["backend"], blas_threads, seed, extra)
        print("env: " + json.dumps(env_record, sort_keys=True), flush=True)
        min_runs, min_setups = ((2 if trace else 1), 1) if smoke else (MIN_EXECUTIONS, MIN_SETUPS)
        executions, setups, errors, check = measure(
            workload, rundir, env, seconds, trace, min_runs, min_setups, started + RUN_LIMIT_S)
    finally:
        workload.cleanup()
        shutil.rmtree(rundir, ignore_errors=True)

    untraced = [e for e in executions if not e["traced"]]
    traced_runs = [e for e in executions if e["traced"]]
    result = {"workload": workload_name, "seed": seed, "smoke": smoke, "trace": trace,
              "env": env_record, "check": check, "errors": errors, "executions": executions}
    if trace:
        if not (untraced and traced_runs):
            errors.append("a traced run needs an untraced and a traced execution")
        per_exec = []
        for e in traced_runs:
            m, err = spans.layer_metrics(e["spans"], e["wall_s"])
            if abs(err) > 1e-6:
                errors.append(f"self times miss the traced wall time by {err:.3e} s")
            per_exec.append(m)
        metrics = {k: median([m[k] for m in per_exec]) for k in per_exec[0]} if per_exec else {}
        metrics["trace.overhead_s"] = (median([e["wall_s"] for e in traced_runs])
                                       - median([e["wall_s"] for e in untraced]))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        if traced_runs:
            result["layer_table"] = spans.layer_table(traced_runs[-1]["spans"])
    else:
        metrics = {
            "wall_s": median([e["wall_s"] for e in untraced]),
            "cpu_s": median([e["cpu_s"] for e in untraced]),
            "peak_rss_mb": median([e["peak_rss_mb"] for e in untraced]),
            "setup_s": median(setups),
            "quality": check["quality"] if check else 0.0,
        }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    failed = len(errors)
    attempted = max(len(executions) + failed, 1)
    result["metrics"] = metrics
    print_summary(workload, result, untraced, setups, attempted, failed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload_name}-{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_summary(workload, result, untraced, setups, attempted, failed):
    walls = [e["wall_s"] for e in untraced]
    if walls:
        print(f"{workload.name}: {len(walls)} untraced executions, wall min {min(walls):.3f} "
              f"median {median(walls):.3f} max {max(walls):.3f} s; {len(setups)} set-up samples")
    print(f"{'failed_frac':<28} {failed / attempted:>14.4f} fraction ({failed}/{attempted})")
    if result["check"]:
        c = result["check"]
        print(f"{workload.quality_name:<28} {c['quality']:>14.6f} score")
        print(f"{'eigen_residual':<28} {c['residual']:>14.3e} relative")
        print(f"rho {', '.join(f'{r:.6f}' for r in c['rho'])}"
              f" ({'matches the recorded seed-commit values' if c['rho_recorded'] else 'seed not recorded'})")
    for name, m in result["metrics"].items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    for row_name, row in sorted(result.get("layer_table", {}).items()):
        orders = f" orders {row['orders']}" if row["orders"] else ""
        peak = "" if row["peak_mb"] is None else f" numpy peak {row['peak_mb']:8.1f} MB"
        print(f"  span {row_name:<30} calls {row['calls']:>3} total {row['total_s']:8.3f} s "
              f"self {row['self_s']:8.3f} s{peak}{orders}")
    for err in result["errors"]:
        print(f"error: {err}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["jet", "wells", "cmd"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the smoke test")
    args = parser.parse_args()
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
