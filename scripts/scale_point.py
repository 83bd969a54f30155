"""Time `cohsets bickley --n N` from two checkouts, alternating, one child
process per run.

Usage: python scripts/scale_point.py PARENT CHANGE [--n N]

PARENT and CHANGE are checkout directories; each run imports the package from
that checkout's src/. Each side runs RUNS times at seed SEED. Pair i runs the
parent first when i is even and the change first when it is odd, so a drift
of the host over the pairs touches both sides. Each run writes its artifacts to a fresh temporary directory,
which is removed afterwards. Wall time is from spawn to exit; CPU time (user
plus system) and the peak resident set come from os.wait4, so they belong to
the child alone. BLAS threads are left at the host default.

One JSON object per run goes to standard output, then one summary object with
each side's runs and medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 2  # runs per side
SEED = 0


def run_once(checkout, n, seed):
    """One `cohsets bickley` child from checkout: wall, CPU, peak and ranks."""
    with tempfile.TemporaryDirectory(prefix="scale_point_") as work:
        out = Path(work) / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
        cmd = [sys.executable, "-m", "cohsets.cli", "bickley", "--n", str(n), "--seed", str(seed),
               "--out", str(out)]
        start = time.monotonic()
        child = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.monotonic() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        record = {"wall_s": round(wall, 2), "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
                  "peak_mb": round(usage.ru_maxrss / 1024.0, 1), "status": child.returncode}
        meta = out / "metadata.json"
        if child.returncode == 0 and meta.exists():
            factor = json.loads(meta.read_text()).get("factor", {})
            record["ranks"] = "/".join(str(factor.get(v, {}).get("rank")) for v in ("x", "y"))
        return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout directory of the parent commit")
    parser.add_argument("change", help="checkout directory of the change")
    parser.add_argument("--n", type=int, default=100_000, help="samples (default 100000)")
    args = parser.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    for i in range(RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], args.n, SEED)
            runs[side].append(record)
            print(json.dumps({"pair": i, "side": side, **record}), flush=True)
    summary = {"n": args.n, "seed": SEED, "runs_per_side": RUNS}
    for side, records in runs.items():
        summary[side] = {
            "checkout": str(Path(sides[side]).resolve()),
            "runs": records,
            **{f"median_{key}": round(statistics.median(r[key] for r in records), 2)
               for key in ("wall_s", "cpu_s", "peak_mb")},
        }
    print(json.dumps(summary))
    return 0 if all(r["status"] == 0 for records in runs.values() for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
