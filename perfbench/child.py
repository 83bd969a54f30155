"""One pipeline execution in a fresh process, measured from the inside.

Usage: child.py REPORT SPAWN_TIME TRACE RUN_ID [CLI ARGS...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start-up and imports until cohsets.cli is loaded. wall_s and
cpu_s cover only the CLI call, artifact writing included. With no CLI
arguments the process stops after the imports: a set-up probe.
"""

import json
import resource
import sys
import time

import cohsets.cli

SETUP_END = time.monotonic()


def main():
    report_path, spawn, trace, run_id = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    cli_args = sys.argv[5:]
    from cohsets import _accel

    report = {"setup_s": SETUP_END - spawn, "package": cohsets.cli.__file__,
              "backend": "numba" if _accel.NUMBA_ENABLED else "numpy"}
    if cli_args:
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer(run_id)
            tracer.install()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        cohsets.cli.main(cli_args, standalone_mode=False)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
            report["spans"] = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                               for s in tracer.spans]
        report.update(
            wall_s=t1 - t0,
            cpu_s=(r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
            peak_rss_mb=r1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        )
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
