"""Spans around the package's public functions, and per-layer metrics from them.

The tracer wraps functions at module boundaries from outside the package: it
replaces a module attribute with a wrapper that records a span (name, start,
end, parent, run id, numpy peak memory) and a few counts. Nothing in the
package is edited. Spans are kept in memory and written out by the caller.

Peak memory comes from tracemalloc, which sees numpy's array allocations and
Python objects only; LAPACK/BLAS workspace is not included. tracemalloc runs
only while a top-level span of the cca or modes layer is open (with their
kernels and linalg children): those hold the n x n and d x n arrays. A span's
peak is the high-water mark of what was allocated after it opened. The other
top-level spans run without tracemalloc and report no peak, because they
allocate per step in Python loops (RK4 and Euler-Maruyama steps, Lloyd
iterations, np.savetxt rows); tracing each of those allocations doubled
dynamics.sde_s and made io.write_s ten times longer.
"""

import functools
import os
import time
import tracemalloc

MEMORY_LAYERS = ("cca", "modes")


# The package passes every argument below positionally.

def _eigh_counts(args, kwargs, result):
    n = int(args[0].shape[0])
    # tridiagonal reduction 4/3 n^3 plus back-transformation 2 n^3 (computed)
    return {"order": n, "flops": 10.0 / 3.0 * n**3}


def _solve_counts(args, kwargs, result):
    a, b = args[0], args[1]
    n = int(a.shape[0])
    nrhs = 1 if b.ndim == 1 else int(b.shape[-1])
    # LU 2/3 n^3 plus two triangular solves 2 n^2 per right-hand side (computed)
    return {"order": n, "flops": 2.0 / 3.0 * n**3 + 2.0 * n * n * nrhs}


def _gram_counts(args, kwargs, result):
    return {"entries": int(result.entries.size)}


def _advect_counts(args, kwargs, result):
    x0, tau, cfg = args[0], args[2], args[3]
    return {"particle_steps": len(x0) * int(round(abs(tau) / cfg.step))}


def _sde_counts(args, kwargs, result):
    cfg, x0 = args[0], args[1]
    t0, t1 = cfg.t_span
    return {"particle_steps": len(x0) * int(round((t1 - t0) / cfg.h))}


def _evaluate_counts(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _cmd_counts(args, kwargs, result):
    snap = args[0]
    # the two Gram products X^T X and Y^T Y, 2 d n^2 flops each (computed)
    return {"d": snap.d, "n": snap.n, "gram_flops": 4.0 * snap.d * snap.n**2}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    """Records nested spans for one pipeline execution (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._patched = []

    def _fold_peak(self):
        """Credit the peak since the last event to every open span."""
        if not tracemalloc.is_tracing():
            return None
        current, peak = tracemalloc.get_traced_memory()
        for span in self._stack:
            span["_peak"] = max(span["_peak"], peak)
        tracemalloc.reset_peak()
        return current

    def _open(self, name):
        if not self._stack and name.split(".")[0] in MEMORY_LAYERS:
            tracemalloc.start()
        current = self._fold_peak()
        span = {"name": name, "run": self.run_id, "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "_mem0": current, "_peak": current, "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._fold_peak()
        self._stack.pop()
        peak, mem0 = span.pop("_peak"), span.pop("_mem0")
        span["peak_mb"] = None if mem0 is None else (peak - mem0) / 1e6
        if not self._stack and tracemalloc.is_tracing():
            tracemalloc.stop()

    def wrap(self, owner, attr, name, counts=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def install(self):
        """Wrap every boundary function the production pipelines call."""
        import numpy
        import scipy.linalg

        import cohsets.cca
        import cohsets.cli
        import cohsets.dynamics
        import cohsets.io
        import cohsets.modes

        cli, cca = cohsets.cli, cohsets.cca
        self.wrap(cli, "bickley_pairs", "dynamics.bickley_pairs")
        self.wrap(cli, "five_well_pairs", "dynamics.five_well_pairs")
        self.wrap(cohsets.dynamics, "bickley_flow_map", "dynamics.bickley_flow_map", _advect_counts)
        self.wrap(cohsets.dynamics, "em_ensemble", "dynamics.em_ensemble", _sde_counts)
        self.wrap(cca, "gram_matrix", "kernels.gram_matrix", _gram_counts)
        self.wrap(cca, "center_gram", "kernels.center_gram")
        self.wrap(scipy.linalg, "eigh", "linalg.eigh", _eigh_counts)
        self.wrap(numpy.linalg, "solve", "linalg.solve", _solve_counts)
        self.wrap(cli, "kernel_cca", "cca.kernel_cca")
        self.wrap(cli, "evaluate_eigenfunctions", "cca.evaluate_eigenfunctions", _evaluate_counts)
        self.wrap(cli, "kmeans", "clustering.kmeans")
        self.wrap(cli, "run_cmd", "modes.cmd", _cmd_counts)
        self.wrap(cohsets.modes, "solve_cmd_grams", "modes.solve_cmd_grams")
        self.wrap(numpy, "savetxt", "io.savetxt", _file_bytes)
        for name in ("write_pairs_csv", "write_snapshots"):
            self.wrap(cohsets.io, name, f"io.{name}", _file_bytes)
        for name in ("read_snapshots", "read_matrix_csv", "read_pairs_csv"):
            self.wrap(cohsets.io, name, f"io.{name}", _file_bytes)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor, s["start"]), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced execution.

    Returns (metrics, self_sum_error_s). The error is the traced wall time
    minus the sum of all self times and cli.self_s; it is 0 up to rounding
    when every child span lies inside its parent and siblings do not overlap.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in pick(name))

    def count(name, key):
        return sum(s.get(key, 0) for s in pick(name))

    # np.savetxt inside io.write_pairs_csv is one write, not two
    io_spans = [s for s in spans if s["name"].startswith("io.") and not _has_io_ancestor(s, by_id)]
    reads = [s for s in io_spans if s["name"].startswith("io.read_")]
    writes = [s for s in io_spans if not s["name"].startswith("io.read_")]

    advect, sde = total("dynamics.bickley_flow_map"), total("dynamics.em_ensemble")
    steps = count("dynamics.bickley_flow_map", "particle_steps") + \
        count("dynamics.em_ensemble", "particle_steps")
    kcca = pick("cca.kernel_cca")
    cmd = pick("modes.cmd")
    roots = [s for s in spans if s["parent"] is None]
    cli_self = wall_s - sum(dur(s) for s in roots)
    eigh, solve = pick("linalg.eigh"), pick("linalg.solve")
    m = {
        "dynamics.advect_s": advect,
        "dynamics.sde_s": sde,
        "dynamics.particle_steps": steps,
        "dynamics.particle_steps_per_s": steps / (advect + sde) if advect + sde > 0 else 0.0,
        "kernels.gram_s": total("kernels.gram_matrix"),
        "kernels.gram_calls": len(pick("kernels.gram_matrix")),
        "kernels.gram_entries": count("kernels.gram_matrix", "entries"),
        "kernels.center_s": total("kernels.center_gram"),
        "linalg.eigh_calls": len(eigh),
        "linalg.eigh_s": total("linalg.eigh"),
        "linalg.eigh_max_order": max((s["order"] for s in eigh), default=0),
        "linalg.solve_calls": len(solve),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.solve_max_order": max((s["order"] for s in solve), default=0),
        "linalg.flops": sum(s["flops"] for s in eigh + solve),
        "cca.kernel_cca_s": sum(dur(s) for s in kcca),
        "cca.kernel_cca_self_s": sum(selfs[s["id"]] for s in kcca),
        "cca.kernel_cca_peak_mb": max((s["peak_mb"] or 0.0 for s in kcca), default=0.0),
        "cca.evaluate_s": total("cca.evaluate_eigenfunctions"),
        "cca.evaluate_points": count("cca.evaluate_eigenfunctions", "points"),
        "modes.cmd_s": sum(dur(s) for s in cmd),
        "modes.cmd_self_s": sum(selfs[s["id"]] for s in cmd),
        "modes.solve_s": total("modes.solve_cmd_grams"),
        "modes.gram_flops": count("modes.cmd", "gram_flops"),
        "clustering.kmeans_s": total("clustering.kmeans"),
        "clustering.kmeans_calls": len(pick("clustering.kmeans")),
        "io.read_s": sum(dur(s) for s in reads),
        "io.read_bytes": sum(s["bytes"] for s in reads),
        "io.write_s": sum(dur(s) for s in writes),
        "io.write_bytes": sum(s["bytes"] for s in writes),
        "cli.self_s": cli_self,
    }
    error = wall_s - (sum(selfs.values()) + cli_self)
    return m, error


def _has_io_ancestor(span, by_id):
    parent = span["parent"]
    while parent is not None:
        if by_id[parent]["name"].startswith("io."):
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_table(spans):
    """Rows (calls, total_s, self_s, peak_mb, orders) by span name; peak_mb is
    None for spans that ran without tracemalloc."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "peak_mb": None, "orders": []})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
        if s["peak_mb"] is not None:
            row["peak_mb"] = max(row["peak_mb"] or 0.0, s["peak_mb"])
        if "order" in s:
            row["orders"].append(s["order"])
    return rows
