"""End-to-end pipelines: generate benchmark data, run CCA/CMD, cluster,
and emit plot-ready CSV artifacts.

Exit codes: 0 success, 2 input error, 3 numerical error.
"""

import functools
import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource
import numpy as np

from . import __version__, io
from .cca import evaluate_eigenfunctions, kernel_cca
from .clustering import Embedding, kmeans
from .dynamics import (
    JET_DOMAIN,
    WELLS,
    BickleyConfig,
    FiveWellConfig,
    bickley_pairs,
    five_well_pairs,
)
from .errors import InputError, NumericalError
from .kernels import center_gram, gram_matrix, parse_kernel
from .linalg import RegParam, require_memory, serial_blas
from .modes import SnapshotMatrices, cmd as run_cmd
from .operators import eigenfunctions_to_csv, kernel_pca


_EPSILON = click.FloatRange(min=0, min_open=True)  # RegParam then rejects nan and inf


def _handle_errors(func):
    """Wrap every command: BLAS on one thread (linalg.serial_blas), and exit
    codes 2 and 3 for input and numerical errors."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            with serial_blas():
                return func(*args, **kwargs)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _write_outputs(out, command, params, tables, **record):
    """Make the output directory `out` and write each table as a headerless
    `<name>.csv`, and metadata.json: the run record (command, version,
    parameters) merged with `record`. Returns the directory."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        np.savetxt(outdir / f"{name}.csv", table, delimiter=",")
    meta = dict(record, command=command, version=__version__, parameters=params)
    (outdir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return outdir


def _check_sample_counts(n, k, clusters):
    """Refuse before simulating what kernel_cca (k) or kmeans (clusters)
    would refuse only after it: more components or clusters than samples."""
    for name, value in (("k", k), ("clusters", clusters)):
        if value > n:
            raise InputError(f"--{name} {value} exceeds --n {n} samples", "cli")


def _cca_pipeline(out, command, params, pairs, kern, reg, centered=True):
    """Kernel CCA on both views with kern, k-means of the dominant
    eigenfunctions when params["clusters"] > 0, and the shared artifacts.
    metadata.json holds the run record and the result's record."""
    result = kernel_cca(pairs, kern, kern, reg, params["k"], centered=centered)
    tables = {"rho": result.rho[None, :], "v": result.v_vectors, "w": result.w_vectors,
              "f_on_X": result.f_on_X, "g_on_Y": result.g_on_Y}
    if params["clusters"] > 0:
        embedding = Embedding(result.f_on_X[:, : min(params["m_funcs"], params["k"])])
        part = kmeans(embedding, params["clusters"], seed=params["seed"])
        tables["centers"] = part.centers
    spec = kern.spec_string()
    outdir = _write_outputs(out, command, params, tables, formulation="gram-ii", eps=reg.eps,
                            n=pairs.n, k=result.k, kernel_x=spec, kernel_y=spec,
                            factor=result.factor)
    if params["clusters"] > 0:
        io.write_pairs_csv(outdir / "labels.csv", pairs, part.labels)
    click.echo(f"rho: {np.array2string(result.rho, precision=4)}")
    return result, outdir


@click.group()
@click.version_option(__version__)
def main():
    """Coherent set detection via kernel CCA and coherent mode decomposition."""


@main.command()
@click.option("--n", default=10000, show_default=True, type=click.IntRange(min=2),
              help="Number of sample trajectories.")
@click.option("--desk", is_flag=True, help="Desk-scale run (n=2000) unless --n is set explicitly.")
@click.option("--tau", default=40.0, show_default=True, help="Lag time in days.")
@click.option("--kernel", "kernel_spec", default="gaussian:sigma=1.0", show_default=True)
@click.option("--epsilon", default=1e-7, show_default=True, type=_EPSILON)
@click.option("--k", default=10, show_default=True, type=click.IntRange(min=1),
              help="Number of eigenpairs.")
@click.option("--clusters", default=9, show_default=True, type=click.IntRange(min=1))
@click.option("--m-funcs", default=8, show_default=True, type=click.IntRange(min=1),
              help="Eigenfunctions fed to k-means.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--grid", nargs=2, default=(200, 60), show_default=True,
              type=click.IntRange(min=1), help="Evaluation grid resolution (nx ny).")
@click.option("--out", default="bickley_out", show_default=True)
@_handle_errors
def bickley(n, desk, tau, kernel_spec, epsilon, k, clusters, m_funcs, seed, grid, out):
    """Bickley jet pipeline: advect particles, run kernel CCA, cluster."""
    if desk and click.get_current_context().get_parameter_source("n") is ParameterSource.DEFAULT:
        n = 2000
    _check_sample_counts(n, k, clusters)
    cfg = BickleyConfig(tau=tau)
    kern, reg = parse_kernel(kernel_spec), RegParam(epsilon)
    nx, ny = grid
    # before any simulation: meshgrid to hstack hold 2 (k + 3) doubles per grid point
    require_memory(2 * nx * ny * (k + 3), "evaluation grid")
    pairs = bickley_pairs(n, seed, cfg)
    result, outdir = _cca_pipeline(out, "bickley", {
        "n": n, "tau": tau, "kernel": kern.spec_string(), "epsilon": epsilon,
        "k": k, "clusters": clusters, "m_funcs": m_funcs, "seed": seed,
        "grid": list(grid), "integrator_step": cfg.step,
    }, pairs, kern, reg)
    io.write_pairs_csv(outdir / "pairs.csv", pairs)
    gx = np.linspace(JET_DOMAIN[0][0], JET_DOMAIN[0][1], nx)
    gy = np.linspace(JET_DOMAIN[1][0], JET_DOMAIN[1][1], ny)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    grid_points = np.stack([GX.ravel(), GY.ravel()], axis=1)
    values = evaluate_eigenfunctions(result, "f", grid_points)
    header = ",".join(["x1", "x2"] + [f"f{j+1}" for j in range(values.shape[1])])
    np.savetxt(
        outdir / "eigengrid.csv",
        np.hstack([grid_points, values]),
        delimiter=",",
        header=header,
        comments="",
    )
    click.echo(f"artifacts written to {outdir}")


@main.command()
@click.option("--n", default=1000, show_default=True, type=click.IntRange(min=2))
@click.option("--beta", default=3.0, show_default=True, help="Inverse temperature.")
@click.option("--kernel", "kernel_spec", default="gaussian:sigma=1.0", show_default=True)
@click.option("--epsilon", default=1e-6, show_default=True, type=_EPSILON)
@click.option("--k", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--clusters", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--m-funcs", default=4, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", default="wells_out", show_default=True)
@_handle_errors
def wells(n, beta, kernel_spec, epsilon, k, clusters, m_funcs, seed, out):
    """Five-well SDE pipeline: simulate, run kernel CCA, cluster coherent wells."""
    _check_sample_counts(n, k, clusters)
    cfg = FiveWellConfig(beta=beta, seed=seed)
    kern, reg = parse_kernel(kernel_spec), RegParam(epsilon)
    pairs = five_well_pairs(n, cfg)
    _, outdir = _cca_pipeline(out, "wells", {
        "n": n, "beta": beta, "kernel": kern.spec_string(), "epsilon": epsilon,
        "k": k, "clusters": clusters, "m_funcs": m_funcs, "seed": seed,
        "h": cfg.h, "t_span": list(cfg.t_span), "s": WELLS,
    }, pairs, kern, reg)
    io.write_pairs_csv(outdir / "pairs.csv", pairs)
    click.echo(f"artifacts written to {outdir}")


@main.command("cca-csv")
@click.argument("input_csv", type=click.Path(exists=True))
@click.option("--kernel", "kernel_spec", default="gaussian:sigma=1.0", show_default=True,
              help="Kernel for both views (e.g. haversine:sigma=30,radius=6371).")
@click.option("--epsilon", default=1e-6, show_default=True, type=_EPSILON)
@click.option("--k", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--centered/--no-centered", default=True, show_default=True)
@click.option("--clusters", default=0, show_default=True, type=click.IntRange(min=0),
              help="If > 0, also k-means cluster the dominant eigenfunctions.")
@click.option("--m-funcs", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", default="cca_out", show_default=True)
@_handle_errors
def cca_csv(input_csv, kernel_spec, epsilon, k, centered, clusters, m_funcs, seed, out):
    """Kernel CCA on externally supplied trajectory pairs (CSV)."""
    kern, reg = parse_kernel(kernel_spec), RegParam(epsilon)
    pairs = io.read_pairs_csv(input_csv)
    _, outdir = _cca_pipeline(out, "cca-csv", {
        "input": str(input_csv), "kernel": kern.spec_string(), "epsilon": epsilon,
        "k": k, "centered": centered, "clusters": clusters, "m_funcs": m_funcs,
        "seed": seed,
    }, pairs, kern, reg, centered)
    click.echo(f"artifacts written to {outdir}")


@main.command("cmd-file")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--epsilon", default=0.1, show_default=True, type=_EPSILON)
@click.option("--k", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--centered/--no-centered", default=False, show_default=True)
@click.option("--skip-transient", default=0, show_default=True, type=click.IntRange(min=0),
              help="Leading snapshots to drop before sequential pairing.")
@click.option("--out", default="cmd_out", show_default=True)
@_handle_errors
def cmd_file(input_file, epsilon, k, centered, skip_transient, out):
    """Coherent mode decomposition of a snapshot matrix (binary CMDX or CSV)."""
    path, reg = Path(input_file), RegParam(epsilon)
    Z = io.read_matrix_csv(path) if path.suffix.lower() == ".csv" else io.read_snapshots(path)
    snap = SnapshotMatrices.from_sequence(Z, skip=skip_transient)
    result = run_cmd(snap, reg, k, centered=centered)
    outdir = _write_outputs(out, "cmd-file", {
        "input": str(input_file), "epsilon": epsilon, "k": k,
        "centered": centered, "skip_transient": skip_transient,
        "d": snap.d, "n": snap.n,
    }, {"rho": result.rho[None, :], "v": result.v, "w": result.w})
    io.write_snapshots(outdir / "xi_modes.bin", result.xi_modes)
    io.write_snapshots(outdir / "eta_modes.bin", result.eta_modes)
    click.echo(f"rho: {np.array2string(result.rho, precision=4)}")
    click.echo(f"artifacts written to {outdir}")


@main.command("kpca-csv")
@click.argument("input_csv", type=click.Path(exists=True))
@click.option("--kernel", "kernel_spec", default="gaussian:sigma=1.0", show_default=True)
@click.option("--k", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--out", default="kpca_out", show_default=True)
@_handle_errors
def kpca_csv(input_csv, kernel_spec, k, out):
    """Kernel PCA of a plain numeric CSV (rows are samples)."""
    kern = parse_kernel(kernel_spec)
    data = io.read_matrix_csv(input_csv)
    funcs = kernel_pca(data, kern, k)
    outdir = _write_outputs(out, "kpca-csv", {
        "input": str(input_csv), "kernel": kern.spec_string(), "k": k,
    }, {"components": np.stack([f.train_values for f in funcs], axis=1)})
    eigenfunctions_to_csv(funcs, outdir / "eigenfunctions.csv")
    click.echo(f"eigenvalues: {[round(f.eigenvalue, 6) for f in funcs]}")
    click.echo(f"artifacts written to {outdir}")


@main.command()
@click.argument("input_csv", type=click.Path(exists=True))
@click.option("--kernel", "kernel_spec", default="gaussian:sigma=1.0", show_default=True)
@click.option("--centered/--no-centered", default=False, show_default=True)
@click.option("--out", default="gram_out", show_default=True)
@_handle_errors
def gram(input_csv, kernel_spec, centered, out):
    """Debug: write the (optionally centered) Gram matrix of a point CSV."""
    kern = parse_kernel(kernel_spec)
    data = io.read_matrix_csv(input_csv)
    G = gram_matrix(kern, data)
    if centered:
        G = center_gram(G)
    _write_outputs(out, "gram", {
        "input": str(input_csv), "kernel": kern.spec_string(), "centered": centered,
    }, {"gram": G.entries})
    click.echo(
        f"n={G.n} min={G.entries.min():.6g} max={G.entries.max():.6g} "
        f"sym_err={np.max(np.abs(G.entries - G.entries.T)):.3g}"
    )


if __name__ == "__main__":
    main()
