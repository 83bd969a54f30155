"""Command-line pipelines: artifacts, determinism, and exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cohsets
import cohsets.cli
from cohsets import RegParam, SnapshotMatrices, TrajectoryPairs, _accel, cmd, modes
from cohsets.cli import main
from cohsets.io import SnapshotFile, read_snapshots, write_pairs_csv, write_snapshots
from cohsets.kernels import FACTOR_TOL


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_bickley_zero_lag_self_correlation(runner, tmp_path):
    out = tmp_path / "out"
    res = _run(runner, [
        "bickley", "--n", "100", "--tau", "0", "--k", "3",
        "--clusters", "3", "--m-funcs", "3", "--grid", "20", "6",
        "--out", str(out),
    ])
    assert res.exit_code == 0
    rho = np.loadtxt(out / "rho.csv", delimiter=",")
    assert rho[0] > 0.999
    for name in ("rho.csv", "v.csv", "w.csv", "f_on_X.csv", "g_on_Y.csv",
                 "pairs.csv", "labels.csv", "centers.csv", "eigengrid.csv",
                 "metadata.json"):
        assert (out / name).exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["parameters"]["n"] == 100
    # the result's record shares the one metadata file with the run record
    assert meta["formulation"] == "gram-ii"
    assert meta["k"] == 3
    # the Gram factors: at least k pivots, residual trace within the tolerance
    for view in ("x", "y"):
        factor = meta["factor"][view]
        assert 3 <= factor["rank"] <= 100
        assert 0.0 <= factor["residual_trace"] <= 100 * FACTOR_TOL


def test_wells_factor_rank_below_n(runner, tmp_path):
    """Five-well samples crowd into five wells, so both Gram factors stop
    well short of n pivots."""
    out = tmp_path / "out"
    res = _run(runner, ["wells", "--n", "200", "--k", "4", "--clusters", "3",
                        "--m-funcs", "3", "--out", str(out)])
    assert res.exit_code == 0
    meta = json.loads((out / "metadata.json").read_text())
    for view in ("x", "y"):
        factor = meta["factor"][view]
        assert 4 <= factor["rank"] < 200
        assert 0.0 < factor["residual_trace"] <= 200 * FACTOR_TOL


def test_bickley_reruns_are_byte_identical(runner, tmp_path):
    args = ["bickley", "--n", "60", "--tau", "2", "--k", "2", "--clusters", "2",
            "--m-funcs", "2", "--grid", "8", "4", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(runner, args + ["--out", str(a)]).exit_code == 0
    assert _run(runner, args + ["--out", str(b)]).exit_code == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_cca_csv_round_trip_matches_library(runner, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    pairs = TrajectoryPairs(X, X + 0.1 * rng.standard_normal((40, 2)))
    csv = tmp_path / "pairs.csv"
    write_pairs_csv(csv, pairs)
    out = tmp_path / "out"
    res = _run(runner, ["cca-csv", str(csv), "--epsilon", "1e-4", "--k", "3",
                        "--out", str(out)])
    assert res.exit_code == 0
    from cohsets import Kernel, RegParam, kernel_cca

    ref = kernel_cca(pairs, Kernel("gaussian", sigma=1.0), Kernel("gaussian", sigma=1.0),
                     RegParam(1e-4), 3)
    rho = np.loadtxt(out / "rho.csv", delimiter=",")
    np.testing.assert_allclose(rho, ref.rho, atol=1e-10)
    for name, want in (("v", ref.v_vectors), ("w", ref.w_vectors), ("f_on_X", ref.f_on_X),
                       ("g_on_Y", ref.g_on_Y)):
        got = np.loadtxt(out / f"{name}.csv", delimiter=",")
        np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=name)


_CCA_TABLES = {"rho.csv", "v.csv", "w.csv", "f_on_X.csv", "g_on_Y.csv", "metadata.json"}


@pytest.mark.parametrize("command, args, files", [
    ("bickley", ["--n", "40", "--tau", "1", "--k", "2", "--clusters", "2", "--m-funcs", "2",
                 "--grid", "4", "3"],
     _CCA_TABLES | {"pairs.csv", "labels.csv", "centers.csv", "eigengrid.csv"}),
    ("wells", ["--n", "40", "--k", "2", "--clusters", "2", "--m-funcs", "2"],
     _CCA_TABLES | {"pairs.csv", "labels.csv", "centers.csv"}),
    ("cca-csv", ["{pairs}", "--k", "2"], _CCA_TABLES),
    ("cmd-file", ["{snap}", "--k", "2"],
     {"rho.csv", "v.csv", "w.csv", "xi_modes.bin", "eta_modes.bin", "metadata.json"}),
    ("kpca-csv", ["{points}", "--k", "2"],
     {"components.csv", "eigenfunctions.csv", "metadata.json"}),
    ("gram", ["{points}"], {"gram.csv", "metadata.json"}),
], ids=["bickley", "wells", "cca-csv", "cmd-file", "kpca-csv", "gram"])
def test_output_directory_layout(runner, tmp_path, command, args, files):
    """Each command writes exactly its file set, and a metadata.json in the
    one format: sorted keys, two-space indent, a final newline, and the run
    record (command, version, parameters)."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 2))
    inputs = {"pairs": tmp_path / "pairs.csv", "snap": tmp_path / "snap.bin",
              "points": tmp_path / "points.csv"}
    write_pairs_csv(inputs["pairs"], TrajectoryPairs(X, X + 0.1 * rng.standard_normal((20, 2))))
    write_snapshots(inputs["snap"], rng.standard_normal((30, 12)))
    np.savetxt(inputs["points"], X, delimiter=",")
    out = tmp_path / "out"
    res = _run(runner, [command] + [a.format(**inputs) for a in args] + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    assert {p.name for p in out.iterdir()} == files
    text = (out / "metadata.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    meta = json.loads(text)
    assert meta["command"] == command
    assert meta["version"] == cohsets.__version__
    assert isinstance(meta["parameters"], dict)


def test_cca_csv_haversine_preset_in_metadata(runner, tmp_path):
    rng = np.random.default_rng(1)
    lonlat = np.stack([rng.uniform(-40, 40, 25), rng.uniform(-30, 30, 25)], axis=1)
    pairs = TrajectoryPairs(lonlat, lonlat + rng.uniform(-2, 2, (25, 2)))
    csv = tmp_path / "drifters.csv"
    write_pairs_csv(csv, pairs)
    out = tmp_path / "out"
    res = _run(runner, [
        "cca-csv", str(csv), "--kernel", "haversine:sigma=30,radius=6371",
        "--epsilon", "1e-4", "--k", "2", "--out", str(out),
    ])
    assert res.exit_code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["parameters"]["kernel"] == "haversine:sigma=30.0,radius=6371.0"
    assert meta["parameters"]["epsilon"] == 1e-4


def test_cmd_file_rank_one(runner, tmp_path):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(300)
    n = 128
    Z = np.outer(u, np.sin(2 * np.pi * np.arange(n + 1) / n))
    snap = tmp_path / "snap.bin"
    write_snapshots(snap, Z)
    out = tmp_path / "out"
    res = _run(runner, ["cmd-file", str(snap), "--epsilon", "1e-6", "--k", "1",
                        "--out", str(out)])
    assert res.exit_code == 0
    rho = np.atleast_1d(np.loadtxt(out / "rho.csv", delimiter=","))
    assert rho[0] > 0.99
    for name in ("xi_modes.bin", "eta_modes.bin", "v.csv", "w.csv"):
        assert (out / name).exists()


def test_cmd_file_skip_transient(runner, tmp_path):
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((5, 20))
    snap = tmp_path / "snap.bin"
    write_snapshots(snap, Z)
    out = tmp_path / "out"
    res = _run(runner, ["cmd-file", str(snap), "--k", "2", "--skip-transient", "4",
                        "--out", str(out)])
    assert res.exit_code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["parameters"]["n"] == 15


def test_cmd_file_refuses_k_above_the_pair_count(runner, tmp_path, monkeypatch):
    """--k above the pairs left after --skip-transient exits 2, as cca-csv
    does, before any payload block is read; it used to write fewer modes."""
    def forbidden(*a, **kw):
        pytest.fail("payload read before --k was checked")

    monkeypatch.setattr(SnapshotFile, "blocks", forbidden)
    snap = tmp_path / "snap.bin"
    write_snapshots(snap, np.random.default_rng(3).standard_normal((5, 20)))
    out = tmp_path / "out"
    res = runner.invoke(main, ["cmd-file", str(snap), "--k", "16", "--skip-transient", "4",
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "input error" in res.output and "[1, 15]" in res.output
    assert not out.exists()


def _read_modes(path):
    return np.concatenate([b.copy() for b in read_snapshots(path).blocks(modes.BLOCK_ROWS)])


def test_cmd_file_streams_a_file_larger_than_free_memory(runner, tmp_path, monkeypatch):
    """With less memory free than the file holds, cmd-file still runs: it
    reads the file in row blocks, twice, and matches in-memory CMD."""
    from cohsets import linalg

    d = 3 * modes._THREADS * modes.BLOCK_ROWS + 100  # 12 388 rows: seven row blocks
    rng = np.random.default_rng(11)
    t = np.arange(61)
    Z = (np.outer(rng.standard_normal(d), np.cos(0.3 * t))
         + np.outer(rng.standard_normal(d), np.sin(0.9 * t)) + 0.3 * rng.standard_normal((d, 61)))
    snap = tmp_path / "snap.bin"
    write_snapshots(snap, Z)
    monkeypatch.setattr(linalg, "available_memory", lambda: snap.stat().st_size // 2)
    out = tmp_path / "out"
    res = runner.invoke(main, ["cmd-file", str(snap), "--k", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    ref = cmd(SnapshotMatrices.from_sequence(Z), RegParam(0.1), 2)
    rho = np.loadtxt(out / "rho.csv", delimiter=",", ndmin=1)
    np.testing.assert_allclose(rho, ref.rho, rtol=0, atol=1e-12)
    for got, want in ((np.loadtxt(out / "v.csv", delimiter=","), ref.v),
                      (np.loadtxt(out / "w.csv", delimiter=","), ref.w),
                      (_read_modes(out / "xi_modes.bin"), ref.xi_modes),
                      (_read_modes(out / "eta_modes.bin"), ref.eta_modes)):
        assert (np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max() < 1e-8


def test_cmd_file_truncated_on_the_second_thread_exits_2(runner, tmp_path, monkeypatch):
    """A file that shrinks after its size check exits 2 when the short read is
    the second thread's: with d = 16 rows in blocks of 4, the second thread
    reads blocks 1 and 3, and block 3 (rows 12 to 15) is cut short."""
    monkeypatch.setattr(modes, "BLOCK_ROWS", 4)
    snap = tmp_path / "snap.bin"
    write_snapshots(snap, np.random.default_rng(13).standard_normal((16, 10)))
    read = cohsets.io.read_snapshots

    def read_then_truncate(path):
        source = read(path)
        Path(path).write_bytes(Path(path).read_bytes()[:-8])
        return source

    monkeypatch.setattr(cohsets.io, "read_snapshots", read_then_truncate)
    out = tmp_path / "out"
    res = runner.invoke(main, ["cmd-file", str(snap), "--k", "2", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "truncated while reading row 12 of 16" in res.output
    assert not out.exists()


def test_every_command_runs_inside_handle_errors():
    """Every subcommand's callback is _handle_errors' wrapper around the
    command body, so each runs with BLAS on one thread and maps input and
    numerical errors to exit codes 2 and 3."""
    wrapper = cohsets.cli._handle_errors(print).__code__
    assert len(main.commands) >= 6
    for name, command in main.commands.items():
        assert command.callback.__code__ is wrapper, name
        assert callable(command.callback.__wrapped__), name


def test_cmd_file_nonfinite_entry_in_the_last_block(runner, tmp_path):
    """A nan that only the last row block holds still exits 2."""
    Z = np.random.default_rng(12).standard_normal((2 * modes.BLOCK_ROWS + 5, 8))
    Z[-1, 3] = np.nan
    snap = tmp_path / "snap.bin"
    write_snapshots(snap, Z)
    res = runner.invoke(main, ["cmd-file", str(snap), "--k", "2", "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "non-finite snapshot entries" in res.output


def test_kpca_and_gram_commands(runner, tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((20, 2))
    csv = tmp_path / "points.csv"
    np.savetxt(csv, data, delimiter=",")
    out1 = tmp_path / "kpca"
    res = _run(runner, ["kpca-csv", str(csv), "--k", "3", "--out", str(out1)])
    assert res.exit_code == 0
    assert (out1 / "eigenfunctions.csv").exists()
    comps = np.loadtxt(out1 / "components.csv", delimiter=",")
    assert comps.shape == (20, 3)
    out2 = tmp_path / "gram"
    res = _run(runner, ["gram", str(csv), "--centered", "--out", str(out2)])
    assert res.exit_code == 0
    G = np.loadtxt(out2 / "gram.csv", delimiter=",")
    assert G.shape == (20, 20)
    assert np.max(np.abs(G.sum(axis=1))) < 1e-8  # centered


def test_input_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    res = runner.invoke(main, ["cca-csv", str(bad)])
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["kpca-csv", "gram", "cmd-file"])
def test_empty_matrix_csv_exit_code(tmp_path, command):
    """An empty plain CSV is an input error, raised before numpy's loadtxt can
    print its 'input contained no data' UserWarning to stderr."""
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    package_root = Path(cohsets.cli.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cohsets.cli import main; main(sys.argv[1:])",
         command, str(empty), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "no data rows" in proc.stderr
    assert "UserWarning" not in proc.stderr


def test_bad_kernel_value_exit_code(runner, tmp_path):
    res = runner.invoke(main, ["bickley", "--n", "20", "--kernel", "gaussian:sigma=abc",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "input error" in res.output


@pytest.mark.parametrize("command, args", [
    pytest.param("bickley", ["--clusters", "0"], id="bickley-zero-clusters"),
    pytest.param("bickley", ["--m-funcs", "-1"], id="bickley-negative-m-funcs"),
    pytest.param("bickley", ["--grid", "-1", "5"], id="bickley-negative-grid"),
    pytest.param("bickley", ["--epsilon", "nan"], id="bickley-nan-epsilon"),
    pytest.param("bickley", ["--epsilon", "0"], id="bickley-zero-epsilon"),
    pytest.param("bickley", ["--k", "0"], id="bickley-zero-k"),
    pytest.param("bickley", ["--tau", "nan"], id="bickley-nan-tau"),
    pytest.param("bickley", ["--tau", "inf"], id="bickley-inf-tau"),
    pytest.param("bickley", ["--tau", "1e9"], id="bickley-huge-tau"),
    pytest.param("bickley", ["--seed", "-1"], id="bickley-negative-seed"),
    pytest.param("bickley", ["--n", "1"], id="bickley-small-n"),
    pytest.param("bickley", ["--k", "50"], id="bickley-k-above-n"),
    pytest.param("bickley", ["--clusters", "50"], id="bickley-clusters-above-n"),
    pytest.param("wells", ["--m-funcs", "0"], id="wells-zero-m-funcs"),
    pytest.param("wells", ["--seed", "-1"], id="wells-negative-seed"),
    pytest.param("wells", ["--n", "1"], id="wells-small-n"),
    pytest.param("wells", ["--epsilon", "inf"], id="wells-inf-epsilon"),
    pytest.param("wells", ["--epsilon", "nan"], id="wells-nan-epsilon"),
    pytest.param("wells", ["--k", "50"], id="wells-k-above-n"),
    pytest.param("wells", ["--clusters", "50"], id="wells-clusters-above-n"),
    pytest.param("wells", ["--beta", "0"], id="wells-zero-beta"),
    pytest.param("wells", ["--beta", "-1"], id="wells-negative-beta"),
    pytest.param("wells", ["--beta", "nan"], id="wells-nan-beta"),
    pytest.param("cca-csv", ["--clusters", "2", "--m-funcs", "-1"],
                 id="cca-csv-negative-m-funcs"),
    pytest.param("cca-csv", ["--epsilon", "nan"], id="cca-csv-nan-epsilon"),
    pytest.param("cca-csv", ["--clusters", "-1"], id="cca-csv-negative-clusters"),
    pytest.param("cca-csv", ["--clusters", "2", "--seed", "-1"], id="cca-csv-negative-seed"),
    pytest.param("cmd-file", ["--epsilon", "nan"], id="cmd-file-nan-epsilon"),
    pytest.param("cmd-file", ["--epsilon", "inf"], id="cmd-file-inf-epsilon"),
    pytest.param("cmd-file", ["--epsilon", "0"], id="cmd-file-zero-epsilon"),
    pytest.param("cmd-file", ["--k", "0"], id="cmd-file-zero-k"),
    pytest.param("cmd-file", ["--skip-transient", "-1"], id="cmd-file-negative-skip-transient"),
    pytest.param("kpca-csv", ["--k", "0"], id="kpca-csv-zero-k"),
    pytest.param("kpca-csv", ["--k", "-2"], id="kpca-csv-negative-k"),
])
def test_bad_parameter_exit_code(runner, tmp_path, monkeypatch, command, args):
    """Each bad parameter exits 2 with a message, never a traceback or a
    silently altered run, and before any trajectory is simulated or any
    trajectory, snapshot or point file is read."""
    from cohsets import cli as cli_mod
    from cohsets import io as io_mod

    def forbidden(*a, **kw):
        pytest.fail("input made before the parameters were checked")

    monkeypatch.setattr(cli_mod, "bickley_pairs", forbidden)
    monkeypatch.setattr(cli_mod, "five_well_pairs", forbidden)
    monkeypatch.setattr(io_mod, "read_pairs_csv", forbidden)
    monkeypatch.setattr(io_mod, "read_snapshots", forbidden)
    monkeypatch.setattr(io_mod, "read_matrix_csv", forbidden)
    rng = np.random.default_rng(0)
    if command in ("bickley", "wells"):
        inputs = ["--n", "20"]
    elif command == "cca-csv":
        inputs = [str(tmp_path / "pairs.csv")]
        write_pairs_csv(inputs[0], TrajectoryPairs(rng.standard_normal((20, 2)),
                                                   rng.standard_normal((20, 2))))
    elif command == "cmd-file":
        inputs = [str(tmp_path / "snap.bin")]
        write_snapshots(inputs[0], rng.standard_normal((12, 8)))
    else:
        inputs = [str(tmp_path / "data.csv")]
        np.savetxt(inputs[0], rng.standard_normal((10, 2)), delimiter=",")
    res = runner.invoke(main, [command] + inputs + args + ["--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "input error" in res.output or "Invalid value" in res.output


def test_nonfinite_snapshots_exit_code(runner, tmp_path):
    snap = tmp_path / "snap.bin"
    for bad in (np.nan, np.inf, -np.inf):
        Z = np.ones((3, 10))
        Z[0, 0] = bad
        write_snapshots(snap, Z)
        res = runner.invoke(main, ["cmd-file", str(snap), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, (bad, res.output)
        assert "input error" in res.output and "non-finite snapshot entries" in res.output


def test_numerical_error_exit_code(runner, tmp_path, monkeypatch):
    from cohsets import NumericalError
    from cohsets import cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure", "cca")

    monkeypatch.setattr(cli_mod, "kernel_cca", boom)
    rng = np.random.default_rng(5)
    pairs = TrajectoryPairs(rng.standard_normal((10, 2)), rng.standard_normal((10, 2)))
    csv = tmp_path / "pairs.csv"
    write_pairs_csv(csv, pairs)
    res = runner.invoke(main, ["cca-csv", str(csv)])
    assert res.exit_code == 3


def test_wells_pipeline_small(runner, tmp_path):
    out = tmp_path / "wells"
    res = _run(runner, ["wells", "--n", "60", "--k", "4", "--clusters", "3",
                        "--m-funcs", "3", "--out", str(out)])
    assert res.exit_code == 0
    rho = np.loadtxt(out / "rho.csv", delimiter=",")
    assert rho.shape == (4,)
    assert np.all(rho >= 0) and np.all(rho < 1)
    labels = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1)
    assert labels.shape[0] == 60


def test_gram_beyond_available_memory_exit_code(runner, tmp_path, monkeypatch):
    from cohsets import linalg

    csv = tmp_path / "points.csv"
    np.savetxt(csv, np.random.default_rng(6).standard_normal((200, 2)), delimiter=",")
    monkeypatch.setattr(linalg, "available_memory", lambda: 100_000)  # 100 kB
    out = tmp_path / "out"
    res = runner.invoke(main, ["gram", str(csv), "--out", str(out)])
    assert res.exit_code == 2
    assert "input error" in res.output and "GB is available" in res.output
    assert not (out / "gram.csv").exists()
    monkeypatch.setattr(linalg, "available_memory", lambda: None)  # unknown: no limit
    assert runner.invoke(main, ["gram", str(csv), "--out", str(out)]).exit_code == 0


def test_snapshots_beyond_available_memory_exit_code(runner, tmp_path, monkeypatch):
    """The snapshot buffer is checked against free memory before it is made."""
    from cohsets import linalg

    snap = tmp_path / "snap.bin"
    write_snapshots(snap, np.random.default_rng(7).standard_normal((2000, 10)))  # 160 kB
    monkeypatch.setattr(linalg, "available_memory", lambda: 100_000)  # 100 kB
    out = tmp_path / "out"
    res = runner.invoke(main, ["cmd-file", str(snap), "--k", "2", "--out", str(out)])
    assert res.exit_code == 2
    assert "snapshot matrix" in res.output and "GB is available" in res.output
    assert not out.exists()
    monkeypatch.setattr(linalg, "available_memory", lambda: None)  # unknown: no limit
    res = runner.invoke(main, ["cmd-file", str(snap), "--k", "2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "rho.csv").exists()


def test_sde_noise_beyond_available_memory_exit_code(runner, tmp_path, monkeypatch):
    """The two Euler-Maruyama noise blocks are checked against free memory
    before they are made."""
    from cohsets import linalg

    args = ["wells", "--n", "60", "--k", "4", "--clusters", "3", "--m-funcs", "3"]
    monkeypatch.setattr(linalg, "available_memory", lambda: 100_000)  # 100 kB
    out = tmp_path / "out"
    res = runner.invoke(main, args + ["--out", str(out)])  # needs 960 kB
    assert res.exit_code == 2
    assert "Euler-Maruyama noise" in res.output and "GB is available" in res.output
    assert not out.exists()
    monkeypatch.setattr(linalg, "available_memory", lambda: None)  # unknown: no limit
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "pairs.csv").exists()


def test_evaluation_grid_beyond_available_memory_exit_code(runner, tmp_path, monkeypatch):
    """The jet's evaluation grid is checked against free memory before any
    particle is advected."""
    from cohsets import linalg

    def forbidden(*a, **kw):
        raise AssertionError("simulation started")

    monkeypatch.setattr(cohsets.cli, "bickley_pairs", forbidden)
    monkeypatch.setattr(linalg, "available_memory", lambda: 10**9)  # 1 GB
    out = tmp_path / "out"
    args = ["bickley", "--n", "50", "--k", "2", "--out", str(out)]
    res = runner.invoke(main, args + ["--grid", "100000", "100000"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "evaluation grid" in res.output and "GB is available" in res.output
    assert not out.exists()
    # the default grid passes the check and reaches the simulation
    assert isinstance(runner.invoke(main, args).exception, AssertionError)


def test_perfbench_tracer_finds_its_hooks():
    """perfbench/spans.py wraps package attributes by name, and perfbench/child.py
    reads _accel.NUMBA_ENABLED; a rename breaks `perfbench/run.py --trace 1`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    kernel_cca = cohsets.cli.kernel_cca
    tracer = spans.Tracer(0)
    try:
        tracer.install()
        assert cohsets.cli.kernel_cca is not kernel_cca
    finally:
        tracer.uninstall()
    assert cohsets.cli.kernel_cca is kernel_cca
    assert isinstance(_accel.NUMBA_ENABLED, bool)
