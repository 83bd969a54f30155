"""Every public entry point either succeeds or raises a CohsetsError.

Named cases pin calls that once ended in a bare exception or returned
silently. Property tests (hypothesis, derandomized) draw hostile values for
the arguments that carry outside data: points, pairs, labels, counts, times,
seeds, parameters and files. Containers that the package checks itself
(`TrajectoryPairs`, `Kernel`, `FiveWellConfig`, ...) are built through their
constructors from hostile fields, so a refusal there counts too. The
simulators' field bodies are stubbed to stop at their first call, and free
memory is faked at 16 MB, so no case runs long or allocates much; floating
point warnings are ignored. `GramMatrix`, `center_gram` and
`evaluate_eigenfunctions` are left out: perfbench wraps them by name.
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cohsets
from cohsets import (CohsetsError, Embedding, EmpiricalOperator, InputError, Kernel,
                     KernelExpansion, RegParam, SnapshotMatrices, TrajectoryPairs, dynamics, io,
                     linalg, modes)
from cohsets.cli import main
from cohsets.dynamics import (BickleyConfig, FiveWellConfig, bickley_flow_map, bickley_pairs,
                              bickley_velocity, em_ensemble, five_well_grad, sample_uniform)

FAKE_MEMORY = 16_000_000  # bytes


class Simulated(Exception):
    """Raised by the stubbed field bodies: the call passed every entry check."""


def _stop(*args, **kwargs):
    raise Simulated


@contextlib.contextmanager
def _sandbox():
    """Stubbed simulators, 16 MB of free memory and no float warnings."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        mp.setattr(dynamics, "_velocity", _stop)
        mp.setattr(dynamics, "_grad", _stop)
        mp.setattr(linalg, "available_memory", lambda: FAKE_MEMORY)
        yield


def _settle(call, *args, **kwargs):
    """Run one call; a CohsetsError or a stubbed simulator is an answer, any
    other exception fails the test."""
    with _sandbox():
        try:
            call(*args, **kwargs)
        except (CohsetsError, Simulated):
            pass


# ------------------------------------------------------------ named cases

_JET = np.array([[5.0, 0.5], [12.75, -1.15]])
_WELL = np.array([[1.0, 1.0], [-1.0, 0.5]])
_SHORT = FiveWellConfig(t_span=(0.0, 0.01))
_RAGGED = [[1.0, 1.0], [1.0]]
_PAIRS = TrajectoryPairs(np.arange(8.0).reshape(4, 2), np.arange(8.0).reshape(4, 2) ** 0.5)

PROBED = {
    "bickley-config-string-step": lambda: BickleyConfig(step="0.1"),
    "bickley-config-string-tau": lambda: BickleyConfig(tau="40"),
    "bickley-config-huge-tau": lambda: BickleyConfig(tau=1e308),
    "five-well-config-string-h": lambda: FiveWellConfig(h="0.001"),
    "five-well-config-string-beta": lambda: FiveWellConfig(beta="3"),
    "five-well-config-string-t-span": lambda: FiveWellConfig(t_span=("a", 1)),
    "five-well-config-short-t-span": lambda: FiveWellConfig(t_span=(0,)),
    "velocity-string-t": lambda: bickley_velocity(_JET, "1"),
    "velocity-huge-t": lambda: bickley_velocity(_JET, 1e308),
    "flow-map-string-t0": lambda: bickley_flow_map(_JET, "0", 1.0),
    "flow-map-string-tau": lambda: bickley_flow_map(_JET, 0.0, "1"),
    "flow-map-huge-t0": lambda: bickley_flow_map(_JET, 1e308, 1.0),
    "grad-string-t": lambda: five_well_grad(_WELL, "1"),
    "grad-nan-t": lambda: five_well_grad(_WELL, math.nan),
    "grad-three-columns": lambda: five_well_grad(np.ones((2, 3)), 0.0),
    "grad-empty": lambda: five_well_grad(np.empty((0, 2)), 0.0),
    "grad-ragged": lambda: five_well_grad(_RAGGED, 0.0),
    "grad-numeric-strings": lambda: five_well_grad([["1.0", "1.0"]], 0.0),
    "em-three-columns": lambda: em_ensemble(_SHORT, np.ones((2, 3))),
    "em-empty": lambda: em_ensemble(_SHORT, np.empty((0, 2))),
    "em-ragged": lambda: em_ensemble(_SHORT, _RAGGED),
    "em-numeric-strings": lambda: em_ensemble(_SHORT, [["1.0", "1.0"]]),
    "em-nan-start": lambda: em_ensemble(_SHORT, [[math.nan, 1.0]]),
    "sample-uniform-fractional-n": lambda: sample_uniform(dynamics.JET_DOMAIN, 1.5, 0),
    "sample-uniform-string-seed": lambda: sample_uniform(dynamics.JET_DOMAIN, 3, "a"),
    "bickley-pairs-negative-seed": lambda: bickley_pairs(3, -1),
    "kmeans-negative-seed": lambda: cohsets.kmeans(np.eye(3), 2, seed=-1),
    "kmeans-string-seed": lambda: cohsets.kmeans(np.eye(3), 2, seed="a"),
    "coherence-ragged-labels": lambda: cohsets.coherence_score(_PAIRS, [[0], [1, 2], [3], [4]]),
    "parse-kernel-not-a-string": lambda: cohsets.parse_kernel(1),
    "kernel-bool-sigma": lambda: Kernel("gaussian", sigma=True),
    "reg-param-bool": lambda: RegParam(True),
    "reg-param-overflowing-n-eps": lambda: RegParam(1e308).effective(10),
    "cmd-grams-ragged": lambda: modes.solve_cmd_grams(_RAGGED, np.eye(2), 0.1, 1),
    "cmd-grams-not-square": lambda: modes.solve_cmd_grams(np.ones((2, 3)), np.eye(2), 0.1, 1),
    "cmd-grams-two-shapes": lambda: modes.solve_cmd_grams(np.eye(2), np.eye(3), 0.1, 1),
    "kernel-pca-overflowing-norms": lambda: cohsets.kernel_pca(
        np.full((4, 2), 1e200), Kernel("gaussian"), 1),
    "expansion-ragged-anchors": lambda: KernelExpansion(Kernel("gaussian"), _RAGGED, np.ones(2)),
    "expansion-coeff-rows": lambda: KernelExpansion(Kernel("gaussian"), np.eye(2), np.ones(3)),
    "expansion-3d-coeffs": lambda: KernelExpansion(Kernel("gaussian"), np.eye(2),
                                                   np.ones((2, 1, 1))),
    "expansion-string-coeffs": lambda: KernelExpansion(Kernel("gaussian"), np.eye(2),
                                                       [["a"], ["b"]]),
}


@pytest.mark.parametrize("call", PROBED.values(), ids=PROBED.keys())
def test_probed_call_is_an_input_error(call):
    """Each call ended in a bare TypeError, ValueError or AttributeError, or
    returned silently (a dropped third column, converted numeric strings, a
    nan gradient); each is now refused before any work."""
    with pytest.raises(InputError):
        call()


_POLY_400 = Kernel("poly", degree=400)
_WIDE = 3 * np.random.default_rng(0).standard_normal((20, 2))


@pytest.mark.parametrize("call", [
    lambda: cohsets.gram_matrix(_POLY_400, _WIDE),
    lambda: cohsets.kernel_cca(TrajectoryPairs(_WIDE, _WIDE + 1), _POLY_400, _POLY_400,
                               RegParam(1e-3), 2),
    lambda: cohsets.kernel_pca(_WIDE, _POLY_400, 2),
], ids=["gram-matrix", "kernel-cca", "kernel-pca"])
def test_overflowing_polynomial_values_are_an_input_error(call):
    """(1 + <a, b>)^400 on 3 N(0, 1) points overflows: gram_matrix returned
    inf entries, kernel_pca returned and kernel_cca reported numerical rank 0.
    Each is now refused, before any kernel value, without a float warning."""
    with pytest.raises(InputError, match="polynomial kernel values overflow"):
        call()


@pytest.mark.parametrize("path", ["missing.bin", "."], ids=["missing", "directory"])
def test_read_snapshots_of_an_unreadable_path_is_an_input_error(tmp_path, path):
    """A missing file or a directory ended in a bare OSError."""
    with pytest.raises(InputError, match="cannot read"):
        io.read_snapshots(tmp_path / path)


@pytest.mark.parametrize("content", [b"x1,y1\n\xff\xfe,1\n", b"\xffx1,y1\n1,1\n"],
                         ids=["field", "header"])
def test_read_pairs_csv_with_bytes_that_are_not_utf8_is_an_input_error(tmp_path, content):
    """A byte that is not UTF-8 ended in a bare UnicodeDecodeError."""
    path = tmp_path / "pairs.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match="pairs.csv:"):
        io.read_pairs_csv(path)


# ------------------------------------------------------ library properties

_HOSTILE_SCALARS = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 1.5, 1e308, -1e308, 10**30,
                    5e-324, True, False, "1", "a", None, (1, 2), np.ones(2)]
_HOSTILE_ARRAYS = [np.empty((0, 2)), np.empty((3, 0)), np.ones(3), np.ones((3, 3)),
                   np.ones((2, 2, 2)), _RAGGED, [["1", "2"], ["3", "4"]],
                   np.array([[True, False], [False, True]]), np.ones((3, 2), dtype=complex),
                   np.zeros((3, 2)), 7, "abc", None]


@st.composite
def _hostile_matrix(draw, rows=4, cols=2):
    """A valid-looking float matrix with one entry hostile, or a hostile array."""
    A = np.random.default_rng(draw(st.integers(0, 3))).uniform(-2, 2, (rows, cols))
    hostile = st.sampled_from([x for x in _HOSTILE_SCALARS if isinstance(x, float)])
    return draw(st.one_of(
        st.just(A),
        st.sampled_from(_HOSTILE_ARRAYS),
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), hostile).map(
            lambda ijv: np.where(np.arange(A.size).reshape(A.shape) == ijv[0] * cols + ijv[1],
                                 ijv[2], A)),
    ))


def _arg(valid, hostile=st.sampled_from(_HOSTILE_SCALARS)):
    return st.one_of(st.just(valid), hostile)


_kernels = st.one_of(
    st.sampled_from([Kernel("gaussian"), Kernel("linear"), Kernel("poly", degree=3)]),
    st.builds(Kernel, _arg("gaussian", st.sampled_from(["rbf", 3, ["gaussian"]])),
              sigma=_arg(1.0), offset=_arg(1.0), degree=_arg(2), radius=_arg(6371.0)),
)
_pairs = st.builds(TrajectoryPairs, _hostile_matrix(6), _hostile_matrix(6))
_reg = st.builds(RegParam, _arg(1e-3))
_counts = _arg(2, st.sampled_from(_HOSTILE_SCALARS + [0, 7, 10**30]))


_LIBRARY = {
    "Kernel": (Kernel, st.tuples(_arg("gaussian"), _arg(1.0), _arg(1.0), _arg(2), _arg(1.0))),
    "parse_kernel": (cohsets.parse_kernel, st.tuples(_arg("gaussian:sigma=1", st.sampled_from(
        ["gaussian:sigma=nan", "poly:p=1.5", "gaussian:sigma=1e400", "linear:c=1", ":", 3,
         None, "haversine:sigma=-1", "gaussian:sigma"])))),
    "RegParam": (RegParam, st.tuples(_arg(1e-3))),
    "TrajectoryPairs": (TrajectoryPairs, st.tuples(_hostile_matrix(6), _hostile_matrix(6))),
    "gram_matrix": (cohsets.gram_matrix, st.tuples(_kernels, _hostile_matrix(), _hostile_matrix())),
    "kernel_cca": (cohsets.kernel_cca, st.tuples(_pairs, _kernels, _kernels, _reg, _counts)),
    "kernel_pca": (cohsets.kernel_pca, st.tuples(_hostile_matrix(6), _kernels, _counts)),
    "koopman_estimate": (cohsets.koopman_estimate, st.tuples(_pairs, _kernels, _reg)),
    "perron_frobenius_estimate": (cohsets.perron_frobenius_estimate,
                                  st.tuples(_pairs, _kernels, _reg)),
    "EmpiricalOperator": (lambda B, X, Y, k, c: cohsets.op_eig_variant_i(
        EmpiricalOperator(B, X, Y, k), c),
        st.tuples(_hostile_matrix(3, 3), _hostile_matrix(3), _hostile_matrix(3), _kernels,
                  _counts)),
    "KernelExpansion": (lambda kern, anchors, coeffs, offset, points: KernelExpansion(
        kern, anchors, coeffs, offset)(points),
        st.tuples(_kernels, _hostile_matrix(3),
                  _arg(np.ones((3, 2)), st.sampled_from(_HOSTILE_ARRAYS + [np.ones((3, 2, 1))])),
                  _arg(0.0, st.sampled_from(_HOSTILE_SCALARS + [np.ones(3), _RAGGED])),
                  _hostile_matrix(5))),
    "Embedding": (lambda P, k, seed: cohsets.kmeans(Embedding(P), k, seed),
                  st.tuples(_hostile_matrix(6), _counts, _arg(0))),
    "kmeans": (cohsets.kmeans, st.tuples(_hostile_matrix(6), _counts, _arg(0))),
    "coherence_score": (cohsets.coherence_score, st.tuples(
        _pairs, _arg(np.arange(6) % 2, st.sampled_from(_HOSTILE_ARRAYS + [np.arange(5),
                                                                          [[0], [1, 2]]])),
        _arg(None, st.sampled_from(_HOSTILE_SCALARS + [[1.0], [20.0, None], [math.nan, 0]])))),
    "SnapshotMatrices": (lambda X, Y, reg, k: cohsets.cmd(SnapshotMatrices(X, Y), reg, k),
                         st.tuples(_hostile_matrix(5, 4), _hostile_matrix(5, 4), _reg, _counts)),
    "from_sequence": (lambda Z, skip, reg, k: cohsets.cmd(
        SnapshotMatrices.from_sequence(Z, skip), reg, k),
        st.tuples(_hostile_matrix(5, 6), _arg(0), _reg, _counts)),
    "solve_cmd_grams": (modes.solve_cmd_grams, st.tuples(
        _hostile_matrix(3, 3), _hostile_matrix(3, 3), _arg(0.1), _counts)),
    "BickleyConfig": (BickleyConfig, st.tuples(_arg(0.1), _arg(40.0))),
    "FiveWellConfig": (FiveWellConfig, st.tuples(
        _arg(3.0), _arg(1e-3), _arg((0.0, 10.0), st.sampled_from(_HOSTILE_SCALARS + [
            (0,), ("a", 1), (0.0, math.nan), (1.0, 0.0), (0, 1, 2), (-1e308, 1e308)])),
        _arg(0))),
    "bickley_velocity": (bickley_velocity, st.tuples(_hostile_matrix(), _arg(1.0))),
    "bickley_flow_map": (bickley_flow_map, st.tuples(
        _hostile_matrix(), _arg(0.0), _arg(1.0),
        st.builds(BickleyConfig, _arg(0.1), _arg(40.0)))),
    "five_well_grad": (five_well_grad, st.tuples(_hostile_matrix(), _arg(1.0))),
    "em_ensemble": (em_ensemble, st.tuples(
        st.builds(FiveWellConfig, _arg(3.0), _arg(1e-3), st.just((0.0, 0.01)), _arg(0)),
        _hostile_matrix(), _arg(None))),
    "sample_uniform": (sample_uniform, st.tuples(
        _arg(dynamics.JET_DOMAIN, st.sampled_from(_HOSTILE_ARRAYS + [((0, 1e308),)])),
        _counts, _arg(0))),
    "bickley_pairs": (bickley_pairs, st.tuples(_counts, _arg(0))),
    "five_well_pairs": (dynamics.five_well_pairs, st.tuples(
        _counts, st.builds(FiveWellConfig, _arg(3.0), _arg(1e-3), st.just((0.0, 0.01)),
                           _arg(0)))),
}


@pytest.mark.parametrize("name", _LIBRARY)
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_library_call_succeeds_or_raises_a_cohsets_error(name, data):
    call, args = _LIBRARY[name]
    try:
        drawn = data.draw(args)
    except CohsetsError:
        return  # a container refused its hostile field while it was built
    _settle(call, *drawn)


def test_the_library_table_covers_every_public_entry_point():
    """Every name of cohsets.__all__ is drawn, directly or as a container,
    apart from plain result records, error classes and the names left out."""
    drawn = set(_LIBRARY) | {"Eigenfunction", "evaluate_eigenfunctions", "GramMatrix",
                             "center_gram", "cmd", "op_eig_variant_i",
                             "CCAResult", "CMDResult", "Partition"}
    errors = {"CohsetsError", "InputError", "NumericalError"}
    assert set(cohsets.__all__) - errors <= drawn


_IO_TEXT = st.sampled_from([
    "", "x1,y1\n", "x1,y1\n1,2\n3\n", "x1,y1\n1,nan\n", "a,b\n1,2\n", "x1,y1\n1,abc\n",
    "x1,x2\n1,2\n", "1,2\n3,4\n", "1,2\n3\n", "# only a comment\n", "1,inf\n", "\x00\x01",
])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(text=_IO_TEXT, blob=st.binary(max_size=40), reader=st.sampled_from(
    [io.read_pairs_csv, io.read_matrix_csv, io.read_snapshots]))
def test_io_readers_succeed_or_raise_a_cohsets_error(tmp_path_factory, text, blob, reader):
    path = tmp_path_factory.mktemp("io") / "input"
    path.write_bytes(text.encode() + blob)
    _settle(reader, path)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(M=_hostile_matrix(3, 3), labels=_arg(np.arange(6) % 2, st.sampled_from(
    _HOSTILE_ARRAYS + [np.arange(5), [[0], [1, 2]], ["a"] * 6])))
def test_io_writers_succeed_or_raise_a_cohsets_error(tmp_path_factory, M, labels):
    out = tmp_path_factory.mktemp("io")
    _settle(io.write_snapshots, out / "m.bin", M)
    pairs = TrajectoryPairs(np.zeros((6, 2)), np.ones((6, 2)))
    _settle(io.write_pairs_csv, out / "p.csv", pairs, labels)


# ------------------------------------------------------------ CLI half

_INT_VALUES = ["0", "1", "2", "-1", "3", str(10**30), "1.5", "nan", "abc", "100000000"]
_FLOAT_VALUES = ["0", "-0", "1e-320", "5e-324", "1e308", "1e309", "nan", "inf", "-inf", "-1",
                 "1", "abc"]

_OPTIONS = {
    "bickley": {"--n": _INT_VALUES, "--tau": _FLOAT_VALUES, "--epsilon": _FLOAT_VALUES,
                "--k": _INT_VALUES, "--clusters": _INT_VALUES, "--m-funcs": _INT_VALUES,
                "--seed": _INT_VALUES},
    "wells": {"--n": _INT_VALUES, "--beta": _FLOAT_VALUES, "--epsilon": _FLOAT_VALUES,
              "--k": _INT_VALUES, "--clusters": _INT_VALUES, "--m-funcs": _INT_VALUES,
              "--seed": _INT_VALUES},
    "cca-csv": {"--epsilon": _FLOAT_VALUES, "--k": _INT_VALUES, "--clusters": _INT_VALUES,
                "--m-funcs": _INT_VALUES, "--seed": _INT_VALUES},
    "cmd-file": {"--epsilon": _FLOAT_VALUES, "--k": _INT_VALUES,
                 "--skip-transient": _INT_VALUES},
    "kpca-csv": {"--k": _INT_VALUES},
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Small inputs for the file commands: 12 pairs, a 6 x 12 snapshot
    sequence and 10 points."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    io.write_pairs_csv(root / "pairs.csv", TrajectoryPairs(rng.standard_normal((12, 2)),
                                                           rng.standard_normal((12, 2))))
    io.write_snapshots(root / "snap.bin", rng.standard_normal((6, 12)))
    np.savetxt(root / "points.csv", rng.standard_normal((10, 2)), delimiter=",")
    return {"bickley": [], "wells": [], "cca-csv": [str(root / "pairs.csv")],
            "cmd-file": [str(root / "snap.bin")], "kpca-csv": [str(root / "points.csv")]}


def _cli_outcome(args, out):
    """'simulated' when the run passed every check and reached a simulator,
    else its exit code; any other exception fails the test."""
    with _sandbox():
        res = CliRunner().invoke(main, args + ["--out", str(out)])
    if isinstance(res.exception, Simulated):
        return "simulated"
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 2, 3), res.output
    if res.exit_code == 2:
        assert "input error" in res.output or "Invalid value" in res.output, res.output
    return res.exit_code


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_numeric_options_exit_cleanly_before_any_simulation(cli_inputs, tmp_path, data):
    """A few options of one command at tiny, huge and boundary values: exit 2
    before any simulation, or a valid run (0 or 3; the simulators are stubbed
    to stop, so a valid bickley or wells run reaches them)."""
    command = data.draw(st.sampled_from(sorted(_OPTIONS)))
    options = data.draw(st.lists(st.sampled_from(sorted(_OPTIONS[command])), min_size=1,
                                 max_size=3, unique=True))
    args = [command] + cli_inputs[command]
    if command in ("bickley", "wells"):
        args += ["--n", "20", "--grid", "4", "3"] if command == "bickley" else ["--n", "20"]
    for option in options:
        args += [option, data.draw(st.sampled_from(_OPTIONS[command][option]))]
    outcome = _cli_outcome(args, tmp_path / "out")
    assert outcome != "simulated" or command in ("bickley", "wells")
    assert outcome == "simulated" or command not in ("bickley", "wells") or outcome == 2


@pytest.mark.parametrize("args, expected", [
    (["bickley", "--n", "2", "--k", "1", "--clusters", "1"], "simulated"),
    (["bickley", "--n", "100000000"], 2),
    (["bickley", "--tau", "1e308"], 2),
    (["bickley", "--tau", "5e-324", "--n", "20"], "simulated"),
    (["bickley", "--grid", str(10**30), "1"], 2),
    (["wells", "--n", "2", "--k", "1", "--clusters", "1"], "simulated"),
    (["wells", "--beta", "inf", "--n", "20"], "simulated"),
    (["wells", "--beta", "1e309", "--n", "20"], "simulated"),
    (["wells", "--seed", str(10**30), "--n", "20"], "simulated"),
    (["wells", "--n", str(10**30)], 2),
    (["cca-csv", "--k", "12", "--clusters", "12", "--m-funcs", "12"], 0),
    (["cca-csv", "--k", "13"], 2),
    (["cca-csv", "--epsilon", "1e308"], 2),
    (["cmd-file", "--skip-transient", "9", "--k", "2"], 0),
    (["cmd-file", "--skip-transient", "10"], 2),
    (["kpca-csv", "--k", "10"], 0),
    (["kpca-csv", "--k", "11"], 2),
], ids=["bickley-n-2", "bickley-n-1e8", "bickley-tau-1e308", "bickley-tau-tiny",
        "bickley-grid-huge", "wells-n-2", "wells-beta-inf", "wells-beta-overflow",
        "wells-huge-seed", "wells-huge-n", "cca-csv-k-n", "cca-csv-k-above-n",
        "cca-csv-overflowing-n-eps", "cmd-file-last-skip", "cmd-file-skip-too-far",
        "kpca-csv-k-n", "kpca-csv-k-above-n"])
def test_cli_boundary_values(cli_inputs, tmp_path, args, expected):
    """The smallest valid n and a tiny lag reach the simulator; 1e309 parses
    as inf, the noise-free beta. n = 1e8, a lag of 1e308 days and a huge grid
    exit 2 before anything is sampled or advected. The file commands run at
    their largest valid k and skip, and exit 2 one above, or when n eps
    overflows."""
    args = args[:1] + cli_inputs[args[0]] + args[1:]
    assert _cli_outcome(args, tmp_path / "out") == expected
