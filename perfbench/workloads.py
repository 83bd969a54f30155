"""Workload definitions: CLI arguments, seeded inputs and output checks.

Each workload runs one real `cohsets` CLI pipeline. Inputs are made from the
benchmark seed only; the program sees nothing but its command line and, for
`cmd`, the generated snapshot file. Every check here reads the artifacts a run
wrote and recomputes what it needs with plain numpy, after the timed process
has exited.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

RHO_TOL = 1e-6          # agreement with the recorded seed-commit spectrum
RESIDUAL_TOL = 1e-6     # relative residual of the defining eigen-equation
ALIGNMENT_MIN = 0.9     # smallest principal cosine, CMD modes vs planted modes
RANDOM_LABELINGS = 20   # criterion 2 of the acceptance checklist

_CMDX_HEADER = struct.Struct("<4sIII")


def cli_seed(seed):
    """The CLI takes a non-negative int; fold any benchmark seed into range."""
    return seed % 2**31


class Jet:
    """Bickley jet, the paper's headline experiment, at acceptance-test size."""

    name = "jet"
    quality_name = "coherence"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 300 if smoke else 2000
        self.grid = (20, 6) if smoke else (200, 60)
        self.eps = 1e-7          # CLI default
        self.clusters = 9        # CLI default
        self.periods = (20.0, None)
        self.size = "smoke" if smoke else "full"

    def prepare(self, workdir):
        return {}

    def cli_args(self, out):
        return ["bickley", "--n", str(self.n), "--grid", str(self.grid[0]), str(self.grid[1]),
                "--seed", str(cli_seed(self.seed)), "--out", str(out)]

    def check(self, out):
        return check_cca(self, out, eigengrid=self.grid[0] * self.grid[1])

    def cleanup(self):
        pass


class Wells(Jet):
    """Rotating five-well SDE: Euler-Maruyama dominates, CCA runs at n=1000."""

    name = "wells"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 200 if smoke else 1000
        self.eps = 1e-6          # CLI default
        self.clusters = 5        # CLI default
        self.periods = None
        self.size = "smoke" if smoke else "full"

    def cli_args(self, out):
        return ["wells", "--n", str(self.n), "--beta", "3",
                "--seed", str(cli_seed(self.seed)), "--out", str(out)]

    def check(self, out):
        return check_cca(self, out, eigengrid=None)


class Cmd:
    """CMD on a seeded synthetic CMDX file with d >> n and six planted modes."""

    name = "cmd"
    quality_name = "mode_alignment"

    def __init__(self, seed, smoke):
        self.seed = seed
        # a 400 x 250 grid (d = 100 000) and 501 snapshots: a 400 MB file
        self.shape = (40, 25) if smoke else (400, 250)
        self.snapshots = 101 if smoke else 501
        self.eps = 1.0 if smoke else 100.0
        self.k = 6
        self.size = "smoke" if smoke else "full"
        self.path = None

    def prepare(self, workdir):
        self.path = Path(workdir) / "snapshots.cmdx"
        self.planted, self.gram = write_waves(self.path, self.shape, self.snapshots, self.seed)
        return {"input_bytes": self.path.stat().st_size}

    def cli_args(self, out):
        return ["cmd-file", str(self.path), "--k", str(self.k), "--epsilon", repr(self.eps),
                "--out", str(out)]

    def check(self, out):
        return check_cmd(self, out)

    def cleanup(self):
        if self.path is not None:
            self.path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Jet, Wells, Cmd)}


def write_waves(path, shape, m, seed, amps=(1.0, 0.5, 0.25), noise=0.3, block=5000):
    """Write m snapshots of three travelling plane waves plus Gaussian noise.

    Each wave a*cos(k.x + phi - omega*t) spans two spatial patterns, so the
    sequence has six planted modes. With noise 0.3 and the full-size eps=100
    the planted correlations sit above 0.92 and the noise near 0.17. The file
    is written in row blocks so the generator never holds the whole matrix.
    Returns the planted patterns (d, 6) and Z^T Z (m, m) for the checks.
    """
    rng = np.random.default_rng([seed, 1])
    angle = rng.uniform(0.0, 2.0 * np.pi, 3)
    wavenumber = 2.0 * np.pi / (shape[0] * rng.uniform(0.05, 0.2, 3))
    omega = rng.uniform(0.05, 0.6, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    t = np.arange(m)
    temporal = np.concatenate([[a * np.cos(w * t), a * np.sin(w * t)] for a, w in zip(amps, omega)])
    gx, gy = np.meshgrid(np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float),
                         indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    args = [wavenumber[j] * (np.cos(angle[j]) * gx + np.sin(angle[j]) * gy) + phase[j]
            for j in range(3)]
    planted = np.stack([f(a) for a in args for f in (np.cos, np.sin)], axis=1)
    d = planted.shape[0]
    noise_rng = np.random.default_rng([seed, 2])
    gram = np.zeros((m, m))
    with open(path, "wb") as fh:
        fh.write(_CMDX_HEADER.pack(b"CMDX", d, m, 0))
        for lo in range(0, d, block):
            Z = planted[lo:lo + block] @ temporal
            Z += noise * noise_rng.standard_normal(Z.shape)
            gram += Z.T @ Z
            fh.write(Z.astype("<f8").tobytes())
    return planted, gram


def read_cmdx(path):
    raw = Path(path).read_bytes()
    magic, d, n, _ = _CMDX_HEADER.unpack_from(raw)
    if magic != b"CMDX" or len(raw) != _CMDX_HEADER.size + 8 * d * n:
        raise CheckError(f"{path}: malformed CMDX file")
    return np.frombuffer(raw, dtype="<f8", offset=_CMDX_HEADER.size).reshape(d, n)


class CheckError(Exception):
    """An artifact failed an output check."""


def artifact_digest(out):
    """sha256 of every artifact; reruns of one input must match byte for byte."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())}


def _load_csv(path, skiprows=0):
    A = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skiprows)
    if not np.all(np.isfinite(A)):
        raise CheckError(f"{path.name}: non-finite entries")
    return A


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _reference_rho(workload):
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    return table.get("rho", {}).get(workload.name, {}).get(workload.size, {}).get(str(workload.seed))


def _check_spectrum(workload, rho):
    _require(np.all(rho**2 >= 0.0) and np.all(rho**2 < 1.0), f"rho^2 outside [0, 1): {rho}")
    ref = _reference_rho(workload)
    if ref is not None:
        err = float(np.max(np.abs(rho - np.asarray(ref))))
        _require(err <= RHO_TOL, f"rho differs from the recorded seed-commit values by {err:.3e}")
    return ref is not None


def _residual(lhs, V, rho):
    """max_j |lhs_j - rho_j^2 v_j| / |v_j|."""
    r = np.linalg.norm(lhs - V * rho**2, axis=0) / np.linalg.norm(V, axis=0)
    return float(np.max(r))


def _gaussian_gram(A, sigma=1.0):
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(A * A, axis=1)[None, :] - 2.0 * (A @ A.T)
    np.clip(sq, 0.0, None, out=sq)
    np.fill_diagonal(sq, 0.0)
    return np.exp(-sq / (2.0 * sigma * sigma))


def _centered(G):
    return G - G.mean(axis=0, keepdims=True) - G.mean(axis=1, keepdims=True) + G.mean()


def _endpoint_distances(Y, periods):
    diff = Y[:, None, :] - Y[None, :, :]
    for dim, period in enumerate(periods or ()):
        if period:
            diff[:, :, dim] -= period * np.round(diff[:, :, dim] / period)
    return np.sqrt(np.sum(diff * diff, axis=2))


def _coherence(dist, threshold, labels):
    """The formula of cohsets.clustering.coherence_score on a precomputed
    distance matrix, so 20 random labelings cost one distance matrix."""
    n = labels.shape[0]
    score = 0.0
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        if idx.size == 1:
            score += 1.0 / n
            continue
        sub = dist[np.ix_(idx, idx)][np.triu_indices(idx.size, k=1)]
        score += float(np.mean(sub <= threshold)) * idx.size / n
    return score


def check_cca(workload, out, eigengrid):
    """Checks for the kernel-CCA pipelines (variant ii, centered Gaussian Grams)."""
    from cohsets.cca import TrajectoryPairs
    from cohsets.clustering import coherence_score

    out = Path(out)
    n = workload.n
    rho = _load_csv(out / "rho.csv").ravel()
    V = _load_csv(out / "v.csv")
    for name in ("w.csv", "f_on_X.csv", "g_on_Y.csv", "centers.csv"):
        _load_csv(out / name)
    pairs = _load_csv(out / "pairs.csv", skiprows=1)
    labels_csv = _load_csv(out / "labels.csv", skiprows=1)
    _require(pairs.shape == (n, 4) and V.shape == (n, rho.size), "artifact shapes do not match n")
    _require(np.array_equal(labels_csv[:, :4], pairs), "labels.csv rows do not match pairs.csv")
    if eigengrid is not None:
        grid = _load_csv(out / "eigengrid.csv", skiprows=1)
        _require(grid.shape == (eigengrid, 2 + rho.size), "eigengrid.csv has the wrong shape")
    recorded = _check_spectrum(workload, rho)

    X, Y = pairs[:, :2], pairs[:, 2:]
    eff = workload.eps * n
    Gx = _centered(_gaussian_gram(X))
    Gy = _centered(_gaussian_gram(Y))
    shift = eff * np.eye(n)
    lhs = Gx @ np.linalg.solve(Gx + shift, np.linalg.solve(Gy + shift, Gy @ V))
    residual = _residual(lhs, V, rho)
    _require(residual <= RESIDUAL_TOL, f"eigen-equation residual {residual:.3e}")

    labels = labels_csv[:, -1].astype(int)
    _require(np.array_equal(np.unique(labels), np.arange(workload.clusters)),
             f"empty cluster: labels present {np.unique(labels).tolist()}")
    score = coherence_score(TrajectoryPairs(X, Y), labels, periods=workload.periods)
    dist = _endpoint_distances(Y, workload.periods)
    threshold = np.quantile(dist[np.triu_indices(n, k=1)], 0.5)
    _require(abs(_coherence(dist, threshold, labels) - score) < 1e-12,
             "benchmark coherence formula disagrees with coherence_score")
    if workload.name == "jet":
        rng = np.random.default_rng(0)
        random_best = max(_coherence(dist, threshold, rng.integers(0, workload.clusters, n))
                          for _ in range(RANDOM_LABELINGS))
        _require(score > random_best,
                 f"coherence {score:.4f} not above random labelings ({random_best:.4f})")
    return {"quality": score, "rho": rho.tolist(), "residual": residual, "rho_recorded": recorded}


def check_cmd(workload, out):
    """Checks for CMD (variant i, uncentered linear-kernel Grams)."""
    out = Path(out)
    rho = _load_csv(out / "rho.csv").ravel()
    V = _load_csv(out / "v.csv")
    _load_csv(out / "w.csv")
    xi = read_cmdx(out / "xi_modes.bin")
    eta = read_cmdx(out / "eta_modes.bin")
    _require(np.all(np.isfinite(xi)) and np.all(np.isfinite(eta)), "non-finite mode entries")
    d, n = workload.planted.shape[0], workload.snapshots - 1
    _require(xi.shape == (d, workload.k) and V.shape == (n, workload.k), "mode shapes do not match")
    recorded = _check_spectrum(workload, rho)

    Gxx = workload.gram[:-1, :-1]
    Gyy = workload.gram[1:, 1:]
    eff = workload.eps * n
    shift = eff * np.eye(n)
    lhs = np.linalg.solve(Gxx + shift, np.linalg.solve(Gyy + shift, Gyy @ (Gxx @ V)))
    residual = _residual(lhs, V, rho)
    _require(residual <= RESIDUAL_TOL, f"eigen-equation residual {residual:.3e}")

    q_modes = np.linalg.qr(xi)[0]
    q_planted = np.linalg.qr(workload.planted)[0]
    alignment = float(np.linalg.svd(q_modes.T @ q_planted, compute_uv=False).min())
    _require(alignment >= ALIGNMENT_MIN, f"mode alignment {alignment:.4f} below {ALIGNMENT_MIN}")
    return {"quality": alignment, "rho": rho.tolist(), "residual": residual,
            "rho_recorded": recorded}
