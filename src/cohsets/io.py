"""File formats: paired-trajectory CSV and the dense snapshot binary format."""

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cca import TrajectoryPairs
from .errors import InputError
from .linalg import require_matrix, require_points

_MAGIC = b"CMDX"
_HEADER = struct.Struct("<4sIII")  # magic, d, n, reserved (16 bytes)


def write_pairs_csv(path, pairs, labels=None):
    """Header x1,..,xd,y1,..,yd, then label if labels are given; one sample
    pair per row."""
    names = ([f"x{i+1}" for i in range(pairs.X.shape[1])]
             + [f"y{i+1}" for i in range(pairs.Y.shape[1])])
    columns = [pairs.X, pairs.Y]
    if labels is not None:
        names.append("label")
        columns.append(require_points(labels, "labels", "io", dim=pairs.n).T)
    np.savetxt(path, np.hstack(columns), delimiter=",", header=",".join(names), comments="")


def _open(path, mode="r"):
    """path opened for reading, or InputError. In text mode a byte that is not
    UTF-8 reads as U+FFFD, which no header or numeric field accepts."""
    try:
        return open(path, mode, errors=None if "b" in mode else "replace")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", "io") from exc


def read_pairs_csv(path):
    path = Path(path)
    with _open(path) as fh:
        header = fh.readline().strip()
        cols = [c.strip().lower() for c in header.split(",")]
        dx = sum(1 for c in cols if c.startswith("x"))
        dy = sum(1 for c in cols if c.startswith("y"))
        if dx == 0 or dy == 0 or dx + dy != len(cols):
            raise InputError(f"{path}:1: header must be x1..xd,y1..yd, got {header!r}", "io")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dx + dy:
                raise InputError(
                    f"{path}:{lineno}: expected {dx + dy} fields, got {len(parts)}", "io"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}", "io") from exc
    if not rows:
        raise InputError(f"{path}: no data rows", "io")
    data = np.array(rows)
    return TrajectoryPairs(X=data[:, :dx], Y=data[:, dx:])


def write_snapshots(path, M):
    """Dense binary matrix: 16-byte header (magic 'CMDX', u32 d, u32 n),
    then row-major d x n float64 payload."""
    M = np.ascontiguousarray(require_matrix(M, "snapshot matrix", "io", ndmin=2), dtype="<f8")
    d, n = M.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, d, n, 0))
        fh.write(M.tobytes())


@dataclass(frozen=True)
class SnapshotFile:
    """A CMDX file whose header and size were checked: a d x m matrix on disk."""

    path: Path
    shape: tuple

    def blocks(self, rows, part=0, parts=1):
        """Yield the row blocks part, part + parts, ... of `rows` rows each,
        read through a handle of this call's own into one reused buffer (copy
        a block to keep it); a short read is an InputError."""
        d, m = self.shape
        buf = np.empty((min(rows, d), m), dtype="<f8")
        with open(self.path, "rb") as fh:
            for start in range(part * rows, d, parts * rows):
                block = buf[: min(rows, d - start)]
                fh.seek(_HEADER.size + 8 * m * start)
                if fh.readinto(block) != block.nbytes:
                    raise InputError(f"{self.path}: payload truncated while reading row "
                                     f"{start} of {d}: the file shrank after its size check", "io")
                yield block


def read_snapshots(path):
    """Check a CMDX file's header, magic and size against d x n, and return it
    as a SnapshotFile; no payload is read."""
    path = Path(path)
    with _open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise InputError(f"{path}: truncated header", "io")
        magic, d, n, _ = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}", "io")
        expected, size = _HEADER.size + 8 * d * n, os.fstat(fh.fileno()).st_size
    if size != expected:
        raise InputError(f"{path}: payload size mismatch (d={d}, n={n}: expected {expected} "
                         f"bytes, got {size})", "io")
    return SnapshotFile(path, (d, n))


def read_matrix_csv(path):
    """Plain numeric CSV (no header, '#' comments) as a 2-D array."""
    try:
        with open(path) as fh:
            if not any(line.split("#")[0].strip() for line in fh):
                raise InputError(f"{path}: no data rows", "io")
            fh.seek(0)
            return np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot parse {path}: {exc}", "io") from exc
