"""CSV and binary snapshot round-trips and malformed-input diagnostics."""

import tracemalloc

import numpy as np
import pytest

from cohsets import InputError, RegParam, SnapshotMatrices, TrajectoryPairs, cmd, modes
from cohsets.io import (
    read_matrix_csv,
    read_pairs_csv,
    read_snapshots,
    write_pairs_csv,
    write_snapshots,
)


def test_pairs_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pairs = TrajectoryPairs(rng.standard_normal((17, 2)), rng.standard_normal((17, 3)))
    path = tmp_path / "pairs.csv"
    write_pairs_csv(path, pairs)
    back = read_pairs_csv(path)
    np.testing.assert_allclose(back.X, pairs.X, rtol=1e-15)
    np.testing.assert_allclose(back.Y, pairs.Y, rtol=1e-15)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,y1,y2,y3"


def test_pairs_csv_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        read_pairs_csv(p)


def test_pairs_csv_field_count_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,y1\n1,2\n3\n")
    with pytest.raises(InputError, match=":3:"):
        read_pairs_csv(p)


def test_pairs_csv_non_numeric_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,y1\n1,2\nfoo,4\n")
    with pytest.raises(InputError, match=":3:"):
        read_pairs_csv(p)


def test_pairs_csv_empty_body(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("x1,y1\n")
    with pytest.raises(InputError):
        read_pairs_csv(p)


def test_pairs_csv_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_pairs_csv(tmp_path / "nope.csv")


def test_snapshots_round_trip_bitwise(tmp_path):
    """The row blocks of a CMDX file concatenate to the matrix written, bit
    for bit, also when the block size does not divide d."""
    M = np.random.default_rng(1).standard_normal((7, 11))
    path = tmp_path / "snap.bin"
    write_snapshots(path, M)
    back = read_snapshots(path)
    assert back.shape == (7, 11)
    for rows in (1, 3, 7, 100):
        blocks = [block.copy() for block in back.blocks(rows)]  # one reused buffer
        assert [len(b) for b in blocks] == [min(rows, 7 - r) for r in range(0, 7, rows)]
        assert np.concatenate(blocks).tobytes() == M.tobytes()


def test_cmd_on_a_snapshot_file_holds_a_few_blocks(tmp_path):
    """cmd reads a snapshot file one row block at a time: with d = 20 blocks,
    its numpy peak stays below three blocks plus the Gram, the core's n x n
    products and the two d x k mode arrays, under a quarter of the file."""
    rows, m, k = modes.BLOCK_ROWS, 61, 2
    d = 20 * rows
    path = tmp_path / "snap.bin"
    write_snapshots(path, np.random.default_rng(2).standard_normal((d, m)))
    snap = SnapshotMatrices.from_sequence(read_snapshots(path))
    tracemalloc.start()
    try:
        res = cmd(snap, RegParam(0.1), k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 8 * (3 * rows * m + 7 * m * m + 2 * d * k)
    assert peak < bound, (peak, bound)
    assert bound < 8 * d * m / 4
    assert res.xi_modes.shape == (d, k)


def test_snapshot_file_truncated_after_the_header_check(tmp_path):
    """A file that shrinks between the size check and the read is an
    InputError from the short read, not a short block or a traceback."""
    path = tmp_path / "snap.bin"
    M = np.random.default_rng(3).standard_normal((10, 6))
    write_snapshots(path, M)
    source = read_snapshots(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InputError, match="truncated while reading"):
        for _ in source.blocks(4):
            pass
    with pytest.raises(InputError, match="truncated while reading"):
        cmd(SnapshotMatrices.from_sequence(source), RegParam(0.1), 2)


def test_snapshots_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(InputError, match="magic"):
        read_snapshots(p)


def test_snapshots_truncated_header(tmp_path):
    p = tmp_path / "short.bin"
    p.write_bytes(b"CM")
    with pytest.raises(InputError, match="truncated"):
        read_snapshots(p)


def test_snapshots_size_mismatch(tmp_path):
    p = tmp_path / "trunc.bin"
    M = np.ones((3, 4))
    write_snapshots(p, M)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(InputError, match="size mismatch"):
        read_snapshots(p)


def test_read_matrix_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])
    bad = tmp_path / "bad.csv"
    bad.write_text("1,zzz\n")
    with pytest.raises(InputError):
        read_matrix_csv(bad)
    # comments and blank lines only: no data
    bad.write_text("# header\n\n  \n")
    with pytest.raises(InputError, match="no data rows"):
        read_matrix_csv(bad)
    p.write_text("# comment\n\n1,2 # trailing\n")
    np.testing.assert_array_equal(read_matrix_csv(p), [[1.0, 2.0]])
