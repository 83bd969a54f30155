"""CSV and binary snapshot round-trips and malformed-input diagnostics."""

import tracemalloc

import numpy as np
import pytest

from cohsets import InputError, TrajectoryPairs
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
    M = np.random.default_rng(1).standard_normal((7, 11))
    path = tmp_path / "snap.bin"
    write_snapshots(path, M)
    back = read_snapshots(path)
    assert back.shape == (7, 11)
    assert back.tobytes() == M.tobytes()


def test_snapshots_read_holds_one_copy(tmp_path):
    """The payload goes straight into the returned array: no second buffer."""
    M = np.random.default_rng(2).standard_normal((1000, 500))
    path = tmp_path / "snap.bin"
    write_snapshots(path, M)
    tracemalloc.start()
    try:
        back = read_snapshots(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * M.nbytes, peak / M.nbytes
    assert back.tobytes() == M.tobytes()


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
