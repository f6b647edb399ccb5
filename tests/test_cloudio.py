import numpy as np
import pytest

from rowloc.cloudio import CloudFormatError, load_cloud_binary, save_cloud_binary
from rowloc.geometry import PointCloud


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    # float32-representable values survive the f64 -> f32 -> f64 round trip exactly
    pts = rng.normal(size=(257, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "cloud.pc3d"
    save_cloud_binary(PointCloud(pts), path)
    back = load_cloud_binary(path)
    np.testing.assert_array_equal(back.points, pts)
    # writing the loaded cloud again reproduces the file byte for byte
    path2 = tmp_path / "cloud2.pc3d"
    save_cloud_binary(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_binary_empty_cloud(tmp_path):
    path = tmp_path / "empty.pc3d"
    save_cloud_binary(PointCloud(np.zeros((0, 3))), path)
    assert len(load_cloud_binary(path)) == 0


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pc3d"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CloudFormatError):
        load_cloud_binary(path)


def test_binary_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.pc3d"
    save_cloud_binary(PointCloud(np.zeros((4, 3))), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CloudFormatError):
        load_cloud_binary(path)
