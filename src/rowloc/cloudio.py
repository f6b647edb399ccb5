"""Point-cloud file I/O: the binary format the CLI's datasets use.

Little-endian: magic "PC3D", u32 count, then count * 3 * f32 (meters).
A saved float32-representable cloud round-trips bit-exactly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .geometry import PointCloud

BINARY_MAGIC = b"PC3D"


class CloudFormatError(ValueError):
    """Malformed point-cloud file."""


def save_cloud_binary(cloud: PointCloud, path) -> None:
    data = cloud.points.astype("<f4")
    with open(path, "wb") as f:
        f.write(BINARY_MAGIC)
        f.write(struct.pack("<I", data.shape[0]))
        f.write(data.tobytes())


def load_cloud_binary(path) -> PointCloud:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != BINARY_MAGIC:
        raise CloudFormatError(f"{path}: missing {BINARY_MAGIC!r} magic")
    (count,) = struct.unpack_from("<I", raw, 4)
    expected = 8 + count * 12
    if len(raw) != expected:
        raise CloudFormatError(f"{path}: expected {expected} bytes for {count} points, got {len(raw)}")
    pts = np.frombuffer(raw, dtype="<f4", offset=8).reshape(count, 3)
    return PointCloud(pts.astype(np.float64))
