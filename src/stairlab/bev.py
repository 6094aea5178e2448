"""Statistical bird's-eye-view projection of robot-centric point clouds.

The grid is fixed: 6 channels over 60 x 60 cells of 0.05 m covering a
3 m x 3 m square centered on the robot. Channel layout:

    0: max(z)   1: min(z)   2: mean(z)   3: max - min
    4: population std of z  5: cell count / max cell count

Cells are half-open intervals; points exactly on the far boundary fall
outside. Empty cells are zero in every channel. Per-cell statistics are
computed from the sorted z-values of each cell, so the result is
bit-identical under any permutation of the input points, with one
exception: -0.0 and +0.0 compare equal, so they keep their input order
within a cell, and a cell whose largest or smallest z is zero, held with
both signs, reports a sign in CH_MAX or CH_MIN that depends on that order.

The sort by (cell, z) is done in two passes (``key_value_order``): an
argsort of z, then a stable argsort of the cell index of the points in
that order. The cell index is below 3600 and is cast to an unsigned
type of at most 16 bits, which numpy's stable sort sorts by radix, so
both passes together cost a fraction of ``np.lexsort((z, cell))``. Each
cell's z sequence is the one ``np.lexsort`` gives, bit for bit: the z
argsort is not stable, but equal z values have equal bits except for
signed zeros, and the run of zeros is put back in input order before
the second pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sensor import PointCloud

N_CHANNELS = 6
GRID_SIZE = 60
RESOLUTION = 0.05
EXTENT = 3.0
_HALF = EXTENT / 2.0

CH_MAX, CH_MIN, CH_MEAN, CH_RANGE, CH_STD, CH_DENSITY = range(6)

_MAGIC = b"BEVG"
_VERSION = 1


@dataclass(frozen=True)
class BevGrid:
    """6 x 60 x 60 statistics map plus per-cell occupancy flags."""

    data: np.ndarray
    occupancy: np.ndarray
    resolution: float = RESOLUTION

    def __post_init__(self) -> None:
        if self.data.shape != (N_CHANNELS, GRID_SIZE, GRID_SIZE):
            raise ValueError(f"grid data must be {(N_CHANNELS, GRID_SIZE, GRID_SIZE)}")
        if self.occupancy.shape != (GRID_SIZE, GRID_SIZE):
            raise ValueError(f"occupancy must be {(GRID_SIZE, GRID_SIZE)}")


def cell_centers(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Robot-frame coordinates of cell centers."""
    x = -_HALF + (rows + 0.5) * RESOLUTION
    y = -_HALF + (cols + 0.5) * RESOLUTION
    return x, y


def key_value_order(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Permutation sorting by integer ``keys``, then by float ``values``.

    For values without NaN, ``keys`` and ``values`` come out in the order,
    bit for bit, that ``np.lexsort((values, keys))`` puts them in; only
    equal non-zero values, whose bits are the same, may swap places. Two
    cheaper passes find it: an argsort of the values, then a stable
    argsort of the keys in that order, shifted to start at 0 and cast to
    the smallest unsigned type that holds them (numpy sorts types of up to
    16 bits by radix).
    """
    order = np.argsort(values)
    # -0.0 == +0.0, so the argsort may leave the zeros in any order; put
    # them back in input order, which is where np.lexsort leaves them.
    first = np.searchsorted(values[order], 0.0)
    order[first : first + np.count_nonzero(values == 0.0)].sort()
    lo = keys.min()
    small = (keys - lo).astype(np.min_scalar_type(keys.max() - lo))
    return order[np.argsort(small[order], kind="stable")]


def project(cloud: PointCloud) -> BevGrid:
    """Project a point cloud into the fixed statistics grid."""
    pts = cloud.points
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite coordinates")

    data = np.zeros((N_CHANNELS, GRID_SIZE, GRID_SIZE))
    occupancy = np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool)
    if len(cloud) == 0:
        return BevGrid(data, occupancy)

    rows = np.floor((pts[:, 0] + _HALF) / RESOLUTION).astype(np.int64)
    cols = np.floor((pts[:, 1] + _HALF) / RESOLUTION).astype(np.int64)
    inside = (rows >= 0) & (rows < GRID_SIZE) & (cols >= 0) & (cols < GRID_SIZE)
    if not inside.any():
        return BevGrid(data, occupancy)
    rows, cols, z = rows[inside], cols[inside], pts[inside, 2]

    flat = rows * GRID_SIZE + cols
    # Sort points by (cell, z): all statistics then depend only on each
    # cell's multiset of z-values, never on input order.
    order = key_value_order(flat, z)
    flat, z = flat[order], z[order]
    starts = np.flatnonzero(np.r_[True, np.diff(flat) != 0])
    cells = flat[starts]
    counts = np.diff(np.r_[starts, flat.size])

    sums = np.add.reduceat(z, starts)
    means = sums / counts
    z_max = np.maximum.reduceat(z, starts)
    z_min = np.minimum.reduceat(z, starts)
    dev = z - np.repeat(means, counts)
    var = np.add.reduceat(dev * dev, starts) / counts
    # All-identical cells must read exactly zero spread; the float mean
    # of n equal values can be off by an ulp for non-power-of-two n.
    var[z_max == z_min] = 0.0

    r, c = cells // GRID_SIZE, cells % GRID_SIZE
    data[CH_MAX, r, c] = z_max
    data[CH_MIN, r, c] = z_min
    data[CH_MEAN, r, c] = means
    data[CH_RANGE, r, c] = z_max - z_min
    data[CH_STD, r, c] = np.sqrt(var)
    data[CH_DENSITY, r, c] = counts / counts.max()
    occupancy[r, c] = True
    return BevGrid(data, occupancy)


def write_grid(path, grid: BevGrid) -> None:
    """Binary grid file: BEVG magic, dims, f32 channel data, occupancy bytes."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _VERSION, N_CHANNELS, GRID_SIZE, GRID_SIZE))
        fh.write(struct.pack("<f", grid.resolution))
        fh.write(grid.data.astype("<f4").tobytes(order="C"))
        fh.write(grid.occupancy.astype(np.uint8).tobytes(order="C"))


def read_grid(path) -> BevGrid:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a BEVG grid file")
    if len(raw) < 24:
        raise ValueError(f"{path}: truncated grid header ({len(raw)} bytes)")
    version, channels, height, width = struct.unpack_from("<IIII", raw, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported grid version {version}")
    if (channels, height, width) != (N_CHANNELS, GRID_SIZE, GRID_SIZE):
        raise ValueError(f"{path}: unexpected grid dims {(channels, height, width)}")
    n_data = channels * height * width
    size = 24 + 4 * n_data + height * width
    if len(raw) != size:
        raise ValueError(f"{path}: grid file has {len(raw)} bytes, expected {size}")
    (resolution,) = struct.unpack_from("<f", raw, 20)
    offset = 24
    data = np.frombuffer(raw, dtype="<f4", count=n_data, offset=offset).astype(float)
    if not (np.isfinite(data).all() and np.isfinite(resolution)):
        raise ValueError(f"{path}: grid file holds non-finite values")
    offset += 4 * n_data
    occ = np.frombuffer(raw, dtype=np.uint8, count=height * width, offset=offset)
    return BevGrid(
        data.reshape(channels, height, width),
        occ.reshape(height, width).astype(bool),
        float(resolution),
    )
