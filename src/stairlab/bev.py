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

The sort by (cell, z) is one in-place sort of packed 64-bit keys
(``key_value_order``): the cell index, an order-preserving prefix of the
z bits and the input index, high bits to low. Where two points of a cell
share a z prefix the index orders them, so one vectorised check that z
never falls within a cell proves the order exact; the result is the
permutation ``np.lexsort((z, cell))`` gives, which is also the fallback
when the check fails or the bits do not fit. Counts and run starts come
from one ``bincount`` of the cell index, and the per-cell statistics fill
the grid in one scatter (or in place, when every cell is occupied).

A cloud that holds a whole scan lattice (``PointCloud.lattice``) skips
the cell arithmetic and the packed sort. The scan lattice and the grid
are both in the robot frame, so each lattice point's cell is a constant
of (window, pitch). ``_lattice_layout`` computes the cells once per
lattice with ``project``'s own arithmetic, drops the points outside the
grid as ``project`` does, and orders the points by cell, in lattice order
within a cell, with the cells grouped by point count: each group is one
contiguous (cells, k) block (900 cells of 4 points, 1,800 of 6 and 900
of 9 on the default lattice). ``project`` gathers z in that order and
sorts each block's rows. Floats that compare equal differ in bits only
as -0.0 and +0.0, so a block without a zero may take the default sort,
and a block with one is sorted stably, keeping lattice order within a
cell as ``np.lexsort((z, cell))`` does. Both paths then run one
statistics helper, so the grid is the same bit for bit either way.

The layout keeps a workspace of lattice-sized arrays (the gathered z,
the deviations from the cell means, the statistics), which the next
projection of the same lattice overwrites, so, like ``scan``'s, it
assumes one thread. The contract: the ``data`` and ``occupancy`` of the
grid ``project`` returns are fresh arrays, and nothing returned refers
to a workspace.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sensor import PointCloud, _lattice

N_CHANNELS = 6
GRID_SIZE = 60
RESOLUTION = 0.05
EXTENT = 3.0
_HALF = EXTENT / 2.0

CH_MAX, CH_MIN, CH_MEAN, CH_RANGE, CH_STD, CH_DENSITY = range(6)

_MAGIC = b"BEVG"
_VERSION = 1
_RESOLUTION_BYTES = struct.pack("<f", RESOLUTION)  # the header's cell size; no other is read


@dataclass(frozen=True)
class BevGrid:
    """6 x 60 x 60 statistics map plus per-cell occupancy flags, RESOLUTION m per cell."""

    data: np.ndarray
    occupancy: np.ndarray

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


# The sign bit of a float64 read as int64. XOR-ing the bits with
# (bits >> 63) | _SIGN maps the order of the floats onto the unsigned order
# of the bits.
_SIGN = np.int64(-(2**63))


def key_value_order(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Permutation sorting by integer ``keys``, then by float ``values``.

    Equals ``np.lexsort((values, keys))``: ties, including -0.0 against
    +0.0, keep their input order. Each point gets one uint64, high bits
    to low: its key minus the smallest key, as many of the top bits of
    its value's order-preserving image (-0.0 folded to +0.0) as fit, and
    its input index. One in-place ``np.sort`` of these orders the points
    by key, value prefix and index; the order is exact unless two values
    that share a key and a prefix differ, which shows as a value falling
    between neighbours of equal key. When that check fails, or the key
    span and the index leave no bit for the value, ``np.lexsort`` decides.
    """
    return _sort_by_key_value(keys, values)[0]


def _sort_by_key_value(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``key_value_order`` and the values in that order."""
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp), values[:0]
    lo = keys.min()
    key_bits = (int(keys.max()) - int(lo)).bit_length()
    index_bits = (n - 1).bit_length()
    value_bits = 64 - key_bits - index_bits
    if value_bits < 1:
        return _lexsort_order(keys, values)

    # One buffer gathers the packed keys, and each temporary is freed before
    # the next is made: with fewer arrays of n alive at once, the heap keeps
    # their memory for the next call instead of handing it back to the
    # kernel, which would fault it in again.
    packed = (values + 0.0).view(np.int64)
    flip = packed >> 63
    flip |= _SIGN
    packed ^= flip
    del flip
    packed = packed.view(np.uint64)
    packed >>= np.uint64(key_bits + index_bits)
    packed <<= np.uint64(index_bits)
    # keys - lo lies in [0, 2**63), which wrapping uint64 arithmetic gets
    # exactly, whatever the integer type of the keys.
    high = np.subtract(keys, lo, dtype=np.uint64, casting="unsafe")
    high <<= np.uint64(value_bits + index_bits)
    packed |= high
    del high
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << index_bits) - 1)
    order = packed.view(np.intp)

    in_order = values[order]
    falls = np.flatnonzero(~(in_order[1:] >= in_order[:-1]))
    if np.any(keys[order[falls]] == keys[order[falls + 1]]):
        return _lexsort_order(keys, values)
    return order, in_order


def _lexsort_order(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sort_by_key_value`` by ``np.lexsort``, where the packed keys cannot settle it."""
    order = np.lexsort((values, keys))
    return order, values[order]


def _cell_index(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Flat cell index of the points inside the grid, and which points those are (None: all)."""
    # Cell rows and columns stay floats until the flat index, which is exact
    # in float: they are whole numbers below GRID_SIZE. Arrays of n are
    # dropped once spent, as in ``_sort_by_key_value``.
    rows = x + _HALF
    rows /= RESOLUTION
    np.floor(rows, out=rows)
    cols = y + _HALF
    cols /= RESOLUTION
    np.floor(cols, out=cols)
    inside = None
    if min(rows.min(), cols.min()) < 0.0 or max(rows.max(), cols.max()) >= GRID_SIZE:
        inside = (rows >= 0.0) & (rows < GRID_SIZE) & (cols >= 0.0) & (cols < GRID_SIZE)
        rows, cols = rows[inside], cols[inside]
    rows *= GRID_SIZE
    rows += cols
    return rows.astype(np.int64), inside


@dataclass(frozen=True)
class _LatticeLayout:
    """Where the points of one scan lattice fall in the grid, and a workspace.

    The layout order lists the lattice points inside the grid by cell, in
    lattice order within a cell, with the cells grouped by point count;
    ``z_index`` is where each one's z lies in the cloud's flattened (N, 3)
    points, and each of ``blocks`` is one group's (start, stop, points per
    cell) in that order. ``cells``, ``starts``, ``last`` and ``counts``
    describe the cells in that order: grid index, first and last position,
    point count. ``segment`` is the cell of each position, and
    ``occupancy`` the grid's. ``z``, ``dev`` and ``stats`` are the
    workspace. The index arrays stay writeable: ``np.take`` copies
    read-only indices.
    """

    z_index: np.ndarray
    blocks: tuple[tuple[int, int, int], ...]
    cells: np.ndarray
    starts: np.ndarray
    last: np.ndarray
    counts: np.ndarray
    segment: np.ndarray
    occupancy: np.ndarray
    z: np.ndarray
    dev: np.ndarray
    stats: np.ndarray


@functools.lru_cache(maxsize=16)
def _lattice_layout(window: float, pitch: float) -> _LatticeLayout:
    """The grid layout of the scan lattice of (window, pitch); cached."""
    u, v = _lattice(window, pitch)
    cell, inside = _cell_index(u, v)
    index = np.arange(u.shape[0]) if inside is None else np.flatnonzero(inside)
    per_cell = np.bincount(cell, minlength=GRID_SIZE * GRID_SIZE)
    # By (points in the cell, cell); lexsort is stable, so lattice order within a cell.
    order = index[np.lexsort((cell, per_cell[cell]))]
    cells = np.flatnonzero(per_cell)
    cells = cells[np.argsort(per_cell[cells], kind="stable")]
    counts = per_cell[cells]
    ends = np.cumsum(counts)
    starts = ends - counts
    sizes, first, n_cells = np.unique(counts, return_index=True, return_counts=True)
    blocks = tuple(
        (int(starts[i]), int(starts[i]) + m * k, k)
        for k, i, m in zip(sizes.tolist(), first.tolist(), n_cells.tolist())
    )
    layout = _LatticeLayout(
        z_index=3 * order + 2,
        blocks=blocks,
        cells=cells,
        starts=starts,
        last=ends - 1,
        counts=counts,
        segment=np.repeat(np.arange(cells.shape[0]), counts),
        occupancy=(per_cell > 0).reshape(GRID_SIZE, GRID_SIZE),
        z=np.empty(order.shape[0]),
        dev=np.empty(order.shape[0]),
        stats=np.empty((N_CHANNELS, cells.shape[0])),
    )
    layout.occupancy.flags.writeable = False
    return layout


def _cell_stats(z, starts, last, n, stats, segment=None, dev=None) -> None:
    """Fill ``stats`` (one row per channel) from ``z`` sorted by (cell, z).

    Column i is the cell whose z run is ``z[starts[i]:last[i] + 1]``, of
    ``n[i]`` points. The deviations from the cell means go to ``dev``
    through ``segment``, each position's column, or to a fresh array.
    """
    z_max, z_min, means, spread, std, density = stats
    # Each cell's z run is sorted, so its ends are its extremes; only a zero
    # extreme, which may be held with either sign, needs the reduction that
    # decides the sign. The indices are valid, and mode="clip" keeps
    # ``np.take`` from buffering its output in a temporary.
    np.take(z, last, out=z_max, mode="clip")
    np.take(z, starts, out=z_min, mode="clip")
    if not z_max.all():
        np.maximum.reduceat(z, starts, out=z_max)
    if not z_min.all():
        np.minimum.reduceat(z, starts, out=z_min)
    np.add.reduceat(z, starts, out=means)
    means /= n
    if segment is None:
        dev = np.repeat(means, n)
    else:
        np.take(means, segment, out=dev, mode="clip")
    np.subtract(z, dev, out=dev)
    dev *= dev
    np.add.reduceat(dev, starts, out=std)
    std /= n
    # All-identical cells must read exactly zero spread; the float mean
    # of n equal values can be off by an ulp for non-power-of-two n.
    std[z_max == z_min] = 0.0
    np.sqrt(std, out=std)
    np.subtract(z_max, z_min, out=spread)
    np.divide(n, n.max(), out=density)


def _project_lattice(points: np.ndarray, layout: _LatticeLayout, data: np.ndarray) -> None:
    """Write the statistics of the whole-lattice cloud ``points`` into ``data``."""
    z = np.take(points.reshape(-1), layout.z_index, out=layout.z, mode="clip")
    for start, stop, k in layout.blocks:
        rows = z[start:stop].reshape(-1, k)
        rows.sort(axis=1, kind=None if rows.all() else "stable")
    _cell_stats(z, layout.starts, layout.last, layout.counts, layout.stats, layout.segment, layout.dev)
    data.reshape(N_CHANNELS, -1)[:, layout.cells] = layout.stats


def project(cloud: PointCloud) -> BevGrid:
    """Project a point cloud into the fixed statistics grid (fresh arrays; module docstring)."""
    pts = cloud.points
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite coordinates")

    data = np.zeros((N_CHANNELS, GRID_SIZE, GRID_SIZE))
    occupancy = np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool)
    if len(cloud) == 0:
        return BevGrid(data, occupancy)
    if cloud.lattice is not None:
        layout = _lattice_layout(*cloud.lattice)
        if layout.cells.size:
            _project_lattice(pts, layout, data)
            occupancy[...] = layout.occupancy
        return BevGrid(data, occupancy)

    flat, inside = _cell_index(pts[:, 0], pts[:, 1])
    if flat.size == 0:
        return BevGrid(data, occupancy)
    z = pts[:, 2] if inside is None else pts[inside, 2]

    # Sort points by (cell, z): all statistics then depend only on each
    # cell's multiset of z-values, never on input order.
    z = _sort_by_key_value(flat, z)[1]
    counts = np.bincount(flat, minlength=GRID_SIZE * GRID_SIZE)
    del flat
    cells = np.flatnonzero(counts)
    n = counts[cells]
    ends = np.cumsum(n)

    # Statistics of the occupied cells, one row per channel; when every
    # cell is occupied they are the grid itself.
    full = cells.size == GRID_SIZE * GRID_SIZE
    stats = data.reshape(N_CHANNELS, -1) if full else np.empty((N_CHANNELS, cells.size))
    _cell_stats(z, ends - n, ends - 1, n, stats)
    if not full:
        data.reshape(N_CHANNELS, -1)[:, cells] = stats
    occupancy = (counts > 0).reshape(GRID_SIZE, GRID_SIZE)
    return BevGrid(data, occupancy)


def write_grid(path, grid: BevGrid) -> None:
    """Binary grid file: BEVG magic, dims, f32 RESOLUTION, f32 channel data, occupancy bytes."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _VERSION, N_CHANNELS, GRID_SIZE, GRID_SIZE))
        fh.write(_RESOLUTION_BYTES)
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
    if raw[20:24] != _RESOLUTION_BYTES:
        resolution = np.frombuffer(raw, dtype="<f4", count=1, offset=20)[0]
        raise ValueError(f"{path}: grid resolution {resolution!s} m, expected {RESOLUTION} m")
    offset = 24
    data = np.frombuffer(raw, dtype="<f4", count=n_data, offset=offset).astype(float)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: grid file holds non-finite values")
    offset += 4 * n_data
    occ = np.frombuffer(raw, dtype=np.uint8, count=height * width, offset=offset)
    return BevGrid(data.reshape(channels, height, width), occ.reshape(height, width).astype(bool))
