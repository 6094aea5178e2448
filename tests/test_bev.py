import math

import numpy as np
import pytest

from stairlab.bev import (
    CH_DENSITY,
    CH_MAX,
    CH_MEAN,
    CH_MIN,
    CH_RANGE,
    CH_STD,
    GRID_SIZE,
    N_CHANNELS,
    RESOLUTION,
    BevGrid,
    key_value_order,
    project,
    read_grid,
    write_grid,
)
from stairlab.sensor import PointCloud, SensorModel, dropout, scan
from stairlab.world import ParameterRanges, StairClass, StairSpec, TerrainProfile, generate_stairs

from helpers import with_class


def cloud_of(points) -> PointCloud:
    return PointCloud(np.asarray(points, dtype=float))


def lexsort_project(cloud: PointCloud) -> BevGrid:
    """Oracle: ``project`` as built on one ``np.lexsort`` over (cell, z)."""
    pts = cloud.points
    data = np.zeros((N_CHANNELS, GRID_SIZE, GRID_SIZE))
    occupancy = np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool)
    rows = np.floor((pts[:, 0] + 1.5) / RESOLUTION).astype(np.int64)
    cols = np.floor((pts[:, 1] + 1.5) / RESOLUTION).astype(np.int64)
    inside = (rows >= 0) & (rows < GRID_SIZE) & (cols >= 0) & (cols < GRID_SIZE)
    if not inside.any():
        return BevGrid(data, occupancy)
    rows, cols, z = rows[inside], cols[inside], pts[inside, 2]
    flat = rows * GRID_SIZE + cols
    order = np.lexsort((z, flat))
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


def assert_bits_equal(a: BevGrid, b: BevGrid) -> None:
    """Equal grids down to the bit, so -0.0 and +0.0 differ."""
    assert a.data.tobytes() == b.data.tobytes()
    assert np.array_equal(a.occupancy, b.occupancy)


def cell_index(x: float, y: float) -> tuple[int, int] | None:
    """The (row, col) that ``project`` fills for one point at (x, y); None when none."""
    cells = np.argwhere(project(cloud_of([[x, y, 0.0]])).occupancy)
    return tuple(int(v) for v in cells[0]) if len(cells) else None


class TestCellIndex:
    def test_center_maps_to_middle_cell(self):
        assert cell_index(0.0, 0.0) == (30, 30)

    def test_corner(self):
        assert cell_index(-1.5, -1.5) == (0, 0)

    def test_far_boundary_outside(self):
        assert cell_index(1.5, 0.0) is None
        assert cell_index(0.0, 1.5) is None
        assert cell_index(1.4999, 1.4999) == (59, 59)

    def test_half_open_cells(self):
        assert cell_index(-1.5 + 0.05, 0.0) == (1, 30)


class TestProject:
    def test_empty_cloud_all_zero(self):
        grid = project(cloud_of(np.empty((0, 3))))
        assert not grid.occupancy.any()
        assert np.all(grid.data == 0.0)

    def test_two_point_cell_statistics(self):
        grid = project(cloud_of([[0.01, 0.01, 0.1], [0.02, 0.02, 0.3]]))
        cell = grid.data[:, 30, 30]
        assert cell[CH_MAX] == 0.3
        assert cell[CH_MIN] == 0.1
        assert cell[CH_MEAN] == 0.2
        assert cell[CH_RANGE] == pytest.approx(0.2, abs=1e-15)
        assert cell[CH_STD] == pytest.approx(0.1, abs=1e-15)
        assert cell[CH_DENSITY] == 1.0
        assert grid.occupancy.sum() == 1

    def test_full_flat_scan_statistics(self):
        profile = TerrainProfile(StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0))
        cloud = scan(profile, (0, 0, 0), SensorModel(noise_sigma_z=0.0), 0)
        grid = project(cloud)
        assert grid.occupancy.all()
        for ch in (CH_MAX, CH_MIN, CH_MEAN, CH_RANGE, CH_STD):
            assert np.all(grid.data[ch] == 0.0)

    def test_equal_count_lattice_density(self):
        # 0.025 m pitch puts exactly 4 points in every 0.05 m cell.
        profile = TerrainProfile(StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0))
        cloud = scan(profile, (0, 0, 0), SensorModel(noise_sigma_z=0.0, sample_pitch=0.025), 0)
        grid = project(cloud)
        assert np.all(grid.data[CH_DENSITY] == 1.0)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack(
            [rng.uniform(-1.5, 1.5, 500), rng.uniform(-1.5, 1.5, 500), rng.normal(0, 0.2, 500)]
        )
        grid_a = project(cloud_of(pts))
        grid_b = project(cloud_of(pts[rng.permutation(500)]))
        assert np.array_equal(grid_a.data, grid_b.data)
        assert np.array_equal(grid_a.occupancy, grid_b.occupancy)

    def test_translation_equivariance_one_row(self):
        rng = np.random.default_rng(8)
        # Points at cell centers, away from boundaries and the last row.
        rows = rng.integers(0, GRID_SIZE - 1, 300)
        cols = rng.integers(0, GRID_SIZE, 300)
        x = -1.5 + (rows + 0.5) * 0.05
        y = -1.5 + (cols + 0.5) * 0.05
        z = rng.normal(0, 0.1, 300)
        base = project(cloud_of(np.column_stack([x, y, z])))
        shifted = project(cloud_of(np.column_stack([x + 0.05, y, z])))
        assert np.array_equal(shifted.data[:, 1:, :], base.data[:, :-1, :])
        assert np.array_equal(shifted.occupancy[1:, :], base.occupancy[:-1, :])

    def test_channel_inequalities_random_clouds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 800))
            pts = np.column_stack(
                [rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.normal(0, 0.3, n)]
            )
            grid = project(cloud_of(pts))
            occ = grid.occupancy
            if not occ.any():
                continue
            assert np.all(grid.data[CH_MAX, occ] >= grid.data[CH_MEAN, occ] - 1e-12)
            assert np.all(grid.data[CH_MEAN, occ] >= grid.data[CH_MIN, occ] - 1e-12)
            assert np.all(grid.data[CH_RANGE, occ] >= 0.0)
            assert np.all(grid.data[CH_STD, occ] >= 0.0)
            dens = grid.data[CH_DENSITY, occ]
            assert np.all((dens > 0.0) & (dens <= 1.0))
            unocc = ~occ
            assert np.all(grid.data[:, unocc] == 0.0)

    def test_identical_z_gives_zero_spread(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack(
            [rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), np.full(200, 0.37)]
        )
        grid = project(cloud_of(pts))
        assert np.all(grid.data[CH_RANGE] == 0.0)
        assert np.all(grid.data[CH_STD] == 0.0)

    def test_single_point_cell_zero_spread(self):
        grid = project(cloud_of([[0.0, 0.0, 0.5]]))
        assert grid.data[CH_RANGE, 30, 30] == 0.0
        assert grid.data[CH_STD, 30, 30] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            project(cloud_of([[0.0, 0.0, np.nan]]))

    def test_points_outside_window_ignored(self):
        grid = project(cloud_of([[5.0, 5.0, 1.0], [0.0, 0.0, 0.2]]))
        assert grid.occupancy.sum() == 1


class TestLexsortOracle:
    @pytest.mark.parametrize("occlusion", [False, True], ids=["clear", "occluded"])
    @pytest.mark.parametrize("stair_class", list(StairClass), ids=lambda c: c.name.lower())
    def test_seeded_scans_bit_identical(self, stair_class, occlusion):
        rng = np.random.default_rng(int(stair_class) + 10 * occlusion + 41)
        ranges = with_class(ParameterRanges(h_step=(0.08, 0.25), stair_yaw=(-0.5, 0.5)), stair_class)
        for noise in (0.0, 0.01, 0.05):
            profile = TerrainProfile(generate_stairs(rng, ranges))
            pose = (rng.uniform(-1.0, 0.5), rng.uniform(-0.3, 0.3), rng.uniform(-math.pi, math.pi))
            model = SensorModel(noise_sigma_z=noise, occlusion=occlusion)
            cloud = scan(profile, pose, model, rng)
            for variant in (cloud, dropout(cloud, 0.3, rng)):
                assert_bits_equal(project(variant), lexsort_project(variant))
                shuffled = cloud_of(variant.points[rng.permutation(len(variant))])
                assert_bits_equal(project(shuffled), lexsort_project(shuffled))

    def test_outside_points_single_cells_and_duplicate_z(self):
        # Points beyond the grid, many single-point cells, and z drawn from
        # five values (zeros of both signs among them) so that cells hold
        # runs of equal z.
        rng = np.random.default_rng(12)
        for n in (1, 7, 300, 5000):
            z = rng.choice([-0.2, -0.0, 0.0, 0.1, 0.3], n)
            pts = np.column_stack([rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n), z])
            assert_bits_equal(project(cloud_of(pts)), lexsort_project(cloud_of(pts)))

    @pytest.mark.parametrize(
        "zs",
        [
            [0.0, -0.0],
            [-0.0, 0.0],
            [-0.0, -0.0, 0.0, -0.0],
            [0.0, -0.0, -0.1],
            [-0.0, 0.0, -0.1],
            [0.1, -0.0, 0.0],
            [0.0, 0.1, -0.0, -0.1, 0.0],
        ],
    )
    def test_signed_zeros_in_one_cell(self, zs):
        pts = [[0.01, 0.01, z] for z in zs] + [[0.3, 0.3, -0.0], [0.3, 0.31, 0.0]]
        assert_bits_equal(project(cloud_of(pts)), lexsort_project(cloud_of(pts)))

    def test_signed_zero_extreme_follows_input_order(self):
        # The documented exception to permutation invariance: the sign of
        # a zero extreme depends on the order of the zeros in the cell.
        a = project(cloud_of([[0.01, 0.01, 0.0], [0.01, 0.01, -0.0]]))
        b = project(cloud_of([[0.01, 0.01, -0.0], [0.01, 0.01, 0.0]]))
        assert a.data[CH_MAX, 30, 30] == b.data[CH_MAX, 30, 30] == 0.0
        assert math.copysign(1.0, a.data[CH_MAX, 30, 30]) != math.copysign(
            1.0, b.data[CH_MAX, 30, 30]
        )


class TestKeyValueOrder:
    @pytest.mark.parametrize("key_span", [3, 3600, 70_000, 5_000_000])
    def test_matches_lexsort(self, key_span):
        # Spans of 8, 16, 32 and 32 bits after the shift, negative keys
        # included, and values with duplicates and zeros of both signs.
        rng = np.random.default_rng(key_span)
        keys = rng.integers(-key_span // 2, key_span - key_span // 2, 4000)
        values = np.where(
            rng.random(4000) < 0.5,
            rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], 4000),
            rng.normal(0.0, 1.0, 4000),
        )
        order = key_value_order(keys, values)
        oracle = np.lexsort((values, keys))
        # Equal non-zero values may swap places; their bits cannot tell.
        assert np.array_equal(keys[order], keys[oracle])
        assert values[order].tobytes() == values[oracle].tobytes()
        assert np.array_equal(np.sort(order), np.arange(4000))

    def test_single_element(self):
        assert key_value_order(np.array([5]), np.array([-0.0])).tolist() == [0]


class TestGridFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = np.column_stack(
            [rng.uniform(-1.5, 1.5, 400), rng.uniform(-1.5, 1.5, 400), rng.normal(0, 0.2, 400)]
        )
        grid = project(cloud_of(pts))
        path = tmp_path / "g.bevg"
        write_grid(path, grid)
        loaded = read_grid(path)
        # Payload is f32; compare at that precision.
        assert np.array_equal(loaded.data, grid.data.astype("<f4").astype(float))
        assert np.array_equal(loaded.occupancy, grid.occupancy)
        assert loaded.resolution == pytest.approx(0.05)

    def test_write_deterministic_bytes(self, tmp_path):
        grid = project(cloud_of([[0.0, 0.0, 0.5], [0.3, -0.2, 0.1]]))
        write_grid(tmp_path / "a.bevg", grid)
        write_grid(tmp_path / "b.bevg", grid)
        assert (tmp_path / "a.bevg").read_bytes() == (tmp_path / "b.bevg").read_bytes()

    @pytest.mark.parametrize("keep", [10, 24, 1000, 24 + 4 * 6 * 60 * 60 + 3599])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "g.bevg"
        write_grid(path, project(cloud_of([[0.0, 0.0, 0.5]])))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=f"^{path}: .*bytes"):
            read_grid(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, tmp_path, value):
        path = tmp_path / "g.bevg"
        write_grid(path, project(cloud_of([[0.0, 0.0, 0.5]])))
        raw = bytearray(path.read_bytes())
        raw[24 + 4 * 100 : 24 + 4 * 101] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{path}: .*non-finite"):
            read_grid(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bevg"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="BEVG"):
            read_grid(path)
