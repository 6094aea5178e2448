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
    cell_index,
    project,
    read_grid,
    write_grid,
)
from stairlab.sensor import PointCloud, SensorModel, scan
from stairlab.world import StairClass, StairSpec, TerrainProfile


def cloud_of(points) -> PointCloud:
    return PointCloud(np.asarray(points, dtype=float))


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
