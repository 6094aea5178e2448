import math

import numpy as np
import pytest

from stairlab import bev, sensor
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
from stairlab.cloud_io import read_xyz, write_xyz
from stairlab.config import parse_config_text
from stairlab.experiments import _benchmark_ranges, benchmark_case
from stairlab.sensor import PointCloud, SensorModel, dropout, scan
from stairlab.world import ParameterRanges, StairClass, StairSpec, TerrainProfile, generate_stairs

from helpers import line_allocations, source_line, with_class


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

    def test_grid_edges_and_the_all_inside_path(self):
        # Coordinates on and one ulp either side of both grid edges, and
        # clouds that lie wholly inside (no inside mask) or reach out of
        # the grid by one point on one side.
        rng = np.random.default_rng(13)
        edges = [-1.5, np.nextafter(-1.5, 0.0), np.nextafter(-1.5, -2.0), 0.0,
                 np.nextafter(1.5, 0.0), 1.5, np.nextafter(1.5, 2.0)]
        xy = np.array([(x, y) for x in edges for y in edges])
        pts = np.column_stack([xy, rng.normal(0.0, 0.1, len(xy))])
        assert_bits_equal(project(cloud_of(pts)), lexsort_project(cloud_of(pts)))
        inside = rng.uniform(-1.5, 1.4999, (2000, 3))
        assert_bits_equal(project(cloud_of(inside)), lexsort_project(cloud_of(inside)))
        for axis in (0, 1):
            for value in (np.nextafter(-1.5, -2.0), 1.5):
                out = inside.copy()
                out[7, axis] = value
                assert_bits_equal(project(cloud_of(out)), lexsort_project(cloud_of(out)))

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


def lexsort_fallbacks(monkeypatch) -> list:
    """Spy on the packed sort's fallback; the list holds the size of each input it took."""
    calls = []
    fallback = bev._lexsort_order

    def spy(keys, values):
        calls.append(values.shape[0])
        return fallback(keys, values)

    monkeypatch.setattr(bev, "_lexsort_order", spy)
    return calls


def assert_lexsort_order(keys, values):
    order = key_value_order(keys, values)
    assert order.dtype == np.intp
    assert np.array_equal(order, np.lexsort((values, keys)))


class TestKeyValueOrder:
    @pytest.mark.parametrize("key_span", [3, 3600, 70_000, 5_000_000])
    def test_matches_lexsort(self, key_span):
        # Negative keys included, and values with duplicates and zeros of
        # both signs: the permutation is lexsort's, ties in input order.
        rng = np.random.default_rng(key_span)
        keys = rng.integers(-key_span // 2, key_span - key_span // 2, 4000)
        values = np.where(
            rng.random(4000) < 0.5,
            rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], 4000),
            rng.normal(0.0, 1.0, 4000),
        )
        assert_lexsort_order(keys, values)

    def test_single_element(self):
        assert key_value_order(np.array([5]), np.array([-0.0])).tolist() == [0]

    def test_empty_input(self):
        order = key_value_order(np.empty(0, dtype=np.int64), np.empty(0))
        assert order.dtype == np.intp and order.shape == (0,)

    @staticmethod
    def ulp_steps(n):
        """``n`` consecutive floats from 0.1 up, which share all but their last bits."""
        return (np.float64(0.1).view(np.int64) + np.arange(n)).view(np.float64)

    def test_shared_value_prefix_in_rising_order_is_exact(self, monkeypatch):
        # Values one ulp apart share every bit the key leaves them; rising
        # in input order, the index field orders them right.
        fallbacks = lexsort_fallbacks(monkeypatch)
        keys = np.arange(50) % 4
        assert_lexsort_order(keys, self.ulp_steps(50))
        assert fallbacks == []

    def test_shared_value_prefix_in_falling_order_takes_the_fallback(self, monkeypatch):
        # Falling in input order, a value falls within its key, and lexsort decides.
        fallbacks = lexsort_fallbacks(monkeypatch)
        keys = np.arange(50) % 4
        assert_lexsort_order(keys, self.ulp_steps(50)[::-1].copy())
        assert fallbacks == [50]

    @pytest.mark.parametrize("zeros", [["-0.0"], ["0.0"], ["-0.0", "0.0"]])
    def test_signed_zeros_keep_input_order(self, monkeypatch, zeros):
        fallbacks = lexsort_fallbacks(monkeypatch)
        rng = np.random.default_rng(len(zeros))
        values = np.array([float(z) for z in zeros] + [-0.25, 0.5])[rng.integers(0, len(zeros) + 2, 3000)]
        keys = rng.integers(0, 40, 3000)
        assert_lexsort_order(keys, values)
        assert fallbacks == []

    @pytest.mark.parametrize("n", [2**k + d for k in (1, 4, 10, 15) for d in (-1, 0, 1)])
    def test_sizes_around_powers_of_two(self, n):
        # The index field takes ceil(log2 n) bits.
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 3600, n)
        values = np.round(rng.normal(0.0, 0.3, n), 2)
        assert_lexsort_order(keys, values)

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 2**40), (-(2**45), 2**45), (0, 2**49), (-(2**63), 2**63 - 1)],
        ids=["40-bit", "46-bit", "no-value-bit", "int64"],
    )
    def test_wide_key_spans(self, monkeypatch, lo, hi):
        # Few or no bits left for the value: ties of the value prefix,
        # then no room at all, where lexsort decides.
        fallbacks = lexsort_fallbacks(monkeypatch)
        rng = np.random.default_rng(7)
        few = rng.choice(np.array([lo, hi, lo // 2 + hi // 2], dtype=np.int64), 10_000)
        keys = np.concatenate([few, rng.integers(lo, hi, 10_000, endpoint=True)])
        keys = keys[rng.permutation(20_000)]
        values = rng.normal(0.0, 1.0, 20_000)
        assert_lexsort_order(keys, values)
        if hi - lo >= 2**49:
            assert fallbacks == [20_000]

    def test_non_finite_values(self):
        rng = np.random.default_rng(3)
        pool = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1.0])
        for n in (1, 2, 5, 200):
            keys = rng.integers(0, 3, n)
            assert_lexsort_order(keys, pool[rng.integers(0, pool.size, n)])

    def test_unsigned_and_small_keys(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0.0, 1.0, 500)
        for dtype in (np.uint8, np.int16, np.uint64):
            assert_lexsort_order(rng.integers(0, 200, 500).astype(dtype), values)

    def test_perceive_corpus_takes_no_fallback(self, monkeypatch, tmp_path):
        # Flights drawn as the estimator benchmark draws them, with and
        # without occlusion and dropout: the packed keys settle every sort
        # of project and of the profile.
        fallbacks = lexsort_fallbacks(monkeypatch)
        for extra in ("", "[sensor]\nocclusion = true\n[benchmark]\ndropout = 0.1\n"):
            cfg = parse_config_text(extra, tmp_path)
            ranges = _benchmark_ranges(cfg)
            for case_seed in np.random.SeedSequence(5).spawn(30):
                benchmark_case(cfg, ranges, case_seed)
        assert fallbacks == []


# Every window and pitch the lattice path is checked on: the default, two
# narrower windows, and a raw sensor wider than the grid, whose outer
# lattice points fall outside it.
LATTICE_WINDOWS = (3.0, 2.0, 1.0, 3.4)
LATTICE_PITCHES = (0.02, 0.03, 0.05)


def random_pose(rng, spec):
    """A pose before, on or past the flight, off its axis, at any heading."""
    s = rng.uniform(-spec.lead_flat, spec.n_steps * max(spec.d_step, 0.3) + 1.0)
    ca, sa = math.cos(spec.stair_yaw), math.sin(spec.stair_yaw)
    lat = rng.uniform(-0.5, 0.5)
    return s * ca - lat * sa, s * sa + lat * ca, rng.uniform(-math.pi, math.pi)


def mixed_zero_cells(cloud: PointCloud) -> int:
    """Cells that hold z = 0.0 with both signs."""
    pts = cloud.points
    cell = np.floor((pts[:, 0] + 1.5) / RESOLUTION) * GRID_SIZE + np.floor((pts[:, 1] + 1.5) / RESOLUTION)
    zero = pts[:, 2] == 0.0
    negative = np.signbit(pts[:, 2])
    return np.intersect1d(cell[zero & negative], cell[zero & ~negative]).size


class TestLatticePath:
    @pytest.mark.parametrize("stair_class", list(StairClass), ids=lambda c: c.name.lower())
    @pytest.mark.parametrize("window", LATTICE_WINDOWS)
    def test_whole_lattice_matches_lexsort_oracle(self, stair_class, window):
        # Random poses and one just before the first riser, where a
        # noise-free down-flight holds zeros of both signs within cells.
        rng = np.random.default_rng(int(stair_class) * 10 + int(window * 10))
        ranges = with_class(ParameterRanges(stair_yaw=(-math.pi, math.pi)), stair_class)
        mixed = 0
        for pitch in LATTICE_PITCHES:
            for noise in (0.0, 0.01):
                model = SensorModel(window, pitch, noise)
                spec = generate_stairs(rng, ranges)
                profile = TerrainProfile(spec)
                near = -0.5 * max(spec.d_step, 0.3)
                ca, sa = math.cos(spec.stair_yaw), math.sin(spec.stair_yaw)
                for pose in (random_pose(rng, spec), random_pose(rng, spec), (near * ca, near * sa, 0.0)):
                    cloud = scan(profile, pose, model, rng)
                    assert cloud.lattice == (window, pitch)
                    grid = project(cloud)
                    assert_bits_equal(grid, lexsort_project(cloud))
                    assert_bits_equal(grid, project(PointCloud(cloud.points)))
                    mixed += mixed_zero_cells(cloud)
        if stair_class == StairClass.STAIRS_DOWN:
            assert mixed > 0

    def test_file_round_trip_takes_the_general_path_to_the_same_grid(self, tmp_path):
        rng = np.random.default_rng(31)
        ranges = ParameterRanges(class_weights=(1.0, 1.0, 1.0))
        for i in range(6):
            spec = generate_stairs(rng, ranges)
            noise = 0.0 if i % 2 else 0.01
            cloud = scan(TerrainProfile(spec), random_pose(rng, spec), SensorModel(noise_sigma_z=noise), rng)
            path = tmp_path / f"{i}.xyz"
            write_xyz(path, cloud)
            back = read_xyz(path)
            assert back.lattice is None
            assert back.points.tobytes() == cloud.points.tobytes()
            assert_bits_equal(project(back), project(cloud))

    def test_default_layout(self):
        layout = bev._lattice_layout(3.0, 0.02)
        assert layout.blocks == ((0, 3600, 4), (3600, 14400, 6), (14400, 22500, 9))
        assert np.array_equal(np.sort(layout.z_index), 3 * np.arange(22500) + 2)
        assert layout.occupancy.all()
        assert bev._lattice_layout(3.0, 0.02) is layout
        assert not layout.occupancy.flags.writeable

    def test_points_outside_the_grid_are_dropped(self):
        u, v = sensor._lattice(3.4, 0.02)
        inside = (u >= -1.5) & (u < 1.5) & (v >= -1.5) & (v < 1.5)
        layout = bev._lattice_layout(3.4, 0.02)
        assert 0 < inside.sum() < u.size
        assert np.array_equal(np.sort(layout.z_index), 3 * np.flatnonzero(inside) + 2)
        assert layout.occupancy.all()

    def test_subsets_take_the_general_path(self, monkeypatch):
        calls = []
        real = bev._project_lattice
        monkeypatch.setattr(bev, "_project_lattice", lambda *a: calls.append(1) or real(*a))
        profile = TerrainProfile(StairSpec(StairClass.STAIRS_DOWN, 0.2, 0.3, 0.0, 8, 1.0, 0.8))
        occluded = scan(profile, (0.0, 0.0, 0.0), SensorModel(occlusion=True), 0)
        dropped = scan(profile, (0.0, 0.0, 0.0), SensorModel(dropout_rate=0.1), 0)
        for cloud in (occluded, dropped):
            assert cloud.lattice is None
            assert_bits_equal(project(cloud), lexsort_project(cloud))
        assert not calls
        project(scan(profile, (0.0, 0.0, 0.0), SensorModel(), 0))
        assert calls == [1]


class TestLatticeWorkspace:
    def test_grids_are_fresh(self):
        profile = TerrainProfile(StairSpec(StairClass.STAIRS_UP, 0.15, 0.3, 0.2, 8, 1.0, 0.8))
        first = project(scan(profile, (-0.5, 0.0, 0.0), SensorModel(), 1))
        kept = BevGrid(first.data.copy(), first.occupancy.copy())
        second = project(scan(profile, (0.4, 0.1, 0.3), SensorModel(), 2))
        assert_bits_equal(first, kept)
        layout = bev._lattice_layout(3.0, 0.02)
        for grid in (first, second):
            for a in (grid.data, grid.occupancy):
                assert not any(np.shares_memory(a, w) for w in (layout.z, layout.dev, layout.stats, layout.occupancy))
        first.occupancy[0, 0] = False
        assert layout.occupancy[0, 0]

    def test_warm_scan_and_project_make_no_large_temporary(self):
        # After warm-up, only the returned cloud and grid take 128 KB or more
        # on one line; the default lattice's arrays are 180 KB each.
        profile = TerrainProfile(StairSpec(StairClass.STAIRS_DOWN, 0.15, 0.3, 0.2, 8, 1.0, 0.8))
        model = SensorModel()
        project(scan(profile, (-0.5, 0.0, 0.1), model, 0))
        worst = line_allocations(lambda: project(scan(profile, (-0.5, 0.0, 0.1), model, 1)))
        outputs = {source_line(sensor.scan, "points = np.empty("), source_line(project, "data = np.zeros(")}
        assert all(worst.get(line, 0) >= 128 * 1024 for line in outputs)
        assert {line: b for line, b in worst.items() if b >= 128 * 1024 and line not in outputs} == {}


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
        # The header holds the one cell size every grid has.
        assert path.read_bytes()[20:24] == np.array([RESOLUTION], dtype="<f4").tobytes()

    @pytest.mark.parametrize("value, shown", [(0.1, "0.1"), (-3.0, "-3.0"), (np.nan, "nan")])
    def test_other_resolution_rejected(self, tmp_path, value, shown):
        path = tmp_path / "g.bevg"
        write_grid(path, project(cloud_of([[0.0, 0.0, 0.5]])))
        raw = bytearray(path.read_bytes())
        raw[20:24] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as exc:
            read_grid(path)
        assert str(exc.value) == f"{path}: grid resolution {shown} m, expected 0.05 m"

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
