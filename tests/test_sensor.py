import math

import numpy as np
import pytest

from stairlab.cloud_io import read_cloud, read_ply, read_xyz, write_ply, write_xyz
from stairlab.errors import ConfigError
from stairlab.sensor import PointCloud, SensorModel, _line_of_sight_mask, dropout, scan
from stairlab.world import ParameterRanges, StairClass, StairSpec, TerrainProfile, generate_stairs

from helpers import with_class


def flat_profile():
    return TerrainProfile(StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0))


def stairs_profile(h=0.12, d=0.30, yaw=0.0, n=8):
    return TerrainProfile(StairSpec(StairClass.STAIRS_UP, h, d, yaw, n, 1.0, 1.0))


NOISELESS = SensorModel(noise_sigma_z=0.0)


def test_flat_noiseless_scan_is_exactly_zero():
    cloud = scan(flat_profile(), (0.3, -0.2, 0.5), NOISELESS, seed=0)
    assert len(cloud) == 150 * 150
    assert np.all(cloud.points[:, 2] == 0.0)


def test_scan_point_height_matches_heightfield():
    # Robot on the lead flat at the stair base: the lattice point 0.45 m
    # ahead sits past the first two risers of its staircase.
    model = SensorModel(noise_sigma_z=0.0, sample_pitch=0.1)
    cloud = scan(stairs_profile(), (-0.01, 0.0, 0.0), model, seed=0)
    idx = np.flatnonzero(
        (np.abs(cloud.points[:, 0] - 0.45) < 1e-9) & (np.abs(cloud.points[:, 1] - 0.05) < 1e-9)
    )
    assert idx.size == 1
    assert cloud.points[idx[0], 2] == pytest.approx(0.24, abs=1e-12)


def test_z_values_relative_to_support_height():
    # Robot standing mid-flight: points on its own tread read zero.
    cloud = scan(stairs_profile(), (0.45, 0.0, 0.0), NOISELESS, seed=0)
    own = np.flatnonzero(
        (np.abs(cloud.points[:, 0] - 0.01) < 1e-9) & (np.abs(cloud.points[:, 1] - 0.01) < 1e-9)
    )
    assert own.size == 1
    assert cloud.points[own[0], 2] == pytest.approx(0.0, abs=1e-12)


def test_noise_standard_deviation():
    model = SensorModel(noise_sigma_z=0.01, sample_pitch=0.009)  # ~111k points
    cloud = scan(flat_profile(), (0.0, 0.0, 0.0), model, seed=11)
    std = cloud.points[:, 2].std()
    assert 0.0095 <= std <= 0.0105


def test_scan_deterministic_per_seed():
    model = SensorModel(noise_sigma_z=0.02)
    a = scan(stairs_profile(), (0.1, 0.2, 0.05), model, seed=9)
    b = scan(stairs_profile(), (0.1, 0.2, 0.05), model, seed=9)
    assert np.array_equal(a.points, b.points)
    c = scan(stairs_profile(), (0.1, 0.2, 0.05), model, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_relative_rotation_consistency():
    # Rotating the terrain by delta about the robot equals un-rotating the
    # robot heading: the robot-frame clouds agree.
    delta = math.radians(12.0)
    heading = math.radians(7.0)
    pose = (0.4, -0.3, heading)
    base = stairs_profile(yaw=0.0)

    rotated_spec = StairSpec(
        StairClass.STAIRS_UP,
        0.12,
        0.30,
        delta,
        8,
        1.0,
        1.0,
        # Rotate the origin about the robot position so the terrain moves
        # rigidly with the rotation.
        origin_x=0.4 + (0.0 - 0.4) * math.cos(delta) - (0.0 - (-0.3)) * math.sin(delta),
        origin_y=-0.3 + (0.0 - 0.4) * math.sin(delta) + (0.0 - (-0.3)) * math.cos(delta),
    )
    cloud_rotated_world = scan(TerrainProfile(rotated_spec), (0.4, -0.3, heading + delta), NOISELESS, 0)
    cloud_unrotated = scan(base, pose, NOISELESS, 0)
    assert np.allclose(cloud_rotated_world.points, cloud_unrotated.points, atol=1e-9)


class TestDropout:
    def test_rate_zero_identity(self):
        cloud = scan(flat_profile(), (0, 0, 0), NOISELESS, 0)
        assert np.array_equal(dropout(cloud, 0.0, 1).points, cloud.points)

    def test_rate_one_empty(self):
        cloud = scan(flat_profile(), (0, 0, 0), NOISELESS, 0)
        assert len(dropout(cloud, 1.0, 1)) == 0

    def test_binomial_survivor_count(self):
        pts = np.zeros((10_000, 3))
        out = dropout(PointCloud(pts), 0.5, seed=3)
        assert 4700 <= len(out) <= 5300

    def test_order_preserved(self):
        pts = np.column_stack([np.arange(1000.0), np.zeros(1000), np.zeros(1000)])
        out = dropout(PointCloud(pts), 0.3, seed=4)
        assert np.all(np.diff(out.points[:, 0]) > 0)

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            dropout(PointCloud(np.zeros((1, 3))), 1.5, 0)


class TestOcclusion:
    def test_flat_world_nothing_removed(self):
        occluded = SensorModel(noise_sigma_z=0.0, occlusion=True)
        a = scan(flat_profile(), (0, 0, 0), occluded, 0)
        b = scan(flat_profile(), (0, 0, 0), NOISELESS, 0)
        assert np.array_equal(a.points, b.points)

    def test_down_stairs_shadow_points_removed(self):
        spec = StairSpec(StairClass.STAIRS_DOWN, 0.2, 0.3, 0.0, 6, 1.0, 1.0)
        profile = TerrainProfile(spec)
        occluded = SensorModel(noise_sigma_z=0.0, occlusion=True)
        a = scan(profile, (-0.3, 0.0, 0.0), occluded, 0)
        b = scan(profile, (-0.3, 0.0, 0.0), NOISELESS, 0)
        assert 0 < len(a) < len(b)
        # Surviving points are a subset of the unoccluded scan.
        b_set = {tuple(p) for p in b.points}
        assert all(tuple(p) in b_set for p in a.points)


def march_visible(profile, pose, xw, yw, z_true, support, sensor_height, ray_pitch):
    """Oracle: sample every ray at ``ray_pitch`` and call it blocked where terrain rises above it."""
    x0, y0, _ = pose
    z0 = support + sensor_height
    dist = np.hypot(xw - x0, yw - y0)
    n_samples = max(2, int(math.ceil(float(dist.max(initial=0.0)) / ray_pitch)))
    t = np.linspace(0.0, 1.0, n_samples + 1)[1:-1]
    visible = np.ones(xw.shape[0], dtype=bool)
    for lo in range(0, xw.shape[0], 256):
        hi = lo + 256
        tx = x0 + np.outer(xw[lo:hi] - x0, t)
        ty = y0 + np.outer(yw[lo:hi] - y0, t)
        ray_z = z0 + np.outer(z_true[lo:hi] - z0, t)
        visible[lo:hi] = ~np.any(profile.height_at(tx, ty) > ray_z + 1e-9, axis=1)
    return visible


def line_of_sight(profile, pose, xw, yw, z_true, support, sensor_height):
    """``_line_of_sight_mask`` called as ``scan`` calls it, from world coordinates."""
    s0 = float(profile._along_axis(pose[0], pose[1]))
    s = profile._along_axis(xw, yw)
    return _line_of_sight_mask(profile, s0, s, z_true, support + sensor_height)


def frozen_line_of_sight(profile, pose, xw, yw, z_true, support, sensor_height):
    """Oracle: the exact test of every ray against every riser, in O(N * n_steps).

    The sensor's mask before the riser-run rule, kept verbatim.
    """
    spec = profile.spec
    if spec.stair_class == StairClass.FLAT:
        return np.ones(xw.shape[0], dtype=bool)
    risers = profile.riser_positions()
    k = np.arange(spec.n_steps, dtype=float)
    if spec.stair_class == StairClass.STAIRS_UP:
        edges = spec.h_step * (k + 1.0)
    else:
        edges = -spec.h_step * k
    s0 = float(profile._along_axis(pose[0], pose[1]))
    z0 = support + sensor_height
    ds = profile._along_axis(xw, yw) - s0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (risers[None, :] - s0) / ds[:, None]
        ray_z = z0 + t * (z_true - z0)[:, None]
    blocked = (t > 0.0) & (t < 1.0) & (edges[None, :] - ray_z > 1e-9)
    return ~blocked.any(axis=1)


def lattice_world(pose, window=3.0, pitch=0.02):
    """The scan lattice of a sensor at ``pose``, in world coordinates."""
    n = int(round(window / pitch))
    axis = -window / 2.0 + pitch * (np.arange(n) + 0.5)
    u, v = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    x, y, heading = pose
    c, s = math.cos(heading), math.sin(heading)
    return x + u * c - v * s, y + u * s + v * c


class TestExactLineOfSight:
    MODEL = SensorModel(noise_sigma_z=0.0, occlusion=True, sample_pitch=0.1)

    def kept_on_lattice(self, profile, pose):
        """Lattice mask of the points a noise-free occluded scan keeps, and the lattice in the world."""
        model = self.MODEL
        n = int(round(model.window / model.sample_pitch))
        pts = scan(profile, pose, model, 0).points
        rows = np.rint((pts[:, 0] + model.window / 2.0) / model.sample_pitch - 0.5).astype(int)
        cols = np.rint((pts[:, 1] + model.window / 2.0) / model.sample_pitch - 0.5).astype(int)
        kept = np.zeros(n * n, dtype=bool)
        kept[rows * n + cols] = True
        return (kept, *lattice_world(pose, model.window, model.sample_pitch))

    @pytest.mark.parametrize("stair_class", list(StairClass), ids=lambda c: c.name.lower())
    def test_matches_dense_march(self, stair_class):
        # Every point a 2 mm march calls occluded is occluded, and the
        # exact test drops at least as many points as the march.
        rng = np.random.default_rng(int(stair_class) + 31)
        ranges = with_class(ParameterRanges(h_step=(0.14, 0.2), n_steps=(8, 10)), stair_class)
        dropped_total = 0
        for i in range(3):
            profile = TerrainProfile(generate_stairs(rng, ranges))
            pose = (rng.uniform(-0.8, 1.5), rng.uniform(-0.5, 0.5), rng.uniform(-math.pi, math.pi))
            kept, xw, yw = self.kept_on_lattice(profile, pose)
            z = profile.height_at(xw, yw)
            support = profile.height_at(pose[0], pose[1])
            march = march_visible(profile, pose, xw, yw, z, support, self.MODEL.sensor_height, 0.002)
            assert not np.any(kept & ~march)
            assert (~kept).sum() >= (~march).sum()
            dropped_total += int((~kept).sum())
        if stair_class == StairClass.FLAT:
            assert dropped_total == 0
        else:
            assert dropped_total > 0

    def test_grazing_ray_over_riser_edge_dropped(self):
        # Sensor 1.2 m above the top landing, 0.3 m before a 0.2 m drop.
        # The ray to the point 0.0495 m past the riser passes 1.7 mm below
        # the riser's top edge, closer than a 2 cm march samples it.
        profile = TerrainProfile(StairSpec(StairClass.STAIRS_DOWN, 0.2, 0.3, 0.0, 6, 1.0, 1.0))
        pose = (-0.3, 0.0, 0.0)
        xw = np.array([0.0495, 0.0505])
        yw = np.array([0.4, 0.4])
        z = profile.height_at(xw, yw)
        assert np.array_equal(march_visible(profile, pose, xw, yw, z, 0.0, 1.2, 0.02), [True, True])
        visible = line_of_sight(profile, pose, xw, yw, z, 0.0, 1.2)
        assert visible.tolist() == [False, True]

    def test_ray_along_risers_stays_visible(self):
        # A target at the sensor's own along-axis position: s1 == s0.
        profile = stairs_profile(yaw=0.0)
        pose = (0.45, 0.0, 0.0)
        xw, yw = np.array([0.45]), np.array([1.3])
        z = profile.height_at(xw, yw)
        with np.errstate(all="raise"):
            visible = line_of_sight(profile, pose, xw, yw, z, 0.24, 1.2)
        assert visible.tolist() == [True]
        # The same on up and down flights, from before, on and past the
        # flight, whatever the target's height: ds == 0 crosses no riser.
        for stair_class in (StairClass.STAIRS_UP, StairClass.STAIRS_DOWN):
            profile = TerrainProfile(StairSpec(stair_class, 0.12, 0.3, 0.0, 6, 1.0, 1.0))
            for s0 in (-0.4, 0.0, 0.3, 2.0):
                xw, yw = np.full(31, s0), np.linspace(-1.5, 1.5, 31)
                z = np.linspace(-2.0, 2.0, 31)
                with np.errstate(all="raise"):
                    assert line_of_sight(profile, (s0, 0.0, 0.0), xw, yw, z, 0.0, 1.2).all()


def assert_matches_oracle(profile, pose, xw, yw, z_true, support, sensor_height):
    with np.errstate(over="ignore"):  # t overflows where ds is subnormal
        want = frozen_line_of_sight(profile, pose, xw, yw, z_true, support, sensor_height)
    got = line_of_sight(profile, pose, xw, yw, z_true, support, sensor_height)
    assert got.dtype == bool and got.shape == want.shape
    assert np.array_equal(got, want)
    return got


def axis_flight(stair_class, n, h=0.12, d=0.3):
    """A flight along the world x axis with its first riser at x = 0."""
    return TerrainProfile(StairSpec(stair_class, h, d, 0.0, n, 1.0, 1.0))


class TestRiserRunMask:
    """The mask tests the ends of each ray's riser run and equals the full test bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_frozen_oracle_on_seeded_corpus(self, seed):
        # Up, down and flat flights of 1-12 risers at any yaw, poses before,
        # on and past the flight at any heading, three sensor heights and
        # two lattice pitches.
        rng = np.random.default_rng(seed)
        ranges = ParameterRanges(
            h_step=(0.05, 0.5),
            d_step=(0.1, 1.0),
            stair_yaw=(-math.pi, math.pi),
            n_steps=(1, 12),
            lead_flat=(0.0, 2.0),
            class_weights=(1.0, 1.0, 1.0),
        )
        occluded = 0
        for i in range(40):
            spec = generate_stairs(rng, ranges)
            profile = TerrainProfile(spec)
            s = rng.uniform(-spec.lead_flat - 1.0, spec.n_steps * spec.d_step + 1.5)
            lat = rng.uniform(-1.0, 1.0)
            ca, sa = math.cos(spec.stair_yaw), math.sin(spec.stair_yaw)
            pose = (s * ca - lat * sa, s * sa + lat * ca, rng.uniform(-math.pi, math.pi))
            xw, yw = lattice_world(pose, pitch=(0.02, 0.05)[i % 2])
            z = profile.height_at(xw, yw)
            support = profile.height_at(pose[0], pose[1])
            sensor_height = (0.3, 1.2, 2.0)[i % 3]
            visible = assert_matches_oracle(profile, pose, xw, yw, z, support, sensor_height)
            occluded += int((~visible).sum())
        assert occluded > 0

    @pytest.mark.parametrize("stair_class", [StairClass.STAIRS_UP, StairClass.STAIRS_DOWN])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_lattice_points_on_riser_lines(self, stair_class, n):
        # With x = 0.01 and a 0.02 m pitch, a lattice row lies on every
        # riser line (x = 0.3 k) up to rounding, on both sides of the sensor.
        profile = axis_flight(stair_class, n)
        for x in (0.01, -0.29, 0.31, 0.3 * n + 0.01):
            for heading in (0.0, math.pi, 0.1):
                pose = (x, 0.0, heading)
                xw, yw = lattice_world(pose)
                z = profile.height_at(xw, yw)
                support = profile.height_at(x, 0.0)
                for sensor_height in (0.12, 1.2):
                    assert_matches_oracle(profile, pose, xw, yw, z, support, sensor_height)

    @pytest.mark.parametrize("stair_class", [StairClass.STAIRS_UP, StairClass.STAIRS_DOWN])
    @pytest.mark.parametrize("s0", [-0.5, 0.0, 0.75, 2.9], ids=["before", "on", "mid", "past"])
    def test_rays_ending_on_a_riser_and_one_ulp_either_side(self, stair_class, s0):
        profile = axis_flight(stair_class, 8, h=0.2)
        r = profile.riser_positions()
        s = np.concatenate([np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)])
        # Targets on the terrain, on the riser's top edge, and 0.1 m above and below it.
        edge = profile.height_on_axis(r)
        heights = [profile.height_on_axis(s), np.tile(edge, 3)]
        heights += [heights[1] + 0.1, heights[1] - 0.1]
        s, z = np.tile(s, 4), np.concatenate(heights)
        xw, yw = s, np.full(s.size, 0.7)
        support = profile.height_on_axis(s0)
        for sensor_height in (0.05, 0.2, 1.2):
            assert_matches_oracle(profile, (s0, 0.0, 0.0), xw, yw, z, support, sensor_height)

    @pytest.mark.parametrize("stair_class", [StairClass.STAIRS_UP, StairClass.STAIRS_DOWN])
    def test_single_riser_flights(self, stair_class):
        profile = axis_flight(stair_class, 1, h=0.3)
        occluded = 0
        for x in (-1.0, -0.2, 0.0, 0.2, 1.0):
            for heading in (0.0, math.pi, 0.7):
                pose = (x, 0.1, heading)
                xw, yw = lattice_world(pose, pitch=0.05)
                z = profile.height_at(xw, yw)
                support = profile.height_at(x, 0.1)
                visible = assert_matches_oracle(profile, pose, xw, yw, z, support, 1.2)
                occluded += int((~visible).sum())
        # From the upper level the step hides the lower ground at its foot.
        assert occluded > 0

    def test_first_crossing_that_rounds_to_the_sensor(self):
        # The sensor stands 5e-324 m before riser 0, so t_0 = 5e-324 / 2.5
        # rounds to 0 and riser 0 is not crossed. Riser 1 (margin 0.02 m)
        # blocks the ray; riser 2, the run's other end, does not.
        profile = axis_flight(StairClass.STAIRS_UP, 3, h=0.2, d=1.0)
        pose = (-5e-324, 0.0, 0.0)
        assert profile._along_axis(pose[0], pose[1]) == -5e-324
        xw, yw, z = np.array([2.5]), np.array([0.0]), np.array([0.8])
        visible = assert_matches_oracle(profile, pose, xw, yw, z, 0.0, 0.1)
        assert visible.tolist() == [False]

    def test_margin_within_rounding_of_the_threshold(self):
        # The ray runs parallel to the line through the riser edges and
        # 1e-9 below it, so every margin is 1e-9 up to rounding. Rounded,
        # both ends of the run fall short of the threshold and an interior
        # riser passes it by 8e-17: the ray is blocked.
        h, d = 0.15, 0.3
        profile = axis_flight(StairClass.STAIRS_UP, 9, h=h, d=d)
        s0, s = -0.3694079295517603, 2.616559584297332
        z0, z = (h * (x / d + 1.0) - 1e-9 for x in (s0, s))
        t = (profile.riser_positions() - s0) / (s - s0)
        margins = h * np.arange(1.0, 10.0) - (z0 + t * (z - z0))
        assert margins[0] <= 1e-9 and margins[-1] <= 1e-9 < margins.max()
        xw, yw = np.array([s]), np.array([0.0])
        visible = assert_matches_oracle(profile, (s0, 0.0, 0.0), xw, yw, np.array([z]), z0, 0.0)
        assert visible.tolist() == [False]


class TestCloudIO:
    def test_xyz_round_trip_exact(self, tmp_path):
        cloud = scan(stairs_profile(), (0, 0, 0.1), SensorModel(noise_sigma_z=0.01), 5)
        path = tmp_path / "cloud.xyz"
        write_xyz(path, cloud)
        assert np.array_equal(read_xyz(path).points, cloud.points)

    def test_ply_round_trip_exact(self, tmp_path):
        cloud = scan(stairs_profile(), (0, 0, 0.0), SensorModel(noise_sigma_z=0.01), 6)
        path = tmp_path / "cloud.ply"
        write_ply(path, cloud)
        assert np.array_equal(read_ply(path).points, cloud.points)

    def test_read_cloud_dispatches_on_extension(self, tmp_path):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        write_ply(tmp_path / "c.ply", cloud)
        write_xyz(tmp_path / "c.xyz", cloud)
        assert np.array_equal(read_cloud(tmp_path / "c.ply").points, cloud.points)
        assert np.array_equal(read_cloud(tmp_path / "c.xyz").points, cloud.points)

    def test_binary_ply_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(ValueError, match="binary"):
            read_ply(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nproperty float x\nend_header\n")
        with pytest.raises(ValueError):
            read_ply(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "short.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n0 0 0\n"
        )
        with pytest.raises(ValueError, match="expected 2"):
            read_ply(path)

    @pytest.mark.parametrize("count", ["-3", "", "x"])
    def test_invalid_vertex_count_rejected(self, tmp_path, count):
        path = tmp_path / "neg.ply"
        path.write_text(
            f"ply\nformat ascii 1.0\nelement vertex {count}\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(ValueError, match=f"^{path}: invalid vertex count"):
            read_ply(path)

    def test_malformed_xyz_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ValueError, match="line 2"):
            read_xyz(path)

    def test_non_numeric_ply_vertex(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n0 0 0\n\n1 2 a\n"
        )
        with pytest.raises(ValueError, match=f"^{path}: line 10: non-numeric value$"):
            read_ply(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("fmt", ["xyz", "ply"])
    def test_non_finite_coordinate_rejected(self, tmp_path, fmt, value):
        cloud = PointCloud(np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]]))
        path = tmp_path / f"cloud.{fmt}"
        (write_ply if fmt == "ply" else write_xyz)(path, cloud)
        lines = path.read_text().splitlines()
        lines[-1] = f"0.3 {value} 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{path}: line {len(lines)}: non-finite coordinate$"):
            read_cloud(path)
