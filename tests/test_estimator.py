import math

import numpy as np
import pytest

from stairlab import estimator
from stairlab.bev import CH_MEAN, GRID_SIZE, project
from stairlab.errors import ConfigError
from stairlab.estimator import (
    EstimatorConfig,
    StepAnalysis,
    _alignment_scores,
    _bin_table,
    _candidate_angles,
    _full_grid_counts,
    _occupied_cells,
    analyze_steps,
    estimate_token,
    estimate_yaw,
    extract_profile,
    format_token_record,
    riser_ahead,
    wrap_ahead,
)
from stairlab.sensor import PointCloud, SensorModel, dropout, scan
from stairlab.world import (
    MAX_STEP_DEPTH,
    MAX_STEP_HEIGHT,
    ParameterRanges,
    StairClass,
    StairSpec,
    TerrainProfile,
    TerrainToken,
    generate_stairs,
)

from helpers import with_class

CFG = EstimatorConfig()
NOISELESS = SensorModel(noise_sigma_z=0.0)


def make_grid(stair_class=StairClass.STAIRS_UP, h=0.12, d=0.30, yaw=0.0, robot_heading=0.0,
              noise=0.0, seed=0, n=8):
    spec = StairSpec(stair_class, h, d, yaw, n, 1.0, 1.0)
    profile = TerrainProfile(spec)
    s0 = -spec.lead_flat / 2.0
    pose = (s0 * math.cos(yaw), s0 * math.sin(yaw), robot_heading)
    model = SensorModel(noise_sigma_z=noise)
    return project(scan(profile, pose, model, seed))


def flat_grid(noise=0.0, seed=0):
    spec = StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0)
    cloud = scan(TerrainProfile(spec), (0, 0, 0), SensorModel(noise_sigma_z=noise), seed)
    return project(cloud)


def loop_alignment_scores(grid, cfg):
    """Oracle: bin the occupied cell centers along each candidate axis on every call."""
    cx, cy, z = _occupied_cells(grid)
    angles = _candidate_angles(cfg.yaw_range_deg, cfg.yaw_pitch_deg)
    scores = np.empty(angles.shape[0])
    for i, phi in enumerate(angles):
        s = cx * math.cos(phi) + cy * math.sin(phi)
        bins = np.floor(s / cfg.profile_bin).astype(np.int64)
        bins -= bins.min()
        counts = np.bincount(bins)
        sums = np.bincount(bins, weights=z)
        sumsq = np.bincount(bins, weights=z * z)
        occupied = counts > 0
        n = counts[occupied]
        mean = sums[occupied] / n
        var = np.maximum(sumsq[occupied] / n - mean * mean, 0.0)
        scores[i] = var.mean()
    return scores


def two_bincount_scores(grid, cfg, rows):
    """Oracle: ``_alignment_scores`` with one ``bincount`` per sum and counts made per call."""
    table = _bin_table(tuple(cfg.yaw_range_deg), cfg.yaw_pitch_deg, cfg.profile_bin)
    z = grid.data[CH_MEAN].ravel()
    block = table[rows]
    if not grid.occupancy.all():
        cells = np.flatnonzero(grid.occupancy)
        z = z[cells]
        block = np.take(block, cells, axis=1)
    zz = z * z
    scores = np.empty(rows.shape[0])
    for i, bins in enumerate(block):
        bins = bins.astype(np.intp)
        counts = np.bincount(bins)
        sums = np.bincount(bins, weights=z)
        sumsq = np.bincount(bins, weights=zz)
        occupied = counts > 0
        n = counts[occupied]
        mean = sums[occupied] / n
        var = np.maximum(sumsq[occupied] / n - mean * mean, 0.0)
        scores[i] = np.add.reduce(var) / var.size
    return scores


def full_search_yaw(grid, cfg):
    """Oracle: score all candidate axes, then the lowest score and its parabola."""
    if grid.occupancy.mean() < cfg.min_occupancy:
        return 0.0
    angles = _candidate_angles(cfg.yaw_range_deg, cfg.yaw_pitch_deg)
    scores = loop_alignment_scores(grid, cfg)
    tied = np.flatnonzero(scores == scores.min())
    k = int(tied[np.lexsort((angles[tied], np.abs(angles[tied])))[0]])
    phi = angles[k]
    if 0 < k < angles.shape[0] - 1:
        s_prev, s_mid, s_next = scores[k - 1], scores[k], scores[k + 1]
        denom = s_prev - 2.0 * s_mid + s_next
        if denom > 0.0:
            offset = 0.5 * (s_prev - s_next) / denom
            phi += float(np.clip(offset, -1.0, 1.0)) * math.radians(cfg.yaw_pitch_deg)
    return float(phi)


def scored_rows(monkeypatch):
    """Record the candidate rows each ``_alignment_scores`` call scores."""
    calls = []
    real = estimator._alignment_scores

    def spy(grid, cfg, rows):
        calls.append(rows.copy())
        return real(grid, cfg, rows)

    monkeypatch.setattr(estimator, "_alignment_scores", spy)
    return calls


def lexsort_profile(grid, yaw, cfg):
    """Oracle: ``extract_profile`` sorted by one ``np.lexsort`` over (bin, z)."""
    if not grid.occupancy.any():
        return np.empty(0), np.empty(0)
    cx, cy, z = _occupied_cells(grid)
    s = cx * math.cos(yaw) + cy * math.sin(yaw)
    bins = np.floor(s / cfg.profile_bin).astype(np.int64)
    order = np.lexsort((z, bins))
    bins, z = bins[order], z[order]
    starts = np.flatnonzero(np.r_[True, np.diff(bins) != 0])
    counts = np.diff(np.r_[starts, bins.size])
    return (bins[starts] + 0.5) * cfg.profile_bin, z[starts + (counts - 1) // 2]


ORACLE_CONFIGS = [
    EstimatorConfig(),
    EstimatorConfig(profile_bin=0.01),
    EstimatorConfig(profile_bin=0.2),
    EstimatorConfig(yaw_range_deg=(-30.0, 60.0), yaw_pitch_deg=0.5),
]


@pytest.fixture(scope="module")
def oracle_grids():
    """Seeded scans of every class, with noise, occlusion and dropout; flat
    ground; single-riser windows; stairs whose axis lies past the ±45° edge
    of the yaw range; and sparse grids just below and just above the default
    occupancy gate."""
    rng = np.random.default_rng(2024)
    grids = []
    for stair_class in StairClass:
        ranges = with_class(ParameterRanges(h_step=(0.08, 0.25), stair_yaw=(-0.6, 0.6)), stair_class)
        for noise, occlusion in ((0.0, False), (0.01, True), (0.05, False)):
            profile = TerrainProfile(generate_stairs(rng, ranges))
            pose = (rng.uniform(-1.0, 0.5), rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
            cloud = scan(profile, pose, SensorModel(noise_sigma_z=noise, occlusion=occlusion), rng)
            grids.append(project(cloud))
            grids.append(project(dropout(cloud, 0.9, rng)))
    for noise in (0.0, 0.01, 0.05):
        grids.append(flat_grid(noise=noise, seed=int(rng.integers(1 << 30))))
    for stair_class in (StairClass.STAIRS_UP, StairClass.STAIRS_DOWN):
        for noise, heading_deg in ((0.0, 0.0), (0.01, -12.0), (0.05, 30.0)):
            grids.append(make_grid(stair_class, n=1, robot_heading=math.radians(heading_deg),
                                   noise=noise, seed=int(rng.integers(1 << 30))))
        for heading_deg in (-80.0, -52.0, 47.0, 65.0):
            grids.append(make_grid(stair_class, h=0.15, robot_heading=math.radians(heading_deg),
                                   noise=0.01, seed=int(rng.integers(1 << 30))))
    # Noise-free, two risers seen from past the top: at 1 cm bins the score
    # landscape is rough, and its minimum lies outside the coarse basin.
    spec = StairSpec(StairClass.STAIRS_DOWN, 0.27, 0.37, -0.36, 2, 1.0, 0.8)
    grids.append(project(scan(TerrainProfile(spec), (2.18, -0.76, -2.93), NOISELESS, 0)))
    gate = int(CFG.min_occupancy * GRID_SIZE * GRID_SIZE)
    for n_cells in (gate - 1, gate + 1):
        cells = rng.choice(GRID_SIZE * GRID_SIZE, n_cells, replace=False)
        x = -1.5 + (cells // GRID_SIZE + 0.5) * 0.05
        y = -1.5 + (cells % GRID_SIZE + 0.5) * 0.05
        grids.append(project(PointCloud(np.column_stack([x, y, rng.normal(0.0, 0.1, n_cells)]))))
    return grids


class TestTableOracle:
    def test_scores_bit_identical_to_loop(self, oracle_grids):
        # All configs in one process: each gets its own cached table.
        rng = np.random.default_rng(8)
        for grid in oracle_grids:
            for cfg in ORACLE_CONFIGS:
                oracle = loop_alignment_scores(grid, cfg)
                every = np.arange(oracle.shape[0])
                assert _alignment_scores(grid, cfg, every).tobytes() == oracle.tobytes()
                some = rng.permutation(every)[:7]
                assert _alignment_scores(grid, cfg, some).tobytes() == oracle[some].tobytes()

    def test_scores_bit_identical_to_two_bincounts(self, oracle_grids):
        # Fully occupied grids read their bin counts from the cache.
        assert sum(grid.occupancy.all() for grid in oracle_grids) >= 5
        for grid in oracle_grids:
            for cfg in ORACLE_CONFIGS:
                every = np.arange(len(_candidate_angles(cfg.yaw_range_deg, cfg.yaw_pitch_deg)))
                want = two_bincount_scores(grid, cfg, every)
                assert _alignment_scores(grid, cfg, every).tobytes() == want.tobytes()
                assert _alignment_scores(grid, cfg, every[::-3]).tobytes() == want[::-3].tobytes()

    def test_full_grid_counts_are_cached_read_only(self):
        key = (CFG.yaw_range_deg, CFG.yaw_pitch_deg, CFG.profile_bin)
        n_bins, rows = _full_grid_counts(*key)
        table = _bin_table(*key)
        assert n_bins == int(table.max()) + 1 and len(rows) == table.shape[0]
        for row, (held, held_sq, n) in zip(table, rows):
            counts = np.bincount(row)
            assert np.array_equal(held, np.flatnonzero(counts))
            assert np.array_equal(held_sq, held + n_bins) and np.array_equal(n, counts[held])
            assert not (held.flags.writeable or held_sq.flags.writeable or n.flags.writeable)
        assert _full_grid_counts(*key)[1] is rows

    def test_yaw_bit_identical_to_full_search(self, oracle_grids, monkeypatch):
        calls = scored_rows(monkeypatch)
        paths = {"coarse_to_fine": 0, "full": 0, "gated": 0}
        for grid in oracle_grids:
            for cfg in ORACLE_CONFIGS:
                calls.clear()
                assert estimate_yaw(grid, cfg).hex() == full_search_yaw(grid, cfg).hex()
                n_rows = sum(rows.size for rows in calls)
                n_candidates = len(_candidate_angles(cfg.yaw_range_deg, cfg.yaw_pitch_deg))
                paths["gated" if n_rows == 0 else "full" if n_rows == n_candidates
                      else "coarse_to_fine"] += 1
        # The corpus takes every path: the occupancy gate, the coarse-to-fine
        # search and the fallback to the full search.
        assert min(paths.values()) > 0, paths

    def test_profile_bit_identical_to_lexsort(self, oracle_grids):
        rng = np.random.default_rng(5)
        for grid in oracle_grids:
            for cfg in ORACLE_CONFIGS:
                yaw = float(rng.uniform(-0.8, 0.8))
                fast = extract_profile(grid, yaw, cfg)
                oracle = lexsort_profile(grid, yaw, cfg)
                assert [a.tobytes() for a in fast] == [a.tobytes() for a in oracle]

    def test_tokens_bit_identical_to_oracle_pipeline(self, oracle_grids, monkeypatch):
        def records():
            out = []
            for grid in oracle_grids:
                for cfg in ORACLE_CONFIGS:
                    est = estimate_token(grid, cfg)
                    out.append(format_token_record(est) + f" {est.next_riser!r}")
            return out

        fast = records()
        monkeypatch.setattr(estimator, "estimate_yaw", full_search_yaw)
        monkeypatch.setattr(estimator, "extract_profile", lexsort_profile)
        assert fast == records()
        assert any(r.split()[0] != "0" for r in fast)

    @pytest.mark.parametrize(
        "cfg,dtype",
        [(EstimatorConfig(), np.uint8), (EstimatorConfig(profile_bin=0.01), np.uint16),
         (EstimatorConfig(profile_bin=1e-5), np.uint32)],
    )
    def test_table_dtype_and_cache(self, cfg, dtype):
        key = (cfg.yaw_range_deg, cfg.yaw_pitch_deg, cfg.profile_bin)
        table = _bin_table(*key)
        assert table.dtype == dtype
        assert table.shape == (len(_candidate_angles(*key[:2])), GRID_SIZE * GRID_SIZE)
        assert table.min() == 0
        assert not table.flags.writeable
        assert _bin_table(*key) is table


class TestCoarseToFineSearch:
    N_CANDIDATES = 91

    def test_clean_flight_scores_27_rows(self, monkeypatch):
        calls = scored_rows(monkeypatch)
        grid = make_grid(robot_heading=math.radians(-7.0), noise=0.01)
        assert estimate_yaw(grid, CFG).hex() == full_search_yaw(grid, CFG).hex()
        rows = np.concatenate(calls)
        assert rows.size == np.unique(rows).size == 27
        assert np.array_equal(calls[0], np.arange(0, self.N_CANDIDATES, estimator.COARSE_STRIDE))

    @pytest.mark.parametrize("noise", [0.0, 0.01], ids=["noise_free", "noisy"])
    def test_flat_grid_takes_full_search(self, monkeypatch, noise):
        grid = flat_grid(noise=noise, seed=3)
        if noise == 0.0:
            assert not loop_alignment_scores(grid, CFG).any()
        calls = scored_rows(monkeypatch)
        assert estimate_yaw(grid, CFG).hex() == full_search_yaw(grid, CFG).hex()
        rows = np.sort(np.concatenate(calls))
        assert np.array_equal(rows, np.arange(self.N_CANDIDATES))

    def test_unscored_neighbour_takes_full_search(self, monkeypatch):
        calls = scored_rows(monkeypatch)
        grid = make_grid(robot_heading=math.radians(-2.0), noise=0.01)
        estimate_yaw(grid, CFG)
        assert sum(rows.size for rows in calls) == 27
        # With a one-row fine window the lowest scored row sits at the
        # window's edge, next to the unscored best two rows off the coarse best.
        monkeypatch.setattr(estimator, "FINE_RADIUS", 1)
        calls.clear()
        assert estimate_yaw(grid, CFG).hex() == full_search_yaw(grid, CFG).hex()
        assert sum(rows.size for rows in calls) == self.N_CANDIDATES

    def test_range_without_far_coarse_rows_takes_full_search(self, monkeypatch):
        cfg = EstimatorConfig(yaw_range_deg=(-4.0, 4.0))
        calls = scored_rows(monkeypatch)
        grid = make_grid(robot_heading=math.radians(-2.0), noise=0.01)
        assert estimate_yaw(grid, cfg).hex() == full_search_yaw(grid, cfg).hex()
        assert sum(rows.size for rows in calls) == 9

    @pytest.mark.parametrize(
        "overrides,best",
        [
            # A second basin, its coarse row under twice the best, hides the minimum.
            ({**{r: 2e-5 for r in range(61, 70)}, 65: 1e-5, 20: 1.5e-5, 22: 5e-6}, 22),
            # Zero (noise-free) lows: the coarse basin at 16-24 deg ties a lone
            # zero at 2 deg, which the full search's tie-break prefers.
            ({**{r: 0.0 for r in range(61, 70)}, 47: 0.0}, 47),
            # A rough fine window (a bump at row 63) hides a lower basin outside.
            ({**{r: 2e-5 for r in range(61, 70)}, 63: 5e-4, 65: 1e-5, 58: 5e-6}, 58),
            # A flat bottom runs past the neighbouring coarse row 70 and dips at 72.
            ({**{r: 2e-5 for r in range(61, 70)}, 65: 1e-5, 70: 1.5e-5, 72: 5e-6}, 72),
        ],
        ids=["second_basin", "zero_low", "rough_window", "flat_bottom"],
    )
    def test_untrusted_basin_takes_full_search(self, monkeypatch, overrides, best):
        """Synthetic landscapes (1e-3 away from the overrides) whose minimum lies
        outside the fine window: each trips one rule and takes the full search."""
        landscape = np.full(self.N_CANDIDATES, 1e-3)
        landscape[list(overrides)] = list(overrides.values())
        calls = []

        def synthetic(grid, cfg, rows):
            calls.append(rows)
            return landscape[rows]

        monkeypatch.setattr(estimator, "_alignment_scores", synthetic)
        angles = _candidate_angles(CFG.yaw_range_deg, CFG.yaw_pitch_deg)
        assert estimate_yaw(make_grid(), CFG) == angles[best]
        assert sum(rows.size for rows in calls) == self.N_CANDIDATES


class TestEstimateYaw:
    def test_aligned_stairs(self):
        grid = make_grid()
        assert abs(math.degrees(estimate_yaw(grid, CFG))) <= 0.5

    def test_rotated_robot_sees_rotated_axis(self):
        # Robot turned by -10 deg: the ascent axis appears at +10 deg.
        grid = make_grid(robot_heading=math.radians(-10.0))
        assert math.degrees(estimate_yaw(grid, CFG)) == pytest.approx(10.0, abs=2.0)

    def test_flat_grid_ties_to_zero(self):
        assert estimate_yaw(flat_grid(), CFG) == 0.0

    def test_low_occupancy_returns_zero(self):
        grid = project(PointCloud(np.array([[0.0, 0.0, 0.1]])))
        assert estimate_yaw(grid, CFG) == 0.0


class TestExtractProfile:
    def test_flat_profile_all_zero(self):
        positions, heights = extract_profile(flat_grid(), 0.0, CFG)
        assert positions.size > 0
        assert np.all(heights == 0.0)

    def test_staircase_plateaus(self):
        grid = make_grid(h=0.12, d=0.30)
        positions, heights = extract_profile(grid, 0.0, CFG)
        # Values sit on multiples of the step height (support-relative).
        plateaus = np.unique(heights)
        for value in plateaus:
            assert value == pytest.approx(0.12 * round(value / 0.12), abs=1e-9)
        assert heights.max() >= 0.36

    def test_empty_bins_skipped(self):
        # Two isolated cells two meters apart leave the gap bins absent.
        cloud = PointCloud(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.5]]))
        positions, heights = extract_profile(project(cloud), 0.0, CFG)
        assert positions.size == 2
        assert np.all(np.diff(positions) > 1.0)


class TestAnalyzeSteps:
    def ideal_profile(self, h, d, n=6, bin_width=0.02):
        # Fine bins so the synthetic riser positions are representable.
        positions = np.arange(-25, 100) * bin_width + bin_width / 2
        heights = h * np.clip(np.floor(positions / d) + 1, 0, n)
        return positions, heights

    def test_flat_profile(self):
        positions = np.arange(30) * 0.05
        res = analyze_steps(positions, np.zeros(30), CFG)
        assert (res.stair_class, res.h_step, res.d_step) == (StairClass.FLAT, 0.0, 0.0)

    def test_ideal_ascending(self):
        positions, heights = self.ideal_profile(0.15, 0.28)
        res = analyze_steps(positions, heights, CFG)
        assert res.stair_class == StairClass.STAIRS_UP
        assert res.h_step == pytest.approx(0.15, abs=0.005)
        assert res.d_step == pytest.approx(0.28, abs=0.01)

    def test_ideal_descending(self):
        positions, heights = self.ideal_profile(0.15, 0.28)
        res = analyze_steps(positions, -heights, CFG)
        assert res.stair_class == StairClass.STAIRS_DOWN
        assert res.h_step == pytest.approx(0.15, abs=0.005)
        assert res.d_step == pytest.approx(0.28, abs=0.01)

    def test_single_riser_is_flat(self):
        positions = np.arange(20) * 0.05
        heights = np.where(positions > 0.5, 0.2, 0.0)
        assert analyze_steps(positions, heights, CFG).stair_class == StairClass.FLAT

    def test_split_riser_merged(self):
        # One riser smeared over two bins: the ramp still counts once and
        # the full height is recovered.
        positions = np.arange(12) * 0.05
        heights = np.array([0, 0, 0, 0.05, 0.12, 0.12, 0.12, 0.17, 0.24, 0.24, 0.24, 0.24])
        res = analyze_steps(positions, heights, CFG)
        assert res.risers_found == 2
        assert res.h_step == pytest.approx(0.12, abs=1e-9)

    def test_sign_conflict_uses_riser_ahead(self):
        positions = np.arange(14) * 0.05
        heights = np.array([0, 0, 0, 0.2, 0.2, 0.2, 0, 0, 0, 0, 0, 0, 0, 0])
        heights = heights + 0.0
        res = analyze_steps(positions, heights, CFG)
        assert res.sign_conflict
        assert res.stair_class == StairClass.STAIRS_UP

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            analyze_steps(np.empty(0), np.empty(0), CFG)


class TestEstimateToken:
    def test_end_to_end_noiseless(self):
        est = estimate_token(make_grid(h=0.12, d=0.30), CFG)
        assert est.token.stair_class == StairClass.STAIRS_UP
        assert est.token.h_step == pytest.approx(0.12, abs=0.005)
        assert est.token.d_step == pytest.approx(0.30, abs=0.01)
        assert abs(math.degrees(est.token.theta)) <= 0.5
        assert est.confidence > 0.9

    def test_empty_grid_flat_zero_confidence(self):
        est = estimate_token(project(PointCloud(np.empty((0, 3)))), CFG)
        assert est.token.stair_class == StairClass.FLAT
        assert est.confidence == 0.0
        assert est.risers_found == 0

    def test_empty_grid_below_a_zero_gate(self):
        # min_occupancy = 0 lets every grid with one occupied cell through,
        # but an empty grid has nothing to score.
        cfg = EstimatorConfig(min_occupancy=0.0)
        grid = project(PointCloud(np.array([[5.0, 5.0, 0.0]])))
        assert not grid.occupancy.any()
        assert estimate_yaw(grid, cfg) == 0.0
        est = estimate_token(grid, cfg)
        assert est.token == TerrainToken(StairClass.FLAT, 0.0, 0.0, 0.0)
        assert est.confidence == 0.0 and est.risers_found == 0

    def test_theta_sign_convention(self):
        # Robot turned +8 deg relative to the stair axis: theta reports +8.
        est = estimate_token(make_grid(robot_heading=math.radians(8.0), h=0.16, d=0.3), CFG)
        assert math.degrees(est.token.theta) == pytest.approx(8.0, abs=2.0)

    def test_flat_grid_flat_token(self):
        est = estimate_token(flat_grid(), CFG)
        assert est.token.stair_class == StairClass.FLAT
        assert est.token.h_step == 0.0 and est.token.d_step == 0.0
        assert est.risers_found == 0


class TestPlausibilityGate:
    @staticmethod
    def lattice_grid(rise, run, x0):
        """Noise-free 2 cm lattice over x in [x0, x0 + 3), y in [-1.5, 1.5).

        Heights are z = floor((x - x0) / run) * rise.
        """
        x, y = np.meshgrid(x0 + 0.02 * np.arange(150), -1.5 + 0.02 * np.arange(150), indexing="ij")
        z = np.floor((x - x0) / run) * rise
        return project(PointCloud(np.column_stack([x.ravel(), y.ravel(), z.ravel()])))

    @pytest.mark.parametrize(
        "rise,run,x0,risers",
        [(0.6, 0.4, 0.0, 3), (0.2, 1.2, -1.5, 2)],
        ids=["too_high", "too_deep"],
    )
    def test_steps_beyond_world_caps_fall_back_to_flat(self, rise, run, x0, risers):
        grid = self.lattice_grid(rise, run, x0)
        # The detector sees the oversized steps; the gate turns them away.
        res = analyze_steps(*extract_profile(grid, estimate_yaw(grid, CFG), CFG), CFG)
        assert res.stair_class == StairClass.STAIRS_UP
        assert res.h_step > MAX_STEP_HEIGHT or res.d_step > MAX_STEP_DEPTH
        est = estimate_token(grid, CFG)
        assert est.token == TerrainToken(StairClass.FLAT, 0.0, 0.0, 0.0)
        assert est.confidence == 0.0 and est.next_riser == 0.0
        assert est.risers_found == risers
        assert format_token_record(est) == f"0 0.0 0.0 0.0 0.0 {risers}"


class TestProperties:
    def test_rotation_equivariance(self):
        for delta_deg in (-20, -10, -4, 4, 10, 20):
            grid = make_grid(robot_heading=math.radians(-delta_deg), h=0.15, d=0.3)
            est = math.degrees(estimate_yaw(grid, CFG))
            assert est == pytest.approx(delta_deg, abs=2.0)

    def test_scale_covariance(self):
        a = estimate_token(make_grid(h=0.10, d=0.30), CFG).token.h_step
        b = estimate_token(make_grid(h=0.20, d=0.30), CFG).token.h_step
        assert b == pytest.approx(2.0 * a, rel=0.05)

    def test_class_mirror_symmetry(self):
        up = estimate_token(make_grid(StairClass.STAIRS_UP, h=0.14, d=0.28), CFG)
        down = estimate_token(make_grid(StairClass.STAIRS_DOWN, h=0.14, d=0.28), CFG)
        assert up.token.stair_class == StairClass.STAIRS_UP
        assert down.token.stair_class == StairClass.STAIRS_DOWN
        assert down.token.h_step == pytest.approx(up.token.h_step, abs=0.01)
        assert down.token.d_step == pytest.approx(up.token.d_step, abs=0.015)

    @pytest.mark.slow
    def test_flat_soundness_under_noise(self):
        # Noise at a quarter of the riser threshold: flat must stay flat.
        sigma = CFG.riser_threshold / 4.0
        flats = 0
        n_seeds = 1000
        for seed in range(n_seeds):
            est = estimate_token(flat_grid(noise=sigma, seed=seed), CFG)
            flats += est.token.stair_class == StairClass.FLAT
        assert flats / n_seeds >= 0.99

    def test_confidence_monotone_in_coverage(self):
        rng = np.random.default_rng(3)
        confidences = []
        for frac in (0.3, 0.6, 1.0):
            n = int(3600 * frac)
            pts = np.column_stack(
                [
                    rng.uniform(-1.5, -1.5 + 3.0 * frac, n),
                    rng.uniform(-1.5, 1.5, n),
                    np.zeros(n),
                ]
            )
            confidences.append(estimate_token(project(PointCloud(pts)), CFG).confidence)
        assert confidences[0] <= confidences[1] <= confidences[2]


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(yaw_pitch_deg=0.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(riser_threshold=-1.0)
        with pytest.raises(ConfigError):
            EstimatorConfig(merge_floor=0.2)
        with pytest.raises(ConfigError):
            EstimatorConfig(yaw_range_deg=(10.0, -10.0))


class TestNextRiser:
    def test_clean_scan_within_one_bin(self):
        # The robot stands at s = -0.5; the first riser is at s = 0.
        for stair_class in (StairClass.STAIRS_UP, StairClass.STAIRS_DOWN):
            est = estimate_token(make_grid(stair_class=stair_class, yaw=0.2, robot_heading=0.2))
            assert est.next_riser == pytest.approx(0.5, abs=CFG.profile_bin)

    def test_flat_token_has_no_riser(self):
        assert estimate_token(flat_grid()).next_riser == 0.0

    def test_nearest_ahead_then_wrap_from_behind(self):
        positions = np.array([-0.62, -0.31, 0.02, 0.33])
        res = StepAnalysis(StairClass.STAIRS_UP, 0.12, 0.31, 4, False, positions)
        assert riser_ahead(res) == 0.02
        behind = StepAnalysis(StairClass.STAIRS_UP, 0.12, 0.30, 2, False, np.array([-0.4, -0.1]))
        assert riser_ahead(behind) == pytest.approx(0.2, abs=1e-12)

    def test_wrap_ahead(self):
        assert wrap_ahead(0.7, 0.3) == 0.7
        assert wrap_ahead(-0.05, 0.3) == pytest.approx(0.25, abs=1e-12)
        assert wrap_ahead(0.0, 0.3) == 0.3
        assert wrap_ahead(-0.65, 0.3) == pytest.approx(0.25, abs=1e-12)
        assert wrap_ahead(-0.1, 0.0) == 0.0
