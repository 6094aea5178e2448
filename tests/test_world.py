import math

import numpy as np
import pytest

from stairlab.errors import ConfigError
from stairlab.world import (
    MAX_STEP_HEIGHT,
    _as_rng,
    ParameterRanges,
    StairClass,
    StairSpec,
    TerrainProfile,
    TerrainToken,
    generate_stairs,
    ground_truth_token,
    wrap_pi,
)


def spec_from_text(text: str) -> StairSpec:
    """Read back ``StairSpec.to_text``: one ``key = value`` line per field."""
    values = dict(line.split(" = ", 1) for line in text.splitlines())
    stair_class = StairClass(int(values.pop("class")))
    fields = {k: int(v) if k == "n_steps" else float(v) for k, v in values.items()}
    return StairSpec(stair_class, **fields)


def frozen_generate_stairs(seed, ranges: ParameterRanges) -> StairSpec:
    """Oracle: ``generate_stairs`` as it was, drawing the class with ``rng.choice``."""
    rng = _as_rng(seed)
    weights = np.asarray(ranges.class_weights, dtype=float)
    weights = weights / weights.sum()
    stair_class = StairClass(int(rng.choice(3, p=weights)))
    if ranges.h_choices is not None:
        h = float(rng.choice(np.asarray(ranges.h_choices, dtype=float)))
    else:
        h = rng.uniform(*ranges.h_step)
    d = rng.uniform(*ranges.d_step)
    yaw = rng.uniform(*ranges.stair_yaw)
    n = int(rng.integers(ranges.n_steps[0], ranges.n_steps[1] + 1))
    lead = rng.uniform(*ranges.lead_flat)
    tail = rng.uniform(*ranges.tail_flat)
    ox = rng.uniform(*ranges.origin_x)
    oy = rng.uniform(*ranges.origin_y)
    if stair_class == StairClass.FLAT:
        h = 0.0
        d = 0.0
    return StairSpec(stair_class, h, d, wrap_pi(yaw), n, lead, tail, ox, oy)


def up_spec(h=0.12, d=0.30, yaw=0.0, n=8, lead=1.0, tail=1.0):
    return StairSpec(StairClass.STAIRS_UP, h, d, yaw, n, lead, tail)


class TestGenerate:
    def test_same_seed_identical(self):
        ranges = ParameterRanges(
            h_step=(0.12, 0.16),
            d_step=(0.25, 0.35),
            stair_yaw=(math.radians(-20), math.radians(20)),
        )
        assert generate_stairs(7, ranges) == generate_stairs(7, ranges)

    def test_draws_within_ranges(self):
        ranges = ParameterRanges(h_step=(0.12, 0.16), d_step=(0.25, 0.35))
        for seed in range(50):
            spec = generate_stairs(seed, ranges)
            assert 0.12 <= spec.h_step <= 0.16
            assert 0.25 <= spec.d_step <= 0.35
            assert spec.stair_class == StairClass.STAIRS_UP

    def test_flat_class_forces_zero_geometry(self):
        ranges = ParameterRanges(class_weights=(1.0, 0.0, 0.0))
        spec = generate_stairs(3, ranges)
        assert spec.stair_class == StairClass.FLAT
        assert spec.h_step == 0.0 and spec.d_step == 0.0

    def test_uniform_sampler_mean(self):
        # Law of large numbers on the height draw.
        ranges = ParameterRanges(h_step=(0.12, 0.16))
        rng = np.random.default_rng(123)
        heights = [generate_stairs(rng, ranges).h_step for _ in range(10_000)]
        assert abs(np.mean(heights) - 0.14) < 0.002

    def test_h_choices_draws_from_set(self):
        ranges = ParameterRanges(h_choices=(0.12, 0.14, 0.16))
        rng = np.random.default_rng(5)
        drawn = {generate_stairs(rng, ranges).h_step for _ in range(100)}
        assert drawn == {0.12, 0.14, 0.16}

    @pytest.mark.parametrize(
        "ranges",
        [
            ParameterRanges(),
            ParameterRanges(class_weights=(0.2, 0.5, 0.3)),
            ParameterRanges(class_weights=(1.0, 2.0, 7.0), h_choices=(0.12, 0.14, 0.16)),
            ParameterRanges(class_weights=(0.0, 0.5, 0.5), h_step=(0.1, 0.25)),
            ParameterRanges(
                class_weights=(1.0, 0.0, 3.0),
                h_step=(0.14, 0.14),
                d_step=(0.3, 0.3),
                stair_yaw=(0.1, 0.1),
                n_steps=(7, 7),
                origin_x=(-1.0, 2.0),
            ),
        ],
        ids=["default", "three_classes", "h_choices", "up_or_down", "pinned"],
    )
    def test_class_draw_matches_generator_choice(self, ranges):
        # The class comes from one rng.random() against a cached cdf; the
        # specs and the rest of the stream equal those of rng.choice.
        for seed in range(4):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(500):
                assert generate_stairs(new, ranges) == frozen_generate_stairs(old, ranges)
            assert new.random() == old.random()
        assert generate_stairs(11, ranges) == frozen_generate_stairs(11, ranges)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            ParameterRanges(h_step=(0.2, 0.1))
        with pytest.raises(ConfigError):
            ParameterRanges(h_step=(-0.1, 0.1))
        with pytest.raises(ConfigError):
            ParameterRanges(h_step=(0.1, MAX_STEP_HEIGHT + 0.1))
        with pytest.raises(ConfigError):
            ParameterRanges(class_weights=(0.0, 0.0, 0.0))


class TestStairSpec:
    def test_flat_convention_enforced(self):
        with pytest.raises(ConfigError):
            StairSpec(StairClass.FLAT, 0.1, 0.0, 0.0, 1, 1.0, 1.0)
        with pytest.raises(ConfigError):
            StairSpec(StairClass.STAIRS_UP, 0.0, 0.3, 0.0, 1, 1.0, 1.0)

    def test_text_round_trip(self):
        spec = up_spec(h=0.1375, d=0.2921, yaw=-0.173)
        assert spec_from_text(spec.to_text()) == spec

    def test_class_serialized_as_integer(self):
        text = up_spec().to_text()
        assert "class = 1" in text


class TestHeightAt:
    def test_flat_everywhere_zero(self):
        profile = TerrainProfile(
            StairSpec(StairClass.FLAT, 0.0, 0.0, 0.3, 1, 1.0, 1.0)
        )
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(100, 2))
        assert np.all(profile.height_at(pts[:, 0], pts[:, 1]) == 0.0)

    def test_two_risers_crossed(self):
        # Risers at x = 0 and x = 0.30; x = 0.45 sits on the third tread.
        profile = TerrainProfile(up_spec(h=0.12, d=0.30))
        assert profile.height_at(0.45, 0.0) == pytest.approx(0.24, abs=1e-12)

    def test_lead_flat_is_zero(self):
        profile = TerrainProfile(up_spec(h=0.12, d=0.30))
        assert profile.height_at(-0.1, 0.0) == 0.0

    def test_tail_clamps_at_top(self):
        profile = TerrainProfile(up_spec(h=0.12, d=0.30, n=3))
        assert profile.height_at(10.0, 0.0) == pytest.approx(0.36, abs=1e-12)

    def test_down_mirrors_up(self):
        down = TerrainProfile(
            StairSpec(StairClass.STAIRS_DOWN, 0.12, 0.30, 0.0, 3, 1.0, 1.0)
        )
        assert down.height_at(0.45, 0.0) == pytest.approx(-0.24, abs=1e-12)
        assert down.height_at(-0.1, 0.0) == 0.0
        assert down.height_at(10.0, 0.0) == pytest.approx(-0.36, abs=1e-12)

    def test_riser_line_resolves_to_higher_tread(self):
        up = TerrainProfile(up_spec(h=0.12, d=0.30))
        assert up.height_at(0.0, 0.0) == pytest.approx(0.12, abs=1e-12)
        assert up.height_at(0.30, 0.0) == pytest.approx(0.24, abs=1e-12)
        down = TerrainProfile(
            StairSpec(StairClass.STAIRS_DOWN, 0.12, 0.30, 0.0, 3, 1.0, 1.0)
        )
        assert down.height_at(0.0, 0.0) == 0.0
        assert down.height_at(0.30, 0.0) == pytest.approx(-0.12, abs=1e-12)

    def test_yawed_staircase_uses_axis_distance(self):
        yaw = math.radians(30)
        profile = TerrainProfile(up_spec(h=0.15, d=0.28, yaw=yaw))
        # Walk 0.5 m along the ascent axis: past riser 0 and riser at 0.28.
        x, y = 0.5 * math.cos(yaw), 0.5 * math.sin(yaw)
        assert profile.height_at(x, y) == pytest.approx(0.30, abs=1e-12)
        # Lateral moves never change the height.
        lx, ly = -math.sin(yaw), math.cos(yaw)
        assert profile.height_at(x + 2 * lx, y + 2 * ly) == pytest.approx(0.30, abs=1e-12)

    def test_piecewise_constant_off_riser(self):
        profile = TerrainProfile(up_spec(h=0.13, d=0.27, yaw=0.2))
        rng = np.random.default_rng(42)
        risers = profile.riser_positions()
        checked = 0
        while checked < 200:
            x, y = rng.uniform(-2, 4), rng.uniform(-2, 2)
            s = (x * math.cos(0.2)) + (y * math.sin(0.2))
            if np.min(np.abs(s - risers)) < 1e-6:
                continue
            base = profile.height_at(x, y)
            for dx, dy in ((1e-7, 0), (-1e-7, 0), (0, 1e-7), (0, -1e-7)):
                assert profile.height_at(x + dx, y + dy) == base
            checked += 1

    def test_monotone_along_ascent_axis(self):
        profile = TerrainProfile(up_spec(h=0.12, d=0.30))
        s = np.linspace(-1.0, 4.0, 2001)
        heights = profile.height_on_axis(s)
        assert np.all(np.diff(heights) >= 0.0)


class TestWrapPi:
    def test_wrap_near_pi_difference(self):
        # heading just below +pi vs stair yaw just above -pi: the small
        # -0.1 difference must come out, not 2*pi - 0.1.
        spec = up_spec(yaw=-math.pi + 0.05)
        token = ground_truth_token(spec, math.pi - 0.05, (0.0, 0.0), window=3.0)
        assert token.theta == pytest.approx(-0.1, abs=1e-12)

    def test_wrap_grid(self):
        for heading_deg in range(-180, 181, 1):
            a = wrap_pi(math.radians(heading_deg))
            assert -math.pi < a <= math.pi

    def test_difference_grid_stays_in_range(self):
        degs = range(-180, 181, 15)
        for h in degs:
            for y in degs:
                theta = wrap_pi(math.radians(h) - math.radians(y))
                assert -math.pi < theta <= math.pi


class TestGroundTruthToken:
    def test_copies_geometry_near_stairs(self):
        spec = up_spec(h=0.15, d=0.28, yaw=0.0)
        token = ground_truth_token(spec, 0.1, (0.0, 0.0), window=3.0)
        assert token == TerrainToken(StairClass.STAIRS_UP, 0.15, 0.28, pytest.approx(0.1))

    def test_flat_spec_reports_heading(self):
        spec = StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0)
        token = ground_truth_token(spec, 0.25, (0.0, 0.0), window=3.0)
        assert token == TerrainToken(StairClass.FLAT, 0.0, 0.0, 0.25)

    def test_window_without_risers_degrades_to_flat(self):
        spec = up_spec(h=0.15, d=0.28, yaw=0.0, n=4, lead=10.0)
        far = ground_truth_token(spec, 0.0, (-5.0, 0.0), window=3.0)
        assert far.stair_class == StairClass.FLAT
        assert far.h_step == 0.0 and far.d_step == 0.0
        near = ground_truth_token(spec, 0.0, (-0.5, 0.0), window=3.0)
        assert near.stair_class == StairClass.STAIRS_UP

    def test_window_sets_the_sensing_extent(self):
        # The first riser is 1.2 m ahead: inside a 3 m window, outside a 2 m one.
        spec = up_spec(lead=2.0)
        wide = ground_truth_token(spec, 0.0, (-1.2, 0.0), window=3.0)
        narrow = ground_truth_token(spec, 0.0, (-1.2, 0.0), window=2.0)
        assert (wide.stair_class, narrow.stair_class) == (StairClass.STAIRS_UP, StairClass.FLAT)

    def test_window_past_stairs_degrades_to_flat(self):
        spec = up_spec(h=0.15, d=0.28, yaw=0.0, n=3, tail=10.0)
        past = ground_truth_token(spec, 0.0, (3 * 0.28 + 2.0, 0.0), window=3.0)
        assert past.stair_class == StairClass.FLAT

    def test_token_vector_layout(self):
        token = TerrainToken(StairClass.STAIRS_DOWN, 0.1, 0.3, -0.2)
        vec = token.as_vector()
        assert vec.shape == (6,)
        assert list(vec[:3]) == [0.0, 0.0, 1.0]
        assert tuple(vec[3:]) == (0.1, 0.3, -0.2)
