"""Parametric stair worlds: generation, exact heightfield queries, ground-truth tokens.

World conventions used throughout the package:

* right-handed world frame, z up, angles in radians, lengths in meters;
* a staircase is a straight flight whose ascent axis points along
  ``stair_yaw``; risers are zero-thickness vertical discontinuities at
  along-axis positions ``k * d_step`` for ``k = 0 .. n_steps - 1``
  (measured from ``origin``), infinite in lateral extent;
* the tread reached after the k-th riser sits at height ``k * h_step``
  (descending flights mirror this with negative increments);
* queries exactly on a riser line resolve to the higher tread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .errors import ConfigError

MAX_STEP_HEIGHT = 0.5
MAX_STEP_DEPTH = 1.0

TWO_PI = 2.0 * math.pi


class StairClass(IntEnum):
    FLAT = 0
    STAIRS_UP = 1
    STAIRS_DOWN = 2


def wrap_pi(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = math.fmod(angle + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


@dataclass(frozen=True)
class StairSpec:
    """Ground-truth description of one terrain instance.

    Flat terrain carries ``h_step == d_step == 0`` by convention; stair
    classes require strictly positive step height and depth.
    """

    stair_class: StairClass
    h_step: float
    d_step: float
    stair_yaw: float
    n_steps: int
    lead_flat: float
    tail_flat: float
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self) -> None:
        if self.stair_class == StairClass.FLAT:
            if self.h_step != 0.0 or self.d_step != 0.0:
                raise ConfigError("flat terrain requires h_step == d_step == 0")
        else:
            if self.h_step <= 0.0 or self.d_step <= 0.0:
                raise ConfigError("stair terrain requires positive h_step and d_step")
        if self.h_step > MAX_STEP_HEIGHT or self.d_step > MAX_STEP_DEPTH:
            raise ConfigError(
                f"step geometry exceeds caps ({MAX_STEP_HEIGHT} m / {MAX_STEP_DEPTH} m)"
            )
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.lead_flat < 0.0 or self.tail_flat < 0.0:
            raise ConfigError("lead/tail flats must be non-negative")
        if not -math.pi < self.stair_yaw <= math.pi:
            raise ConfigError("stair_yaw must lie in (-pi, pi]")

    def to_text(self) -> str:
        """Serialize as flat key-value text, one field per line (SI units, radians)."""
        pairs = [("class", int(self.stair_class))]
        pairs += [(f.name, getattr(self, f.name)) for f in fields(self)[1:]]
        return "".join(f"{key} = {value!r}\n" for key, value in pairs)


@dataclass(frozen=True)
class TerrainToken:
    """Explicit 4-component terrain descriptor: class, step height/depth, relative yaw."""

    stair_class: StairClass
    h_step: float
    d_step: float
    theta: float

    def as_vector(self) -> np.ndarray:
        """Class one-hot followed by (h, d, theta); length 6."""
        vec = np.zeros(6)
        vec[int(self.stair_class)] = 1.0
        vec[3] = self.h_step
        vec[4] = self.d_step
        vec[5] = self.theta
        return vec


@dataclass(frozen=True)
class TerrainProfile:
    """Piecewise-constant heightfield realized from a StairSpec."""

    spec: StairSpec

    def _along_axis(self, x, y):
        s = self.spec
        return (np.asarray(x, dtype=float) - s.origin_x) * math.cos(s.stair_yaw) + (
            np.asarray(y, dtype=float) - s.origin_y
        ) * math.sin(s.stair_yaw)

    def height_on_axis(self, s):
        """Height as a function of signed along-axis distance past the first riser."""
        spec = self.spec
        s = np.asarray(s, dtype=float)
        if spec.stair_class == StairClass.FLAT:
            out = np.zeros_like(s)
        elif spec.stair_class == StairClass.STAIRS_UP:
            k = np.clip(np.floor(s / spec.d_step) + 1.0, 0.0, spec.n_steps)
            out = spec.h_step * k
        else:
            k = np.clip(np.ceil(s / spec.d_step), 0.0, spec.n_steps)
            out = -spec.h_step * k
        return float(out) if out.ndim == 0 else out

    def height_at(self, x, y):
        """Terrain height at world (x, y); total function, accepts arrays."""
        return self.height_on_axis(self._along_axis(x, y))

    def riser_positions(self) -> np.ndarray:
        """Along-axis positions of the riser lines (empty for flat terrain)."""
        spec = self.spec
        if spec.stair_class == StairClass.FLAT:
            return np.empty(0)
        return spec.d_step * np.arange(spec.n_steps, dtype=float)

    def next_riser_distance(self, s: float) -> float:
        """Along-axis distance from ``s`` to the first riser strictly ahead; 0 past the last."""
        ahead = self.riser_positions()
        ahead = ahead[ahead > s]
        return float(ahead[0] - s) if ahead.size else 0.0


@dataclass(frozen=True)
class ParameterRanges:
    """Uniform sampling intervals for procedural stair generation.

    ``class_weights`` orders (flat, stairs-up, stairs-down). Degenerate
    intervals (lo == hi) pin a parameter.
    """

    h_step: tuple[float, float] = (0.12, 0.16)
    d_step: tuple[float, float] = (0.25, 0.35)
    stair_yaw: tuple[float, float] = (-0.3490658503988659, 0.3490658503988659)
    n_steps: tuple[int, int] = (6, 9)
    lead_flat: tuple[float, float] = (1.0, 1.0)
    tail_flat: tuple[float, float] = (0.8, 0.8)
    origin_x: tuple[float, float] = (0.0, 0.0)
    origin_y: tuple[float, float] = (0.0, 0.0)
    class_weights: tuple[float, float, float] = (0.0, 1.0, 0.0)
    h_choices: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("h_step", "d_step", "stair_yaw", "n_steps", "lead_flat", "tail_flat"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"range {name}: min {lo} exceeds max {hi}")
        if self.h_step[0] < 0 or self.d_step[0] < 0:
            raise ConfigError("step ranges must be non-negative")
        if self.h_step[1] > MAX_STEP_HEIGHT or self.d_step[1] > MAX_STEP_DEPTH:
            raise ConfigError("step ranges exceed generation caps")
        if self.n_steps[0] < 1:
            raise ConfigError("n_steps range must start at >= 1")
        if self.lead_flat[0] < 0 or self.tail_flat[0] < 0:
            raise ConfigError("flat lengths must be non-negative")
        if any(w < 0 for w in self.class_weights) or sum(self.class_weights) <= 0:
            raise ConfigError("class weights must be non-negative with positive sum")
        if self.h_choices is not None:
            if not self.h_choices:
                raise ConfigError("h_choices must be non-empty when given")
            if min(self.h_choices) <= 0 or max(self.h_choices) > MAX_STEP_HEIGHT:
                raise ConfigError("h_choices outside generation caps")


@functools.cache
def _class_cdf(weights: tuple[float, float, float]) -> np.ndarray:
    """Cumulative class probabilities, built as ``Generator.choice(3, p=...)`` builds them.

    A draw of one ``rng.random()`` against this table picks the class that
    ``choice`` picks from the same stream, without re-checking the weights.
    """
    p = np.asarray(weights, dtype=float)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def generate_stairs(seed, ranges: ParameterRanges) -> StairSpec:
    """Draw a StairSpec uniformly from ``ranges``; deterministic per seed.

    The draw order is fixed (class, h, d, yaw, n, lead, tail, origin) so a
    given seed always yields the same spec. A flat class draw forces
    h_step = d_step = 0.
    """
    rng = np.random.default_rng(seed)
    cdf = _class_cdf(tuple(ranges.class_weights))
    stair_class = StairClass(int(cdf.searchsorted(rng.random(), side="right")))
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
    return StairSpec(
        stair_class=stair_class,
        h_step=h,
        d_step=d,
        stair_yaw=wrap_pi(yaw),
        n_steps=n,
        lead_flat=lead,
        tail_flat=tail,
        origin_x=ox,
        origin_y=oy,
    )


def ground_truth_token(
    spec: StairSpec,
    robot_heading: float,
    robot_xy: tuple[float, float],
    window: float,
) -> TerrainToken:
    """Privileged terrain token for a robot pose.

    The token reports stair geometry only when the robot-centric
    ``window`` x ``window`` square (the sensing extent; callers pass the
    sensor's ``window``) contains at least one riser line; otherwise it
    degrades to the flat convention. Theta is the robot heading relative
    to the ascent axis, wrapped into (-pi, pi]; on flat terrain it is the
    robot heading itself.
    """
    if spec.stair_class == StairClass.FLAT:
        return TerrainToken(StairClass.FLAT, 0.0, 0.0, wrap_pi(robot_heading))

    half = window / 2.0
    cos_h, sin_h = math.cos(robot_heading), math.sin(robot_heading)
    cos_a, sin_a = math.cos(spec.stair_yaw), math.sin(spec.stair_yaw)
    cx, cy = robot_xy
    s_center = (cx - spec.origin_x) * cos_a + (cy - spec.origin_y) * sin_a
    # Support of the rotated square window along the ascent axis.
    reach = half * (abs(cos_h * cos_a + sin_h * sin_a) + abs(-sin_h * cos_a + cos_h * sin_a))
    s_lo, s_hi = s_center - reach, s_center + reach
    k_lo = math.ceil(s_lo / spec.d_step)
    k_hi = math.floor(s_hi / spec.d_step)
    has_riser = k_lo <= k_hi and k_hi >= 0 and k_lo <= spec.n_steps - 1
    if not has_riser:
        return TerrainToken(StairClass.FLAT, 0.0, 0.0, wrap_pi(robot_heading))
    return TerrainToken(
        spec.stair_class, spec.h_step, spec.d_step, wrap_pi(robot_heading - spec.stair_yaw)
    )
