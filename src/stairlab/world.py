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
from typing import Annotated

import numpy as np

from .errors import ConfigError, Count, Finite, Interval, NonNegative, Ordered, check_domains

MAX_STEP_HEIGHT = 0.5
MAX_STEP_DEPTH = 1.0

# The height and depth of one step, and the ends of a range of either.
StepHeight = Annotated[float, Interval(0.0, MAX_STEP_HEIGHT, open_lo=True)]
StepDepth = Annotated[float, Interval(0.0, MAX_STEP_DEPTH, open_lo=True)]
HeightBound = Annotated[float, Interval(0.0, MAX_STEP_HEIGHT)]
DepthBound = Annotated[float, Interval(0.0, MAX_STEP_DEPTH)]

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


class TerrainProfile:
    """Piecewise-constant heightfield realized from a StairSpec.

    The one owner of the flight's geometry: riser k at ``d * k``, the tread
    heights, and the rule that a point on a riser line takes the higher
    tread. Array queries serve the scan; float queries serve the stepper
    on Python floats, with the same IEEE operations, so both give the same
    bits. The flight's scalars are computed once, ``n_risers`` being 0 on
    flat terrain, as is ``start_s``, the middle of the lead flat.
    """

    __slots__ = ("spec", "flat", "up", "h", "d", "n_risers", "start_s")

    def __init__(self, spec: StairSpec):
        self.spec = spec
        self.flat = spec.stair_class == StairClass.FLAT
        self.up = spec.stair_class == StairClass.STAIRS_UP
        self.h, self.d = float(spec.h_step), float(spec.d_step)
        self.n_risers = 0 if self.flat else spec.n_steps
        self.start_s = -spec.lead_flat / 2.0

    def along_axis(self, x, y, out=None):
        """Signed along-axis distance of world (x, y) past the first riser; accepts arrays.

        With ``out``, an array of the result's shape, the result is written
        there and ``y``, which must then be a float array, is overwritten
        on the way, so that no temporary is made.
        """
        s = self.spec
        if out is None:
            return (np.asarray(x, dtype=float) - s.origin_x) * math.cos(s.stair_yaw) + (
                np.asarray(y, dtype=float) - s.origin_y
            ) * math.sin(s.stair_yaw)
        np.subtract(x, s.origin_x, out=out)
        out *= math.cos(s.stair_yaw)
        y -= s.origin_y
        y *= math.sin(s.stair_yaw)
        out += y
        return out

    def start_pose(self) -> tuple[float, float, float]:
        """World pose at ``start_s`` on the ascent axis, facing along the world x-axis."""
        spec, s0 = self.spec, self.start_s
        ca, sa = math.cos(spec.stair_yaw), math.sin(spec.stair_yaw)
        return spec.origin_x + s0 * ca, spec.origin_y + s0 * sa, 0.0

    def height_on_axis(self, s, out=None):
        """Height as a function of signed along-axis distance past the first riser.

        With ``out``, an array of ``s``'s shape, the heights are written
        there, with the same bits, and ``out`` is returned.
        """
        s = np.asarray(s, dtype=float)
        if out is None:
            out = np.empty_like(s)
        if self.flat:
            out[...] = 0.0
        elif self.up:
            np.divide(s, self.d, out=out)
            np.floor(out, out=out)
            out += 1.0
            np.clip(out, 0.0, self.n_risers, out=out)
            out *= self.h
        else:
            np.divide(s, self.d, out=out)
            np.ceil(out, out=out)
            np.clip(out, 0.0, self.n_risers, out=out)
            out *= -self.h
        return float(out) if out.ndim == 0 else out

    def height_at(self, x, y):
        """Terrain height at world (x, y); total function, accepts arrays."""
        return self.height_on_axis(self.along_axis(x, y))

    def tread_runs(self, s: float, ds: float, u) -> list[tuple[int, int, float]]:
        """Samples ``u[k] * ds + s``, u rising from 0 to 1, by tread: (first k, last k, height).

        On stairs only. Each run's end is guessed from its riser and corrected
        on the samples, whose heights are ``height``'s (a zero's sign may differ).
        """
        n, d, top = len(u) - 1, self.d, self.n_risers
        rnd, off, h = (math.floor, 1, self.h) if self.up else (math.ceil, 0, -self.h)

        def tread(k):
            t = rnd((u[k] * ds + s) / d) + off
            return 0 if t < 0 else top if t > top else t

        runs, k, v, v_n = [], 0, tread(0), tread(n)
        while v != v_n:
            # Tread v ends at riser v going up the axis, at riser v - 1 going down.
            g = (d * (v if ds > 0.0 else v - 1) - s) / ds * n
            end = math.ceil(g) if k < g < n else k + 1 if g <= k else n
            while tread(end - 1) != v:
                end -= 1
            while (w := tread(end)) == v:
                end += 1
            runs.append((k, end - 1, h * v))
            k, v = end, w
        runs.append((k, n, h * v))
        return runs

    def riser_positions(self) -> np.ndarray:
        """Along-axis positions of the riser lines (empty for flat terrain)."""
        return self.d * np.arange(self.n_risers, dtype=float)

    def riser_tops(self) -> np.ndarray:
        """Each riser's top edge, the higher tread; a query at the riser may round to the lower."""
        k = np.arange(self.n_risers, dtype=float)
        return self.h * (k + 1.0) if self.up else -self.h * k

    def height(self, s: float) -> float:
        """``height_on_axis(s)`` on a float."""
        if self.flat:
            return 0.0
        q = s / self.d
        if self.up:
            return self.h * min(max(math.floor(q) + 1.0, 0.0), self.n_risers)
        # np.ceil keeps the sign of a zero result (ceil(-0.5) is -0.0), and
        # np.clip, like max(), keeps a -0.0 at the lower bound 0.
        return -self.h * min(max(math.copysign(math.ceil(q), q), 0.0), self.n_risers)

    def riser_ahead(self, s: float) -> int:
        """Index k of the first riser strictly ahead of ``s``; the riser count past the last.

        Riser k lies at ``d * k``, the product ``riser_positions`` forms, so
        the strict test agrees with ``riser_positions() > s`` at every
        boundary. 0 on flat terrain.
        """
        return _risers_through(self.d, self.n_risers, s)

    def next_riser(self, s: float) -> float:
        """Along-axis distance from ``s`` to the first riser strictly ahead; 0 past the last."""
        k = self.riser_ahead(s)
        return self.d * k - s if k < self.n_risers else 0.0

    def edge_gap(self, s: float) -> float:
        """Distance from ``s`` to the nearest riser line; ``inf`` on flat terrain."""
        # The nearest riser is the last one behind s or the first ahead.
        k = self.riser_ahead(s)
        gap = abs(s - self.d * (k - 1)) if k > 0 else math.inf
        if k < self.n_risers:
            gap = min(gap, abs(s - self.d * k))
        return gap


def _risers_through(d: float, n: int, s: float) -> int:
    """How many of the risers at ``d * k``, k = 0 .. n - 1, lie at or behind ``s``.

    The float search behind ``TerrainProfile.riser_ahead``: a guess from
    ``s / d``, corrected by the products themselves.
    """
    if not n:
        return 0
    k = min(max(math.floor(s / d) + 1, 0), n)
    while k > 0 and d * (k - 1) > s:
        k -= 1
    while k < n and d * k <= s:
        k += 1
    return k


@dataclass(frozen=True)
class ParameterRanges:
    """Uniform sampling intervals for procedural stair generation.

    ``class_weights`` orders (flat, stairs-up, stairs-down). Degenerate
    intervals (lo == hi) pin a parameter.
    """

    h_step: Ordered[HeightBound] = (0.12, 0.16)
    d_step: Ordered[DepthBound] = (0.25, 0.35)
    stair_yaw: Ordered[Finite] = (-0.3490658503988659, 0.3490658503988659)
    n_steps: Ordered[Count] = (6, 9)
    lead_flat: Ordered[NonNegative] = (1.0, 1.0)
    tail_flat: Ordered[NonNegative] = (0.8, 0.8)
    origin_x: Ordered[Finite] = (0.0, 0.0)
    origin_y: Ordered[Finite] = (0.0, 0.0)
    class_weights: tuple[NonNegative, NonNegative, NonNegative] = (0.0, 1.0, 0.0)
    h_choices: tuple[StepHeight, ...] | None = None

    def __post_init__(self) -> None:
        check_domains(self, "[world] ")
        if sum(self.class_weights) <= 0:
            raise ConfigError("[world] weight_flat, weight_up and weight_down must not all be 0")


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
    sensor's ``window``) contains at least one riser line, at the riser
    positions ``TerrainProfile`` uses, edges included; otherwise it
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
    # A riser at d * k, placed as the profile places it, lies in [s_lo, s_hi]
    # when fewer risers lie below s_lo than at or below s_hi.
    below = _risers_through(spec.d_step, spec.n_steps, math.nextafter(s_lo, -math.inf))
    if below == _risers_through(spec.d_step, spec.n_steps, s_hi):
        return TerrainToken(StairClass.FLAT, 0.0, 0.0, wrap_pi(robot_heading))
    return TerrainToken(
        spec.stair_class, spec.h_step, spec.d_step, wrap_pi(robot_heading - spec.stair_yaw)
    )
