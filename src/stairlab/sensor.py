"""Robot-centric terrain scanning with Gaussian depth noise and dropout."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .world import StairClass, TerrainProfile


@dataclass(frozen=True)
class PointCloud:
    """Robot-centric 3-D samples, (N, 3) float64: x forward, y left, z up."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"point cloud must have shape (N, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SensorModel:
    """Square scanning window sampled on a regular lattice in the robot frame.

    Noise is applied to z only (depth-like). With ``occlusion`` enabled,
    lattice points without line of sight from a sensor ``sensor_height``
    above the robot's support point are removed.
    """

    window: float = 3.0
    sample_pitch: float = 0.02
    noise_sigma_z: float = 0.01
    dropout_rate: float = 0.0
    occlusion: bool = False
    sensor_height: float = 1.2

    def __post_init__(self) -> None:
        for name in ("window", "sample_pitch", "noise_sigma_z", "dropout_rate", "sensor_height"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.sample_pitch <= 0.0:
            raise ConfigError("sample_pitch must be positive")
        if self.noise_sigma_z < 0.0:
            raise ConfigError("noise_sigma_z must be non-negative")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1]")
        if self.window <= 0.0:
            raise ConfigError("window must be positive")
        if self.sensor_height <= 0.0:
            raise ConfigError("sensor_height must be positive")


def _lattice(model: SensorModel) -> tuple[np.ndarray, np.ndarray]:
    # Half-pitch offset keeps samples strictly inside grid cells, away
    # from cell-boundary rounding when the cloud is later projected.
    half = model.window / 2.0
    n = int(round(model.window / model.sample_pitch))
    axis = -half + model.sample_pitch * (np.arange(n) + 0.5)
    u, v = np.meshgrid(axis, axis, indexing="ij")
    return u.ravel(), v.ravel()


# Within this distance below the 1e-9 threshold the margins at the ends
# of a riser run cannot settle a ray (see ``_line_of_sight_mask``). The
# rounding of a margin is orders of magnitude smaller.
_NEAR_THRESHOLD = 1e-10


def _line_of_sight_mask(
    profile: TerrainProfile, s0: float, s: np.ndarray, z_true: np.ndarray, z0: float
) -> np.ndarray:
    """True where the segment from the sensor to each surface point is unobstructed.

    The sensor sits at along-axis position ``s0`` and height ``z0``, the
    surface points at ``s`` and ``z_true``. The heightfield is constant
    between risers and the segment is linear, so the segment can only pass
    below the terrain where it crosses a riser line, and there the higher
    of the two treads meeting at the riser (its top edge) decides: riser k
    blocks where t_k = (r_k - s0) / ds lies in (0, 1) and its edge stands
    more than 1e-9 above the ray at t_k. Crossings at the sensor or at the
    target itself (t = 0 or 1) never block.

    Only risers with r_k - s0 strictly between 0 and ds can have t_k in
    (0, 1); they form a run of consecutive k, found by a binary search.
    The margin ``edge_k - ray_z(t_k)`` is affine in k, because the edges
    and the riser positions are, so it peaks at an end of the run, and
    each ray tests the two ends. The ray is settled there when an end
    blocks, or when both ends have t in (0, 1) and margins more than
    ``_NEAR_THRESHOLD`` below the threshold, out of reach of rounding.
    Otherwise (an end's t underflows to 0, or a margin lies just below
    the threshold) it tests every riser of the run. Rays that cross no
    riser, ds == 0 among them, are not tested. The mask equals the test
    of every ray against every riser bit for bit, and the cost falls from
    O(N * n_steps) to O(N log n_steps).
    """
    spec = profile.spec
    visible = np.ones(s.shape[0], dtype=bool)
    if spec.stair_class == StairClass.FLAT:
        return visible
    k = np.arange(spec.n_steps, dtype=float)
    # Computed from the spec rather than queried at the riser position,
    # where rounding could resolve to the lower tread.
    if spec.stair_class == StairClass.STAIRS_UP:
        edges = spec.h_step * (k + 1.0)
    else:
        edges = -spec.h_step * k

    ahead = profile.riser_positions() - s0
    ds = s - s0
    # Risers behind the sensor (ahead < 0) and not ahead of it (ahead <= 0).
    behind = int(np.searchsorted(ahead, 0.0, side="left"))
    not_ahead = int(np.searchsorted(ahead, 0.0, side="right"))
    first_ahead = ahead[not_ahead] if not_ahead < ahead.size else np.inf
    last_behind = ahead[behind - 1] if behind else -np.inf
    crossing = np.flatnonzero((ds > first_ahead) | (ds < last_behind))
    ds = ds[crossing]
    forward = ds > 0.0
    lo = np.where(forward, not_ahead, np.searchsorted(ahead, ds, side="right"))
    hi = np.where(forward, np.searchsorted(ahead, ds, side="left") - 1, behind - 1)
    rise = z_true[crossing] - z0

    def margin(k, ds, rise):
        # Height of the edge of riser k above the ray; nan where t is off (0, 1).
        t = ahead[k] / ds
        m = edges[k] - (z0 + t * rise)
        m[(t <= 0.0) | (t >= 1.0)] = np.nan
        return m

    first, last = margin(lo, ds, rise), margin(hi, ds, rise)
    blocked = (first > 1e-9) | (last > 1e-9)
    settled = (first <= 1e-9 - _NEAR_THRESHOLD) & (last <= 1e-9 - _NEAR_THRESHOLD)
    for i in np.flatnonzero(~blocked & ~settled):
        run = margin(np.arange(lo[i], hi[i] + 1), ds[i], rise[i])
        blocked[i] = bool(np.any(run > 1e-9))
    visible[crossing[blocked]] = False
    return visible


def scan(
    profile: TerrainProfile,
    robot_pose: tuple[float, float, float],
    model: SensorModel,
    seed,
) -> PointCloud:
    """Scan the terrain around a robot pose (x, y, heading).

    Every lattice point of the sensing window is transformed to the world,
    queried against the exact heightfield, perturbed with independent
    Gaussian z-noise, and returned in the robot frame with z relative to
    the robot's current support height. Deterministic per seed.
    """
    x, y, heading = robot_pose
    if not all(math.isfinite(v) for v in (x, y, heading)):
        raise ValueError("robot pose must be finite")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    u, v = _lattice(model)
    cos_h, sin_h = math.cos(heading), math.sin(heading)
    s = profile._along_axis(x + u * cos_h - v * sin_h, y + u * sin_h + v * cos_h)
    z = profile.height_on_axis(s)
    support = profile.height_at(x, y)

    if model.occlusion:
        s0 = float(profile._along_axis(x, y))
        keep = _line_of_sight_mask(profile, s0, s, z, support + model.sensor_height)
        u, v, z = u[keep], v[keep], z[keep]

    if model.noise_sigma_z > 0.0:
        z = z + rng.normal(0.0, model.noise_sigma_z, size=z.shape)

    cloud = PointCloud(np.column_stack([u, v, z - support]))
    if model.dropout_rate > 0.0:
        cloud = dropout(cloud, model.dropout_rate, rng)
    return cloud


def dropout(cloud: PointCloud, rate: float, seed) -> PointCloud:
    """Remove each point independently with probability ``rate``; order preserved."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1], got {rate}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    keep = rng.random(len(cloud)) >= rate
    return PointCloud(cloud.points[keep])
