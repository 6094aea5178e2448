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
        if self.sample_pitch <= 0.0:
            raise ConfigError("sample_pitch must be positive")
        if self.noise_sigma_z < 0.0:
            raise ConfigError("noise_sigma_z must be non-negative")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1]")
        if self.window <= 0.0:
            raise ConfigError("window must be positive")


def _lattice(model: SensorModel) -> tuple[np.ndarray, np.ndarray]:
    # Half-pitch offset keeps samples strictly inside grid cells, away
    # from cell-boundary rounding when the cloud is later projected.
    half = model.window / 2.0
    n = int(round(model.window / model.sample_pitch))
    axis = -half + model.sample_pitch * (np.arange(n) + 0.5)
    u, v = np.meshgrid(axis, axis, indexing="ij")
    return u.ravel(), v.ravel()


def _line_of_sight_mask(
    profile: TerrainProfile,
    pose: tuple[float, float, float],
    xw: np.ndarray,
    yw: np.ndarray,
    z_true: np.ndarray,
    support: float,
    sensor_height: float,
) -> np.ndarray:
    """True where the segment from the sensor to each surface point is unobstructed.

    The heightfield is constant between risers and the segment is linear,
    so the segment can only pass below the terrain where it crosses a
    riser line, and there the higher of the two treads meeting at the
    riser (its top edge) decides. Crossings at the sensor or at the target
    itself (t = 0 or 1) never block. Exact, in O(N * n_steps).
    """
    spec = profile.spec
    if spec.stair_class == StairClass.FLAT:
        return np.ones(xw.shape[0], dtype=bool)
    risers = profile.riser_positions()
    k = np.arange(spec.n_steps, dtype=float)
    # Computed from the spec rather than queried at the riser position,
    # where rounding could resolve to the lower tread.
    if spec.stair_class == StairClass.STAIRS_UP:
        edges = spec.h_step * (k + 1.0)
    else:
        edges = -spec.h_step * k

    s0 = float(profile._along_axis(pose[0], pose[1]))
    z0 = support + sensor_height
    ds = profile._along_axis(xw, yw) - s0
    with np.errstate(divide="ignore", invalid="ignore"):
        # ds == 0 (a ray along the risers) gives inf or nan, never in (0, 1).
        t = (risers[None, :] - s0) / ds[:, None]
        ray_z = z0 + t * (z_true - z0)[:, None]
    blocked = (t > 0.0) & (t < 1.0) & (edges[None, :] - ray_z > 1e-9)
    return ~blocked.any(axis=1)


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
    xw = x + u * cos_h - v * sin_h
    yw = y + u * sin_h + v * cos_h
    z = profile.height_at(xw, yw)
    support = profile.height_at(x, y)

    if model.occlusion:
        keep = _line_of_sight_mask(profile, robot_pose, xw, yw, z, support, model.sensor_height)
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
