"""Analytic terrain-token estimation from a BEV grid.

The estimator recovers the explicit stair parameters in three steps:

1. yaw search: find the axis direction along which binned cell heights
   have the least within-bin variance (treads are level lines, so the
   variance collapses when the projection axis matches the ascent axis);
2. profile extraction: median cell height per along-axis bin;
3. step analysis: threshold successive profile jumps into risers, then
   aggregate median |jump| and median riser spacing.

Reported theta is the robot heading relative to the terrain direction,
i.e. the negative of the estimated ascent-axis angle in the robot frame.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bev import CH_MEAN, GRID_SIZE, BevGrid, cell_centers, key_value_order
from .errors import ConfigError
from .world import MAX_STEP_DEPTH, MAX_STEP_HEIGHT, StairClass, TerrainToken, wrap_pi


@dataclass(frozen=True)
class EstimatorConfig:
    yaw_range_deg: tuple[float, float] = (-45.0, 45.0)
    yaw_pitch_deg: float = 1.0
    profile_bin: float = 0.05
    riser_threshold: float = 0.06
    merge_floor: float = 0.01
    min_risers_for_stairs: int = 2
    min_occupancy: float = 0.10

    def __post_init__(self) -> None:
        if self.yaw_pitch_deg <= 0.0:
            raise ConfigError("yaw_pitch_deg must be positive")
        if self.riser_threshold <= 0.0:
            raise ConfigError("riser_threshold must be positive")
        if not 0.0 < self.merge_floor < self.riser_threshold:
            raise ConfigError("merge_floor must lie in (0, riser_threshold)")
        if self.profile_bin <= 0.0:
            raise ConfigError("profile_bin must be positive")
        if self.yaw_range_deg[0] > self.yaw_range_deg[1]:
            raise ConfigError("yaw range is inverted")


@dataclass(frozen=True)
class TokenEstimate:
    """Estimated token plus diagnostics; ``next_riser`` is 0 unless the token is stairs."""

    token: TerrainToken
    confidence: float
    risers_found: int
    next_riser: float = 0.0


def _occupied_cells(grid: BevGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, cols = np.nonzero(grid.occupancy)
    cx, cy = cell_centers(rows, cols)
    return cx, cy, grid.data[CH_MEAN, rows, cols]


def _candidate_angles(yaw_range_deg: tuple[float, float], yaw_pitch_deg: float) -> np.ndarray:
    lo, hi = yaw_range_deg
    n = int(round((hi - lo) / yaw_pitch_deg))
    return np.radians(lo + yaw_pitch_deg * np.arange(n + 1))


def _axis_bins(cx: np.ndarray, cy: np.ndarray, phi: float, bin_width: float) -> np.ndarray:
    """Along-axis bin of each cell center for the axis at angle ``phi``."""
    s = cx * math.cos(phi) + cy * math.sin(phi)
    return np.floor(s / bin_width).astype(np.int64)


@functools.lru_cache(maxsize=8)
def _bin_table(
    yaw_range_deg: tuple[float, float], yaw_pitch_deg: float, bin_width: float
) -> np.ndarray:
    """Along-axis bin of every grid cell for every candidate angle.

    Shape (n_angles, GRID_SIZE**2), columns in row-major cell order. The
    bins are shifted by the table's minimum, which keeps their order, and
    stored read-only in the smallest unsigned type that holds them; the
    table is filled row by row, so no wider copy of it is ever made.
    """
    angles = _candidate_angles(yaw_range_deg, yaw_pitch_deg)
    cx, cy = cell_centers(*np.divmod(np.arange(GRID_SIZE * GRID_SIZE), GRID_SIZE))
    # Each bin is monotone in cx and in cy (rounding is monotone), so every
    # row's extreme bins lie at corner cells.
    corners = [0, GRID_SIZE - 1, GRID_SIZE * (GRID_SIZE - 1), GRID_SIZE * GRID_SIZE - 1]
    ends = np.array([_axis_bins(cx[corners], cy[corners], phi, bin_width) for phi in angles])
    lo = ends.min()
    table = np.empty((angles.shape[0], cx.shape[0]), dtype=np.min_scalar_type(ends.max() - lo))
    for i, phi in enumerate(angles):
        table[i] = _axis_bins(cx, cy, phi, bin_width) - lo
    table.flags.writeable = False
    return table


def _alignment_scores(grid: BevGrid, cfg: EstimatorConfig) -> np.ndarray:
    """Mean within-bin variance of cell heights for each candidate axis."""
    table = _bin_table(tuple(cfg.yaw_range_deg), cfg.yaw_pitch_deg, cfg.profile_bin)
    cells = np.flatnonzero(grid.occupancy)
    z = grid.data[CH_MEAN].ravel()[cells]
    zz = z * z
    scores = np.empty(table.shape[0])
    for i, row in enumerate(table):
        bins = row[cells]
        counts = np.bincount(bins)
        sums = np.bincount(bins, weights=z)
        sumsq = np.bincount(bins, weights=zz)
        occupied = counts > 0
        n = counts[occupied]
        mean = sums[occupied] / n
        var = np.maximum(sumsq[occupied] / n - mean * mean, 0.0)
        scores[i] = var.mean()
    return scores


def estimate_yaw(grid: BevGrid, cfg: EstimatorConfig) -> float:
    """Ascent-axis direction in the robot frame, radians.

    Coarse grid search refined by parabolic interpolation around the
    minimum. Exact score ties resolve to the candidate closest to zero;
    degenerate grids (below the occupancy gate) return 0.
    """
    if grid.occupancy.mean() < cfg.min_occupancy:
        return 0.0
    angles = _candidate_angles(cfg.yaw_range_deg, cfg.yaw_pitch_deg)
    scores = _alignment_scores(grid, cfg)

    best = scores.min()
    tied = np.flatnonzero(scores == best)
    k = int(tied[np.lexsort((angles[tied], np.abs(angles[tied])))[0]])

    phi = angles[k]
    if 0 < k < angles.shape[0] - 1:
        s_prev, s_mid, s_next = scores[k - 1], scores[k], scores[k + 1]
        denom = s_prev - 2.0 * s_mid + s_next
        if denom > 0.0:
            offset = 0.5 * (s_prev - s_next) / denom
            pitch = math.radians(cfg.yaw_pitch_deg)
            phi += float(np.clip(offset, -1.0, 1.0)) * pitch
    return float(phi)


def extract_profile(
    grid: BevGrid, yaw: float, cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """1-D elevation profile along the axis at ``yaw``.

    Returns (positions, heights): the center of every occupied bin and the
    median of its cells' mean-z values. Bins without cells are skipped.
    """
    if not grid.occupancy.any():
        return np.empty(0), np.empty(0)
    cx, cy, z = _occupied_cells(grid)
    bins = _axis_bins(cx, cy, yaw, cfg.profile_bin)

    order = key_value_order(bins, z)
    bins, z = bins[order], z[order]
    starts = np.flatnonzero(np.r_[True, np.diff(bins) != 0])
    counts = np.diff(np.r_[starts, bins.size])
    # Lower median of each sorted segment: a bin straddling a riser then
    # reports one tread decisively instead of an averaged half-step, which
    # would split the riser's jump below the detection threshold.
    medians = z[starts + (counts - 1) // 2]
    positions = (bins[starts] + 0.5) * cfg.profile_bin
    return positions, medians


@dataclass(frozen=True)
class StepAnalysis:
    stair_class: StairClass
    h_step: float
    d_step: float
    risers_found: int
    sign_conflict: bool
    riser_positions: np.ndarray


def analyze_steps(
    positions: np.ndarray, heights: np.ndarray, cfg: EstimatorConfig
) -> StepAnalysis:
    """Detect risers in a profile and aggregate step height/depth.

    A riser is a maximal run of adjacent same-sign profile differences
    (each above ``merge_floor``) whose summed height change exceeds the
    riser threshold. Merging adjacent differences matters: cells crossed
    by a riser line carry intermediate mean heights, so one physical
    riser can smear into a ramp of sub-threshold steps.
    """
    if positions.size == 0:
        raise ValueError("profile is empty")
    if positions.size == 1:
        return StepAnalysis(StairClass.FLAT, 0.0, 0.0, 0, False, np.empty(0))

    dz = np.diff(heights)
    mid = 0.5 * (positions[:-1] + positions[1:])
    signs = np.sign(dz) * (np.abs(dz) > cfg.merge_floor)

    riser_dz: list[float] = []
    riser_pos: list[float] = []
    i = 0
    n = dz.size
    while i < n:
        if signs[i] == 0:
            i += 1
            continue
        j = i
        while j + 1 < n and signs[j + 1] == signs[i]:
            j += 1
        run = slice(i, j + 1)
        total = float(dz[run].sum())
        if abs(total) > cfg.riser_threshold:
            w = np.abs(dz[run])
            riser_dz.append(total)
            riser_pos.append(float(np.dot(mid[run], w) / w.sum()))
        i = j + 1

    if not riser_dz:
        return StepAnalysis(StairClass.FLAT, 0.0, 0.0, 0, False, np.empty(0))

    n_risers = len(riser_dz)
    if n_risers < cfg.min_risers_for_stairs:
        return StepAnalysis(StairClass.FLAT, 0.0, 0.0, n_risers, False, np.asarray(riser_pos))

    signs = np.sign(riser_dz)
    n_up = int((signs > 0).sum())
    n_down = int((signs < 0).sum())
    conflict = n_up == n_down
    if conflict:
        # No majority: fall back to the nearest riser ahead of the robot.
        pos = np.asarray(riser_pos)
        ahead = np.flatnonzero(pos >= 0.0)
        pick = int(ahead[np.argmin(pos[ahead])]) if ahead.size else int(np.argmin(np.abs(pos)))
        stair_class = StairClass.STAIRS_UP if riser_dz[pick] > 0 else StairClass.STAIRS_DOWN
    elif n_up > n_down:
        stair_class = StairClass.STAIRS_UP
    else:
        stair_class = StairClass.STAIRS_DOWN

    h = float(np.median(np.abs(riser_dz)))
    d = float(np.median(np.diff(np.sort(riser_pos))))
    return StepAnalysis(stair_class, h, d, n_risers, conflict, np.asarray(riser_pos))


def wrap_ahead(distance: float, d_step: float) -> float:
    """Distance to the next riser ahead, given one at ``distance`` on a ``d_step`` pitch.

    A riser at or behind the robot (``distance <= 0``) is advanced by whole
    step depths into (0, d_step]; without a positive pitch that case is 0.
    """
    if distance > 0.0:
        return distance
    if d_step <= 0.0:
        return 0.0
    return distance + d_step * (math.floor(-distance / d_step) + 1.0)


def riser_ahead(res: StepAnalysis) -> float:
    """Along-axis distance from the robot (the profile origin) to the first riser ahead.

    With no detected riser ahead, the last one behind is carried forward
    by the estimated step depth. 0 when no riser was detected.
    """
    risers = res.riser_positions
    if risers.size == 0:
        return 0.0
    ahead = risers[risers > 0.0]
    if ahead.size:
        return float(ahead.min())
    return wrap_ahead(float(risers.max()), res.d_step)


def riser_ahead_on_axis(grid: BevGrid, yaw: float, cfg: EstimatorConfig) -> float:
    """``riser_ahead`` of the profile along the axis at ``yaw``."""
    positions, heights = extract_profile(grid, yaw, cfg)
    if positions.size == 0:
        return 0.0
    return riser_ahead(analyze_steps(positions, heights, cfg))


def estimate_token(grid: BevGrid, cfg: EstimatorConfig | None = None) -> TokenEstimate:
    """Full pipeline: yaw, profile, step analysis, confidence."""
    cfg = cfg or EstimatorConfig()
    if grid.occupancy.mean() < cfg.min_occupancy:
        return TokenEstimate(TerrainToken(StairClass.FLAT, 0.0, 0.0, 0.0), 0.0, 0)

    yaw = estimate_yaw(grid, cfg)
    positions, heights = extract_profile(grid, yaw, cfg)
    res = analyze_steps(positions, heights, cfg)

    span = positions.max() - positions.min()
    n_span = max(1, int(round(span / cfg.profile_bin)) + 1)
    coverage = min(1.0, positions.size / n_span)
    confidence = coverage * (0.5 if res.sign_conflict else 1.0)

    theta = wrap_pi(-yaw)
    if res.h_step > MAX_STEP_HEIGHT or res.d_step > MAX_STEP_DEPTH:
        # Steps beyond the world caps are no stairs the pipeline can meet:
        # report flat at zero confidence; the riser count stays as the clue.
        confidence = 0.0
    elif res.stair_class != StairClass.FLAT:
        token = TerrainToken(res.stair_class, res.h_step, res.d_step, theta)
        return TokenEstimate(token, float(confidence), res.risers_found, riser_ahead(res))
    flat = TerrainToken(StairClass.FLAT, 0.0, 0.0, theta)
    return TokenEstimate(flat, float(confidence), res.risers_found)


def format_token_record(est: TokenEstimate) -> str:
    """Single-line record: class, h_step, d_step, theta, confidence, risers."""
    t = est.token
    return (
        f"{int(t.stair_class)} {t.h_step!r} {t.d_step!r} {t.theta!r} "
        f"{est.confidence!r} {est.risers_found}"
    )
