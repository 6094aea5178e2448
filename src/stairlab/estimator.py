"""Analytic terrain-token estimation from a BEV grid.

The estimator recovers the explicit stair parameters in three steps:

1. yaw search: find the axis direction along which binned cell heights
   have the least within-bin variance (treads are level lines, so the
   variance collapses when the projection axis matches the ascent axis);
2. profile extraction: median cell height per along-axis bin;
3. step analysis: threshold successive profile jumps into risers, then
   aggregate median |jump| and median riser spacing.

The yaw search scores candidate axes coarse to fine. The coarse pass
scores every fifth candidate (19 of the 91 at the default config); the
fine pass scores the candidates within 4 of the coarse best, 27 in all.
The result stands only when one basin stands out:

- the best coarse score is below half of every coarse score at least two
  coarse steps away;
- the fine scores fall to their lowest and then rise, never turning back;
- the lowest score found is below half of both neighbouring coarse scores;
- both lows lie above rounding noise (a noise-free grid can score zero at
  several separate axes, and the tie among them goes to the axis closest
  to zero, wherever it lies).

Otherwise (flat ground, where all axes score alike; a rough or
flat-bottomed basin; a zero score), and whenever the parabolic
refinement needs a neighbour that was not scored, every candidate is
scored. Each score reads the same table row either way, so the chosen
axis equals the full search's whenever the accepted basin holds the
global minimum.

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

# Coarse-to-fine yaw search: the coarse pass scores every COARSE_STRIDE-th
# candidate axis, the fine pass those within FINE_RADIUS of the coarse best,
# and BASIN_RATIO sets when that basin stands out (module docstring). Scores
# below SCORE_FLOOR times the largest squared cell height are rounding noise.
COARSE_STRIDE = 5
FINE_RADIUS = 4
BASIN_RATIO = 0.5
SCORE_FLOOR = 1e-12


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


@functools.lru_cache(maxsize=8)
def _full_grid_counts(
    yaw_range_deg: tuple[float, float], yaw_pitch_deg: float, bin_width: float
) -> tuple[int, tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
    """Bin counts of a fully occupied grid, for every row of ``_bin_table``.

    Returns the number of bins the table spans (its largest bin plus one)
    and, per table row, the bins that hold cells in bin order, the same
    bins shifted by that number, and their cell counts as floats. All
    read-only; the counts are whole numbers, so a score that divides by
    them has the bits of one that counts its bins itself.
    """
    table = _bin_table(yaw_range_deg, yaw_pitch_deg, bin_width)
    n_bins = int(table.max()) + 1
    rows = []
    for row in table:
        counts = np.bincount(row, minlength=n_bins)
        held = np.flatnonzero(counts)
        arrays = (held, held + n_bins, counts[held].astype(float))
        for a in arrays:
            a.flags.writeable = False
        rows.append(arrays)
    return n_bins, tuple(rows)


def _alignment_scores(grid: BevGrid, cfg: EstimatorConfig, rows: np.ndarray) -> np.ndarray:
    """Mean within-bin variance of cell heights along the candidate axes ``rows``.

    The table rows are taken in one call, and their occupied columns in one
    more unless every cell is occupied; then each row's bin counts come
    from ``_full_grid_counts``. One ``bincount`` per row sums z into bins
    ``b`` and z * z into bins ``n_bins + b``. Each bin adds its values in
    the order of a loop over ``table[row, cells]``, so every score is the
    same to the bit as with one ``bincount`` per sum.
    """
    key = (tuple(cfg.yaw_range_deg), cfg.yaw_pitch_deg, cfg.profile_bin)
    table = _bin_table(*key)
    n_bins, full_counts = _full_grid_counts(*key)
    z = grid.data[CH_MEAN].ravel()
    block = table[rows]
    full = grid.occupancy.all()
    if not full:
        cells = np.flatnonzero(grid.occupancy)
        z = z[cells]
        block = np.take(block, cells, axis=1)
    m = z.shape[0]
    weights = np.concatenate([z, z * z])
    bins = np.empty(2 * m, dtype=np.intp)
    scores = np.empty(rows.shape[0])
    for i, row in enumerate(rows.tolist()):
        bins[:m] = block[i]
        bins[m:] = block[i]
        bins[m:] += n_bins
        both = np.bincount(bins, weights=weights, minlength=2 * n_bins)
        if full:
            held, held_sq, n = full_counts[row]
        else:
            counts = np.bincount(bins[:m], minlength=n_bins)
            held = np.flatnonzero(counts)
            held_sq, n = held + n_bins, counts[held]
        mean = both[held] / n
        var = np.maximum(both[held_sq] / n - mean * mean, 0.0)
        # var.mean(), without its Python-level overhead.
        scores[i] = np.add.reduce(var) / var.size
    return scores


def _lowest(angles: np.ndarray, scores: np.ndarray, rows: np.ndarray) -> int:
    """Row of the lowest score among ``rows``; exact ties go to the angle closest to zero."""
    s = scores[rows]
    tied = rows[s == s.min()]
    return int(tied[np.lexsort((angles[tied], np.abs(angles[tied])))[0]])


def _stands_out(low: float, walls: np.ndarray, floor: float) -> bool:
    """Whether ``low`` is above the rounding-noise ``floor`` and below BASIN_RATIO of each wall."""
    return bool(floor < low and np.all(low < BASIN_RATIO * walls))


def _one_basin(s: np.ndarray) -> bool:
    """Whether ``s`` falls to its lowest value and rises after it, never turning back."""
    d = np.diff(s)
    j = int(np.argmin(s))
    return bool(np.all(d[:j] <= 0.0) and np.all(d[j:] >= 0.0))


def _below_gate(grid: BevGrid, cfg: EstimatorConfig) -> bool:
    """Whether too few cells are occupied to estimate from; an empty grid always is."""
    occupancy = grid.occupancy.mean()
    return occupancy < cfg.min_occupancy or occupancy == 0.0


def estimate_yaw(grid: BevGrid, cfg: EstimatorConfig) -> float:
    """Ascent-axis direction in the robot frame, radians.

    Coarse-to-fine search over the candidate axes (see the module
    docstring), refined by parabolic interpolation around the minimum.
    Exact score ties resolve to the candidate closest to zero; degenerate
    grids (below the occupancy gate, or empty) return 0.
    """
    if _below_gate(grid, cfg):
        return 0.0
    angles = _candidate_angles(cfg.yaw_range_deg, cfg.yaw_pitch_deg)
    n = angles.shape[0]
    scores = np.empty(n)
    scored = np.zeros(n, dtype=bool)

    def score(rows: np.ndarray) -> None:
        rows = rows[~scored[rows]]
        scores[rows] = _alignment_scores(grid, cfg, rows)
        scored[rows] = True

    coarse = np.arange(0, n, COARSE_STRIDE)
    score(coarse)
    c = _lowest(angles, scores, coarse)
    steps = np.abs(coarse - c) // COARSE_STRIDE
    z = grid.data[CH_MEAN][grid.occupancy]
    floor = SCORE_FLOOR * float(np.max(z * z, initial=0.0))
    k = None
    if (steps >= 2).any() and _stands_out(scores[c], scores[coarse[steps >= 2]], floor):
        fine = np.arange(max(c - FINE_RADIUS, 0), min(c + FINE_RADIUS + 1, n))
        score(fine)
        k = _lowest(angles, scores, np.flatnonzero(scored))
        # A rough or flat-bottomed basin can dip again past the fine window.
        near = scores[coarse[steps == 1]]
        if not (_one_basin(scores[fine]) and _stands_out(scores[k], near, floor)):
            k = None
    if k is None or (0 < k < n - 1 and not (scored[k - 1] and scored[k + 1])):
        # No basin stands out, or the refinement needs an unscored neighbour
        # (possible only when FINE_RADIUS < COARSE_STRIDE - 1).
        score(np.arange(n))
        k = _lowest(angles, scores, np.arange(n))

    phi = angles[k]
    if 0 < k < n - 1:
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
    if _below_gate(grid, cfg):
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
