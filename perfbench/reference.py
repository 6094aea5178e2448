"""Reference computations the benchmark checks the program's outputs against.

Each function recomputes one result from first principles with plain numpy
and never calls into ``stairlab``, so a fault in the program cannot hide
behind the same fault in its check:

* ``spec_truth`` / ``accuracy``: the terrain token a stair spec implies at
  heading 0, and the estimator's accuracy against it;
* ``bev_reference`` / ``grid_mismatch``: per-cell statistics of a point
  cloud, cell by cell;
* ``stair_height`` / ``occluded_exact``: the piecewise-constant heightfield
  and an exact line-of-sight test against it;
* ``gae_reference``: advantages as brute-force sums of discounted TD
  residuals cut at episode ends;
* ``curve_faults``: which curve values a training stage defines.
"""

from __future__ import annotations

import math

import numpy as np

# Acceptance criterion 1 of the estimator: MAE bounds and class accuracy.
MAE_H_M = 0.012
MAE_D_M = 0.014
MAE_THETA_DEG = 3.6
CLASS_ACCURACY = 0.98

# BEV layout: 6 channels over 60 x 60 cells of 0.05 m, centred on the robot.
GRID = 60
CELL = 0.05
HALF = GRID * CELL / 2.0

FLAT, UP, DOWN = 0, 1, 2


def wrap_pi(angle: float) -> float:
    """Angle in (-pi, pi]."""
    a = math.remainder(angle, 2.0 * math.pi)
    return math.pi if a == -math.pi else a


# -- truth from the spec -------------------------------------------------------


def spec_truth(spec) -> tuple[int, float, float, float]:
    """(class, h, d, theta) of a drawn flight seen from its start pose at heading 0.

    Theta is the heading relative to the ascent axis: wrap(0 - stair_yaw).
    """
    return int(spec.stair_class), float(spec.h_step), float(spec.d_step), wrap_pi(-spec.stair_yaw)


def accuracy(truths, tokens) -> dict:
    """MAE of h, d (m) and theta (deg) plus class accuracy, and whether all meet criterion 1.

    ``truths`` holds (class, h, d, theta) tuples, ``tokens`` objects with
    ``stair_class``, ``h_step``, ``d_step`` and ``theta``.
    """
    if len(truths) != len(tokens) or not truths:
        raise ValueError("accuracy needs one token per truth, at least one")
    h_err, d_err, t_err, cls_ok = [], [], [], []
    for (cls, h, d, theta), tok in zip(truths, tokens):
        h_err.append(abs(float(tok.h_step) - h))
        d_err.append(abs(float(tok.d_step) - d))
        t_err.append(abs(wrap_pi(float(tok.theta) - theta)))
        cls_ok.append(int(tok.stair_class) == cls)
    out = {
        "mae_h_m": float(np.mean(h_err)),
        "mae_d_m": float(np.mean(d_err)),
        "mae_theta_deg": math.degrees(float(np.mean(t_err))),
        "class_accuracy": float(np.mean(cls_ok)),
    }
    out["ok"] = (
        out["mae_h_m"] <= MAE_H_M
        and out["mae_d_m"] <= MAE_D_M
        and out["mae_theta_deg"] <= MAE_THETA_DEG
        and out["class_accuracy"] >= CLASS_ACCURACY
    )
    return out


# -- BEV grid ------------------------------------------------------------------


def bev_reference(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(6, 60, 60) statistics and (60, 60) occupancy of a robot-frame cloud.

    Channels: max, min, mean, max - min, population std of z, and cell count
    over the largest cell count. Cells are half-open; empty cells are 0.
    """
    data = np.zeros((6, GRID, GRID))
    occupancy = np.zeros((GRID, GRID), dtype=bool)
    rows = np.floor((points[:, 0] + HALF) / CELL).astype(np.int64)
    cols = np.floor((points[:, 1] + HALF) / CELL).astype(np.int64)
    inside = (rows >= 0) & (rows < GRID) & (cols >= 0) & (cols < GRID)
    if not inside.any():
        return data, occupancy
    flat = rows[inside] * GRID + cols[inside]
    z = points[inside, 2]
    order = np.argsort(flat, kind="stable")
    cells, starts = np.unique(flat[order], return_index=True)
    groups = np.split(z[order], starts[1:])
    max_count = max(len(g) for g in groups)
    for cell, g in zip(cells, groups):
        r, c = divmod(int(cell), GRID)
        hi, lo = float(np.max(g)), float(np.min(g))
        data[:, r, c] = (hi, lo, float(np.mean(g)), hi - lo, float(np.std(g)), len(g) / max_count)
        occupancy[r, c] = True
    return data, occupancy


def grid_mismatch(data, occupancy, ref_data, ref_occupancy) -> float:
    """Largest absolute difference between a grid and its reference; inf if occupancy differs."""
    if not np.array_equal(np.asarray(occupancy, dtype=bool), ref_occupancy):
        return math.inf
    return float(np.max(np.abs(np.asarray(data) - ref_data)))


# -- heightfield and line of sight ------------------------------------------------


def stair_height(spec, s) -> np.ndarray:
    """Terrain height at along-axis positions ``s`` (risers at k * d, k = 0 .. n - 1).

    The tread past riser k sits at (k + 1) h going up and -(k + 1) h going
    down; a query on a riser line takes the higher tread.
    """
    s = np.asarray(s, dtype=float)
    cls = int(spec.stair_class)
    if cls == FLAT:
        return np.zeros_like(s)
    if cls == UP:
        return spec.h_step * np.clip(np.floor(s / spec.d_step) + 1.0, 0.0, spec.n_steps)
    return -spec.h_step * np.clip(np.ceil(s / spec.d_step), 0.0, spec.n_steps)


def along_axis(spec, x, y) -> np.ndarray:
    return (np.asarray(x) - spec.origin_x) * math.cos(spec.stair_yaw) + (
        np.asarray(y) - spec.origin_y
    ) * math.sin(spec.stair_yaw)


def occluded_exact(spec, s0: float, z0: float, s1, z1, tol: float = 1e-9) -> np.ndarray:
    """True where terrain rises more than ``tol`` above the segment from (s0, z0) to (s1, z1).

    The terrain depends only on the along-axis position and is constant
    between risers, and the segment is linear in both s and z. On each
    stretch between riser crossings the segment's lowest point is therefore
    one of the stretch's ends, so testing the tread height against both
    ends of every stretch is exact. The end at the target itself (z1 on its
    own tread) never counts as blocking.
    """
    s1 = np.asarray(s1, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    n = s1.shape[0]
    if int(spec.stair_class) == FLAT:
        risers = np.empty(0)
    else:
        risers = spec.d_step * np.arange(spec.n_steps, dtype=float)
    ds = s1 - s0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (risers[None, :] - s0) / ds[:, None]
    t = np.where((t > 0.0) & (t < 1.0), t, 1.0)
    bounds = np.sort(np.concatenate([np.zeros((n, 1)), t, np.ones((n, 1))], axis=1), axis=1)
    lo, hi = bounds[:, :-1], bounds[:, 1:]
    tread = stair_height(spec, s0 + 0.5 * (lo + hi) * ds[:, None])
    dz = (z1 - z0)[:, None]
    z_lo = z0 + lo * dz
    z_hi = np.where(hi >= 1.0, np.inf, z0 + hi * dz)
    blocked = (hi > lo) & (tread - np.minimum(z_lo, z_hi) > tol)
    return blocked.any(axis=1)


def lattice(window: float, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """Robot-frame sample lattice of the scanning window, half a pitch in from its edges."""
    n = int(round(window / pitch))
    axis = -window / 2.0 + pitch * (np.arange(n) + 0.5)
    u, v = np.meshgrid(axis, axis, indexing="ij")
    return u.ravel(), v.ravel()


def occlusion_audit(spec, pose, window, pitch, sensor_height, kept_points) -> dict:
    """Compare the lattice points a noise-free scan kept against the exact line-of-sight test.

    ``kept_points`` is the scan's robot-frame cloud (z relative to the
    support). Returns the counts of lattice points, points dropped although
    visible (a fault in the scan), kept points whose z is not the terrain's,
    and kept points the exact test calls occluded.
    """
    x0, y0, heading = pose
    u, v = lattice(window, pitch)
    n = int(round(window / pitch))
    idx = np.rint((kept_points[:, 0] + window / 2.0) / pitch - 0.5).astype(np.int64) * n + np.rint(
        (kept_points[:, 1] + window / 2.0) / pitch - 0.5
    ).astype(np.int64)
    kept = np.zeros(u.size, dtype=bool)
    kept[idx] = True

    ch, sh = math.cos(heading), math.sin(heading)
    s1 = along_axis(spec, x0 + u * ch - v * sh, y0 + u * sh + v * ch)
    z1 = stair_height(spec, s1)
    s0 = float(along_axis(spec, x0, y0))
    support = float(stair_height(spec, s0))
    z0 = support + sensor_height
    dropped_visible = ~kept & ~occluded_exact(spec, s0, z0, s1, z1, tol=0.0)
    kept_occluded = kept & occluded_exact(spec, s0, z0, s1, z1)
    wrong_z = np.abs(kept_points[:, 2] - (z1[idx] - support)) > 1e-9
    return {
        "lattice": int(u.size),
        "kept": int(kept.sum()),
        "dropped_visible": int(dropped_visible.sum()),
        "kept_occluded": int(kept_occluded.sum()),
        "wrong_z": int(wrong_z.sum()) + int(idx.size != np.unique(idx).size),
    }


# -- GAE -----------------------------------------------------------------------


def gae_reference(rewards, values, dones, gamma: float, lam: float) -> np.ndarray:
    """A_t = sum_l (gamma lam)^l delta_{t+l}, stopping after the first step that ends an episode.

    delta_t = r_t + gamma V_{t+1} (1 - done_t) - V_t; ``values`` has one
    bootstrap row more than ``rewards``.
    """
    t_max, n = rewards.shape
    adv = np.zeros((t_max, n))
    for i in range(n):
        for t in range(t_max):
            total, coef = 0.0, 1.0
            for k in range(t, t_max):
                done = bool(dones[k, i])
                delta = rewards[k, i] + gamma * values[k + 1, i] * (not done) - values[k, i]
                total += coef * delta
                if done:
                    break
                coef *= gamma * lam
            adv[t, i] = total
    return adv


# -- learning curves -----------------------------------------------------------

PPO_COLUMNS = ("policy_loss", "value_loss", "clip_frac", "kl")
EPISODE_COLUMNS = ("mean_reward", "success_rate", "E_vel")


def curve_faults(rows, stages) -> list[str]:
    """Faults in curve rows against the values each training stage defines.

    ``stages`` lists (n_updates, ppo, terrain) per stage in order: ``ppo``
    rows carry finite PPO statistics, ``terrain`` rows a finite terrain
    loss, and each leaves the other undefined (NaN). Episode statistics are
    finite, or all NaN when no episode ended during the update.
    """
    expected = [(ppo, terrain) for n, ppo, terrain in stages for _ in range(n)]
    if len(rows) != len(expected):
        return [f"{len(rows)} curve rows, expected {len(expected)}"]
    faults = []
    for i, (row, (ppo, terrain)) in enumerate(zip(rows, expected)):
        if row["update"] != i:
            faults.append(f"row {i}: update {row['update']}")
        for col in PPO_COLUMNS:
            if math.isfinite(row[col]) != ppo:
                faults.append(f"row {i}: {col} = {row[col]}")
        if math.isfinite(row["terrain_loss"]) != terrain:
            faults.append(f"row {i}: terrain_loss = {row['terrain_loss']}")
        episode = [row[c] for c in EPISODE_COLUMNS]
        if not (all(map(math.isfinite, episode)) or all(map(math.isnan, episode))):
            faults.append(f"row {i}: episode statistics {episode}")
    return faults


def same_curves(a, b) -> bool:
    """Row-by-row equality, NaN equal to NaN."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.keys() != rb.keys():
            return False
        for k in ra:
            x, y = ra[k], rb[k]
            if not (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))):
                return False
    return True
