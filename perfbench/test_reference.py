"""Tests of the benchmark's reference computations, on hand-built cases.

Each reference must accept a right answer and reject a deliberately wrong
one. Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from stairlab.bev import project
from stairlab.ppo import gae
from stairlab.sensor import PointCloud


def flight(cls, h=0.2, d=0.3, n=3, yaw=0.0):
    return SimpleNamespace(
        stair_class=cls, h_step=h, d_step=d, stair_yaw=yaw, n_steps=n,
        lead_flat=1.0, origin_x=0.0, origin_y=0.0,
    )


def token(cls, h, d, theta):
    return SimpleNamespace(stair_class=cls, h_step=h, d_step=d, theta=theta)


# -- truth from the spec -------------------------------------------------------


def test_truth_is_spec_geometry_and_negated_yaw():
    assert reference.spec_truth(flight(reference.UP, 0.15, 0.3, yaw=0.2)) == (1, 0.15, 0.3, -0.2)
    assert reference.spec_truth(flight(reference.DOWN, yaw=math.pi))[3] == math.pi


def test_exact_tokens_meet_criterion_1():
    truths = [(1, 0.15, 0.3, -0.2), (2, 0.2, 0.27, 0.1)]
    acc = reference.accuracy(truths, [token(*t) for t in truths])
    assert acc["ok"] and acc["mae_h_m"] == 0.0 and acc["class_accuracy"] == 1.0


def test_theta_error_wraps_across_pi():
    acc = reference.accuracy([(1, 0.15, 0.3, math.pi - 0.001)], [token(1, 0.15, 0.3, -math.pi + 0.001)])
    assert acc["mae_theta_deg"] == pytest.approx(math.degrees(0.002))
    assert acc["ok"]


@pytest.mark.parametrize(
    "wrong",
    [
        token(1, 0.20, 0.3, -0.2),  # h off by 5 cm
        token(1, 0.15, 0.35, -0.2),  # d off by 5 cm
        token(1, 0.15, 0.3, -0.2 + math.radians(5.0)),  # theta off by 5 deg
        token(2, 0.15, 0.3, -0.2),  # wrong class
    ],
)
def test_wrong_token_fails_criterion_1(wrong):
    assert not reference.accuracy([(1, 0.15, 0.3, -0.2)], [wrong])["ok"]


# -- BEV per-cell reference ----------------------------------------------------


def test_bev_reference_by_hand():
    pts = np.array(
        [
            [0.01, 0.01, 0.0],
            [0.02, 0.03, 1.0],
            [0.04, 0.04, 2.0],  # three points in cell (30, 30)
            [-1.49, 1.49, 5.0],  # one point in cell (0, 59)
            [1.5, 0.0, 9.0],  # on the far boundary: outside
        ]
    )
    data, occ = reference.bev_reference(pts)
    assert occ.sum() == 2 and occ[30, 30] and occ[0, 59]
    np.testing.assert_allclose(data[:, 30, 30], [2.0, 0.0, 1.0, 2.0, math.sqrt(2.0 / 3.0), 1.0])
    np.testing.assert_allclose(data[:, 0, 59], [5.0, 5.0, 5.0, 0.0, 0.0, 1.0 / 3.0])
    assert not data[:, ~occ].any()


def test_bev_reference_matches_project_and_rejects_an_altered_cell():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-1.6, 1.6, (5000, 2)), rng.normal(0.0, 0.3, 5000)])
    grid = project(PointCloud(pts))
    ref_data, ref_occ = reference.bev_reference(pts)
    assert reference.grid_mismatch(grid.data, grid.occupancy, ref_data, ref_occ) <= 1e-9

    r, c = np.argwhere(grid.occupancy)[7]
    altered = grid.data.copy()
    altered[0, r, c] += 1e-6
    assert reference.grid_mismatch(altered, grid.occupancy, ref_data, ref_occ) > 1e-9
    occ = grid.occupancy.copy()
    occ[r, c] = False
    assert reference.grid_mismatch(grid.data, occ, ref_data, ref_occ) == math.inf


# -- heightfield and exact line of sight ----------------------------------------


def test_stair_height_treads_and_riser_lines():
    up, down = flight(reference.UP), flight(reference.DOWN)
    s = np.array([-0.1, 0.0, 0.15, 0.3, 0.45, 0.6, 2.0])
    np.testing.assert_allclose(reference.stair_height(up, s), [0, 0.2, 0.2, 0.4, 0.4, 0.6, 0.6])
    np.testing.assert_allclose(reference.stair_height(down, s), [0, 0, -0.2, -0.2, -0.4, -0.4, -0.6])


def test_line_of_sight_by_hand():
    # Sensor 1.2 m above the lead flat at s = -0.5; risers at 0, 0.3, 0.6.
    up, down = flight(reference.UP), flight(reference.DOWN)
    occluded = reference.occluded_exact
    assert not occluded(up, -0.5, 1.2, np.array([0.15, 0.65]), np.array([0.2, 0.6])).any()
    # Just past the second drop, the ray passes 0.18 m below the edge at s = 0.3.
    assert occluded(down, -0.5, 1.2, np.array([0.31]), np.array([-0.4]))[0]
    # Further out on the same tread the ray clears that edge.
    assert not occluded(down, -0.5, 1.2, np.array([0.59]), np.array([-0.4]))[0]
    # A tread above the sensor is seen from below: occluded by its own edge.
    assert occluded(up, -0.5, 0.1, np.array([0.45]), np.array([0.4]))[0]


def test_grazing_ray_is_occluded_where_a_2cm_march_misses_it():
    down = flight(reference.DOWN)
    s0, z0, z1 = -0.5, 1.2, -0.4
    # A target on the tread past s = 0.3 whose ray passes 1 mm below that edge (z = -0.2).
    s1 = s0 + (0.3 - s0) * (z1 - z0) / (-0.2 - 0.001 - z0)
    assert 0.3 < s1 < 0.6
    assert reference.occluded_exact(down, s0, z0, np.array([s1]), np.array([z1]))[0]
    # The blocked stretch is about half a millimetre long, so 2 cm samples step over it.
    ts = np.linspace(0.0, 1.0, int(math.ceil((s1 - s0) / 0.02)) + 1)[1:-1]
    march = reference.stair_height(down, s0 + ts * (s1 - s0)) > z0 + ts * (z1 - z0) + 1e-9
    assert not march.any()


def test_exact_line_of_sight_contains_a_fine_march():
    rng = np.random.default_rng(5)
    for cls in (reference.UP, reference.DOWN):
        spec = flight(cls, h=0.25, d=0.26, n=9)
        s1 = rng.uniform(-1.5, 3.0, 400)
        z1 = reference.stair_height(spec, s1)
        exact = reference.occluded_exact(spec, -0.5, 1.2, s1, z1)
        ts = np.linspace(0.0, 1.0, 20001)[1:-1]
        path_s = -0.5 + np.outer(s1 + 0.5, ts)
        path_z = 1.2 + np.outer(z1 - 1.2, ts)
        fine = (reference.stair_height(spec, path_s) > path_z + 1e-9).any(axis=1)
        assert exact.sum() > 50
        assert not (fine & ~exact).any()
        assert (exact & ~fine).sum() <= 2


def _lattice_scan(spec, keep_fn):
    """Robot-frame cloud of a 1 m window at 0.1 m pitch, keeping the points keep_fn selects."""
    u, v = reference.lattice(1.0, 0.1)
    s1 = u - 0.2  # robot at s = -0.2, heading 0 along the ascent axis
    z1 = reference.stair_height(spec, s1)
    keep = keep_fn(reference.occluded_exact(spec, -0.2, 1.2, s1, z1))
    return np.column_stack([u, v, z1])[keep]


def test_occlusion_audit_accepts_an_exact_scan_and_counts_faults():
    spec = flight(reference.DOWN, h=0.25, d=0.1, n=6)
    pose = (-0.2, 0.0, 0.0)
    audit = lambda pts: reference.occlusion_audit(spec, pose, 1.0, 0.1, 1.2, pts)  # noqa: E731

    exact = _lattice_scan(spec, lambda occ: ~occ)
    clean = audit(exact)
    assert clean["lattice"] == 100 and 0 < clean["kept"] < 100
    assert clean["dropped_visible"] == clean["kept_occluded"] == clean["wrong_z"] == 0

    assert audit(exact[1:])["dropped_visible"] == 1
    assert audit(_lattice_scan(spec, lambda occ: np.ones_like(occ)))["kept_occluded"] == 100 - clean["kept"]
    lifted = exact.copy()
    lifted[3, 2] += 0.01
    assert audit(lifted)["wrong_z"] == 1


# -- GAE oracle ----------------------------------------------------------------


def test_gae_reference_by_hand():
    rewards = np.array([[1.0], [2.0], [3.0]])
    values = np.array([[0.5], [0.4], [0.3], [0.2]])
    dones = np.array([[0.0], [1.0], [0.0]])
    adv = reference.gae_reference(rewards, values, dones, 0.9, 0.8)
    # delta = 0.86, 1.6 (episode ends: no bootstrap), 2.88; the sum for t=0 stops at t=1.
    np.testing.assert_allclose(adv[:, 0], [0.86 + 0.72 * 1.6, 1.6, 2.88])


def test_gae_reference_matches_program_and_rejects_a_wrong_advantage():
    rng = np.random.default_rng(9)
    rewards = rng.normal(size=(40, 5))
    values = rng.normal(size=(41, 5))
    dones = (rng.random((40, 5)) < 0.15).astype(float)
    adv, _ = gae(rewards, values, dones, 0.99, 0.95)
    ref = reference.gae_reference(rewards, values, dones, 0.99, 0.95)
    assert np.max(np.abs(adv - ref)) <= 1e-9
    adv[17, 3] += 1e-6
    assert np.max(np.abs(adv - ref)) > 1e-9


# -- learning curves -----------------------------------------------------------


def _row(i, ppo=True, terrain=False, episodes=True):
    nan = float("nan")
    row = {"update": i, "mean_reward": 1.0, "success_rate": 0.5, "E_vel": 0.1}
    row.update({c: 0.1 if ppo else nan for c in reference.PPO_COLUMNS})
    row["terrain_loss"] = 0.2 if terrain else nan
    if not episodes:
        row.update({c: nan for c in reference.EPISODE_COLUMNS})
    return row


STAGES = [(1, True, False), (1, False, True), (1, True, True)]


def test_curve_rows_defined_per_stage_pass():
    rows = [_row(0), _row(1, ppo=False, terrain=True, episodes=False), _row(2, terrain=True)]
    assert reference.curve_faults(rows, STAGES) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows[0].update(kl=float("nan")),
        lambda rows: rows[0].update(terrain_loss=0.3),
        lambda rows: rows[2].update(policy_loss=float("inf")),
        lambda rows: rows[1].update(E_vel=float("nan")),
        lambda rows: rows[2].update(update=7),
        lambda rows: rows.pop(),
    ],
)
def test_curve_faults_catch_an_undefined_or_stray_value(edit):
    rows = [_row(0), _row(1, ppo=False, terrain=True), _row(2, terrain=True)]
    edit(rows)
    assert reference.curve_faults(rows, STAGES)


def test_same_curves_treats_nan_as_equal():
    a = [_row(0, terrain=False)]
    assert reference.same_curves(a, [dict(a[0])])
    assert not reference.same_curves(a, [dict(a[0], kl=0.2)])
