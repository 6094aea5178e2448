import csv
import math

import numpy as np
import pytest

from stairlab.env import (
    Action,
    EnvConfig,
    EpisodeRecord,
    ObsMode,
    StepperEnv,
    TokenSource,
    TRACE_COLUMNS,
    arc_heights,
    max_passable_height,
    metrics,
    write_trace,
)
from stairlab.errors import ConfigError
from stairlab.estimator import EstimatorConfig, wrap_ahead
from stairlab.sensor import SensorModel
from stairlab.world import StairClass, StairSpec, ground_truth_token

FLAT = StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0)


def stairs(h=0.12, d=0.30, yaw=0.0, n=8, lead=0.3):
    return StairSpec(StairClass.STAIRS_UP, h, d, yaw, n, lead, 1.0)


def blind_cfg(**kw):
    return EnvConfig(obs_mode=ObsMode.BLIND, **kw)


class TestReset:
    def test_flat_blind_obs_zero_except_command(self):
        env = StepperEnv(blind_cfg(), seed=0)
        obs = env.reset(FLAT)
        assert obs.shape == (6,)
        assert obs[2] == env.v_cmd and obs[2] > 0
        assert np.all(np.delete(obs, 2) == 0.0)

    def test_token_ground_truth_passthrough(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.TOKEN), seed=0)
        spec = stairs(h=0.15, d=0.28, lead=1.0)
        obs = env.reset(spec)
        token = ground_truth_token(spec, env.world_pose[2], env.world_pose[:2])
        assert obs.shape == (13,)
        assert np.allclose(obs[6:12], token.as_vector())
        # Start at s = -0.5; the first riser is at s = 0.
        assert obs[12] == 0.5

    def test_same_seed_same_observation(self):
        a = StepperEnv(blind_cfg(), seed=42).reset(FLAT)
        b = StepperEnv(blind_cfg(), seed=42).reset(FLAT)
        assert np.array_equal(a, b)

    def test_short_lead_flat_rejected(self):
        env = StepperEnv(blind_cfg(), seed=0)
        with pytest.raises(ConfigError, match="lead_flat"):
            env.reset(stairs(lead=0.2))

    def test_initial_heading_error_matches_stair_yaw(self):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(stairs(yaw=0.25, lead=1.0))
        assert env.heading_err == pytest.approx(-0.25)


class TestStepDynamics:
    def test_flat_walk_succeeds_without_scuffing(self):
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(FLAT)
        done = False
        events = []
        while not done:
            _, _, done, info = env.step(Action(0.30, 0.05, 0.0))
            events.append(info["event"])
        assert events[-1] == "success"
        assert "scuff" not in events and "edge" not in events

    def test_zero_clearance_scuffs_on_riser(self):
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(stairs(h=0.12, d=0.30, lead=0.3))  # start mid-tread at -0.15
        _, reward, done, info = env.step(Action(0.30, 0.0, 0.0))
        assert done and info["event"] == "scuff"
        assert reward < -5.0

    def test_stride_matching_depth_succeeds(self):
        h, d = 0.12, 0.30
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(stairs(h=h, d=d, n=8, lead=0.3))
        done = False
        while not done:
            _, _, done, info = env.step(Action(d, h + 0.05, 0.0))
        assert info["event"] == "success"

    def test_footing_conservation(self):
        env = StepperEnv(blind_cfg(), seed=2)
        env.reset(stairs(h=0.13, d=0.29, n=10, lead=1.0))
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = Action(rng.uniform(0.1, 0.4), 0.3, rng.uniform(-0.05, 0.05))
            _, _, done, _ = env.step(a)
            if done:
                break
            expected = float(env.profile.height_on_axis(env.s))
            assert env.support_height == pytest.approx(expected, abs=1e-9)

    def test_advance_is_stride_times_cos_heading(self):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(stairs(yaw=0.2, lead=1.0))
        phi = env.heading_err
        s_before = env.s
        env.step(Action(0.25, 0.3, 0.0))
        assert env.s - s_before == 0.25 * math.cos(phi)

    def test_edge_landing_fails(self):
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(stairs(h=0.12, d=0.30, lead=0.3))
        # Land at 0.29: within the 0.02 m edge margin of the riser at 0.30.
        _, _, done, info = env.step(Action(0.44, 0.30, 0.0))
        assert done and info["event"] == "edge"

    def test_success_bonus_and_timeout(self):
        env = StepperEnv(blind_cfg(horizon=5), seed=1)
        env.reset(FLAT)
        for _ in range(5):
            _, _, done, info = env.step(Action(0.1, 0.0, 0.0))
        assert done and info["event"] == "timeout"
        assert not env.episode_record().success

    def test_step_after_done_rejected(self):
        env = StepperEnv(blind_cfg(horizon=1), seed=1)
        env.reset(FLAT)
        env.step(Action(0.1, 0.0, 0.0))
        with pytest.raises(RuntimeError, match="reset"):
            env.step(Action(0.1, 0.0, 0.0))

    def test_heading_correction_reduces_error(self):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(stairs(yaw=0.1, lead=1.0))
        before = abs(env.heading_err)
        env.step(Action(0.2, 0.3, -0.05))
        assert abs(env.heading_err) < before


class TestMonotoneRisk:
    def test_lower_clearance_never_clears_more(self):
        rng = np.random.default_rng(4)
        u = np.linspace(0.0, 1.0, 41)
        for _ in range(200):
            z0 = rng.uniform(-0.2, 0.2)
            z1 = z0 + rng.uniform(-0.3, 0.3)
            c_hi = rng.uniform(0.0, 0.3)
            c_lo = rng.uniform(0.0, c_hi)
            assert np.all(arc_heights(z0, z1, c_hi, u) >= arc_heights(z0, z1, c_lo, u) - 1e-12)

    def test_scuff_monotone_in_clearance_in_env(self):
        # Once an action scuffs at some clearance, it scuffs at all lower ones.
        h, d = 0.14, 0.30
        outcomes = []
        for c in np.linspace(0.0, 0.3, 16):
            env = StepperEnv(blind_cfg(), seed=1)
            env.reset(stairs(h=h, d=d, lead=0.3))
            _, _, _, info = env.step(Action(0.33, float(c), 0.0))
            outcomes.append(info["event"] == "scuff")
        # Monotone: scuffs form a prefix of the clearance sweep.
        first_clear = outcomes.index(False) if False in outcomes else len(outcomes)
        assert all(outcomes[:first_clear]) and not any(outcomes[first_clear:])


class TestObservations:
    def test_blind_carries_no_lookahead(self):
        # Worlds differing only in step height produce identical blind
        # observations until the first landing on a differing tread.
        actions = [Action(0.2, 0.3, 0.01), Action(0.25, 0.25, -0.02), Action(0.3, 0.3, 0.0),
                   Action(0.3, 0.3, 0.0), Action(0.3, 0.3, 0.0)]
        streams = []
        for h in (0.12, 0.16):
            env = StepperEnv(blind_cfg(), seed=7)
            obs = [env.reset(stairs(h=h, d=0.30, lead=1.0))]
            supports = [env.support_height]
            for a in actions:
                o, _, done, _ = env.step(a)
                obs.append(o)
                supports.append(env.support_height)
                if done:
                    break
            streams.append((obs, supports))
        (obs_a, sup_a), (obs_b, sup_b) = streams
        diverge = next(
            (i for i, (x, y) in enumerate(zip(sup_a, sup_b)) if x != y), len(sup_a)
        )
        for i in range(min(diverge, len(obs_a), len(obs_b))):
            assert np.array_equal(obs_a[i], obs_b[i])

    def test_heightscan_sees_risers_ahead(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.HEIGHTSCAN), seed=0)
        obs = env.reset(stairs(h=0.12, d=0.30, lead=1.0))
        assert obs.shape == (23,)
        scan_part = obs[6:]
        assert scan_part.max() >= 0.12  # flight visible within 1.7 m
        flat_env = StepperEnv(EnvConfig(obs_mode=ObsMode.HEIGHTSCAN), seed=0)
        assert np.all(flat_env.reset(FLAT)[6:] == 0.0)

    def test_token_noise_perturbs_geometry(self):
        cfg = EnvConfig(obs_mode=ObsMode.TOKEN, token_noise_h=0.01, token_noise_d=0.01)
        env = StepperEnv(cfg, seed=3)
        obs = env.reset(stairs(h=0.15, d=0.28, lead=1.0))
        assert obs[9] != 0.15 and abs(obs[9] - 0.15) < 0.05
        assert obs[10] != 0.28 and abs(obs[10] - 0.28) < 0.05

    def test_analytic_token_source_close_to_truth(self):
        cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, token_source=TokenSource.ANALYTIC, token_refresh=1
        )
        env = StepperEnv(cfg, seed=4)
        obs = env.reset(stairs(h=0.15, d=0.28, lead=1.0))
        assert obs[6:9].argmax() == int(StairClass.STAIRS_UP)
        assert obs[9] == pytest.approx(0.15, abs=0.02)
        assert obs[10] == pytest.approx(0.28, abs=0.02)


class TestNextRiserDistance:
    """obs[12]: along-axis distance from the foot to the next riser ahead."""

    def test_ground_truth_at_known_poses(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.TOKEN), seed=0)
        obs = env.reset(stairs(h=0.12, d=0.30, lead=1.0))  # s = -0.5
        assert obs[12] == 0.5
        obs, _, done, _ = env.step(Action(0.35, 0.25, 0.0))  # s = -0.15
        assert not done
        assert obs[12] == pytest.approx(0.15, abs=1e-12)
        # s = 0.25: past the riser at 0, the next one is at 0.3.
        obs, _, done, _ = env.step(Action(0.4, 0.25, 0.0))
        assert not done
        assert obs[12] == pytest.approx(0.05, abs=1e-12)

    def test_ground_truth_follows_axis_advance_when_yawed(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.TOKEN), seed=0)
        env.reset(stairs(h=0.12, d=0.30, yaw=0.2, lead=1.0))
        obs, _, done, _ = env.step(Action(0.3, 0.25, 0.0))
        assert not done
        # The advance is stride * cos(heading error), not the stride.
        assert env.s == pytest.approx(-0.5 + 0.3 * math.cos(0.2), abs=1e-12)
        assert obs[12] == pytest.approx(-env.s, abs=1e-12)

    def test_zero_on_flat_token(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.TOKEN), seed=0)
        obs = env.reset(FLAT)
        assert obs[6] == 1.0 and obs[12] == 0.0

    def test_analytic_within_one_profile_bin_on_clean_scan(self):
        cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN,
            token_source=TokenSource.ANALYTIC,
            token_refresh=1,
            sensor=SensorModel(noise_sigma_z=0.0),
        )
        bin_width = EstimatorConfig().profile_bin
        for yaw in (0.0, 0.15):
            env = StepperEnv(cfg, seed=5)
            obs = env.reset(stairs(h=0.14, d=0.30, yaw=yaw, n=8, lead=1.0))
            for stride in (0.25, 0.40, 0.28, 0.35):
                truth = env.profile.next_riser_distance(env.s)
                assert obs[6:9].argmax() == int(StairClass.STAIRS_UP)
                assert obs[12] == pytest.approx(truth, abs=bin_width)
                obs, _, done, _ = env.step(Action(stride, 0.25, 0.0))
                assert not done

    def test_carried_forward_between_refreshes(self):
        cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN,
            token_source=TokenSource.ANALYTIC,
            token_refresh=5,
            sensor=SensorModel(noise_sigma_z=0.0),
        )
        env = StepperEnv(cfg, seed=6)
        obs0 = env.reset(stairs(h=0.12, d=0.30, n=8, lead=1.0))
        s0, sensed, d_est = env.s, obs0[12], obs0[10]
        wrapped = False
        for _ in range(4):  # t = 1 .. 4 reuse the sense taken at t = 0
            obs, _, done, _ = env.step(Action(0.3, 0.25, 0.0))
            assert not done
            assert np.array_equal(obs[6:12], obs0[6:12])
            expected = wrap_ahead(sensed - (env.s - s0), d_est)
            assert obs[12] == pytest.approx(expected, abs=1e-12)
            assert 0.0 < obs[12] <= d_est
            wrapped |= sensed - (env.s - s0) <= 0.0
            truth = env.profile.next_riser_distance(env.s)
            assert obs[12] == pytest.approx(truth, abs=EstimatorConfig().profile_bin)
        assert wrapped


class TestTraceAndMetrics:
    def test_trace_schema_and_events(self, tmp_path):
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(FLAT)
        done = False
        while not done:
            _, _, done, _ = env.step(Action(0.3, 0.05, 0.0))
        path = tmp_path / "trace.csv"
        write_trace(path, env.trace_rows)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0].keys()) == TRACE_COLUMNS
        assert rows[-1]["event"] == "success"
        assert all(r["event"] in ("none", "scuff", "edge", "success", "timeout") for r in rows)

    def test_metrics_perfect_tracking(self):
        records = [
            EpisodeRecord(10, 5.0, True, "success", StairClass.STAIRS_UP, 0.12, 0.3, 0.0, 0.0)
            for _ in range(4)
        ]
        m = metrics(records, horizon=100)
        assert m.e_vel == 0.0 and m.e_ang == 0.0
        assert m.success_rate == 1.0
        assert m.m_reward == pytest.approx(0.05)

    def test_metrics_terrain_difficulty(self):
        records = []
        for h, rate in ((0.1, 1.0), (0.2, 0.6), (0.3, 0.2)):
            for i in range(10):
                ok = i < rate * 10
                records.append(
                    EpisodeRecord(5, 1.0, ok, "success" if ok else "scuff",
                                  StairClass.STAIRS_UP, h, 0.3, 0.1, 0.1)
                )
        assert metrics(records, horizon=10).m_terrain == pytest.approx(0.2)

    def test_max_passable_height(self):
        assert max_passable_height([]) == 0.0
        assert max_passable_height([(0.12, 0.4), (0.16, 0.0)]) == 0.0
        assert max_passable_height([(0.12, 1.0), (0.16, 0.5), (0.2, 0.49)]) == 0.16
        # Heights need not be sorted or distinct: one passing run suffices.
        assert max_passable_height([(0.2, 0.5), (0.12, 1.0), (0.2, 0.0)]) == 0.2

    def test_metrics_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], horizon=10)

    def test_success_helper(self):
        # Success is the record's own field; no separate helper reads it.
        ok = EpisodeRecord(5, 1.0, True, "success", StairClass.FLAT, 0, 0, 0, 0)
        failed = EpisodeRecord(5, 1.0, False, "scuff", StairClass.FLAT, 0, 0, 0, 0)
        assert ok.success and not failed.success


class TestCommandSchedule:
    def test_piecewise_schedule_followed(self):
        cfg = blind_cfg(command_schedule=((0, 0.2), (3, 0.4)), horizon=10)
        env = StepperEnv(cfg, seed=0)
        env.reset(FLAT)
        seen = []
        for _ in range(6):
            env.step(Action(0.2, 0.0, 0.0))
            seen.append(env.trace_rows[-1]["v_cmd"])
        assert seen[:3] == [0.2, 0.2, 0.2]
        assert seen[3:] == [0.4, 0.4, 0.4]
