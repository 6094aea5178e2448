import dataclasses
import math
import struct

import numpy as np
import pytest

from stairlab.env import (
    ARC_SAMPLE_PITCH,
    CLEARANCE_BOUNDS,
    DHEADING_BOUNDS,
    HEIGHTSCAN_SAMPLES,
    HEIGHTSCAN_SPACING,
    OBS_DIM,
    STRIDE_BOUNDS,
    _SCUFF_EPS,
    EnvConfig,
    EpisodeRecord,
    ObsMode,
    StepperEnv,
    TokenSource,
    arc_heights,
    max_passable_height,
    metrics,
)
from stairlab import tokens
from stairlab.bev import BevGrid
from stairlab.errors import ConfigError
from stairlab.estimator import EstimatorConfig, wrap_ahead
from stairlab.nn import Mlp, build_estimator_net
from stairlab.sensor import SensorModel
from stairlab.world import (
    StairClass,
    StairSpec,
    TerrainProfile,
    TerrainToken,
    ground_truth_token,
    wrap_pi,
)

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

    def test_teacher_token_reads_the_sensor_window(self):
        # The first riser is 1.5 m ahead: on the edge of a 3 m window, outside a 1 m one.
        spec = stairs(lead=3.0)
        for window, want in ((3.0, StairClass.STAIRS_UP), (1.0, StairClass.FLAT)):
            env = StepperEnv(EnvConfig(sensor=SensorModel(window=window, sample_pitch=0.05)), seed=0)
            obs = env.reset(spec)
            assert obs[6 + int(want)] == 1.0
            assert env.supervision_sample()[1] == int(want)

    def test_token_ground_truth_passthrough(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.TOKEN), seed=0)
        spec = stairs(h=0.15, d=0.28, lead=1.0)
        obs = env.reset(spec)
        token = ground_truth_token(spec, env.world_pose[2], env.world_pose[:2], window=3.0)
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
            _, _, done, event = env.step((0.30, 0.05, 0.0))
            events.append(event)
        assert events[-1] == "success"
        assert "scuff" not in events and "edge" not in events

    def test_zero_clearance_scuffs_on_riser(self):
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(stairs(h=0.12, d=0.30, lead=0.3))  # start mid-tread at -0.15
        _, reward, done, event = env.step((0.30, 0.0, 0.0))
        assert done and event == "scuff"
        assert reward < -5.0

    def test_stride_matching_depth_succeeds(self):
        h, d = 0.12, 0.30
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(stairs(h=h, d=d, n=8, lead=0.3))
        done = False
        while not done:
            _, _, done, event = env.step((d, h + 0.05, 0.0))
        assert event == "success"

    def test_footing_conservation(self):
        env = StepperEnv(blind_cfg(), seed=2)
        env.reset(stairs(h=0.13, d=0.29, n=10, lead=1.0))
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = (rng.uniform(0.1, 0.4), 0.3, rng.uniform(-0.05, 0.05))
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
        env.step((0.25, 0.3, 0.0))
        assert env.s - s_before == 0.25 * math.cos(phi)

    def test_edge_landing_fails(self):
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(stairs(h=0.12, d=0.30, lead=0.3))
        # Land at 0.29: within the 0.02 m edge margin of the riser at 0.30.
        _, _, done, event = env.step((0.44, 0.30, 0.0))
        assert done and event == "edge"

    def test_success_bonus_and_timeout(self):
        env = StepperEnv(blind_cfg(horizon=5), seed=1)
        env.reset(FLAT)
        for _ in range(5):
            _, _, done, event = env.step((0.1, 0.0, 0.0))
        assert done and event == "timeout"
        assert not env.episode_record().success

    def test_step_after_done_rejected(self):
        env = StepperEnv(blind_cfg(horizon=1), seed=1)
        env.reset(FLAT)
        env.step((0.1, 0.0, 0.0))
        with pytest.raises(RuntimeError, match="reset"):
            env.step((0.1, 0.0, 0.0))

    def test_heading_correction_reduces_error(self):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(stairs(yaw=0.1, lead=1.0))
        before = abs(env.heading_err)
        env.step((0.2, 0.3, -0.05))
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
            _, _, _, event = env.step((0.33, float(c), 0.0))
            outcomes.append(event == "scuff")
        # Monotone: scuffs form a prefix of the clearance sweep.
        first_clear = outcomes.index(False) if False in outcomes else len(outcomes)
        assert all(outcomes[:first_clear]) and not any(outcomes[first_clear:])


class TestObservations:
    def test_blind_carries_no_lookahead(self):
        # Worlds differing only in step height produce identical blind
        # observations until the first landing on a differing tread.
        actions = [(0.2, 0.3, 0.01), (0.25, 0.25, -0.02), (0.3, 0.3, 0.0),
                   (0.3, 0.3, 0.0), (0.3, 0.3, 0.0)]
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
        obs, _, done, _ = env.step((0.35, 0.25, 0.0))  # s = -0.15
        assert not done
        assert obs[12] == pytest.approx(0.15, abs=1e-12)
        # s = 0.25: past the riser at 0, the next one is at 0.3.
        obs, _, done, _ = env.step((0.4, 0.25, 0.0))
        assert not done
        assert obs[12] == pytest.approx(0.05, abs=1e-12)

    def test_ground_truth_follows_axis_advance_when_yawed(self):
        env = StepperEnv(EnvConfig(obs_mode=ObsMode.TOKEN), seed=0)
        env.reset(stairs(h=0.12, d=0.30, yaw=0.2, lead=1.0))
        obs, _, done, _ = env.step((0.3, 0.25, 0.0))
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
                obs, _, done, _ = env.step((stride, 0.25, 0.0))
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
            obs, _, done, _ = env.step((0.3, 0.25, 0.0))
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
    def test_trace_schema_and_events(self):
        # Each step returns its event; the env keeps no per-step history.
        env = StepperEnv(blind_cfg(), seed=1)
        env.reset(FLAT)
        done, events = False, []
        while not done:
            _, _, done, event = env.step((0.3, 0.05, 0.0))
            events.append(event)
        assert events[-1] == "success" and set(events[:-1]) == {"none"}
        record = env.episode_record()
        assert record.length == len(events) == env.t and record.event == "success"
        assert not {"trace_rows", "step_count"} & set(vars(env))

    def test_metrics_perfect_tracking(self):
        records = [
            EpisodeRecord(10, 5.0, True, "success", StairClass.STAIRS_UP, 0.12, 0.3, 0.0, 0.0)
            for _ in range(4)
        ]
        m = metrics(records, horizon=100)
        assert m.e_vel == 0.0 and m.e_ang == 0.0
        assert m.success_rate == 1.0
        assert m.m_reward == pytest.approx(0.05)

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
            seen.append(env.v_cmd)
            env.step((0.2, 0.0, 0.0))
        assert seen[:3] == [0.2, 0.2, 0.2]
        assert seen[3:] == [0.4, 0.4, 0.4]


def _counted(calls, fn):
    """``fn``, appending itself to ``calls`` on every call."""

    def counted(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)

    return counted


class TestHeldEstimate:
    """An estimator source estimates once per refresh step and keeps features, not grids."""

    @pytest.mark.parametrize("source", [TokenSource.ANALYTIC, TokenSource.LEARNED])
    def test_second_observe_reuses_the_estimate(self, monkeypatch, source):
        calls = []
        for name in ("scan", "estimate_token", "estimate_yaw"):
            monkeypatch.setattr(tokens, name, _counted(calls, getattr(tokens, name)))
        monkeypatch.setattr(Mlp, "forward", _counted(calls, Mlp.forward))
        cfg = EnvConfig(token_source=source, token_refresh=2, sensor=SensorModel(sample_pitch=0.06))
        net = build_estimator_net(np.random.default_rng(1), hidden=8)
        env = StepperEnv(cfg, seed=3, estimator_net=net)
        obs = env.reset(stairs(lead=1.0))
        assert calls
        for _ in range(4):
            made = len(calls)
            assert np.array_equal(env.observe(), obs) and len(calls) == made
            obs = env.step((0.1, 0.3, 0.0))[0]
            # Only a step onto the refresh schedule senses and estimates.
            assert (len(calls) > made) == (env.t % 2 == 0)

    def test_learned_refresh_holds_no_grid(self):
        cfg = EnvConfig(token_source=TokenSource.LEARNED, sensor=SensorModel(sample_pitch=0.06))
        net = build_estimator_net(np.random.default_rng(1), hidden=8)
        env = StepperEnv(cfg, seed=3, estimator_net=net)
        env.reset(stairs(lead=1.0))
        feed = env._tokens
        assert isinstance(feed._sense[2], np.ndarray)
        assert not any(isinstance(v, BevGrid) for v in (*feed._sense, *feed._held))
        env.supervision_sample()
        assert feed._sense[1] is None


# -- the scalar stepper core against the array math it replaced -------------


def _clamped(action) -> tuple[float, float, float]:
    """Oracle action handling: any three numbers become a clamped (stride, clearance, dheading)."""
    a = np.asarray(action, dtype=float).reshape(3)
    return (
        min(max(float(a[0]), STRIDE_BOUNDS[0]), STRIDE_BOUNDS[1]),
        min(max(float(a[1]), CLEARANCE_BOUNDS[0]), CLEARANCE_BOUNDS[1]),
        min(max(float(a[2]), DHEADING_BOUNDS[0]), DHEADING_BOUNDS[1]),
    )


class FrozenStepper(StepperEnv):
    """Oracle: the stepper's reset, step and observation math on numpy queries.

    Heights come from ``TerrainProfile.height_on_axis``, risers from
    ``riser_positions``, the arc from a fresh ``np.linspace``, and the
    oracle keeps its own trace, one row per step, from which the last event
    is read. Token estimation, sensing and the command schedule are
    inherited.
    """

    def reset(self, spec):
        if spec.lead_flat < 0.3:
            raise ConfigError("lead_flat must be >= 0.3 m to place the stepper")
        self.spec = spec
        self.profile = TerrainProfile(spec)
        self._risers = self.profile.riser_positions()
        self._axis_yaw = spec.stair_yaw if spec.stair_class != StairClass.FLAT else 0.0
        self.s = -spec.lead_flat / 2.0
        self.lat = 0.0
        self.support_height = float(self.profile.height_on_axis(self.s))
        if spec.stair_class == StairClass.FLAT:
            self.heading_err = 0.0
        else:
            self.heading_err = wrap_pi(0.0 - spec.stair_yaw)
        self.v_avg = 0.0
        self.last_dh = 0.0
        self.prev_action = (0.0, 0.0, 0.0)
        self.t = 0
        self.step_count = 0
        self.done = False
        self._goal_s = (
            self.s + self.cfg.flat_goal
            if spec.stair_class == StairClass.FLAT
            else float(self._risers[-1])
        )
        if self.cfg.command_schedule is None:
            lo, hi = self.cfg.v_cmd_range
            self._episode_cmd = float(self._rng.uniform(lo, hi))
        self.v_cmd = self._command_at(0)
        self._sum_abs_verr = 0.0
        self._sum_abs_heading = 0.0
        self._return = 0.0
        self._tokens.reset()
        self.trace_rows = []
        self.last_obs = self.observe()
        return self.last_obs

    @property
    def world_pose(self):
        spec = self.spec
        ca, sa = math.cos(self._axis_yaw), math.sin(self._axis_yaw)
        px = spec.origin_x + self.s * ca - self.lat * sa
        py = spec.origin_y + self.s * sa + self.lat * ca
        return px, py, wrap_pi(self._axis_yaw + self.heading_err)

    def step(self, action):
        if self.done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        stride, clearance, dheading = _clamped(action)
        he_new = wrap_pi(self.heading_err - dheading)
        ds = stride * math.cos(he_new)
        s_new = self.s + ds
        z0 = self.support_height
        z1 = float(self.profile.height_on_axis(s_new))

        n_samples = max(2, int(math.ceil(abs(ds) / ARC_SAMPLE_PITCH)))
        u = np.linspace(0.0, 1.0, n_samples + 1)
        foot = arc_heights(z0, z1, clearance, u)
        terrain = self.profile.height_on_axis(self.s + u * ds)
        scuffed = bool(np.any(foot < terrain - _SCUFF_EPS))

        on_edge = False
        if not scuffed and self._risers.size:
            on_edge = bool(np.min(np.abs(s_new - self._risers)) < self.cfg.edge_margin)

        self.s = s_new
        self.lat += stride * math.sin(he_new)
        self.heading_err = he_new
        self.last_dh = z1 - z0
        self.support_height = z1
        v_inst = ds / self.cfg.step_dt
        alpha = self.cfg.v_avg_alpha
        self.v_avg = (1.0 - alpha) * self.v_avg + alpha * v_inst
        self.step_count += 1
        self.prev_action = (stride, clearance, dheading)

        w = self.cfg.reward
        v_cmd_used = self.v_cmd
        verr = (self.v_avg - self.v_cmd) / w.tracking_scale
        reward = (
            w.velocity * math.exp(-verr * verr)
            + w.forward * ds
            - w.clearance * clearance
            - w.heading * abs(he_new)
        )

        event = "none"
        if scuffed:
            event = "scuff"
            reward -= w.terminal_bonus
            self.done = True
        elif on_edge:
            event = "edge"
            reward -= w.terminal_bonus
            self.done = True
        elif s_new > self._goal_s:
            event = "success"
            reward += w.terminal_bonus
            self.done = True

        self._sum_abs_verr += abs(self.v_avg - self.v_cmd)
        self._sum_abs_heading += abs(self.heading_err)
        self._return += reward

        self.t += 1
        if not self.done and self.t >= self.cfg.horizon:
            event = "timeout"
            self.done = True
        self.v_cmd = self._command_at(self.t)

        self.trace_rows.append(
            {
                "time": self.t - 1,
                "s": self.s,
                "support_height": self.support_height,
                "v_cmd": v_cmd_used,
                "v_avg": self.v_avg,
                "heading_err": self.heading_err,
                "stride": stride,
                "clearance": clearance,
                "dheading": dheading,
                "reward": reward,
                "event": event,
            }
        )

        obs = self.observe() if not self.done else np.zeros(OBS_DIM[self.cfg.obs_mode])
        self.last_obs = obs
        return obs, reward, self.done, event

    def episode_record(self):
        n = max(1, self.step_count)
        last_event = self.trace_rows[-1]["event"] if self.trace_rows else "none"
        return EpisodeRecord(
            length=self.step_count,
            return_=self._return,
            success=last_event == "success",
            event=last_event,
            stair_class=self.spec.stair_class,
            h_step=self.spec.h_step,
            d_step=self.spec.d_step,
            mean_abs_verr=self._sum_abs_verr / n,
            mean_abs_heading=self._sum_abs_heading / n,
        )

    def observe(self):
        blind = np.array(
            [
                self.last_dh,
                self.v_avg,
                self.v_cmd,
                *self.prev_action,
            ]
        )
        mode = self.cfg.obs_mode
        if mode == ObsMode.BLIND:
            return blind
        if mode == ObsMode.HEIGHTSCAN:
            ahead = self.s + HEIGHTSCAN_SPACING * np.arange(1, HEIGHTSCAN_SAMPLES + 1) * math.cos(
                self.heading_err
            )
            heights = self.profile.height_on_axis(ahead) - self.support_height
            if self.cfg.heightscan_noise > 0.0:
                heights = heights + self._rng.normal(0.0, self.cfg.heightscan_noise, heights.shape)
            return np.concatenate([blind, heights])
        token, next_riser = self._token()
        vec = np.zeros(6)
        vec[int(token.stair_class)] = 1.0
        vec[3] = token.h_step
        vec[4] = token.d_step
        vec[5] = token.theta
        return np.concatenate([blind, vec, [next_riser]])

    def _token(self):
        cfg = self.cfg
        if cfg.token_source == TokenSource.GROUND_TRUTH:
            token = ground_truth_token(
                self.spec, self.world_pose[2], self.world_pose[:2], cfg.sensor.window
            )
            token = self._perturb_token(token)
            next_riser = self.profile.next_riser_distance(self.s)
        else:
            return self._tokens.token(self)
        return token, 0.0 if token.stair_class == StairClass.FLAT else next_riser

    def _perturb_token(self, token):
        cfg = self.cfg
        if cfg.token_noise_h == 0.0 and cfg.token_noise_d == 0.0 and cfg.token_flip_p == 0.0:
            return token
        h, d, cls = token.h_step, token.d_step, token.stair_class
        if token.stair_class != StairClass.FLAT:
            if cfg.token_noise_h > 0.0:
                h = max(0.0, h + float(self._rng.normal(0.0, cfg.token_noise_h)))
            if cfg.token_noise_d > 0.0:
                d = max(0.0, d + float(self._rng.normal(0.0, cfg.token_noise_d)))
        if cfg.token_flip_p > 0.0 and self._rng.random() < cfg.token_flip_p:
            others = [c for c in StairClass if c != cls]
            cls = others[int(self._rng.integers(len(others)))]
            if cls == StairClass.FLAT:
                h = d = 0.0
        return TerrainToken(cls, h, d, token.theta)


def _key(value):
    """A comparison key that tells apart every bit, the sign of zero and the type."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (type(value).__name__, struct.pack("<d", value))
    if isinstance(value, dict):
        return ("dict", tuple((k, _key(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_key(v) for v in value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, _key(dataclasses.astuple(value)))
    return (type(value).__name__, value)


ORACLE_SPECS = [
    StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 1, 1.0, 1.0),
    StairSpec(StairClass.FLAT, 0.0, 0.0, 0.6, 3, 0.6, 0.5, origin_x=-1.3, origin_y=2.1),
    StairSpec(StairClass.STAIRS_UP, 0.12, 0.30, 0.0, 8, 0.3, 1.0),
    StairSpec(StairClass.STAIRS_UP, 0.17, 0.27, math.radians(40.0), 7, 1.0, 0.8, 0.9, -0.4),
    StairSpec(StairClass.STAIRS_UP, 0.15, 0.25, math.radians(-40.0), 9, 0.6, 0.8, -2.0, 1.5),
    StairSpec(StairClass.STAIRS_DOWN, 0.14, 0.31, 0.0, 6, 1.0, 0.8),
    StairSpec(StairClass.STAIRS_DOWN, 0.20, 0.29, math.radians(-33.0), 8, 0.8, 0.8, 3.2, 0.7),
    StairSpec(StairClass.STAIRS_DOWN, 0.11, 0.25, math.radians(25.0), 9, 0.3, 0.8, -0.5, -0.5),
    # Axis behind the start heading: cos(heading error) < 0, so strides move backwards.
    StairSpec(StairClass.STAIRS_UP, 0.13, 0.28, 2.3, 6, 1.0, 0.8, 0.4, 0.4),
    StairSpec(StairClass.STAIRS_DOWN, 0.13, 0.33, -2.9, 6, 1.0, 0.8),
]

ORACLE_ENV_CFGS = [
    EnvConfig(obs_mode=ObsMode.BLIND, horizon=40),
    EnvConfig(obs_mode=ObsMode.HEIGHTSCAN, horizon=40),
    EnvConfig(obs_mode=ObsMode.HEIGHTSCAN, horizon=40, heightscan_noise=0.01),
    EnvConfig(obs_mode=ObsMode.TOKEN, horizon=40),
    EnvConfig(
        obs_mode=ObsMode.TOKEN, horizon=40, token_noise_h=0.01, token_noise_d=0.02,
        token_flip_p=0.3, command_schedule=((0, 0.2), (5, 0.35)),
    ),
    EnvConfig(obs_mode=ObsMode.TOKEN, horizon=25, token_flip_p=1.0, edge_margin=0.05),
]


def _oracle_actions(rng, n):
    """Arrays, tuples, lists and (1, 3) arrays, often outside the action bounds."""
    out = []
    for i in range(n):
        a = [rng.uniform(-0.2, 0.8), rng.uniform(-0.1, 0.45), rng.uniform(-0.2, 0.2)]
        form = i % 4
        out.append(
            np.array(a) if form == 0 else tuple(a) if form == 1
            else list(a) if form == 2 else np.array([a])
        )
    return out


def _live_row(env, v_cmd, reward, event):
    """The oracle's trace row, built from the live env's public state after a step."""
    stride, clearance, dheading = env.prev_action
    return {
        "time": env.t - 1,
        "s": env.s,
        "support_height": env.support_height,
        "v_cmd": v_cmd,
        "v_avg": env.v_avg,
        "heading_err": env.heading_err,
        "stride": stride,
        "clearance": clearance,
        "dheading": dheading,
        "reward": reward,
        "event": event,
    }


def _assert_same_rollout(cfg, spec, actions, seed):
    """Drive the live env and the oracle with the same inputs; compare every output."""
    live, frozen = StepperEnv(cfg, seed), FrozenStepper(cfg, seed)
    events, backwards, rows = [], False, []
    assert _key(live.reset(spec)) == _key(frozen.reset(spec))
    for action in actions:
        s_before, v_cmd = frozen.s, live.v_cmd
        got, want = live.step(action), frozen.step(action)
        assert _key(got) == _key(want)
        rows.append(_live_row(live, v_cmd, got[1], got[3]))
        assert _key(rows) == _key(frozen.trace_rows)
        assert _key(live.episode_record()) == _key(frozen.episode_record())
        assert _key(live.world_pose) == _key(frozen.world_pose)
        backwards |= frozen.s < s_before
        if want[2]:
            events.append(want[3])
            assert _key(live.reset(spec)) == _key(frozen.reset(spec))
            rows = []
    return events, backwards


class TestScalarCoreOracle:
    def test_rollouts_bit_identical_to_array_math(self):
        rng = np.random.default_rng(11)
        events, backwards = set(), False
        for cfg in ORACLE_ENV_CFGS:
            for j, spec in enumerate(ORACLE_SPECS):
                actions = _oracle_actions(rng, 60)
                seen, back = _assert_same_rollout(cfg, spec, actions, seed=100 + j)
                events.update(seen)
                backwards |= back
        # The corpus ends episodes every way and walks backwards at least once.
        assert events == {"scuff", "edge", "success", "timeout"}
        assert backwards

    def test_policy_like_rollouts_bit_identical(self):
        # In-bounds strides near the tread depth reach deep into each flight.
        rng = np.random.default_rng(12)
        for cfg in ORACLE_ENV_CFGS:
            for j, spec in enumerate(ORACLE_SPECS[2:8]):
                d = spec.d_step
                actions = [
                    np.array([d + rng.normal(0.0, 0.01), spec.h_step + 0.08, rng.normal(0.0, 0.03)])
                    for _ in range(30)
                ]
                _assert_same_rollout(cfg, spec, actions, seed=200 + j)

    def test_analytic_tokens_bit_identical(self):
        cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, token_source=TokenSource.ANALYTIC, token_refresh=3, horizon=8
        )
        actions = [np.array([0.29, 0.25, 0.01])] * 8
        _assert_same_rollout(cfg, ORACLE_SPECS[3], actions, seed=7)

    @pytest.mark.parametrize("mode", list(ObsMode))
    def test_landing_on_a_riser_and_at_the_edge_margin(self, mode):
        # s starts at -0.3 on a flight with d = 0.25; cos(0) = 1 exactly.
        spec = StairSpec(StairClass.STAIRS_UP, 0.12, 0.25, 0.0, 6, 0.6, 1.0)
        on_riser = -0.3 + 0.3
        assert on_riser == 0.0
        gap = (-0.3 + 0.32) - 0.0
        cases = [
            (0.3, 0.02, "edge"),  # lands exactly on riser 0
            (0.32, gap, "none"),  # |s - riser| == edge_margin is not on the edge
            (0.32, math.nextafter(gap, 1.0), "edge"),
        ]
        for stride, margin, event in cases:
            cfg = EnvConfig(obs_mode=mode, edge_margin=margin)
            _assert_same_rollout(cfg, spec, [(stride, 0.25, 0.0)], seed=3)
            env = StepperEnv(cfg, seed=3)
            env.reset(spec)
            assert env.step((stride, 0.25, 0.0))[3] == event


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Depths where s / d misplaces a riser by one: 0.35 * 3 / 0.35 < 3, and the
# float below 0.253 * 5, divided by 0.253, rounds up to 5.
BOUNDARY_SPECS = [
    StairSpec(StairClass.STAIRS_UP, 0.13, 0.35, 0.3, 8, 1.0, 0.8, 1.1, -0.6),
    StairSpec(StairClass.STAIRS_UP, 0.1, 0.253, 0.0, 9, 1.0, 0.8),
    StairSpec(StairClass.STAIRS_DOWN, 0.17, 0.289, -0.2, 9, 1.0, 0.8),
    StairSpec(StairClass.STAIRS_DOWN, 0.1, 0.3, 0.0, 9, 1.0, 0.8),
    StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 4, 1.0, 0.8),
]


def _spec_id(spec):
    return f"{spec.stair_class.name}-{spec.d_step}"


def _boundary_positions(spec):
    """Each riser position, one ulp either side, zeros of both signs, and points off the flight."""
    d = spec.d_step if spec.d_step > 0.0 else 0.3
    risers = d * np.arange(spec.n_steps + 1, dtype=float)
    out = [-0.0, 0.0, -d, -0.5 * d, -1e-300, 1e-300, 10.0, -10.0]
    for r in risers.tolist():
        out += [r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf), r + 0.5 * d]
    return out


class TestScalarTerrainQueries:
    def test_corpus_misplaces_risers_both_ways(self):
        # Dividing by d alone would put some riser on the wrong side of s.
        below = above = 0
        for spec in BOUNDARY_SPECS[:4]:
            d = spec.d_step
            for k, r in enumerate(TerrainProfile(spec).riser_positions().tolist()):
                below += math.floor(r / d) < k
                above += math.floor(math.nextafter(r, -math.inf) / d) >= k
        assert below and above

    @pytest.mark.parametrize("spec", BOUNDARY_SPECS, ids=_spec_id)
    def test_height_matches_height_on_axis_bit_for_bit(self, spec):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(spec)
        for s in _boundary_positions(spec):
            assert _bits(env._height(s)) == _bits(env.profile.height_on_axis(s)), s

    @pytest.mark.parametrize("spec", BOUNDARY_SPECS, ids=_spec_id)
    def test_next_riser_matches_riser_positions(self, spec):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(spec)
        for s in _boundary_positions(spec):
            assert _bits(env._next_riser(s)) == _bits(env.profile.next_riser_distance(s)), s

    @pytest.mark.parametrize("spec", BOUNDARY_SPECS[:4], ids=_spec_id)
    def test_riser_at_foot_is_not_ahead(self, spec):
        # The query asks for risers strictly ahead: from s == k * d it returns riser k + 1.
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(spec)
        risers = env.profile.riser_positions()
        for k, r in enumerate(risers.tolist()):
            want = risers[k + 1] - r if k + 1 < risers.size else 0.0
            assert _bits(env._next_riser(r)) == _bits(float(want))

    @pytest.mark.parametrize("spec", BOUNDARY_SPECS[:4], ids=_spec_id)
    def test_arc_terrain_matches_height_on_axis(self, spec):
        env = StepperEnv(blind_cfg(), seed=0)
        env.reset(spec)
        u = np.linspace(0.0, 1.0, 31)
        for s in _boundary_positions(spec):
            for ds in (0.3, -0.3, 0.0):
                want = env.profile.height_on_axis(s + u * ds) - _SCUFF_EPS
                assert np.array_equal(env._arc_terrain(s, ds, u), want)
