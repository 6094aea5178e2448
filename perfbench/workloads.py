"""The benchmark's four workloads.

Each workload draws its inputs from one seed, exposes one timed call (a
perception case, or a training call of a fixed number of updates), and
checks the outputs of the calls it made against ``reference``. Calls are
made only through public entry points: ``experiments.benchmark_case``,
``ppo.train_policy`` and ``ppo.train_three_stage``, configured from INI
text the way a user configures the CLI.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference
from stairlab import config, experiments, ppo
from stairlab.bev import project
from stairlab.env import OBS_DIM, StepperEnv, TokenSource
from stairlab.nn import build_estimator_net
from stairlab.sensor import scan
from stairlab.world import ParameterRanges, TerrainProfile
from tracing import Tracer

# Flights drawn the way `stairlab benchmark-estimator` draws them: up or
# down with equal weight, h 0.10-0.25 m, d 0.25-0.35 m, yaw +/-20 deg,
# 6-9 risers, 1 m lead flat.
PERCEIVE_RANGES = ParameterRanges(
    h_step=(0.10, 0.25),
    d_step=(0.25, 0.35),
    stair_yaw=(math.radians(-20.0), math.radians(20.0)),
    class_weights=(0.0, 0.5, 0.5),
)

# Cases per run whose grid (perceive) or occlusion mask (perceive-occluded)
# is checked against the reference, scanned again outside the timed loop.
SAMPLED_CASES = 8


def _stream(seed: int, *key: int) -> np.random.SeedSequence:
    """Child ``key`` of the run's seed: (0, i) seeds call i, (1, ...) the checks' own draws."""
    return np.random.SeedSequence(seed, spawn_key=key)


def start_pose(spec) -> tuple[float, float, float]:
    """Mid lead flat, heading 0, as `benchmark-estimator` places the robot."""
    s0 = -spec.lead_flat / 2.0
    return (
        spec.origin_x + s0 * math.cos(spec.stair_yaw),
        spec.origin_y + s0 * math.sin(spec.stair_yaw),
        0.0,
    )


class Perceive:
    """Draw a flight, scan it, project the cloud and estimate the token."""

    ops_per_call = 1
    items_per_op = 1
    item = "tokens"

    def __init__(self, seed: int, occlusion: bool):
        self.seed = seed
        self.occlusion = occlusion
        ini = (
            "[sensor]\nnoise_sigma_z = 0.01\n"
            f"occlusion = {'true' if occlusion else 'false'}\n"
            f"[benchmark]\ndropout = {0.1 if occlusion else 0.0}\n"
        )
        self.cfg = config.parse_config_text(ini, Path.cwd())

    def call(self, i: int):
        spec, est, _ = experiments.benchmark_case(self.cfg, PERCEIVE_RANGES, _stream(self.seed, 0, i))
        return spec, est.token

    def same(self, a, b) -> bool:
        return a == b

    def check(self, results: dict, info: list) -> list:
        faults = []
        acc = reference.accuracy(
            [reference.spec_truth(spec) for spec, _ in results.values()],
            [token for _, token in results.values()],
        )
        info.append(
            f"accuracy over {len(results)} cases: MAE h {acc['mae_h_m'] * 100:.3f} cm, "
            f"d {acc['mae_d_m'] * 100:.3f} cm, theta {acc['mae_theta_deg']:.3f} deg, "
            f"class {acc['class_accuracy'] * 100:.2f} %"
        )
        if not acc["ok"]:
            faults.append("estimator accuracy outside criterion 1")

        sampled = [results[i][0] for i in sorted(results)[:SAMPLED_CASES]]
        if self.occlusion:
            faults += self._check_occlusion(sampled, info)
        else:
            faults += self._check_grids(sampled, info)
        return faults

    def _check_grids(self, specs, info) -> list:
        worst = 0.0
        for k, spec in enumerate(specs):
            cloud = scan(TerrainProfile(spec), start_pose(spec), self.cfg.sensor, _stream(self.seed, 1, k))
            grid = project(cloud)
            ref_data, ref_occ = reference.bev_reference(cloud.points)
            worst = max(worst, reference.grid_mismatch(grid.data, grid.occupancy, ref_data, ref_occ))
        info.append(f"grid against per-cell reference, {len(specs)} clouds: max |diff| {worst:.3g}")
        return [] if worst <= 1e-9 else [f"grid differs from the per-cell reference by {worst}"]

    def _check_occlusion(self, specs, info) -> list:
        model = replace(self.cfg.sensor, noise_sigma_z=0.0, dropout_rate=0.0)
        total = {"lattice": 0, "kept": 0, "dropped_visible": 0, "kept_occluded": 0, "wrong_z": 0}
        for spec in specs:
            pose = start_pose(spec)
            cloud = scan(TerrainProfile(spec), pose, model, 0)
            audit = reference.occlusion_audit(
                spec, pose, model.window, model.sample_pitch, model.sensor_height, cloud.points
            )
            for key in total:
                total[key] += audit[key]
        info.append(
            f"line of sight, {len(specs)} noise-free scans: {total['kept']} of {total['lattice']} "
            f"lattice points kept, {total['dropped_visible']} dropped although visible, "
            f"{total['kept_occluded']} kept although occluded "
            f"({100.0 * total['kept_occluded'] / total['lattice']:.3f} %)"
        )
        faults = []
        if total["dropped_visible"]:
            faults.append(f"{total['dropped_visible']} visible lattice points dropped")
        if total["wrong_z"]:
            faults.append(f"{total['wrong_z']} kept points off the terrain")
        return faults


class _Training:
    """Shared checks of the training workloads; subclasses set the config and the call."""

    item = "env steps"
    # Token source of the batch the GAE and label checks collect.
    check_source = TokenSource.GROUND_TRUTH

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = config.parse_config_text(self.ini, Path.cwd())
        self.ops_per_call = sum(n for n, _, _ in self.stages)
        self.items_per_op = self.cfg.ppo.n_envs * self.cfg.ppo.horizon

    def same(self, a, b) -> bool:
        return reference.same_curves(a, b)

    def check(self, results: dict, info: list) -> list:
        faults = []
        for i, curves in results.items():
            faults += [f"call {i}: {f}" for f in reference.curve_faults(curves, self.stages)]

        first = min(results)
        counter = Tracer()
        counter.wrap_method("env.step", StepperEnv, "step")
        try:
            again = self.call(first)
        finally:
            counter.uninstall()
        steps = counter.calls("env.step")
        same = self.same(again, results[first])
        info.append(f"call {first} again: {steps} env steps, curves identical: {same}")
        if steps != self.ops_per_call * self.items_per_op:
            faults.append(f"{steps} env steps for {self.ops_per_call} updates")
        if not same:
            faults.append(f"call {first} gave different curves on a second run")
        return faults + self._check_batch(info)

    def _check_batch(self, info: list) -> list:
        """GAE and supervision labels on a small batch collected under the run's seed."""
        env_cfg, net = replace(self.cfg.env, token_source=self.check_source), None
        if self.check_source == TokenSource.LEARNED:
            net = build_estimator_net(np.random.default_rng(_stream(self.seed, 2)))
        small = replace(self.cfg.ppo, n_envs=4, horizon=32)
        envs, samplers = ppo.make_ensemble(env_cfg, self.cfg.world, 4, _stream(self.seed, 3), net)
        rng = np.random.default_rng(_stream(self.seed, 4))
        policy = ppo.GaussianPolicy(OBS_DIM[env_cfg.obs_mode], rng)
        batch = ppo.collect(envs, samplers, policy, small, rng, collect_supervision=True)

        faults = []
        adv, ret = ppo.gae(batch.rewards, batch.values, batch.dones, small.gamma, small.gae_lambda)
        ref = reference.gae_reference(batch.rewards, batch.values, batch.dones, small.gamma, small.gae_lambda)
        gae_err = float(np.max(np.abs(adv - ref)))
        if gae_err > 1e-9 or not np.allclose(ret, ref + batch.values[:-1], rtol=0.0, atol=1e-9):
            faults.append(f"gae differs from the brute-force sum by {gae_err}")

        (h_lo, h_hi), (d_lo, d_hi) = self.cfg.world.h_step, self.cfg.world.d_step
        flat = batch.sup_class == 0
        bad = ~np.isin(batch.sup_class, (0, 1, 2))
        bad |= flat & ((batch.sup_h != 0.0) | (batch.sup_d != 0.0))
        bad |= ~flat & ((batch.sup_h < h_lo) | (batch.sup_h > h_hi) | (batch.sup_d < d_lo) | (batch.sup_d > d_hi))
        if bad.any():
            faults.append(f"{int(bad.sum())} supervision labels outside the drawn world ranges")
        info.append(
            f"check batch 4 x 32: {int(batch.dones.sum())} episode ends, gae max |diff| {gae_err:.3g}, "
            f"{batch.sup_class.size} supervision labels, {int(bad.sum())} out of range"
        )
        return faults


class TrainTeacher(_Training):
    """One PPO update per call at the default shape, on ground-truth tokens."""

    ini = "[env]\nobs_mode = token\ntoken_source = ground_truth\n[ppo]\nn_envs = 16\nhorizon = 128\n"
    stages = [(1, True, False)]

    def call(self, i: int):
        cfg = self.cfg
        return ppo.train_policy(cfg.env, cfg.world, cfg.ppo, 1, _stream(self.seed, 0, i)).curves


class TrainPerceived(_Training):
    """Three-stage training, one update per stage, on a 4 x 32 batch."""

    ini = (
        "[env]\nobs_mode = token\ntoken_source = ground_truth\n[ppo]\nn_envs = 4\nhorizon = 32\n"
        "[train]\nstage1_updates = 1\nstage2_updates = 1\nstage3_updates = 1\n"
    )
    stages = [(1, True, False), (1, False, True), (1, True, True)]
    check_source = TokenSource.LEARNED

    def call(self, i: int):
        cfg = self.cfg
        return ppo.train_three_stage(cfg.env, cfg.world, cfg.ppo, cfg.train, _stream(self.seed, 0, i)).curves


WORKLOADS = {
    "perceive": lambda seed: Perceive(seed, occlusion=False),
    "perceive-occluded": lambda seed: Perceive(seed, occlusion=True),
    "train-teacher": TrainTeacher,
    "train-perceived": TrainPerceived,
}
