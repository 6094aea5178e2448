import math
from dataclasses import replace

import numpy as np
import pytest

from stairlab.env import EnvConfig, ObsMode, OBS_DIM, StepperEnv, TokenSource
from stairlab.errors import ConfigError
from stairlab.nn import AdamState, Mlp, TerrainLossWeights, build_estimator_net
from stairlab.ppo import (
    GaussianPolicy,
    PpoConfig,
    TrainConfig,
    WorldSampler,
    collect,
    estimator_update,
    _curve_row,
    _EstimatorFit,
    _train_stage,
    gae,
    make_ensemble,
    normalize_advantages,
    ppo_update,
    surrogate_grads,
    train_policy,
    train_three_stage,
)
from stairlab.sensor import SensorModel
from stairlab.world import ParameterRanges

TOY_WORLD = ParameterRanges(
    h_step=(0.12, 0.16), d_step=(0.25, 0.35), stair_yaw=(-0.2, 0.2), n_steps=(4, 6)
)
FAST_SENSOR = SensorModel(noise_sigma_z=0.0, sample_pitch=0.06)


def toy_ppo(**kw) -> PpoConfig:
    base = dict(horizon=16, n_envs=2, epochs=2, minibatches=2)
    base.update(kw)
    return PpoConfig(**base)


def curves_equal(a: list[dict], b: list[dict]) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if set(ra) != set(rb):
            return False
        for k in ra:
            va, vb = ra[k], rb[k]
            if isinstance(va, float) and isinstance(vb, float) and math.isnan(va) and math.isnan(vb):
                continue
            if va != vb:
                return False
    return True


def gae_brute_force(rewards, values, dones, gamma, lam):
    t_max, n = rewards.shape
    adv = np.zeros((t_max, n))
    for j in range(n):
        for t in range(t_max):
            acc = 0.0
            factor = 1.0
            for step in range(t, t_max):
                delta = (
                    rewards[step, j]
                    + gamma * values[step + 1, j] * (1.0 - dones[step, j])
                    - values[step, j]
                )
                acc += factor * delta
                if dones[step, j]:
                    break
                factor *= gamma * lam
            adv[t, j] = acc
    return adv


class TestGae:
    def test_lambda_zero_is_td_residual(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(10, 3))
        v = rng.normal(size=(11, 3))
        d = np.zeros((10, 3))
        adv, _ = gae(r, v, d, gamma=0.9, lam=0.0)
        delta = r + 0.9 * v[1:] - v[:-1]
        assert np.allclose(adv, delta, atol=1e-12)

    def test_gamma_zero_is_reward_minus_value(self):
        rng = np.random.default_rng(1)
        r = rng.normal(size=(8, 2))
        v = rng.normal(size=(9, 2))
        adv, _ = gae(r, v, np.zeros((8, 2)), gamma=0.0, lam=0.8)
        assert np.allclose(adv, r - v[:-1], atol=1e-12)

    def test_three_step_hand_example(self):
        r = np.array([[1.0], [0.0], [2.0]])
        v = np.array([[0.5], [0.5], [0.5], [0.0]])
        d = np.zeros((3, 1))
        adv, ret = gae(r, v, d, gamma=0.9, lam=0.8)
        brute = gae_brute_force(r, v, d, 0.9, 0.8)
        assert np.allclose(adv, brute, atol=1e-12)
        assert adv[2, 0] == pytest.approx(1.5)
        assert adv[1, 0] == pytest.approx(-0.05 + 0.72 * 1.5)
        assert np.allclose(ret, adv + v[:3], atol=1e-12)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t_max = int(rng.integers(1, 51))
            n = int(rng.integers(1, 4))
            r = rng.normal(size=(t_max, n))
            v = rng.normal(size=(t_max + 1, n))
            d = (rng.random((t_max, n)) < 0.15).astype(float)
            gamma = float(rng.uniform(0.0, 0.99))
            lam = float(rng.uniform(0.0, 1.0))
            adv, _ = gae(r, v, d, gamma, lam)
            brute = gae_brute_force(r, v, d, gamma, lam)
            assert np.allclose(adv, brute, rtol=1e-10, atol=1e-12)

    def test_episode_boundaries_isolate_advantages(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=(20, 1))
        v = rng.normal(size=(21, 1))
        d = np.zeros((20, 1))
        d[9, 0] = 1.0
        adv_a, _ = gae(r, v, d, 0.95, 0.9)
        r2 = r.copy()
        r2[10:] += rng.normal(size=(10, 1)) * 5
        adv_b, _ = gae(r2, v, d, 0.95, 0.9)
        assert np.array_equal(adv_a[:10], adv_b[:10])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gae(np.zeros((5, 2)), np.zeros((5, 2)), np.zeros((5, 2)), 0.9, 0.9)

    def test_normalized_advantages(self):
        rng = np.random.default_rng(4)
        adv = normalize_advantages(rng.normal(3.0, 2.0, size=(32, 4)))
        assert abs(adv.mean()) <= 1e-9
        assert abs(adv.std() - 1.0) <= 1e-6


def _blind_envs(n_envs=2, seed=0, horizon=50, **env_kw):
    cfg = EnvConfig(obs_mode=ObsMode.BLIND, horizon=horizon, sensor=FAST_SENSOR, **env_kw)
    return make_ensemble(cfg, TOY_WORLD, n_envs, seed)


class TestCollect:
    def test_batch_shape(self):
        envs, samplers = _blind_envs()
        policy = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(0))
        batch = collect(envs, samplers, policy, toy_ppo(), np.random.default_rng(1))
        assert batch.obs.shape == (16, 2, 6)
        assert batch.actions.shape == (16, 2, 3)
        assert batch.values.shape == (17, 2)
        assert np.isfinite(batch.log_probs).all()

    def test_deterministic_per_seed(self):
        def run():
            envs, samplers = _blind_envs(seed=5)
            policy = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(0))
            return collect(envs, samplers, policy, toy_ppo(), np.random.default_rng(1))

        a, b = run(), run()
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_rewards_match_trace_replay(self):
        envs, samplers = _blind_envs(n_envs=1, seed=6, horizon=500)
        policy = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(0))
        # Near-deterministic policy at the log-std floor.
        policy.log_std[:] = -5.0
        env, rewards = envs[0], []
        step = env.step

        def recorded_step(action):
            out = step(action)
            rewards.append(out[1])
            return out

        env.step = recorded_step
        batch = collect(envs, samplers, policy, toy_ppo(horizon=12, n_envs=1),
                        np.random.default_rng(2))
        assert len(rewards) == 12
        assert np.allclose(batch.rewards[:, 0], rewards, atol=1e-12)

    def test_nan_action_aborts_collection(self):
        envs, samplers = _blind_envs(seed=9)
        policy = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(0))
        policy.actor.weights[0][:] = np.nan
        from stairlab.errors import TrainingError

        with pytest.raises(TrainingError, match="non-finite"):
            collect(envs, samplers, policy, toy_ppo(), np.random.default_rng(1))

    def test_supervision_tuples_collected(self):
        cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, horizon=50, sensor=FAST_SENSOR, token_refresh=4
        )
        envs, samplers = make_ensemble(cfg, TOY_WORLD, 2, 7)
        policy = GaussianPolicy(OBS_DIM[ObsMode.TOKEN], np.random.default_rng(0))
        batch = collect(envs, samplers, policy, toy_ppo(horizon=8), np.random.default_rng(1),
                        collect_supervision=True)
        assert batch.sup_features is not None
        assert batch.sup_features.shape[1] == 1350
        assert batch.sup_class.min() >= 0 and batch.sup_class.max() <= 2


class TestPpoUpdate:
    def _batch_and_policy(self, seed=0):
        envs, samplers = _blind_envs(seed=seed)
        policy = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(seed))
        batch = collect(envs, samplers, policy, toy_ppo(), np.random.default_rng(seed + 1))
        return policy, batch

    def test_stats_ranges(self):
        policy, batch = self._batch_and_policy()
        stats = ppo_update(policy, batch, toy_ppo(), AdamState(lr=3e-4), np.random.default_rng(2))
        assert 0.0 <= stats["clip_frac"] <= 1.0
        assert abs(stats["adv_mean"]) <= 1e-9
        assert abs(stats["adv_std"] - 1.0) <= 1e-6

    def test_zero_advantages_only_entropy_moves_actor(self):
        policy, batch = self._batch_and_policy()
        cfg = toy_ppo()
        obs = batch.obs.reshape(-1, 6)
        act = batch.actions.reshape(-1, 3)
        logp = batch.log_probs.reshape(-1)
        zeros = np.zeros(obs.shape[0])
        grads, _ = surrogate_grads(policy, obs, act, logp, zeros, zeros, cfg)
        assert grads is policy.grads
        named = dict(policy.named_grads())
        for name, g in named.items():
            if name.startswith("actor."):
                assert np.all(g == 0.0)
        assert np.allclose(named["log_std"], -cfg.entropy_coef)

    def test_gradient_matches_vanilla_pg_at_old_policy(self):
        # With a huge clip range the surrogate gradient at the behavior
        # policy equals the score-function estimator -mean(A * grad logp).
        policy, batch = self._batch_and_policy(seed=3)
        cfg = toy_ppo(clip=100.0, entropy_coef=0.0, value_coef=0.0)
        obs = batch.obs.reshape(-1, 6)
        act = batch.actions.reshape(-1, 3)
        logp_old = batch.log_probs.reshape(-1)
        adv = np.asarray(normalize_advantages(batch.rewards)).reshape(-1)
        returns = np.zeros_like(adv)

        # A copy: the reference's backward passes below write the actor's gradient.
        grads = surrogate_grads(policy, obs, act, logp_old, adv, returns, cfg)[0].copy()

        # Reference: per-sample REINFORCE accumulation, separate code path.
        m = obs.shape[0]
        ref = np.zeros_like(policy.actor.params)
        ref_log_std = np.zeros(3)
        std = np.exp(policy.log_std)
        span = np.array([0.4, 0.3, math.radians(10.0)])
        for i in range(m):
            raw, acts = policy.actor.forward(obs[i : i + 1])
            mean = policy.squash(raw)
            z = (act[i] - mean[0]) / std
            dlogp_dmean = z / std
            draw = dlogp_dmean * 0.5 * span * (1.0 - np.tanh(raw[0]) ** 2)
            ref += policy.actor.backward(acts, (-adv[i] / m) * draw[None, :])
            ref_log_std += (-adv[i] / m) * (z * z - 1.0)

        assert np.allclose(grads[: ref.size], ref, atol=1e-8)
        assert np.allclose(grads[-3:], ref_log_std, atol=1e-8)

    def test_surrogate_gradient_matches_finite_differences(self):
        policy, batch = self._batch_and_policy(seed=4)
        cfg = toy_ppo(entropy_coef=0.013, value_coef=0.7)
        obs = batch.obs.reshape(-1, 6)[:16]
        act = batch.actions.reshape(-1, 3)[:16]
        logp_old = batch.log_probs.reshape(-1)[:16] + 0.05  # off-policy ratios
        rng = np.random.default_rng(5)
        adv = rng.normal(size=16)
        returns = rng.normal(size=16)

        def loss():
            raw = policy.actor(obs)
            mean = policy.squash(raw)
            std = np.exp(policy.log_std)
            z = (act - mean) / std
            logp = -0.5 * (z * z).sum(axis=1) - policy.log_std.sum() - 1.5 * math.log(2 * math.pi)
            ratio = np.exp(logp - logp_old)
            obj = np.minimum(ratio * adv, np.clip(ratio, 1 - cfg.clip, 1 + cfg.clip) * adv)
            v = policy.critic(obs)[:, 0]
            return float(
                -obj.mean()
                + cfg.value_coef * ((v - returns) ** 2).mean()
                - cfg.entropy_coef * policy.entropy()
            )

        grads = surrogate_grads(policy, obs, act, logp_old, adv, returns, cfg)[0].copy()
        params = policy.params
        h = 1e-6
        rng2 = np.random.default_rng(6)
        worst = 0.0
        offset = 0
        # Ten probes in each named part of the flat vector (actor.W0, ..., log_std).
        for _, part in policy.named_grads():
            for idx in offset + rng2.choice(part.size, size=min(10, part.size), replace=False):
                orig = params[idx]
                params[idx] = orig + h
                hi = loss()
                params[idx] = orig - h
                lo = loss()
                params[idx] = orig
                numeric = (hi - lo) / (2 * h)
                analytic = grads[idx]
                scale = max(abs(numeric), abs(analytic), 1e-6)
                worst = max(worst, abs(numeric - analytic) / scale)
            offset += part.size
        assert offset == params.size
        assert worst <= 1e-4


def assert_params_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestJointUpdate:
    def test_alpha_zero_matches_plain_ppo(self):
        # At alpha = 0 the stage loop's estimator step leaves the estimator as
        # it is, and its policy step is plain PPO on the supervised batch.
        cfg = toy_ppo(alpha=0.0)
        estimator = build_estimator_net(np.random.default_rng(10), hidden=4)
        initial = estimator.params.copy()
        fit = _EstimatorFit(estimator, AdamState(lr=1e-2), TerrainLossWeights(), epochs=2, alpha=0.0)
        envs, samplers = _blind_envs(seed=8)
        pol_a = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(8))
        curves = _train_stage(
            pol_a, envs, samplers, cfg, range(2),
            np.random.default_rng(9), np.random.default_rng(11), fit,
        )

        envs, samplers = _blind_envs(seed=8)
        pol_b = GaussianPolicy(OBS_DIM[ObsMode.BLIND], np.random.default_rng(8))
        collect_rng, update_rng = np.random.default_rng(9), np.random.default_rng(11)
        adam = AdamState(lr=cfg.learning_rate)
        for _ in range(2):
            batch = collect(envs, samplers, pol_b, cfg, collect_rng, collect_supervision=True)
            stats = ppo_update(pol_b, batch, cfg, adam, update_rng)
        assert_params_equal(pol_a.params, pol_b.params)
        assert_params_equal(estimator.params, initial)
        assert curves[-1]["policy_loss"] == stats["policy_loss"]
        assert not math.isnan(curves[-1]["terrain_loss"])

    def test_supervised_estimator_converges(self):
        rng = np.random.default_rng(16)
        estimator = build_estimator_net(rng, hidden=16)
        n = 128
        features = rng.normal(scale=0.2, size=(n, 1350))
        gt_class = rng.integers(0, 3, size=n)
        gt_h = rng.uniform(0.1, 0.2, size=n)
        gt_d = rng.uniform(0.25, 0.35, size=n)
        adam = AdamState(lr=1e-2)
        losses = []
        for _ in range(50):
            losses.append(
                estimator_update(
                    estimator, features, gt_class, gt_h, gt_d,
                    TerrainLossWeights(), adam, epochs=4,
                )
            )
        assert losses[-1] <= losses[0] / 10.0


    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_estimator_update_forward_passes(self, monkeypatch, epochs):
        # Epoch 0's forward pass also yields the pre-update loss: one pass per
        # epoch, and one with no epoch at all.
        rng = np.random.default_rng(17)
        estimator = build_estimator_net(rng, hidden=8)
        features = rng.normal(scale=0.2, size=(12, 1350))
        labels = rng.integers(0, 3, size=12), rng.uniform(0.1, 0.2, 12), rng.uniform(0.25, 0.35, 12)
        expected = estimator_update(
            build_estimator_net(np.random.default_rng(17), hidden=8), features, *labels,
            TerrainLossWeights(), AdamState(lr=1e-2), epochs=0,
        )
        calls = []
        forward = Mlp.forward
        monkeypatch.setattr(Mlp, "forward", lambda net, x: calls.append(len(x)) or forward(net, x))
        loss = estimator_update(
            estimator, features, *labels, TerrainLossWeights(), AdamState(lr=1e-2), epochs=epochs
        )
        assert calls == [12] * max(epochs, 1)
        assert loss == expected


class TestTraining:
    def test_curve_row_count(self):
        cfg = EnvConfig(obs_mode=ObsMode.BLIND, horizon=30, sensor=FAST_SENSOR)
        res = train_policy(cfg, TOY_WORLD, toy_ppo(), 3, seed=17)
        assert len(res.curves) == 3
        assert set(res.curves[0]) == {
            "update", "mean_reward", "success_rate", "E_vel", "policy_loss",
            "value_loss", "terrain_loss", "clip_frac", "kl",
        }

    def test_training_deterministic(self):
        cfg = EnvConfig(obs_mode=ObsMode.BLIND, horizon=30, sensor=FAST_SENSOR)
        a = train_policy(cfg, TOY_WORLD, toy_ppo(), 3, seed=18)
        b = train_policy(cfg, TOY_WORLD, toy_ppo(), 3, seed=18)
        assert curves_equal(a.curves, b.curves)
        assert_params_equal(a.policy.params, b.policy.params)

    def test_three_stage_reduces_to_plain_ppo_when_only_stage1(self):
        env_cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, horizon=30, sensor=FAST_SENSOR,
            token_source=TokenSource.GROUND_TRUTH,
        )
        train_cfg = TrainConfig(stage1_updates=3, stage2_updates=0, stage3_updates=0)
        full = train_three_stage(env_cfg, TOY_WORLD, toy_ppo(), train_cfg, seed=19)
        seeds = np.random.SeedSequence(19).spawn(6)
        plain = train_policy(env_cfg, TOY_WORLD, toy_ppo(), 3, seed=seeds[0])
        assert curves_equal(full.curves, plain.curves)

    def test_three_stage_curves_cover_all_stages(self):
        env_cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, horizon=30, sensor=FAST_SENSOR, token_refresh=5
        )
        train_cfg = TrainConfig(stage1_updates=2, stage2_updates=2, stage3_updates=2)
        res = train_three_stage(env_cfg, TOY_WORLD, toy_ppo(horizon=10), train_cfg, seed=20)
        assert len(res.curves) == 6
        assert [row["update"] for row in res.curves] == list(range(6))
        assert res.estimator is not None
        # Stage-2/3 rows carry a terrain loss; stage-1 rows do not.
        assert math.isnan(res.curves[0]["terrain_loss"])
        assert not math.isnan(res.curves[2]["terrain_loss"])
        assert not math.isnan(res.curves[5]["terrain_loss"])
        # Stage 2 trains no policy, so its rows carry no policy loss.
        assert math.isnan(res.curves[2]["policy_loss"])
        assert math.isnan(res.curves[3]["policy_loss"])
        assert not math.isnan(res.curves[4]["policy_loss"])

    def test_three_stage_seed_layout(self):
        # Stages 2 and 3 rebuilt from the public pieces under the documented
        # stream layout reproduce train_three_stage bit for bit.
        env_cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, horizon=30, sensor=FAST_SENSOR, token_refresh=5
        )
        ppo_cfg = toy_ppo(horizon=10, alpha=0.5)
        train_cfg = TrainConfig(stage1_updates=1, stage2_updates=2, stage3_updates=2, stage2_epochs=2)
        full = train_three_stage(env_cfg, TOY_WORLD, ppo_cfg, train_cfg, seed=23)

        seeds = np.random.SeedSequence(23).spawn(6)
        stage1_cfg = replace(env_cfg, token_source=TokenSource.GROUND_TRUTH)
        first = train_policy(stage1_cfg, TOY_WORLD, ppo_cfg, 1, seeds[0])
        policy, curves = first.policy, list(first.curves)

        estimator = build_estimator_net(np.random.default_rng(seeds[1]))
        estimator_adam = AdamState(lr=train_cfg.estimator_lr)

        def fit(batch, alpha):
            return estimator_update(
                estimator, batch.sup_features, batch.sup_class, batch.sup_h, batch.sup_d,
                train_cfg.loss, estimator_adam, alpha=alpha, epochs=2,
            )

        envs, samplers = make_ensemble(stage1_cfg, TOY_WORLD, ppo_cfg.n_envs, seeds[2])
        collect_rng = np.random.default_rng(seeds[3])
        for update in (1, 2):
            batch = collect(envs, samplers, policy, ppo_cfg, collect_rng, collect_supervision=True)
            curves.append(_curve_row(update, {"terrain_loss": fit(batch, 1.0)}, batch.episodes))

        _, collect_seed, update_seed, env_seed = seeds[4].spawn(4)
        stage3_cfg = replace(env_cfg, token_source=TokenSource.LEARNED)
        envs, samplers = make_ensemble(
            stage3_cfg, TOY_WORLD, ppo_cfg.n_envs, env_seed, estimator_net=estimator
        )
        collect_rng, update_rng = np.random.default_rng(collect_seed), np.random.default_rng(update_seed)
        policy_adam = AdamState(lr=ppo_cfg.learning_rate)
        for update in (3, 4):
            batch = collect(envs, samplers, policy, ppo_cfg, collect_rng, collect_supervision=True)
            stats = ppo_update(policy, batch, ppo_cfg, policy_adam, update_rng)
            stats["terrain_loss"] = fit(batch, ppo_cfg.alpha)
            curves.append(_curve_row(update, stats, batch.episodes))

        assert curves_equal(full.curves, curves)
        assert_params_equal(full.policy.params, policy.params)
        assert_params_equal(full.estimator.params, estimator.params)

    def test_batches_without_supervision_skip_the_estimator_step(self):
        # With a rollout horizon shorter than the token refresh period, some
        # batches hold no supervision sample. Stages 2 and 3 then take no
        # estimator step and leave terrain_loss empty, as stage-1 rows do.
        env_cfg = EnvConfig(
            obs_mode=ObsMode.TOKEN, horizon=30, sensor=FAST_SENSOR, token_refresh=5
        )
        train_cfg = TrainConfig(stage1_updates=1, stage2_updates=3, stage3_updates=3)
        res = train_three_stage(env_cfg, TOY_WORLD, toy_ppo(horizon=2), train_cfg, seed=24)
        losses = [row["terrain_loss"] for row in res.curves]
        assert math.isnan(losses[0])
        for stage in (losses[1:4], losses[4:7]):
            assert any(math.isnan(v) for v in stage)
            assert any(not math.isnan(v) for v in stage)
        assert 0.0 not in losses

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(stage1_updates=-1)
        with pytest.raises(ConfigError):
            TrainConfig(stage1_updates=0, stage2_updates=0, stage3_updates=0)
