"""Clipped-surrogate policy optimization with GAE over stepper ensembles.

Hand-written gradients throughout: the Gaussian policy's log-density,
tanh-squashed action means, and the clipped ratio objective are
differentiated analytically and checked against finite differences in the
test suite. Training follows a three-stage schedule: policy pretraining
on teacher tokens, supervised estimator training on on-policy states,
then joint optimization with the estimator in the loop. One loop runs
every stage: collect, a PPO step and/or an estimator step, a curve row;
a batch with no supervision sample leaves ``terrain_loss`` empty.

Streams of ``train_three_stage``'s seed: stage 1 splits spawn 0 into
init, collect, update and env; stage 2 uses spawns 1 (estimator init),
2 (ensemble) and 3 (collect); stage 3 splits spawn 4 like stage 1 but
keeps the policy. The policy's Adam state is fresh in each of stages 1
and 3; the estimator's carries over from stage 2, where alpha is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .env import ACTION_HIGH, ACTION_LOW, OBS_DIM, EnvConfig, EpisodeRecord, StepperEnv, TokenSource
from .errors import ConfigError, Count, NonNegative, NonNegativeInt, Positive, TrainingError, Unit
from .errors import check_domains
from .nn import (
    AdamState,
    Mlp,
    TerrainLossWeights,
    adam_step,
    build_estimator_net,
    estimator_heads,
    libm,
    load_mlp,
    save_mlp,
    terrain_loss,
    terrain_loss_grad,
)
from .world import ParameterRanges, StairSpec, generate_stairs

_LOG_2PI = math.log(2.0 * math.pi)
LOG_STD_BOUNDS = (-5.0, 1.0)
_ACTION_SPAN = ACTION_HIGH - ACTION_LOW
INIT_STD_FRACTION = 0.15


@dataclass(frozen=True)
class PpoConfig:
    gamma: Unit = 0.99
    gae_lambda: Unit = 0.95
    clip: Positive = 0.2
    epochs: Count = 4
    minibatches: Count = 4
    entropy_coef: NonNegative = 0.01
    value_coef: NonNegative = 0.5
    learning_rate: Positive = 3e-4
    horizon: Count = 256
    n_envs: Count = 16
    alpha: NonNegative = 1.0

    def __post_init__(self) -> None:
        check_domains(self, "[ppo] ")
        if self.minibatches > self.n_envs * self.horizon:
            raise ConfigError(
                f"[ppo] minibatches {self.minibatches} exceeds the {self.n_envs * self.horizon} "
                "rows of a batch (n_envs x horizon)"
            )


@dataclass(frozen=True)
class TrainConfig:
    stage1_updates: NonNegativeInt = 300
    stage2_updates: NonNegativeInt = 100
    stage3_updates: NonNegativeInt = 200
    stage2_epochs: NonNegativeInt = 4
    estimator_lr: Positive = 1e-2
    loss: TerrainLossWeights = TerrainLossWeights()

    def __post_init__(self) -> None:
        check_domains(self, "[train] ")
        if self.stage1_updates + self.stage2_updates + self.stage3_updates == 0:
            raise ConfigError("[train] at least one stage needs a positive update budget")


class WorldSampler:
    """Deterministic stream of stair specs drawn from fixed ranges."""

    def __init__(self, ranges: ParameterRanges, seed):
        self.ranges = ranges
        self._rng = np.random.default_rng(seed)

    def __call__(self) -> StairSpec:
        return generate_stairs(self._rng, self.ranges)


class GaussianPolicy:
    """Tanh-squashed Gaussian actor plus a value critic.

    The action mean is an affine tanh map into the action bounds; the
    log-std is state independent. Sampled actions may leave the bounds
    (the environment clamps), so no squashing correction is applied to
    the log-density: exploration noise is small relative to the bounds.
    """

    def __init__(self, obs_dim: int, rng: np.random.Generator, hidden=(64, 64)):
        actor = Mlp.create([obs_dim, *hidden, 3], rng)
        critic = Mlp.create([obs_dim, *hidden, 1], rng)
        self.obs_dim = obs_dim
        # One vector [actor | critic | log_std]; the nets and log_std are views of it.
        log_std = libm(math.log, INIT_STD_FRACTION * _ACTION_SPAN)
        self.params = np.concatenate([actor.params, critic.params, log_std])
        self.grads = np.zeros_like(self.params)
        a, c = actor.params.size, actor.params.size + critic.params.size
        self.actor = Mlp(actor.sizes, self.params[:a], self.grads[:a])
        self.critic = Mlp(critic.sizes, self.params[a:c], self.grads[a:c])
        self.log_std = self.params[c:]

    def squash(self, raw: np.ndarray) -> np.ndarray:
        return ACTION_LOW + 0.5 * (np.tanh(raw) + 1.0) * _ACTION_SPAN

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        return self.squash(self.actor(np.atleast_2d(obs)))

    def value(self, obs: np.ndarray) -> np.ndarray:
        return self.critic(np.atleast_2d(obs))[:, 0]

    def log_density(self, actions: np.ndarray, mean: np.ndarray, std: np.ndarray):
        """(log-density of each row of ``actions``, standardized residual z); ``std`` is exp(log_std)."""
        z = (actions - mean) / std
        return -0.5 * (z * z).sum(axis=1) - self.log_std.sum() - 1.5 * _LOG_2PI, z

    def entropy(self) -> float:
        return float(self.log_std.sum() + 1.5 * (1.0 + _LOG_2PI))

    def act_batch(self, obs: np.ndarray, rng: np.random.Generator):
        obs = np.atleast_2d(obs)
        mean = self.squash(self.actor(obs))
        std = libm(math.exp, self.log_std)
        actions = mean + std * rng.standard_normal(mean.shape)
        return actions, self.log_density(actions, mean, std)[0], self.value(obs)

    def named_grads(self) -> list[tuple[str, np.ndarray]]:
        """(name, view of ``grads``) per parameter: actor.W0, ..., critic.W0, ..., log_std."""
        return (
            [(f"actor.{name}", g) for name, g in self.actor.named_grads()]
            + [(f"critic.{name}", g) for name, g in self.critic.named_grads()]
            + [("log_std", self.grads[-3:])]
        )


@dataclass
class RolloutBatch:
    obs: np.ndarray  # (T, N, D)
    actions: np.ndarray  # (T, N, 3)
    log_probs: np.ndarray  # (T, N)
    rewards: np.ndarray  # (T, N)
    values: np.ndarray  # (T + 1, N), includes bootstrap row
    dones: np.ndarray  # (T, N)
    episodes: list[EpisodeRecord] = field(default_factory=list)
    sup_features: np.ndarray | None = None
    sup_class: np.ndarray | None = None
    sup_h: np.ndarray | None = None
    sup_d: np.ndarray | None = None


def collect(
    envs: list[StepperEnv],
    samplers: list[WorldSampler],
    policy: GaussianPolicy,
    cfg: PpoConfig,
    rng: np.random.Generator,
    collect_supervision: bool = False,
) -> RolloutBatch:
    """Roll the ensemble for ``cfg.horizon`` steps; deterministic per rng.

    Finished environments reset immediately from their samplers. With
    ``collect_supervision`` the pooled BEV features and teacher labels of
    visited states are recorded on each env's token-refresh schedule.
    """
    n = len(envs)
    t_max = cfg.horizon
    obs_dim = OBS_DIM[envs[0].cfg.obs_mode]

    obs_buf = np.empty((t_max, n, obs_dim))
    act_buf = np.empty((t_max, n, 3))
    logp_buf = np.empty((t_max, n))
    rew_buf = np.empty((t_max, n))
    val_buf = np.empty((t_max + 1, n))
    done_buf = np.zeros((t_max, n))
    episodes: list[EpisodeRecord] = []
    samples = []

    for env, sampler in zip(envs, samplers):
        if env.done or env.spec is None:
            env.reset(sampler())

    obs = np.stack([env.last_obs for env in envs])
    for t in range(t_max):
        actions, logps, values = policy.act_batch(obs, rng)
        if not np.isfinite(actions).all():
            raise TrainingError("non-finite action sampled during collection")
        obs_buf[t] = obs
        act_buf[t] = actions
        logp_buf[t] = logps
        val_buf[t] = values
        for i, env in enumerate(envs):
            if collect_supervision and env.refresh_due():
                samples.append(env.supervision_sample())
            _, reward, done, _ = env.step(actions[i])
            rew_buf[t, i] = reward
            done_buf[t, i] = float(done)
            if done:
                episodes.append(env.episode_record())
                env.reset(samplers[i]())
        obs = np.stack([env.last_obs for env in envs])
    val_buf[t_max] = policy.value(obs)

    batch = RolloutBatch(obs_buf, act_buf, logp_buf, rew_buf, val_buf, done_buf, episodes)
    if samples:
        sup_feats, sup_cls, sup_h, sup_d = zip(*samples)
        batch.sup_features = np.stack(sup_feats)
        batch.sup_class = np.asarray(sup_cls, dtype=int)
        batch.sup_h = np.asarray(sup_h)
        batch.sup_d = np.asarray(sup_d)
    return batch


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over a (T, N) batch.

    ``values`` has T + 1 rows (bootstrap value for each env's final
    state). Episode boundaries cut both the bootstrap and the recursion.
    """
    rewards = np.atleast_2d(np.asarray(rewards, dtype=float))
    values = np.atleast_2d(np.asarray(values, dtype=float))
    dones = np.atleast_2d(np.asarray(dones, dtype=float))
    t_max, n = rewards.shape
    if values.shape != (t_max + 1, n) or dones.shape != (t_max, n):
        raise ValueError("gae: inconsistent batch shapes")

    adv = np.zeros((t_max, n))
    carry = np.zeros(n)
    for t in range(t_max - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * values[t + 1] * nonterminal - values[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    return adv, adv + values[:t_max]


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    std = adv.std()
    return (adv - adv.mean()) / max(std, 1e-8)


def surrogate_grads(
    policy: GaussianPolicy,
    obs: np.ndarray,
    actions: np.ndarray,
    logp_old: np.ndarray,
    adv: np.ndarray,
    returns: np.ndarray,
    cfg: PpoConfig,
):
    """Analytic gradient of the clipped objective on one minibatch.

    Returns (grads, stats); grads is ``policy.grads``, in the layout of
    ``policy.params``.
    The minimized loss is -E[min(rho A, clip(rho) A)]
    + value_coef * E[(V - returns)^2] - entropy_coef * H.
    """
    m = obs.shape[0]
    raw, actor_acts = policy.actor.forward(obs)
    mean = policy.squash(raw)
    std = libm(math.exp, policy.log_std)
    logp, z = policy.log_density(actions, mean, std)

    ratio = libm(math.exp, logp - logp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv
    objective = np.minimum(unclipped, clipped)
    # Gradient flows through the ratio only where the unclipped branch
    # attains the min (ties included, which covers the theta_old point).
    active = (unclipped <= clipped).astype(float)
    dlogp = -(adv * ratio * active) / m

    dmean = dlogp[:, None] * (z / std)
    draw = dmean * 0.5 * _ACTION_SPAN * (1.0 - np.tanh(raw) ** 2)
    policy.actor.backward(actor_acts, draw)

    policy.grads[-3:] = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0) - cfg.entropy_coef

    v_out, critic_acts = policy.critic.forward(obs)
    v = v_out[:, 0]
    dv = 2.0 * cfg.value_coef * (v - returns) / m
    policy.critic.backward(critic_acts, dv[:, None])

    stats = {
        "policy_loss": float(-objective.mean()),
        "value_loss": float(((v - returns) ** 2).mean()),
        "entropy": policy.entropy(),
        "clip_frac": float((np.abs(ratio - 1.0) > cfg.clip).mean()),
        "kl": float((logp_old - logp).mean()),
    }
    return policy.grads, stats


def ppo_update(
    policy: GaussianPolicy,
    batch: RolloutBatch,
    cfg: PpoConfig,
    adam: AdamState,
    rng: np.random.Generator,
) -> dict:
    """Epochs of minibatched clipped-surrogate ascent; returns mean stats."""
    t_max, n, obs_dim = batch.obs.shape
    obs = batch.obs.reshape(t_max * n, obs_dim)
    actions = batch.actions.reshape(t_max * n, 3)
    logp_old = batch.log_probs.reshape(t_max * n)

    adv, returns = gae(batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
    adv = normalize_advantages(adv).reshape(t_max * n)
    returns = returns.reshape(t_max * n)

    agg: dict[str, float] = {}
    count = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(obs.shape[0])
        for chunk in np.array_split(perm, cfg.minibatches):
            _, stats = surrogate_grads(
                policy, obs[chunk], actions[chunk], logp_old[chunk], adv[chunk], returns[chunk], cfg
            )
            if not all(np.isfinite(v) for v in stats.values()):
                raise TrainingError(f"non-finite loss during update: {stats}")
            adam_step(policy, adam)
            np.clip(policy.log_std, *LOG_STD_BOUNDS, out=policy.log_std)
            for k, v in stats.items():
                agg[k] = agg.get(k, 0.0) + v
            count += 1
    stats = {k: v / count for k, v in agg.items()}
    stats["adv_mean"] = float(adv.mean())
    stats["adv_std"] = float(adv.std())
    return stats


def estimator_update(
    estimator: Mlp,
    features: np.ndarray,
    gt_class: np.ndarray,
    gt_h: np.ndarray,
    gt_d: np.ndarray,
    weights: TerrainLossWeights,
    adam: AdamState,
    alpha: float = 1.0,
    epochs: int = 1,
) -> float:
    """Adam steps on alpha * mean terrain loss; returns the pre-update loss.

    The pre-update loss comes from epoch 0's forward pass, which runs on
    the parameters as they were passed in.
    """
    out, acts = estimator.forward(features)
    logits, h_hat, d_hat = estimator_heads(out)
    initial = float(terrain_loss(logits, h_hat, d_hat, gt_class, gt_h, gt_d, weights).mean())
    m = features.shape[0]
    for epoch in range(epochs):
        if epoch > 0:
            out, acts = estimator.forward(features)
            logits, h_hat, d_hat = estimator_heads(out)
        d_logits, d_h, d_d = terrain_loss_grad(
            logits, h_hat, d_hat, gt_class, gt_h, gt_d, weights
        )
        dout = np.concatenate([d_logits, d_h[:, None], d_d[:, None]], axis=1)
        estimator.backward(acts, alpha * dout / m)
        adam_step(estimator, adam)
    return initial


CURVE_COLUMNS = (
    "update",
    "mean_reward",
    "success_rate",
    "E_vel",
    "policy_loss",
    "value_loss",
    "terrain_loss",
    "clip_frac",
    "kl",
)


@dataclass
class TrainResult:
    policy: GaussianPolicy
    estimator: Mlp | None
    curves: list[dict]


def _curve_row(update: int, stats: dict, episodes: list[EpisodeRecord]) -> dict:
    nan = float("nan")
    row = {"update": update, "mean_reward": nan, "success_rate": nan, "E_vel": nan}
    if episodes:
        row["mean_reward"] = float(np.mean([e.return_ for e in episodes]))
        row["success_rate"] = float(np.mean([e.success for e in episodes]))
        row["E_vel"] = float(np.mean([e.mean_abs_verr for e in episodes]))
    return row | {key: stats.get(key, nan) for key in CURVE_COLUMNS[len(row):]}


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` itself if it is a ``SeedSequence``, else a new one from it."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in as_seed_sequence(seed).spawn(n)]


def make_ensemble(
    env_cfg: EnvConfig,
    ranges: ParameterRanges,
    n_envs: int,
    seed,
    estimator_net: Mlp | None = None,
) -> tuple[list[StepperEnv], list[WorldSampler]]:
    rngs = _spawn_rngs(seed, 2 * n_envs)
    envs = [StepperEnv(env_cfg, rngs[i], estimator_net=estimator_net) for i in range(n_envs)]
    samplers = [WorldSampler(ranges, rngs[n_envs + i]) for i in range(n_envs)]
    return envs, samplers


@dataclass(frozen=True)
class _EstimatorFit:
    """A stage's estimator step: ``epochs`` Adam steps on alpha * terrain loss."""

    net: Mlp
    adam: AdamState
    weights: TerrainLossWeights
    epochs: int
    alpha: float = 1.0


def _train_stage(
    policy: GaussianPolicy,
    envs: list[StepperEnv],
    samplers: list[WorldSampler],
    ppo_cfg: PpoConfig,
    updates: range,
    collect_rng: np.random.Generator,
    update_rng: np.random.Generator | None,
    fit: _EstimatorFit | None = None,
) -> list[dict]:
    """Run one stage's updates; each writes one curve row.

    The policy trains only with an ``update_rng``, from a fresh Adam state;
    the estimator only with a ``fit``, on batches that hold supervision.
    """
    policy_adam = AdamState(lr=ppo_cfg.learning_rate)
    curves = []
    for update in updates:
        batch = collect(envs, samplers, policy, ppo_cfg, collect_rng, fit is not None)
        stats = {}
        if update_rng is not None:
            stats = ppo_update(policy, batch, ppo_cfg, policy_adam, update_rng)
        if fit is not None and batch.sup_features is not None:
            stats["terrain_loss"] = estimator_update(
                fit.net, batch.sup_features, batch.sup_class, batch.sup_h, batch.sup_d,
                fit.weights, fit.adam, alpha=fit.alpha, epochs=fit.epochs,
            )
        curves.append(_curve_row(update, stats, batch.episodes))
    return curves


def train_policy(
    env_cfg: EnvConfig,
    ranges: ParameterRanges,
    ppo_cfg: PpoConfig,
    n_updates: int,
    seed: int,
) -> TrainResult:
    """Plain PPO from a fresh policy; stage 1 of ``train_three_stage``."""
    init_seed, collect_seed, update_seed, env_seed = as_seed_sequence(seed).spawn(4)
    policy = GaussianPolicy(OBS_DIM[env_cfg.obs_mode], np.random.default_rng(init_seed))
    envs, samplers = make_ensemble(env_cfg, ranges, ppo_cfg.n_envs, env_seed)
    curves = _train_stage(
        policy, envs, samplers, ppo_cfg, range(n_updates),
        np.random.default_rng(collect_seed), np.random.default_rng(update_seed),
    )
    return TrainResult(policy, None, curves)


def train_three_stage(
    env_cfg: EnvConfig,
    ranges: ParameterRanges,
    ppo_cfg: PpoConfig,
    train_cfg: TrainConfig,
    seed: int,
) -> TrainResult:
    """Teacher-token pretraining, supervised estimator training, joint stage."""
    seeds = as_seed_sequence(seed).spawn(6)
    n1, n2, n3 = train_cfg.stage1_updates, train_cfg.stage2_updates, train_cfg.stage3_updates

    # Stage 1: policy learns from ground-truth tokens.
    stage1_cfg = replace(env_cfg, token_source=TokenSource.GROUND_TRUTH)
    result = train_policy(stage1_cfg, ranges, ppo_cfg, n1, seeds[0])
    policy, curves = result.policy, result.curves

    # Stage 2: the estimator learns from teacher labels on on-policy states.
    estimator = build_estimator_net(np.random.default_rng(seeds[1]))
    fit = _EstimatorFit(
        estimator, AdamState(lr=train_cfg.estimator_lr), train_cfg.loss, train_cfg.stage2_epochs
    )
    envs, samplers = make_ensemble(stage1_cfg, ranges, ppo_cfg.n_envs, seeds[2])
    curves += _train_stage(
        policy, envs, samplers, ppo_cfg, range(n1, n1 + n2),
        np.random.default_rng(seeds[3]), None, fit,
    )

    # Stage 3: joint optimization with predicted tokens in the loop; the
    # estimator keeps its Adam state, the policy starts a fresh one.
    _, collect_seed, update_seed, env_seed = seeds[4].spawn(4)
    stage3_cfg = replace(env_cfg, token_source=TokenSource.LEARNED)
    envs, samplers = make_ensemble(stage3_cfg, ranges, ppo_cfg.n_envs, env_seed, estimator)
    curves += _train_stage(
        policy, envs, samplers, ppo_cfg, range(n1 + n2, n1 + n2 + n3),
        np.random.default_rng(collect_seed), np.random.default_rng(update_seed),
        replace(fit, alpha=ppo_cfg.alpha),
    )
    return TrainResult(policy, estimator, curves)


def evaluate_policy(
    policy: GaussianPolicy,
    env_cfg: EnvConfig,
    ranges: ParameterRanges,
    n_episodes: int,
    seed: int,
) -> list[EpisodeRecord]:
    """Deterministic (mean-action) evaluation episodes."""
    env_rng, sampler_rng = _spawn_rngs(seed, 2)
    env = StepperEnv(env_cfg, env_rng)
    sampler = WorldSampler(ranges, sampler_rng)
    records = []
    for _ in range(n_episodes):
        obs = env.reset(sampler())
        done = False
        while not done:
            action = policy.mean_action(obs)[0]
            obs, _, done, _ = env.step(action)
        records.append(env.episode_record())
    return records


def save_policy(directory, policy: GaussianPolicy) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_mlp(directory / "actor.mlp1", policy.actor)
    save_mlp(directory / "critic.mlp1", policy.critic)
    (directory / "log_std.txt").write_text(
        " ".join(repr(float(v)) for v in policy.log_std) + "\n"
    )


def load_policy(directory) -> GaussianPolicy:
    """Read a saved policy; damaged or mismatched files raise ValueError naming the path."""
    directory = Path(directory)
    actor = load_mlp(directory / "actor.mlp1")
    critic = load_mlp(directory / "critic.mlp1")
    if actor.sizes[-1] != 3 or critic.sizes != [*actor.sizes[:-1], 1]:
        raise ValueError(
            f"{directory}: actor {actor.sizes} and critic {critic.sizes} do not form a policy"
        )
    std_path = directory / "log_std.txt"
    try:
        log_std = np.array([float(v) for v in std_path.read_text().split()])
    except ValueError as exc:
        raise ValueError(f"{std_path}: non-numeric log-std value") from exc
    if log_std.shape != (3,) or not np.isfinite(log_std).all():
        raise ValueError(f"{std_path}: expected 3 finite log-std values")
    # The constructor lays out the vector; the files' values replace its draws.
    policy = GaussianPolicy(actor.sizes[0], np.random.default_rng(0), actor.sizes[1:-1])
    policy.params[:] = np.concatenate([actor.params, critic.params, log_std])
    return policy
