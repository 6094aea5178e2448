"""The token feed: one sense per step, shared by the token and supervision."""

import numpy as np
import pytest

import stairlab.env
from stairlab import tokens
from stairlab.env import OBS_DIM, EnvConfig, ObsMode, StepperEnv, TokenSource
from stairlab.errors import ConfigError
from stairlab.nn import build_estimator_net, pool_bev
from stairlab.ppo import GaussianPolicy, PpoConfig, collect, make_ensemble
from stairlab.sensor import SensorModel
from stairlab.world import ParameterRanges, StairClass, StairSpec

COARSE = SensorModel(sample_pitch=0.06)
UP = StairSpec(StairClass.STAIRS_UP, 0.14, 0.30, 0.1, 8, 1.0, 1.0)


def count_calls(monkeypatch, name):
    """Count the calls ``tokens`` makes to its binding ``name``, keeping their arguments."""
    calls = []
    fn = getattr(tokens, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(tokens, name, counted)
    return calls


def test_analytic_supervision_reuses_the_token_grid(monkeypatch):
    scans = count_calls(monkeypatch, "scan")
    estimated = count_calls(monkeypatch, "estimate_token")
    cfg = EnvConfig(obs_mode=ObsMode.TOKEN, token_source=TokenSource.ANALYTIC, sensor=COARSE)
    env = StepperEnv(cfg, seed=3)
    env.reset(UP)
    assert len(scans) == 1
    feats, cls, h, d = env.supervision_sample()
    assert len(scans) == 1
    assert np.array_equal(feats, pool_bev(estimated[0][0]))
    assert (cls, h, d) == (int(StairClass.STAIRS_UP), 0.14, 0.30)

    # Off the refresh schedule the token senses nothing; supervision senses once per step.
    env.step([0.2, 0.1, 0.0])
    assert len(scans) == 1
    again = env.supervision_sample()[0]
    assert len(scans) == 2
    assert env.supervision_sample()[0] is again
    assert len(scans) == 2


def test_learned_collect_senses_once_per_refresh_step(monkeypatch):
    scans = count_calls(monkeypatch, "scan")
    pooled = count_calls(monkeypatch, "pool_bev")
    refresh_steps = []
    observe = StepperEnv.observe

    def counted_observe(env):
        if env.t % env.cfg.token_refresh == 0:
            refresh_steps.append(env.t)
        return observe(env)

    monkeypatch.setattr(StepperEnv, "observe", counted_observe)
    cfg = EnvConfig(obs_mode=ObsMode.TOKEN, token_source=TokenSource.LEARNED, horizon=30, sensor=COARSE)
    net = build_estimator_net(np.random.default_rng(1), hidden=8)
    envs, samplers = make_ensemble(cfg, ParameterRanges(), 3, 7, net)
    rng = np.random.default_rng(2)
    policy = GaussianPolicy(OBS_DIM[ObsMode.TOKEN], rng)
    batch = collect(envs, samplers, policy, PpoConfig(horizon=24, n_envs=3), rng, True)
    assert batch.sup_class.size > 0
    assert len(scans) == len(refresh_steps)
    assert len(pooled) == len(scans)


def test_learned_source_without_net_refused_at_construction():
    cfg = EnvConfig(obs_mode=ObsMode.TOKEN, token_source=TokenSource.LEARNED)
    with pytest.raises(ConfigError, match="learned token source requires an estimator net"):
        StepperEnv(cfg, seed=0)


def test_env_binds_no_perception():
    names = {"scan", "project", "pool_bev", "estimate_token", "estimate_yaw",
             "riser_ahead_on_axis", "Mlp", "ground_truth_token"}
    assert names.isdisjoint(vars(stairlab.env))
    assert stairlab.env.TokenSource is tokens.TokenSource
