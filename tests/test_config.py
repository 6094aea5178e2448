import math
import re
from pathlib import Path

import pytest

import stairlab
from stairlab.config import (
    _KEYS,
    ExperimentConfig,
    canonical_text,
    config_hash,
    default_config,
    load_config,
    parse_config_text,
)
from stairlab.env import ObsMode, TokenSource
from stairlab.errors import ConfigError
from stairlab.estimator import EstimatorConfig
from stairlab.nn import TerrainLossWeights
from stairlab.sensor import SensorModel

# One valid value off the default for every accepted (section, key): the
# complete key set, pinned.
PERTURBED = {
    ("world", "h_min"): "0.11",
    ("world", "h_max"): "0.17",
    ("world", "h_choices"): "0.12,0.14",
    ("world", "d_min"): "0.26",
    ("world", "d_max"): "0.34",
    ("world", "yaw_min_deg"): "-15",
    ("world", "yaw_max_deg"): "15",
    ("world", "n_steps_min"): "5",
    ("world", "n_steps_max"): "10",
    ("world", "lead_flat_min"): "0.9",
    ("world", "lead_flat_max"): "1.2",
    ("world", "tail_flat_min"): "0.7",
    ("world", "tail_flat_max"): "0.9",
    ("world", "origin_x"): "0.5",
    ("world", "origin_y"): "-0.5",
    ("world", "weight_flat"): "0.5",
    ("world", "weight_up"): "0.5",
    ("world", "weight_down"): "0.5",
    ("sensor", "window"): "2.5",
    ("sensor", "pitch"): "0.05",
    ("sensor", "noise_sigma_z"): "0.02",
    ("sensor", "dropout"): "0.1",
    ("sensor", "occlusion"): "true",
    ("sensor", "sensor_height"): "1.0",
    ("estimator", "yaw_min_deg"): "-30",
    ("estimator", "yaw_max_deg"): "30",
    ("estimator", "yaw_pitch_deg"): "2",
    ("estimator", "profile_bin"): "0.04",
    ("estimator", "riser_threshold"): "0.08",
    ("estimator", "min_risers"): "3",
    ("estimator", "min_occupancy"): "0.2",
    ("env", "obs_mode"): "blind",
    ("env", "token_source"): "analytic",
    ("env", "horizon"): "100",
    ("env", "edge_margin"): "0.03",
    ("env", "v_cmd_min"): "0.25",
    ("env", "v_cmd_max"): "0.35",
    ("env", "w_velocity"): "1.5",
    ("env", "w_forward"): "1.0",
    ("env", "w_clearance"): "0.4",
    ("env", "w_heading"): "0.6",
    ("env", "tracking_scale"): "0.2",
    ("env", "terminal_bonus"): "5",
    ("env", "token_noise_h"): "0.01",
    ("env", "token_noise_d"): "0.01",
    ("env", "token_flip_p"): "0.1",
    ("env", "heightscan_noise"): "0.02",
    ("env", "flat_goal"): "2.5",
    ("env", "v_avg_alpha"): "0.5",
    ("env", "step_dt"): "0.5",
    ("env", "token_refresh"): "3",
    ("ppo", "gamma"): "0.98",
    ("ppo", "gae_lambda"): "0.9",
    ("ppo", "clip"): "0.3",
    ("ppo", "epochs"): "2",
    ("ppo", "minibatches"): "2",
    ("ppo", "entropy_coef"): "0.02",
    ("ppo", "value_coef"): "0.4",
    ("ppo", "learning_rate"): "1e-3",
    ("ppo", "horizon"): "64",
    ("ppo", "n_envs"): "8",
    ("ppo", "alpha"): "0.5",
    ("train", "stage1_updates"): "10",
    ("train", "stage2_updates"): "5",
    ("train", "stage3_updates"): "7",
    ("train", "stage2_epochs"): "2",
    ("train", "estimator_lr"): "0.005",
    ("loss", "lambda_cls"): "5",
    ("loss", "lambda_h"): "0",
    ("loss", "lambda_d"): "2",
    ("run", "seeds"): "4,5",
    ("run", "out_dir"): "elsewhere",
    ("benchmark", "n_configs"): "50",
    ("benchmark", "h_min"): "0.12",
    ("benchmark", "h_max"): "0.2",
    ("benchmark", "d_min"): "0.26",
    ("benchmark", "d_max"): "0.34",
    ("benchmark", "yaw_min_deg"): "-10",
    ("benchmark", "yaw_max_deg"): "10",
    ("benchmark", "weight_flat"): "0.2",
    ("benchmark", "weight_up"): "0.4",
    ("benchmark", "weight_down"): "0.4",
    ("benchmark", "dropout"): "0.1",
    ("ablation", "updates"): "10",
    ("ablation", "eval_episodes"): "20",
    ("ablation", "terrain_heights"): "0.12,0.2",
    ("ablation", "terrain_episodes"): "5",
    ("ablation", "success_threshold"): "0.7",
    ("ablation", "success_window"): "5",
    ("generalize", "updates"): "10",
    ("generalize", "train_heights"): "0.12",
    ("generalize", "eval_heights"): "0.12,0.2",
    ("generalize", "episodes"): "20",
    ("generalize", "modes"): "token",
    ("track", "updates"): "10",
    ("track", "schedule"): "0:0.25, 50:0.35",
    ("track", "h_step"): "0.15",
    ("track", "d_step"): "0.32",
    ("track", "n_steps"): "100",
    ("track", "policy_dir"): "pol",
}


def test_defaults_load():
    cfg = default_config()
    assert cfg.ppo.gamma == 0.99
    assert cfg.run.seeds == (1, 2, 3)
    assert cfg.env.estimator.riser_threshold == 0.06
    # The generalization sweep covers the six standard heights.
    assert cfg.generalize.eval_heights == (0.12, 0.14, 0.16, 0.18, 0.20, 0.22)
    assert cfg.generalize.train_heights == (0.12, 0.14, 0.16)
    assert cfg.benchmark.n_configs == 1000


def test_overrides_applied(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        """
[world]
h_min = 0.10
h_max = 0.20
weight_flat = 0.2
weight_up = 0.8
weight_down = 0.0

[env]
obs_mode = heightscan
token_source = analytic
horizon = 50

[ppo]
gamma = 0.95
n_envs = 4

[run]
seeds = 5,6
out_dir = out
"""
    )
    cfg = load_config(path)
    assert cfg.world.h_step == (0.10, 0.20)
    assert cfg.world.class_weights == (0.2, 0.8, 0.0)
    assert cfg.env.obs_mode == ObsMode.HEIGHTSCAN
    assert cfg.env.token_source == TokenSource.ANALYTIC
    assert cfg.env.horizon == 50
    assert cfg.ppo.gamma == 0.95
    assert cfg.run.seeds == (5, 6)
    assert cfg.base_dir == tmp_path.resolve()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[nope]\nx = 1\n", base_dir=None)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[ppo]\nlearning = 1\n", base_dir=None)


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("[ppo]\ngamma = fast\n", base_dir=None)


def test_invalid_range_propagates():
    with pytest.raises(ConfigError):
        parse_config_text("[world]\nh_min = 0.3\nh_max = 0.1\n", base_dir=None)


def test_yaw_converted_to_radians():
    cfg = parse_config_text("[world]\nyaw_min_deg = -10\nyaw_max_deg = 10\n", base_dir=None)
    assert cfg.world.stair_yaw[0] == pytest.approx(math.radians(-10))
    assert cfg.world.stair_yaw[1] == pytest.approx(math.radians(10))


def test_schedule_parsing():
    cfg = parse_config_text("[track]\nschedule = 0:0.2, 50:0.35\n", base_dir=None)
    assert cfg.track.schedule == ((0, 0.2), (50, 0.35))


def test_height_choices_parsing():
    cfg = parse_config_text("[world]\nh_choices = 0.12,0.14,0.16\n", base_dir=None)
    assert cfg.world.h_choices == (0.12, 0.14, 0.16)


def test_canonical_text_stable_and_hash_sensitive():
    a = default_config()
    b = parse_config_text("[ppo]\ngamma = 0.98\n", base_dir=None)
    assert canonical_text(a) == canonical_text(default_config())
    assert config_hash(a) != config_hash(b)
    assert "ppo.gamma = 0.98" in canonical_text(b)


def test_comments_and_inline_comments():
    cfg = parse_config_text(
        "# top comment\n[ppo]\ngamma = 0.9 # inline\n", base_dir=None
    )
    assert cfg.ppo.gamma == 0.9


def setting_lines(cfg):
    return dict(line.split(" = ", 1) for line in canonical_text(cfg).splitlines())


def test_accepted_keys_pinned():
    accepted = {(section, key) for section, keys in _KEYS.items() for key in keys}
    assert len(accepted) == 100
    assert accepted == set(PERTURBED)


def test_every_key_has_a_reader():
    # A key whose field no module reads changes the config hash and nothing else.
    src = Path(stairlab.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
    unread = sorted(
        f"[{section}] {key}"
        for section, keys in _KEYS.items()
        for key, (path, _, _) in keys.items()
        if not re.search(rf"\.{path.rsplit('.', 1)[-1]}\b", text)
    )
    assert unread == []


def test_each_key_sets_exactly_one_setting():
    base = setting_lines(default_config())
    reached = set()
    for (section, key), value in PERTURBED.items():
        lines = setting_lines(parse_config_text(f"[{section}]\n{key} = {value}\n", base_dir=None))
        assert lines.keys() == base.keys()
        changed = {name for name in base if lines[name] != base[name]}
        assert len(changed) == 1, f"[{section}] {key} changed {sorted(changed)}"
        reached |= changed
    assert set(base) - reached == {"env.command_schedule", "env.estimator.merge_floor"}


def test_perception_and_loss_sections_edit_their_owners():
    cfg = parse_config_text(
        "[sensor]\nnoise_sigma_z = 0.08\npitch = 0.05\n"
        "[estimator]\nriser_threshold = 0.2\nmin_risers = 3\n"
        "[loss]\nlambda_h = 0\nlambda_cls = 5\n",
        base_dir=None,
    )
    assert cfg.env.sensor == SensorModel(noise_sigma_z=0.08, sample_pitch=0.05)
    assert cfg.sensor is cfg.env.sensor
    assert cfg.env.estimator == EstimatorConfig(riser_threshold=0.2, min_risers_for_stairs=3)
    assert cfg.train.loss == TerrainLossWeights(lambda_cls=5.0, lambda_h=0.0)
    text = canonical_text(cfg)
    assert "env.sensor.noise_sigma_z = 0.08\n" in text
    assert "env.estimator.riser_threshold = 0.2\n" in text
    assert "train.loss.lambda_h = 0.0\n" in text
    assert "SensorModel(" not in text and "EstimatorConfig(" not in text


def test_split_keys_apply_together():
    # Both ends of a range move in one file even where one end alone would invert it.
    cfg = parse_config_text("[world]\nh_min = 0.2\nh_max = 0.25\norigin_x = 0.5\n", base_dir=None)
    assert cfg.world.h_step == (0.2, 0.25)
    assert cfg.world.origin_x == (0.5, 0.5)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[ppo]\nminibatches = 0\n", "minibatches must be positive, got 0"),
        ("[ppo]\nminibatches = -2\n", "minibatches must be positive, got -2"),
        ("[ppo]\nepochs = 0\n", "epochs must be positive, got 0"),
        ("[ppo]\nepochs = -1\n", "epochs must be positive, got -1"),
        ("[ppo]\nn_envs = 0\n", "n_envs must be positive, got 0"),
        ("[ppo]\nhorizon = 0\n", "horizon must be positive, got 0"),
        (
            "[ppo]\nn_envs = 2\nhorizon = 16\nminibatches = 64\n",
            "minibatches 64 exceeds the 32 rows of a batch (n_envs x horizon)",
        ),
        ("[train]\nstage2_epochs = -1\n", "stage2_epochs must be non-negative, got -1"),
        ("[loss]\nlambda_h = -1\n", "[loss] lambda_h must be non-negative, got -1.0"),
        ("[ppo]\nlearning_rate = -1\n", "learning_rate must be positive, got -1.0"),
        ("[env]\nstep_dt = 0\n", "[env] step_dt must be positive, got 0.0"),
        ("[env]\nstep_dt = -1\n", "[env] step_dt must be positive, got -1.0"),
        ("[env]\ntracking_scale = 0\n", "[env] tracking_scale must be positive, got 0.0"),
        ("[env]\nv_avg_alpha = 2\n", "[env] v_avg_alpha must lie in (0, 1], got 2.0"),
        ("[env]\ntoken_noise_h = -0.1\n", "[env] token_noise_h must be non-negative, got -0.1"),
        ("[env]\ntoken_noise_d = -0.1\n", "[env] token_noise_d must be non-negative, got -0.1"),
        (
            "[env]\nheightscan_noise = -0.01\n",
            "[env] heightscan_noise must be non-negative, got -0.01",
        ),
        ("[env]\ntoken_noise_h = nan\n", "[env] token_noise_h must be finite, got nan"),
        ("[env]\ntoken_noise_d = nan\n", "[env] token_noise_d must be finite, got nan"),
        ("[env]\nheightscan_noise = inf\n", "[env] heightscan_noise must be finite, got inf"),
        (
            "[env]\nv_cmd_min = 0.5\nv_cmd_max = 0.1\n",
            "[env] need finite v_cmd_min <= v_cmd_max, got (0.5, 0.1)",
        ),
        ("[env]\nv_cmd_min = nan\n", "[env] need finite v_cmd_min <= v_cmd_max, got (nan, 0.4)"),
        ("[env]\nv_cmd_max = inf\n", "[env] need finite v_cmd_min <= v_cmd_max, got (0.2, inf)"),
        ("[env]\nedge_margin = -1\n", "[env] edge_margin must be non-negative, got -1.0"),
        ("[env]\nflat_goal = -1\n", "[env] flat_goal must be positive, got -1.0"),
        ("[env]\nflat_goal = 0\n", "[env] flat_goal must be positive, got 0.0"),
        ("[ppo]\nvalue_coef = -1\n", "value_coef must be non-negative, got -1.0"),
        ("[ppo]\nentropy_coef = -1\n", "entropy_coef must be non-negative, got -1.0"),
    ],
)
def test_update_counts_rejected(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text, base_dir=None)
    assert str(exc.value) == message


def test_env_and_ppo_edges_accepted():
    # Bounds are inclusive where a zero or an empty command range still means something.
    cfg = parse_config_text(
        "[env]\nedge_margin = 0\nv_cmd_min = 0.3\nv_cmd_max = 0.3\nflat_goal = 0.5\n"
        "[ppo]\nvalue_coef = 0\nentropy_coef = 0\n",
        base_dir=None,
    )
    assert (cfg.env.edge_margin, cfg.env.v_cmd_range, cfg.env.flat_goal) == (0.0, (0.3, 0.3), 0.5)
    assert (cfg.ppo.value_coef, cfg.ppo.entropy_coef) == (0.0, 0.0)


def test_update_count_edges_accepted():
    cfg = parse_config_text(
        "[ppo]\nn_envs = 2\nhorizon = 16\nminibatches = 32\nepochs = 1\n[train]\nstage2_epochs = 0\n",
        base_dir=None,
    )
    assert (cfg.ppo.minibatches, cfg.ppo.epochs, cfg.train.stage2_epochs) == (32, 1, 0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[run]\nseeds =\n", "[run] seeds must list at least one seed"),
        ("[ablation]\nupdates = -1\n", "[ablation] updates must be non-negative, got -1"),
        ("[ablation]\neval_episodes = 0\n", "[ablation] eval_episodes must be positive, got 0"),
        (
            "[ablation]\nterrain_episodes = 0\n",
            "[ablation] terrain_episodes must be positive, got 0",
        ),
        ("[ablation]\nsuccess_window = 0\n", "[ablation] success_window must be positive, got 0"),
        ("[generalize]\nupdates = -3\n", "[generalize] updates must be non-negative, got -3"),
        ("[generalize]\nepisodes = 0\n", "[generalize] episodes must be positive, got 0"),
        ("[track]\nupdates = -1\n", "[track] updates must be non-negative, got -1"),
        ("[benchmark]\nn_configs = 0\n", "[benchmark] n_configs must be positive, got 0"),
        ("[benchmark]\nn_configs = -5\n", "[benchmark] n_configs must be positive, got -5"),
        ("[benchmark]\ndropout = -0.1\n", "[benchmark] dropout must lie in [0, 1], got -0.1"),
        ("[benchmark]\ndropout = 1.5\n", "[benchmark] dropout must lie in [0, 1], got 1.5"),
    ],
)
def test_experiment_counts_rejected(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text, base_dir=None)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[ablation]\nterrain_heights =\n",
            "[ablation] terrain_heights must list at least one value",
        ),
        (
            "[generalize]\ntrain_heights =\n",
            "[generalize] train_heights must list at least one value",
        ),
        ("[generalize]\neval_heights =\n", "[generalize] eval_heights must list at least one value"),
        ("[generalize]\nmodes =\n", "[generalize] modes must list at least one value"),
        (
            "[generalize]\nmodes = token,walk\n",
            "[generalize] modes: cannot parse 'token,walk': 'walk' is not a valid ObsMode",
        ),
    ],
)
def test_experiment_lists_rejected(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text, base_dir=None)
    assert str(exc.value) == message


def test_generalize_modes_are_obs_modes_and_hash_as_text():
    cfg = parse_config_text("[generalize]\nmodes = token, blind\n", base_dir=None)
    assert cfg.generalize.modes == (ObsMode.TOKEN, ObsMode.BLIND)
    assert all(type(mode) is ObsMode for mode in cfg.generalize.modes)
    assert canonical_text(cfg) == canonical_text(default_config())
    assert "generalize.modes = token,blind\n" in canonical_text(cfg)


def test_experiment_count_edges_accepted():
    cfg = parse_config_text(
        "[run]\nseeds = 7\n[ablation]\nupdates = 0\neval_episodes = 1\nterrain_episodes = 1\n"
        "success_window = 1\n[generalize]\nupdates = 0\nepisodes = 1\n[track]\nupdates = 0\n",
        base_dir=None,
    )
    assert cfg.run.seeds == (7,)
    ablation = cfg.ablation
    assert (ablation.updates, ablation.eval_episodes, ablation.success_window) == (0, 1, 1)
    assert (cfg.generalize.episodes, cfg.track.updates) == (1, 0)


@pytest.mark.parametrize(
    "schedule, times",
    [
        ("60:0.4,0:0.2", [60, 0]),  # out of order: the 60 s entry would never apply
        ("0:0.2,30:0.3,30:0.4", [0, 30, 30]),
        ("-5:0.2,10:0.3", [-5, 10]),
    ],
)
def test_track_schedule_must_increase(schedule, times):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"[track]\nschedule = {schedule}\n", base_dir=None)
    message = f"[track] schedule times must be >= 0 and strictly increasing: {times}"
    assert str(exc.value) == message


def test_track_schedule_increasing_accepted():
    cfg = parse_config_text("[track]\nschedule = 5:0.2,6:0.3,100:0.25\n", base_dir=None)
    assert cfg.track.schedule == ((5, 0.2), (6, 0.3), (100, 0.25))
