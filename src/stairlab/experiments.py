"""Experiment commands: reproducible pipelines behind the CLI subcommands.

Every command is a pure function of (config, seeds): outputs carry a
manifest line with the config hash and seed list, and re-running a
command overwrites its outputs with bit-identical bytes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cloud_io
from .bev import project, read_grid, write_grid
from .config import ExperimentConfig, canonical_text, config_hash
from .env import OBS_DIM, EnvConfig, ObsMode, StepperEnv, TokenSource, max_passable_height, metrics
from .errors import ConfigError
from .estimator import TokenEstimate, estimate_token, format_token_record
from .nn import save_mlp
from .ppo import (
    CURVE_COLUMNS,
    GaussianPolicy,
    as_seed_sequence,
    evaluate_policy,
    load_policy,
    save_policy,
    train_policy,
    train_three_stage,
)
from .sensor import dropout, scan
from .world import (
    ParameterRanges,
    StairClass,
    StairSpec,
    TerrainProfile,
    generate_stairs,
    ground_truth_token,
    wrap_pi,
)

OUT_ENV_VAR = "STAIRLAB_OUT"


def resolve_out_root(cfg: ExperimentConfig, cli_out: str | None) -> Path:
    env_root = os.environ.get(OUT_ENV_VAR)
    if env_root:
        return Path(env_root)
    if cli_out:
        return Path(cli_out)
    return cfg.base_dir / cfg.run.out_dir


def _manifest_line(cfg: ExperimentConfig) -> str:
    seeds = ",".join(str(s) for s in cfg.run.seeds)
    env_root = os.environ.get(OUT_ENV_VAR, "")
    return f"# manifest config={config_hash(cfg)} seeds={seeds} out_env={env_root}"


def _fmt(value) -> str:
    if isinstance(value, float):
        # Undefined statistics (e.g. std over one seed) are left empty.
        return "" if math.isnan(value) else repr(value)
    return str(value)


def write_csv(path: Path, columns, rows: list[dict], cfg: ExperimentConfig) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        fh.write(_manifest_line(cfg) + "\n")


def write_manifest(path: Path, cfg: ExperimentConfig) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_text(cfg) + _manifest_line(cfg) + "\n")


# -- gen ---------------------------------------------------------------------


def cmd_gen(cfg: ExperimentConfig, out_root: Path) -> list[dict]:
    """One (spec, cloud, grid) triple per configured seed."""
    out = out_root / "gen"
    rows = []
    for seed in cfg.run.seeds:
        spec_seed, scan_seed = np.random.SeedSequence(seed).spawn(2)
        spec = generate_stairs(np.random.default_rng(spec_seed), cfg.world)
        profile = TerrainProfile(spec)
        cloud = scan(profile, profile.start_pose(), cfg.env.sensor, np.random.default_rng(scan_seed))
        grid = project(cloud)

        case_dir = out / f"seed_{seed:06d}"
        case_dir.mkdir(parents=True, exist_ok=True)
        (case_dir / "spec.txt").write_text(spec.to_text())
        cloud_io.write_xyz(case_dir / "cloud.xyz", cloud)
        write_grid(case_dir / "grid.bevg", grid)
        rows.append(
            {
                "seed": seed,
                "class": int(spec.stair_class),
                "h_step": spec.h_step,
                "d_step": spec.d_step,
                "stair_yaw": spec.stair_yaw,
                "dir": case_dir.name,
            }
        )
    write_csv(out / "index.csv", ("seed", "class", "h_step", "d_step", "stair_yaw", "dir"), rows, cfg)
    return rows


# -- estimator benchmark -------------------------------------------------------


def _benchmark_ranges(cfg: ExperimentConfig) -> ParameterRanges:
    b = cfg.benchmark
    return replace(
        cfg.world,
        h_step=b.h_range,
        d_step=b.d_range,
        stair_yaw=(math.radians(b.yaw_range_deg[0]), math.radians(b.yaw_range_deg[1])),
        class_weights=b.class_weights,
        h_choices=None,
    )


def benchmark_case(
    cfg: ExperimentConfig, ranges: ParameterRanges, case_seed
) -> tuple[StairSpec, TokenEstimate, dict]:
    """One benchmark draw: world, scan, estimate; returns error terms."""
    spec_seed, scan_seed, drop_seed = as_seed_sequence(case_seed).spawn(3)
    spec = generate_stairs(np.random.default_rng(spec_seed), ranges)
    profile = TerrainProfile(spec)
    pose = profile.start_pose()
    cloud = scan(profile, pose, cfg.env.sensor, np.random.default_rng(scan_seed))
    if cfg.benchmark.dropout > 0.0:
        cloud = dropout(cloud, cfg.benchmark.dropout, np.random.default_rng(drop_seed))
    est = estimate_token(project(cloud), cfg.env.estimator)
    gt = ground_truth_token(spec, pose[2], pose[:2], cfg.env.sensor.window)
    err = {
        "h_err": abs(est.token.h_step - gt.h_step),
        "d_err": abs(est.token.d_step - gt.d_step),
        "theta_err": abs(wrap_pi(est.token.theta - gt.theta)),
        "class_ok": est.token.stair_class == gt.stair_class,
        "gt": gt,
    }
    return spec, est, err


def cmd_benchmark_estimator(cfg: ExperimentConfig, out_root: Path) -> dict:
    ranges = _benchmark_ranges(cfg)
    base = np.random.SeedSequence(cfg.run.seeds[0])
    case_seeds = base.spawn(cfg.benchmark.n_configs)

    detail_rows, errs = [], []
    for i, case_seed in enumerate(case_seeds):
        spec, est, err = benchmark_case(cfg, ranges, case_seed)
        errs.append(err)
        gt = err["gt"]
        detail_rows.append(
            {
                "config": i,
                "gt_class": int(gt.stair_class),
                "est_class": int(est.token.stair_class),
                "gt_h": gt.h_step,
                "est_h": est.token.h_step,
                "gt_d": gt.d_step,
                "est_d": est.token.d_step,
                "gt_theta": gt.theta,
                "est_theta": est.token.theta,
                "confidence": est.confidence,
            }
        )

    summary = {
        "n_configs": cfg.benchmark.n_configs,
        "noise_sigma_z": cfg.env.sensor.noise_sigma_z,
        "dropout": cfg.benchmark.dropout,
        "sensor_dropout": cfg.env.sensor.dropout_rate,
        "mae_h_m": float(np.mean([e["h_err"] for e in errs])),
        "mae_d_m": float(np.mean([e["d_err"] for e in errs])),
        "mae_theta_deg": float(np.degrees(np.mean([e["theta_err"] for e in errs]))),
        "class_accuracy": float(np.mean([e["class_ok"] for e in errs])),
    }
    write_csv(out_root / "benchmark_estimator.csv", tuple(summary.keys()), [summary], cfg)
    write_csv(
        out_root / "benchmark_estimator_details.csv",
        tuple(detail_rows[0].keys()),
        detail_rows,
        cfg,
    )
    return summary


# -- training-based commands ---------------------------------------------------


def _eval_seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(seed, 8191, stream))


def _updates_to_threshold(curves: list[dict], threshold: float, window: int) -> float:
    """First update whose windowed mean success rate reaches the threshold."""
    rates = [row["success_rate"] for row in curves]
    for i in range(len(rates)):
        window_vals = [r for r in rates[max(0, i - window + 1) : i + 1] if not math.isnan(r)]
        if window_vals and float(np.mean(window_vals)) >= threshold:
            return float(i)
    return float("inf")


def _pinned_success(
    policy: GaussianPolicy,
    env_cfg: EnvConfig,
    world: ParameterRanges,
    heights,
    episodes: int,
    seed: int,
    stream: int,
) -> list[float]:
    """Success rate of ``policy`` on flights pinned at each of ``heights``.

    Height j evaluates on eval stream ``stream + j`` of ``seed``.
    """
    rates = []
    for j, h in enumerate(heights):
        ranges = replace(world, h_step=(h, h), h_choices=None)
        records = evaluate_policy(policy, env_cfg, ranges, episodes, _eval_seed(seed, stream + j))
        rates.append(float(np.mean([r.success for r in records])))
    return rates


_ABLATION_MODES = (ObsMode.BLIND, ObsMode.HEIGHTSCAN, ObsMode.TOKEN)

# Per-seed metrics of the ablation; the summary holds the mean and std of each.
_ABLATION_METRICS = ("E_vel", "E_ang", "M_terrain", "M_reward", "success")
SUMMARY_COLUMNS = ("mode", *(f"{m}_{s}" for m in _ABLATION_METRICS for s in ("mean", "std")))


def _reject_learned_tokens(cfg: ExperimentConfig, command: str) -> None:
    """Fail before any work: ``command`` builds no estimator net for learned tokens."""
    if cfg.env.token_source == TokenSource.LEARNED:
        raise ConfigError(
            f"{command}: [env] token_source = learned needs the estimator net that only "
            "`train` builds; use ground_truth or analytic"
        )


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else float("nan")
    return mean, std


def cmd_ablation(cfg: ExperimentConfig, out_root: Path) -> dict:
    """Train all observation modes with identical budgets; emit curves + table."""
    _reject_learned_tokens(cfg, "ablation")
    out = out_root / "ablation"
    per_seed_rows = []
    summary_rows = []
    results: dict[str, dict] = {}

    for mode in _ABLATION_MODES:
        env_cfg = replace(cfg.env, obs_mode=mode)
        metrics_per_seed = []
        for seed in cfg.run.seeds:
            res = train_policy(env_cfg, cfg.world, cfg.ppo, cfg.ablation.updates, seed)
            write_csv(out / f"curves_{mode.value}_seed{seed}.csv", CURVE_COLUMNS, res.curves, cfg)

            records = evaluate_policy(
                res.policy, env_cfg, cfg.world, cfg.ablation.eval_episodes, _eval_seed(seed, 0)
            )
            base = metrics(records, cfg.env.horizon)
            heights = cfg.ablation.terrain_heights
            rates = _pinned_success(
                res.policy, env_cfg, cfg.world, heights, cfg.ablation.terrain_episodes, seed, 100
            )
            crossing = _updates_to_threshold(
                res.curves, cfg.ablation.success_threshold, cfg.ablation.success_window
            )
            row = {
                "mode": mode.value,
                "seed": seed,
                "E_vel": base.e_vel,
                "E_ang": base.e_ang,
                "M_terrain": max_passable_height(zip(heights, rates)),
                "M_reward": base.m_reward,
                "success": base.success_rate,
                "updates_to_threshold": crossing,
            }
            per_seed_rows.append(row)
            metrics_per_seed.append(row)

        summary = {"mode": mode.value}
        for key in _ABLATION_METRICS:
            mean, std = _mean_std([m[key] for m in metrics_per_seed])
            summary[f"{key}_mean"] = mean
            summary[f"{key}_std"] = std
        summary_rows.append(summary)
        results[mode.value] = {
            "per_seed": metrics_per_seed,
            "summary": summary,
        }

    per_seed_columns = ("mode", "seed", *_ABLATION_METRICS, "updates_to_threshold")
    write_csv(out / "per_seed.csv", per_seed_columns, per_seed_rows, cfg)
    write_csv(out / "summary.csv", SUMMARY_COLUMNS, summary_rows, cfg)
    return results


def cmd_generalize(cfg: ExperimentConfig, out_root: Path) -> list[dict]:
    """Train on the configured heights, evaluate across the full sweep."""
    _reject_learned_tokens(cfg, "generalize")
    out = out_root / "generalize"
    train_ranges = replace(cfg.world, h_choices=cfg.generalize.train_heights)

    per_seed_rows = []
    summary_rows = []
    for mode in cfg.generalize.modes:
        env_cfg = replace(cfg.env, obs_mode=mode)
        by_height: dict[float, list[float]] = {h: [] for h in cfg.generalize.eval_heights}
        for seed in cfg.run.seeds:
            res = train_policy(env_cfg, train_ranges, cfg.ppo, cfg.generalize.updates, seed)
            rates = _pinned_success(
                res.policy, env_cfg, cfg.world, cfg.generalize.eval_heights,
                cfg.generalize.episodes, seed, 200,
            )
            for h, rate in zip(cfg.generalize.eval_heights, rates):
                by_height[h].append(rate)
                per_seed_rows.append({"height": h, "mode": mode.value, "seed": seed, "success": rate})
        for h in cfg.generalize.eval_heights:
            mean, std = _mean_std(by_height[h])
            summary_rows.append(
                {"height": h, "mode": mode.value, "success_mean": mean, "success_std": std}
            )

    write_csv(out / "per_seed.csv", ("height", "mode", "seed", "success"), per_seed_rows, cfg)
    write_csv(
        out / "generalization.csv",
        ("height", "mode", "success_mean", "success_std"),
        summary_rows,
        cfg,
    )
    return summary_rows


def cmd_track(cfg: ExperimentConfig, out_root: Path) -> list[dict]:
    """Run the token policy under a piecewise-constant command schedule.

    The policy trains on per-episode commands drawn from the env's
    ``v_cmd_range``; the schedule applies only to the tracking rollout.
    """
    _reject_learned_tokens(cfg, "track")
    out = out_root / "track"
    seed = cfg.run.seeds[0]
    train_cfg = replace(cfg.env, obs_mode=ObsMode.TOKEN)
    env_cfg = replace(train_cfg, command_schedule=cfg.track.schedule)

    if cfg.track.policy_dir:
        policy_dir = cfg.base_dir / cfg.track.policy_dir
        policy = load_policy(policy_dir)
        if policy.obs_dim != OBS_DIM[ObsMode.TOKEN]:
            raise ConfigError(
                f"{policy_dir}: policy takes {policy.obs_dim} inputs, "
                f"the token observation has {OBS_DIM[ObsMode.TOKEN]}"
            )
    else:
        policy = train_policy(train_cfg, cfg.world, cfg.ppo, cfg.track.updates, seed).policy

    spec = StairSpec(
        stair_class=StairClass.STAIRS_UP,
        h_step=cfg.track.h_step,
        d_step=cfg.track.d_step,
        stair_yaw=0.0,
        n_steps=cfg.track.n_steps,
        lead_flat=1.0,
        tail_flat=1.0,
    )
    env = StepperEnv(env_cfg, np.random.SeedSequence(entropy=(seed, 4242)))
    obs = env.reset(spec)
    done = False
    rows = []
    while not done:
        v_cmd = env.v_cmd
        obs, _, done, _ = env.step(policy.mean_action(obs)[0])
        rows.append({"time": env.t - 1, "v_cmd": v_cmd, "v_measured": env.v_avg})
    write_csv(out / "track.csv", ("time", "v_cmd", "v_measured"), rows, cfg)
    return rows


def cmd_train(cfg: ExperimentConfig, out_root: Path) -> dict:
    """Full three-stage training run with checkpoints and curves."""
    out = out_root / "train"
    seed = cfg.run.seeds[0]
    env_cfg = replace(cfg.env, obs_mode=ObsMode.TOKEN)
    result = train_three_stage(env_cfg, cfg.world, cfg.ppo, cfg.train, seed)

    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "curves.csv", CURVE_COLUMNS, result.curves, cfg)
    save_policy(out / "policy", result.policy)
    if result.estimator is not None:
        save_mlp(out / "estimator.mlp1", result.estimator)
    write_manifest(out / "manifest.txt", cfg)
    return {"curves": result.curves, "out": out}


# -- single-file commands --------------------------------------------------------


def cmd_bev(cfg: ExperimentConfig, cloud_path, grid_path) -> None:
    cloud = cloud_io.read_cloud(cloud_path)
    write_grid(grid_path, project(cloud))


def cmd_estimate(cfg: ExperimentConfig, grid_path) -> str:
    grid = read_grid(grid_path)
    return format_token_record(estimate_token(grid, cfg.env.estimator))


def cmd_ingest(cfg: ExperimentConfig, cloud_path) -> str:
    cloud = cloud_io.read_cloud(cloud_path)
    est = estimate_token(project(cloud), cfg.env.estimator)
    return format_token_record(est)
