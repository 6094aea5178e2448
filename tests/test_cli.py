import csv
import math
import struct

import numpy as np
import pytest

from stairlab.bev import read_grid
from stairlab.cli import main
from stairlab.cloud_io import read_xyz, write_ply, write_xyz
from stairlab.config import config_hash, default_config, parse_config_text
from stairlab.estimator import estimate_token, format_token_record
from stairlab.bev import project
from stairlab.experiments import (
    cmd_benchmark_estimator,
    cmd_gen,
    cmd_track,
    resolve_out_root,
)
from stairlab.sensor import SensorModel, scan
from stairlab.world import StairClass, StairSpec, TerrainProfile

TINY = """
[run]
seeds = 11,12,13

[sensor]
noise_sigma_z = 0.0
pitch = 0.05
"""


def tiny_cfg(extra="", base_dir=None):
    return parse_config_text(TINY + extra, base_dir=base_dir)


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def manifest_line(path):
    lines = open(path).read().splitlines()
    assert lines[-1].startswith("# manifest")
    return lines[-1]


class TestGen:
    def test_one_triple_per_seed(self, tmp_path):
        cfg = tiny_cfg(base_dir=tmp_path)
        rows = cmd_gen(cfg, tmp_path)
        assert len(rows) == 3
        for seed in (11, 12, 13):
            case = tmp_path / "gen" / f"seed_{seed:06d}"
            assert (case / "spec.txt").exists()
            assert (case / "cloud.xyz").exists()
            assert (case / "grid.bevg").exists()

    def test_rerun_bit_identical(self, tmp_path):
        cfg = tiny_cfg(base_dir=tmp_path)
        cmd_gen(cfg, tmp_path)
        first = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in (tmp_path / "gen").rglob("*")
            if p.is_file()
        }
        cmd_gen(cfg, tmp_path)
        for rel, blob in first.items():
            assert (tmp_path / rel).read_bytes() == blob

    def test_flat_only_grids_have_zero_statistics(self, tmp_path):
        cfg = tiny_cfg("[world]\nweight_flat = 1\nweight_up = 0\nweight_down = 0\n", tmp_path)
        cmd_gen(cfg, tmp_path)
        grid = read_grid(tmp_path / "gen" / "seed_000011" / "grid.bevg")
        assert np.all(grid.data[:5] == 0.0)

    def test_manifest_carries_config_hash_and_seeds(self, tmp_path):
        cfg = tiny_cfg(base_dir=tmp_path)
        cmd_gen(cfg, tmp_path)
        line = manifest_line(tmp_path / "gen" / "index.csv")
        assert f"config={config_hash(cfg)}" in line
        assert "seeds=11,12,13" in line


class TestOutRootResolution:
    def test_env_var_overrides_and_is_echoed(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("STAIRLAB_OUT", str(override))
        cfg = tiny_cfg(base_dir=tmp_path)
        out = resolve_out_root(cfg, str(tmp_path / "ignored"))
        assert out == override
        cmd_gen(cfg, out)
        assert f"out_env={override}" in manifest_line(override / "gen" / "index.csv")

    def test_cli_out_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        cfg = tiny_cfg(base_dir=tmp_path)
        assert resolve_out_root(cfg, str(tmp_path / "o")) == tmp_path / "o"
        assert resolve_out_root(cfg, None) == tmp_path / "runs"


class TestSingleFileCommands:
    def make_cloud(self, tmp_path, fmt="xyz"):
        spec = StairSpec(StairClass.STAIRS_UP, 0.15, 0.30, 0.1, 8, 1.0, 1.0)
        cloud = scan(
            TerrainProfile(spec),
            (-0.5 * math.cos(0.1), -0.5 * math.sin(0.1), 0.0),
            SensorModel(noise_sigma_z=0.005),
            seed=21,
        )
        path = tmp_path / f"cloud.{fmt}"
        (write_ply if fmt == "ply" else write_xyz)(path, cloud)
        return cloud, path

    def test_ingest_round_trips_in_memory_token(self, tmp_path, capsys):
        cloud, path = self.make_cloud(tmp_path)
        expected = format_token_record(estimate_token(project(cloud)))
        assert main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_ingest_ply(self, tmp_path, capsys):
        cloud, path = self.make_cloud(tmp_path, fmt="ply")
        expected = format_token_record(estimate_token(project(cloud)))
        assert main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_bev_then_estimate_matches_ingest(self, tmp_path, capsys):
        _, path = self.make_cloud(tmp_path)
        grid_path = tmp_path / "grid.bevg"
        assert main(["bev", str(path), str(grid_path)]) == 0
        capsys.readouterr()
        assert main(["estimate", str(grid_path)]) == 0
        estimate_out = capsys.readouterr().out.strip()
        assert main(["ingest", str(path)]) == 0
        ingest_out = capsys.readouterr().out.strip()
        # Same class and near-identical geometry despite the f32 grid file.
        assert estimate_out.split()[0] == ingest_out.split()[0]
        assert float(estimate_out.split()[1]) == pytest.approx(
            float(ingest_out.split()[1]), abs=1e-6
        )

    def test_malformed_ply_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        assert main(["ingest", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_vertex_count_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "neg.ply"
        bad.write_text(
            "ply\nformat ascii 1.0\nelement vertex -3\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n"
        )
        assert main(["ingest", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize(
        "name,body",
        [("nan.xyz", "0 0 0\nnan 0 0\n"), ("inf.xyz", "0 0 inf\n"), ("alpha.ply", None)],
        ids=["nan_xyz", "inf_xyz", "alpha_ply"],
    )
    def test_bad_coordinate_nonzero_exit(self, tmp_path, capsys, name, body):
        bad = tmp_path / name
        bad.write_text(
            body
            or "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n1 2 a\n"
        )
        assert main(["ingest", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {bad}: line ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("damage", ["truncate", "nan"])
    def test_damaged_grid_nonzero_exit(self, tmp_path, capsys, damage):
        _, path = self.make_cloud(tmp_path)
        grid_path = tmp_path / "grid.bevg"
        assert main(["bev", str(path), str(grid_path)]) == 0
        capsys.readouterr()
        raw = grid_path.read_bytes()
        if damage == "truncate":
            raw = raw[:-100]
        else:
            cells = np.frombuffer(raw, dtype="<f4", count=6 * 60 * 60, offset=24).copy()
            cells[:] = np.nan
            raw = raw[:24] + cells.tobytes() + raw[24 + cells.nbytes :]
        grid_path.write_bytes(raw)
        assert main(["estimate", str(grid_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {grid_path}: ")

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "absent.xyz")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ingest_empty_grid_at_zero_occupancy_gate(self, tmp_path, capsys):
        # The one point falls outside the grid, so no cell is occupied; with
        # min_occupancy = 0 the empty grid must still fall below the gate.
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[estimator]\nmin_occupancy = 0\n")
        cloud = tmp_path / "out.xyz"
        cloud.write_text("5 5 0\n")
        assert main(["--config", str(cfg_path), "ingest", str(cloud)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "0 0.0 0.0 0.0 0.0 0\n"

    @pytest.mark.parametrize("h,d", [(0.17, 0.30), (0.15, 0.28)])
    def test_ingest_standard_staircases(self, tmp_path, capsys, h, d):
        # Synthetic stand-ins for surveyed staircases with known geometry:
        # the estimate must land within 1 cm / 1.5 cm of the tape measure.
        spec = StairSpec(StairClass.STAIRS_UP, h, d, 0.08, 8, 1.0, 1.0)
        cloud = scan(
            TerrainProfile(spec),
            (-0.5 * math.cos(0.08), -0.5 * math.sin(0.08), 0.0),
            SensorModel(noise_sigma_z=0.01),
            seed=31,
        )
        path = tmp_path / "stairs.xyz"
        write_xyz(path, cloud)
        assert main(["ingest", str(path)]) == 0
        fields = capsys.readouterr().out.split()
        assert int(fields[0]) == int(StairClass.STAIRS_UP)
        assert float(fields[1]) == pytest.approx(h, abs=0.01)
        assert float(fields[2]) == pytest.approx(d, abs=0.015)


class TestBenchmarkCommand:
    def test_small_benchmark_schema(self, tmp_path):
        cfg = tiny_cfg(
            "[benchmark]\nn_configs = 20\n", base_dir=tmp_path
        )
        summary = cmd_benchmark_estimator(cfg, tmp_path)
        assert summary["n_configs"] == 20
        assert 0.0 <= summary["class_accuracy"] <= 1.0
        rows = read_rows(tmp_path / "benchmark_estimator.csv")
        assert set(rows[0]) == {
            "n_configs", "noise_sigma_z", "dropout", "sensor_dropout", "mae_h_m", "mae_d_m",
            "mae_theta_deg", "class_accuracy",
        }
        details = read_rows(tmp_path / "benchmark_estimator_details.csv")
        assert len(details) == 20

    def test_heavy_dropout_degrades_accuracy(self, tmp_path):
        base = tiny_cfg("[benchmark]\nn_configs = 40\n", tmp_path)
        clean = cmd_benchmark_estimator(base, tmp_path / "clean")
        noisy_cfg = tiny_cfg(
            "[benchmark]\nn_configs = 40\ndropout = 0.97\n", tmp_path
        )
        degraded = cmd_benchmark_estimator(noisy_cfg, tmp_path / "noisy")
        assert degraded["class_accuracy"] <= clean["class_accuracy"]
        assert degraded["mae_h_m"] >= clean["mae_h_m"]

    def test_reports_both_dropout_owners(self, tmp_path):
        # [sensor] dropout thins each scan, [benchmark] dropout the cloud after it.
        text = TINY.replace("[sensor]\n", "[sensor]\ndropout = 0.5\n") + "[benchmark]\nn_configs = 5\n"
        cfg = parse_config_text(text, base_dir=tmp_path)
        summary = cmd_benchmark_estimator(cfg, tmp_path)
        assert (summary["dropout"], summary["sensor_dropout"]) == (0.0, 0.5)
        row = read_rows(tmp_path / "benchmark_estimator.csv")[0]
        assert (float(row["dropout"]), float(row["sensor_dropout"])) == (0.0, 0.5)

    def test_gen_cli_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg_path), "--out", str(out_a), "gen"]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out_b), "gen"]) == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


class TestSensorSettingsRejected:
    """An invalid [sensor] setting fails the run with one line naming the field."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("window", "nan", "window must be finite, got nan"),
            ("window", "inf", "window must be finite, got inf"),
            ("window", "3.5", "sensor window 3.5 exceeds the 3.0 m BEV grid"),
            ("pitch", "nan", "sample_pitch must be finite, got nan"),
            ("noise_sigma_z", "nan", "noise_sigma_z must be finite, got nan"),
            ("dropout", "nan", "dropout_rate must be finite, got nan"),
            ("sensor_height", "nan", "sensor_height must be finite, got nan"),
            ("sensor_height", "-1.0", "sensor_height must be positive"),
            ("sensor_height", "0.0", "sensor_height must be positive"),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, key, value, message):
        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            f"[sensor]\nocclusion = true\n{key} = {value}\n[benchmark]\nn_configs = 2\n"
        )
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "benchmark-estimator"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()


TINY_TRAIN = """
[run]
seeds = 1,2

[ppo]
horizon = 16
n_envs = 2

[env]
horizon = 60

[ablation]
updates = 2
eval_episodes = 4
terrain_heights = 0.12
terrain_episodes = 2

[generalize]
updates = 2
train_heights = 0.12,0.14
eval_heights = 0.12,0.18
episodes = 4

[train]
stage1_updates = 2
stage2_updates = 1
stage3_updates = 1

[sensor]
pitch = 0.06
noise_sigma_z = 0.0
"""


class TestTrainingCommands:
    def test_ablation_outputs(self, tmp_path):
        from stairlab.experiments import cmd_ablation

        cfg = parse_config_text(TINY_TRAIN, base_dir=tmp_path)
        results = cmd_ablation(cfg, tmp_path)
        assert set(results) == {"blind", "heightscan", "token"}
        for mode in ("blind", "heightscan", "token"):
            for seed in (1, 2):
                curve = read_rows(tmp_path / "ablation" / f"curves_{mode}_seed{seed}.csv")
                assert len(curve) == 2
        summary = read_rows(tmp_path / "ablation" / "summary.csv")
        assert [r["mode"] for r in summary] == ["blind", "heightscan", "token"]
        per_seed = read_rows(tmp_path / "ablation" / "per_seed.csv")
        assert len(per_seed) == 6

    def test_generalize_outputs(self, tmp_path):
        from stairlab.experiments import cmd_generalize

        cfg = parse_config_text(TINY_TRAIN, base_dir=tmp_path)
        rows = cmd_generalize(cfg, tmp_path)
        table = read_rows(tmp_path / "generalize" / "generalization.csv")
        assert len(table) == 4  # 2 heights x 2 modes
        assert set(table[0]) == {"height", "mode", "success_mean", "success_std"}
        per_seed = read_rows(tmp_path / "generalize" / "per_seed.csv")
        assert len(per_seed) == 8

    def test_train_command_outputs(self, tmp_path):
        from stairlab.experiments import cmd_train

        cfg = parse_config_text(TINY_TRAIN, base_dir=tmp_path)
        result = cmd_train(cfg, tmp_path)
        out = tmp_path / "train"
        curves = read_rows(out / "curves.csv")
        assert len(curves) == 4
        assert (out / "policy" / "actor.mlp1").exists()
        assert (out / "policy" / "critic.mlp1").exists()
        assert (out / "policy" / "log_std.txt").exists()
        assert (out / "estimator.mlp1").exists()
        manifest = (out / "manifest.txt").read_text()
        assert config_hash(cfg) in manifest

    def test_policy_checkpoint_round_trip(self, tmp_path):
        from stairlab.ppo import GaussianPolicy, load_policy, save_policy

        policy = GaussianPolicy(6, np.random.default_rng(0))
        save_policy(tmp_path / "pol", policy)
        loaded = load_policy(tmp_path / "pol")
        obs = np.random.default_rng(1).normal(size=(4, 6))
        assert np.array_equal(policy.mean_action(obs), loaded.mean_action(obs))
        assert np.array_equal(policy.value(obs), loaded.value(obs))
        assert np.array_equal(policy.log_std, loaded.log_std)


SMALL_TRAIN = """
[run]
seeds = 1

[ppo]
n_envs = 4
horizon = 32

[train]
stage1_updates = 1
stage2_updates = 1
stage3_updates = 1
"""


class TestLearnedTokensRejected:
    """Commands that train without an estimator net refuse learned tokens up front."""

    @pytest.mark.parametrize("command", ["ablation", "generalize", "track"])
    def test_one_error_line_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        from stairlab import experiments

        def no_training(*args, **kwargs):
            raise AssertionError("trained before rejecting the config")

        monkeypatch.setattr(experiments, "train_policy", no_training)
        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY_TRAIN.replace("[env]\n", "[env]\ntoken_source = learned\n"))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), command])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {command}: [env] token_source = learned "
                                             "needs the estimator net that only `train` builds; "
                                             "use ground_truth or analytic"]
        assert not (tmp_path / "out").exists()


class TestUpdateCountsRejected:
    """Update counts that cannot run fail `train` with one line naming the key, before any rollout."""

    @pytest.mark.parametrize(
        "section, setting, message",
        [
            ("[ppo]\n", "minibatches = 0", "minibatches must be positive, got 0"),
            (
                "[ppo]\n",
                "minibatches = 64",
                "minibatches 64 exceeds the 32 rows of a batch (n_envs x horizon)",
            ),
            ("[ppo]\n", "epochs = 0", "epochs must be positive, got 0"),
            ("[train]\n", "stage2_epochs = -1", "stage2_epochs must be non-negative, got -1"),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, section, setting, message):
        from stairlab import ppo

        def no_rollout(*args, **kwargs):
            raise AssertionError("collected before rejecting the config")

        monkeypatch.setattr(ppo, "collect", no_rollout)
        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY_TRAIN.replace(section, f"{section}{setting}\n"))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "train"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()


class TestExperimentSettingsRejected:
    """Bad [run], [ablation], [generalize] and [track] settings fail in one line, writing nothing."""

    @pytest.mark.parametrize(
        "command, old, new, message",
        [
            ("ablation", "seeds = 1,2", "seeds =", "[run] seeds must list at least one seed"),
            (
                "ablation",
                "eval_episodes = 4",
                "eval_episodes = 0",
                "[ablation] eval_episodes must be positive, got 0",
            ),
            (
                "generalize",
                "\nepisodes = 4",
                "\nepisodes = 0",
                "[generalize] episodes must be positive, got 0",
            ),
            (
                "track",
                "[train]",
                "[track]\nschedule = 60:0.4,0:0.2\n[train]",
                "[track] schedule times must be >= 0 and strictly increasing: [60, 0]",
            ),
        ],
    )
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, command, old, new, message):
        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        assert TINY_TRAIN.count(old) == 1
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY_TRAIN.replace(old, new))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), command])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()


class TestTrainReadsPerceptionAndLossSettings:
    """[sensor], [estimator] and [loss] reach the rollouts and updates of `train`."""

    @staticmethod
    def checkpoints(tmp_path, text):
        from stairlab.experiments import cmd_train

        cmd_train(parse_config_text(text, base_dir=tmp_path), tmp_path)
        out = tmp_path / "train"
        return {
            name: (out / name).read_bytes()
            for name in ("estimator.mlp1", "policy/actor.mlp1", "policy/critic.mlp1")
        }

    @pytest.mark.parametrize(
        "edit",
        [
            "[loss]\nlambda_h = 0\nlambda_cls = 5\n",
            "[sensor]\nnoise_sigma_z = 0.08\n",
            "[estimator]\nriser_threshold = 0.2\n",
        ],
        ids=["loss", "sensor", "estimator"],
    )
    def test_edit_changes_checkpoints(self, tmp_path, edit):
        base = self.checkpoints(tmp_path / "base", SMALL_TRAIN)
        edited = self.checkpoints(tmp_path / "edited", SMALL_TRAIN + edit)
        assert edited["estimator.mlp1"] != base["estimator.mlp1"]
        assert edited["policy/actor.mlp1"] != base["policy/actor.mlp1"]


class TestTrackSetup:
    def test_trains_on_episode_commands_and_rolls_out_the_schedule(self, tmp_path, monkeypatch):
        from stairlab import experiments
        from stairlab.ppo import GaussianPolicy, TrainResult

        seen = {}

        def fake_train(env_cfg, ranges, ppo_cfg, n_updates, seed):
            seen["schedule"] = env_cfg.command_schedule
            policy = GaussianPolicy(13, np.random.default_rng(0))
            return TrainResult(policy, None, [])

        monkeypatch.setattr(experiments, "train_policy", fake_train)
        cfg = tiny_cfg("[track]\nn_steps = 20\n", tmp_path)
        rows = cmd_track(cfg, tmp_path)
        assert seen["schedule"] is None
        assert float(rows[0]["v_cmd"]) == cfg.track.schedule[0][1]

    def test_rejects_policy_of_wrong_input_width(self, tmp_path, capsys, monkeypatch):
        from stairlab.ppo import GaussianPolicy, save_policy

        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        save_policy(tmp_path / "old_policy", GaussianPolicy(12, np.random.default_rng(0)))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY + "\n[track]\npolicy_dir = old_policy\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "track"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(tmp_path / "old_policy") in err[0]
        assert not (tmp_path / "out" / "track").exists()

    @pytest.mark.parametrize(
        "damage",
        ["six_bytes", "cut_1000", "nan_weight", "log_std_nan", "log_std_text", "log_std_short"],
    )
    def test_damaged_checkpoint_names_the_file(self, tmp_path, capsys, monkeypatch, damage):
        from stairlab.ppo import GaussianPolicy, save_policy

        monkeypatch.delenv("STAIRLAB_OUT", raising=False)
        policy_dir = tmp_path / "pol"
        save_policy(policy_dir, GaussianPolicy(13, np.random.default_rng(0)))
        actor, log_std = policy_dir / "actor.mlp1", policy_dir / "log_std.txt"
        raw = actor.read_bytes()
        header = 8 + 4 * 4  # magic, layer count, sizes 13/64/64/3
        damaged = {
            "six_bytes": (actor, raw[:6]),
            "cut_1000": (actor, raw[:1000]),
            "nan_weight": (actor, raw[:header] + struct.pack("<d", math.nan) + raw[header + 8 :]),
            "log_std_nan": (log_std, b"nan -1.0 -1.0\n"),
            "log_std_text": (log_std, b"-1.0 x -1.0\n"),
            "log_std_short": (log_std, b"-1.0 -1.0\n"),
        }
        path, blob = damaged[damage]
        path.write_bytes(blob)
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(TINY + "\n[track]\npolicy_dir = pol\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "track"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {path}: ")


# Bound on the steady-state gap between measured and commanded velocity.
STEADY_BOUND = 0.15


@pytest.mark.slow
class TestTrackCommand:
    def test_track_full_horizon_and_schedule(self, tmp_path):
        cfg = default_config()
        rows = cmd_track(cfg, tmp_path)
        assert len(rows) == cfg.env.horizon
        times = [int(r["time"]) for r in rows]
        assert times == list(range(cfg.env.horizon))
        # Scheduled commands appear verbatim at their switch times.
        by_time = {int(r["time"]): float(r["v_cmd"]) for r in rows}
        assert by_time[0] == 0.20
        assert by_time[60] == 0.40
        assert by_time[120] == 0.30
        # Steady-state tracking error within STEADY_BOUND over the last
        # quarter of each command segment.
        for start, end, cmd in ((0, 60, 0.2), (60, 120, 0.4), (120, 200, 0.3)):
            tail = [float(r["v_measured"]) for r in rows if end - (end - start) // 4 <= int(r["time"]) < end]
            err = abs(np.mean(tail) - cmd)
            assert err <= STEADY_BOUND
