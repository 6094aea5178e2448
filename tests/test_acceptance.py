"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one line (visible with ``pytest -s`` or on failure):

    ACCEPTANCE <n> <name>: PASS|FAIL - <measurements>

The training-based criteria (7, 8) run the shipped default experiment
configuration end to end and take several minutes each.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stairlab.bev import CH_DENSITY, CH_MAX, CH_MEAN, CH_MIN, CH_RANGE, CH_STD, project
from stairlab.cli import main
from stairlab.config import default_config, parse_config_text
from stairlab.env import EnvConfig, ObsMode, OBS_DIM
from stairlab.estimator import estimate_token, format_token_record
from stairlab.experiments import (
    cmd_ablation,
    cmd_benchmark_estimator,
    cmd_generalize,
    cmd_gen,
    cmd_track,
    cmd_train,
)
from stairlab.nn import (
    FEATURE_DIM,
    Mlp,
    TerrainLossWeights,
    terrain_loss,
    terrain_loss_grad,
)
from stairlab.ppo import GaussianPolicy, gae, make_ensemble, collect, PpoConfig
from stairlab.sensor import PointCloud, SensorModel, scan
from stairlab.world import StairClass, StairSpec, TerrainProfile
from stairlab import cloud_io

from helpers import write_ply


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- 1 & 2: geometry estimation accuracy ---------------------------------------


def test_criterion_1_noisy_estimation_accuracy(tmp_path):
    cfg = default_config()  # benchmark defaults: 1000 configs, sigma_z = 0.01
    assert cfg.benchmark.n_configs == 1000
    assert cfg.env.sensor.noise_sigma_z == 0.01
    t0 = time.time()
    summary = cmd_benchmark_estimator(cfg, tmp_path)
    elapsed = time.time() - t0
    ok = (
        summary["mae_h_m"] <= 0.012
        and summary["mae_d_m"] <= 0.014
        and summary["mae_theta_deg"] <= 3.6
        and summary["class_accuracy"] >= 0.98
        and elapsed <= 300.0
    )
    report(
        1,
        "noisy geometry estimation",
        ok,
        f"MAE(h)={summary['mae_h_m'] * 100:.2f}cm (<=1.2) "
        f"MAE(d)={summary['mae_d_m'] * 100:.2f}cm (<=1.4) "
        f"MAE(theta)={summary['mae_theta_deg']:.2f}deg (<=3.6) "
        f"acc={summary['class_accuracy'] * 100:.1f}% (>=98) in {elapsed:.0f}s (<=300)",
    )
    assert ok


def test_criterion_2_noiseless_exactness(tmp_path):
    cfg = default_config()
    cfg = replace(
        cfg,
        env=replace(cfg.env, sensor=replace(cfg.env.sensor, noise_sigma_z=0.0)),
        benchmark=replace(cfg.benchmark, n_configs=200),
    )
    summary = cmd_benchmark_estimator(cfg, tmp_path)
    ok = (
        summary["mae_h_m"] <= 0.005
        and summary["mae_d_m"] <= 0.010
        and summary["class_accuracy"] == 1.0
    )
    report(
        2,
        "noiseless exactness",
        ok,
        f"MAE(h)={summary['mae_h_m'] * 100:.3f}cm (<=0.5) "
        f"MAE(d)={summary['mae_d_m'] * 100:.3f}cm (<=1.0) "
        f"acc={summary['class_accuracy'] * 100:.1f}% (=100)",
    )
    assert ok


# -- 3: BEV property suite -------------------------------------------------------


def test_criterion_3_bev_property_suite():
    failures = []

    grid = project(PointCloud(np.array([[0.01, 0.01, 0.1], [0.02, 0.02, 0.3]])))
    cell = grid.data[:, 30, 30]
    if not (
        cell[CH_MAX] == 0.3
        and cell[CH_MIN] == 0.1
        and cell[CH_MEAN] == 0.2
        and abs(cell[CH_RANGE] - 0.2) < 1e-15
        and abs(cell[CH_STD] - 0.1) < 1e-15
        and cell[CH_DENSITY] == 1.0
    ):
        failures.append("two-point example")

    rng = np.random.default_rng(33)
    pts = np.column_stack(
        [rng.uniform(-1.5, 1.5, 600), rng.uniform(-1.5, 1.5, 600), rng.normal(0, 0.2, 600)]
    )
    a = project(PointCloud(pts))
    b = project(PointCloud(pts[rng.permutation(600)]))
    if not (np.array_equal(a.data, b.data) and np.array_equal(a.occupancy, b.occupancy)):
        failures.append("permutation invariance")

    rows = rng.integers(0, 59, 300)
    cols = rng.integers(0, 60, 300)
    x = -1.5 + (rows + 0.5) * 0.05
    y = -1.5 + (cols + 0.5) * 0.05
    z = rng.normal(0, 0.1, 300)
    base = project(PointCloud(np.column_stack([x, y, z])))
    shifted = project(PointCloud(np.column_stack([x + 0.05, y, z])))
    if not np.array_equal(shifted.data[:, 1:, :], base.data[:, :-1, :]):
        failures.append("translation equivariance")

    for trial in range(10):
        n = int(rng.integers(1, 500))
        cloud = PointCloud(
            np.column_stack(
                [rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.normal(0, 0.3, n)]
            )
        )
        g = project(cloud)
        occ = g.occupancy
        checks = (
            np.all(g.data[CH_MAX, occ] >= g.data[CH_MEAN, occ] - 1e-12),
            np.all(g.data[CH_MEAN, occ] >= g.data[CH_MIN, occ] - 1e-12),
            np.all(g.data[CH_RANGE, occ] >= 0),
            np.all(g.data[CH_STD, occ] >= 0),
            np.all(g.data[CH_DENSITY, occ] > 0),
            np.all(g.data[CH_DENSITY, occ] <= 1),
            np.all(g.data[:, ~occ] == 0),
        )
        if not all(checks):
            failures.append(f"channel invariants (trial {trial})")
            break

    ok = not failures
    report(3, "BEV property suite", ok, "all checks exact" if ok else f"failed: {failures}")
    assert ok


# -- 4: GAE oracle ---------------------------------------------------------------


def _gae_brute(rewards, values, dones, gamma, lam):
    t_max, n = rewards.shape
    adv = np.zeros((t_max, n))
    for j in range(n):
        for t in range(t_max):
            acc, factor = 0.0, 1.0
            for step in range(t, t_max):
                delta = (
                    rewards[step, j]
                    + gamma * values[step + 1, j] * (1 - dones[step, j])
                    - values[step, j]
                )
                acc += factor * delta
                if dones[step, j]:
                    break
                factor *= gamma * lam
            adv[t, j] = acc
    return adv


def test_criterion_4_gae_oracle():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        t_max = int(rng.integers(1, 51))
        rewards = rng.normal(size=(t_max, 1))
        values = rng.normal(size=(t_max + 1, 1))
        dones = (rng.random((t_max, 1)) < 0.2).astype(float)
        gamma = float(rng.uniform(0.0, 0.99))
        lam = float(rng.uniform(0.0, 1.0))
        adv, _ = gae(rewards, values, dones, gamma, lam)
        brute = _gae_brute(rewards, values, dones, gamma, lam)
        err = np.abs(adv - brute) / np.maximum(np.abs(brute), 1.0)
        worst = max(worst, float(err.max()))
    ok = worst <= 1e-10
    report(4, "GAE oracle equivalence", ok, f"max relative error {worst:.2e} (<=1e-10)")
    assert ok


# -- 5: gradient checks ------------------------------------------------------------


def _fd_check(loss_fn, net, analytic, rng, n_probes=40):
    """Worst relative error of ``analytic`` against central differences on ``net.params``,
    at up to ``n_probes`` entries of each weight and bias."""
    h = 1e-5
    worst = 0.0
    offset = 0
    for _, part in net.named_grads():
        idx = offset + rng.choice(part.size, size=min(n_probes, part.size), replace=False)
        offset += part.size
        for i in idx:
            orig = net.params[i]
            net.params[i] = orig + h
            hi = loss_fn()
            net.params[i] = orig - h
            lo = loss_fn()
            net.params[i] = orig
            numeric = (hi - lo) / (2 * h)
            a = analytic[i]
            scale = max(abs(numeric), abs(a))
            if scale < 1e-6:
                continue
            worst = max(worst, abs(numeric - a) / scale)
    return worst


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(55)
    worst = {"estimator": 0.0, "actor": 0.0, "critic": 0.0}

    for _ in range(10):
        # Estimator heads through the terrain loss.
        net = Mlp.create([40, 16, 5], rng)
        x = rng.normal(size=(2, 40))
        gt_cls = rng.integers(0, 3, size=2)
        gt_h = rng.uniform(0.1, 0.2, size=2)
        gt_d = rng.uniform(0.25, 0.35, size=2)
        w = TerrainLossWeights()

        def est_loss():
            out = net(x)
            return float(terrain_loss(out[:, :3], out[:, 3], out[:, 4], gt_cls, gt_h, gt_d, w).sum())

        out, acts = net.forward(x)
        dl, dh, dd = terrain_loss_grad(out[:, :3], out[:, 3], out[:, 4], gt_cls, gt_h, gt_d, w)
        dout = np.concatenate([dl, dh[:, None], dd[:, None]], axis=1)
        analytic = net.backward(acts, dout).copy()
        worst["estimator"] = max(worst["estimator"], _fd_check(est_loss, net, analytic, rng))

        # Actor mean head and critic value head through quadratic readouts.
        policy = GaussianPolicy(6, rng, hidden=(8, 8))
        obs = rng.normal(size=(3, 6))

        def actor_loss():
            return float(0.5 * (policy.mean_action(obs) ** 2).sum())

        raw, a_acts = policy.actor.forward(obs)
        mean = policy.squash(raw)
        span = np.array([0.4, 0.3, math.radians(10.0)])
        draw = mean * 0.5 * span * (1.0 - np.tanh(raw) ** 2)
        analytic_a = policy.actor.backward(a_acts, draw).copy()
        worst["actor"] = max(worst["actor"], _fd_check(actor_loss, policy.actor, analytic_a, rng))

        def critic_loss():
            return float(0.5 * (policy.value(obs) ** 2).sum())

        v, c_acts = policy.critic.forward(obs)
        analytic_c = policy.critic.backward(c_acts, v).copy()
        worst["critic"] = max(worst["critic"], _fd_check(critic_loss, policy.critic, analytic_c, rng))

    ok = all(v <= 1e-4 for v in worst.values())
    report(
        5,
        "gradient checks",
        ok,
        " ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (<=1e-4)",
    )
    assert ok


# -- 6: loss arithmetic -------------------------------------------------------------


def test_criterion_6_loss_arithmetic():
    loss = terrain_loss(
        np.zeros(3), np.array([0.5]), np.array([2.0]),
        np.array([0]), np.array([0.0]), np.array([0.0]),
    )[0]
    expected = 0.6 * math.log(3.0) + 0.125 + 1.5
    ok = abs(loss - expected) <= 1e-6
    report(6, "loss arithmetic", ok, f"|{loss:.10f} - {expected:.10f}| <= 1e-6")
    assert ok


# -- 7: ablation trend ----------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_ablation_trend(tmp_path):
    cfg = default_config()
    t0 = time.time()
    results = cmd_ablation(cfg, tmp_path)
    elapsed = time.time() - t0

    token = results["token"]["summary"]["success_mean"]
    heightscan = results["heightscan"]["summary"]["success_mean"]
    blind = results["blind"]["summary"]["success_mean"]
    ordering_ok = token >= heightscan >= blind

    crossings_ok = True
    token_cross, blind_cross = [], []
    for token_row, blind_row in zip(results["token"]["per_seed"], results["blind"]["per_seed"]):
        token_cross.append(token_row["updates_to_threshold"])
        blind_cross.append(blind_row["updates_to_threshold"])
        if not token_row["updates_to_threshold"] < blind_row["updates_to_threshold"]:
            crossings_ok = False

    ok = ordering_ok and crossings_ok and elapsed <= 3600.0
    report(
        7,
        "ablation trend",
        ok,
        f"final success token={token:.2f} >= heightscan={heightscan:.2f} >= blind={blind:.2f}; "
        f"updates-to-80% token={token_cross} < blind={blind_cross}; "
        f"runtime {elapsed / 60:.1f} min (<=60)",
    )
    assert ok


# -- 8: generalization trend -------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_generalization_trend(tmp_path):
    cfg = default_config()
    rows = cmd_generalize(cfg, tmp_path)
    table = {(r["mode"], round(r["height"], 3)): r["success_mean"] for r in rows}

    token_16, token_22 = table[("token", 0.16)], table[("token", 0.22)]
    blind_16, blind_22 = table[("blind", 0.16)], table[("blind", 0.22)]
    drop_token = (token_16 - token_22) / max(token_16, 1e-9)
    drop_blind = (blind_16 - blind_22) / max(blind_16, 1e-9)
    ok = token_22 > blind_22 and drop_token < drop_blind
    report(
        8,
        "generalization trend",
        ok,
        f"success@0.22 token={token_22:.2f} > blind={blind_22:.2f}; "
        f"relative drop 0.16->0.22 token={drop_token:.2f} < blind={drop_blind:.2f}",
    )
    assert ok


# -- 9: CLI determinism --------------------------------------------------------------


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("STAIRLAB_OUT", raising=False)
    cfg_text = """
[run]
seeds = 3,4

[sensor]
pitch = 0.05

[ppo]
horizon = 16
n_envs = 2

[env]
horizon = 40

[ablation]
updates = 2
eval_episodes = 3
terrain_heights = 0.12
terrain_episodes = 2

[generalize]
updates = 2
train_heights = 0.12,0.14
eval_heights = 0.12,0.18
episodes = 3

[track]
updates = 2

[train]
stage1_updates = 2
stage2_updates = 1
stage3_updates = 1

[benchmark]
n_configs = 10
"""
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(cfg_text)

    cloud_src = tmp_path / "probe.xyz"
    spec = StairSpec(StairClass.STAIRS_UP, 0.14, 0.3, 0.0, 6, 1.0, 1.0)
    cloud_io.write_xyz(
        cloud_src, scan(TerrainProfile(spec), (-0.5, 0, 0), SensorModel(), seed=5)
    )

    mismatches = []
    for command in ("gen", "benchmark-estimator", "train", "ablation", "generalize", "track"):
        out_a, out_b = tmp_path / f"{command}_a", tmp_path / f"{command}_b"
        assert main(["--config", str(cfg_path), "--out", str(out_a), command]) == 0
        assert main(["--config", str(cfg_path), "--out", str(out_b), command]) == 0
        if _tree_bytes(out_a) != _tree_bytes(out_b):
            mismatches.append(command)

    for command, args in (("bev", [str(cloud_src)]), ("ingest", [str(cloud_src)])):
        if command == "bev":
            g1, g2 = tmp_path / "g1.bevg", tmp_path / "g2.bevg"
            assert main(["bev", str(cloud_src), str(g1)]) == 0
            assert main(["bev", str(cloud_src), str(g2)]) == 0
            if g1.read_bytes() != g2.read_bytes():
                mismatches.append("bev")

    ok = not mismatches
    report(9, "CLI determinism", ok, "bit-identical re-runs" if ok else f"mismatches: {mismatches}")
    assert ok


# -- 10: cloud round trip --------------------------------------------------------------


def test_criterion_10_round_trip(tmp_path, capsys):
    spec = StairSpec(StairClass.STAIRS_UP, 0.17, 0.30, 0.05, 8, 1.0, 1.0)
    cloud = scan(
        TerrainProfile(spec),
        (-0.5 * math.cos(0.05), -0.5 * math.sin(0.05), 0.0),
        SensorModel(noise_sigma_z=0.01),
        seed=77,
    )
    in_memory = format_token_record(estimate_token(project(cloud)))

    ok = True
    details = []
    for fmt, writer in (("xyz", cloud_io.write_xyz), ("ply", write_ply)):
        path = tmp_path / f"cloud.{fmt}"
        writer(path, cloud)
        assert main(["ingest", str(path)]) == 0
        printed = capsys.readouterr().out.strip()
        same = printed == in_memory
        ok = ok and same
        details.append(f"{fmt}={'exact' if same else 'MISMATCH'}")

    report(10, "cloud round trip", ok, ", ".join(details))
    assert ok
