"""Golden bytes of the perception and training outputs.

The sha256 of each file below was recorded from a known-good build and
pins the bytes of ``gen`` (cloud and grid files), of
``benchmark-estimator`` (the per-case details), of ``train`` (curves,
policy and estimator checkpoints), of ``generalize`` on analytic
tokens, of ``track`` (the tracking trace) and of ``ablation`` (curves,
per-seed metrics and summary); CSV manifest lines are left out, since
they carry the config hash. A change to scan, project, the estimator,
the token sources, the stepper or the training loop that alters any
output byte or any draw fails here; such a change must record the new
digests and say which outputs changed and why.

The digests rest on numpy's sort and summation kernels, so they hold for
the numpy version CI pins (2.4.6).
"""

import hashlib

from stairlab.config import parse_config_text
from stairlab.experiments import (
    cmd_ablation,
    cmd_benchmark_estimator,
    cmd_gen,
    cmd_generalize,
    cmd_track,
    cmd_train,
)

GEN_SEEDS = (1, 2)
OCCLUDED = "[sensor]\nocclusion = true\n"
# Default worlds are all up-flights, which hide nothing from the sensor;
# the occluded variant draws down-flights, where risers hide treads.
GEN_VARIANTS = {
    "default": "",
    "occluded_down": OCCLUDED + "[world]\nweight_up = 0\nweight_down = 1\n",
}
BENCHMARK_VARIANTS = {"default": "", "occluded_dropout": OCCLUDED}
BENCHMARK_DROPOUT = {"default": 0.0, "occluded_dropout": 0.1}

GOLDEN = {
    "gen/default/1/cloud.xyz": (
        "a95bf7055d6d54223e6a18260a24a3540343d431b2ffaff80d9b809973b67d0e"
    ),
    "gen/default/1/grid.bevg": (
        "7cb21e30a04baef3966ffed3dd586c0a56ebc2c662b43f20ac33823c67ba4b05"
    ),
    "gen/default/2/cloud.xyz": (
        "bf84ec22c41838ab6c4b3e71cbd54a9d69a9dfcb28a2d90b785e270491712273"
    ),
    "gen/default/2/grid.bevg": (
        "179e53a1160215db18460e2b972ab3995565ad187db387456166b9a12cef1dec"
    ),
    "gen/occluded_down/1/cloud.xyz": (
        "5327fabe1e98623bbcf13982dcd04d8347b28035ae5f3f3a09bdc67db3e5ef06"
    ),
    "gen/occluded_down/1/grid.bevg": (
        "94aed8021516e1011b670436302489981177b70f8f077f2276bbf5a7891cd7b9"
    ),
    "gen/occluded_down/2/cloud.xyz": (
        "05d92b3c2a8964c84eca19b4634a4e99454bd9108878db1d3a9005fbc573e330"
    ),
    "gen/occluded_down/2/grid.bevg": (
        "81b0259d12d8b5f150aaef7e6c042b214260f2bf7ce57800893ac4f52582f073"
    ),
    "benchmark/default/details.csv": (
        "ab1a4838aedc2085395b3cbed2fdef8fa6e5a36691e051e74ad6182885b60f62"
    ),
    "benchmark/occluded_dropout/details.csv": (
        "8bc33c9c0cda4bd186ea601683f918d641421b577667a34cf544bb2f0a841701"
    ),
}


# Three-stage training small enough to run in about a second, whose stages
# 2 and 3 still sense on the refresh schedule: supervision on teacher
# tokens, then learned tokens with supervision.
TRAIN = (
    "[run]\nseeds = 1\n[ppo]\nn_envs = 3\nhorizon = 24\n"
    "[env]\nhorizon = 60\ntoken_refresh = 5\n{env}"
    "[train]\nstage1_updates = 2\nstage2_updates = 2\nstage3_updates = 2\n{extra}"
)
# (extra [env] lines, extra sections)
TRAIN_VARIANTS = {
    "default": ("", ""),
    "occluded_down_flips": (
        "token_flip_p = 0.2\n",
        OCCLUDED + "dropout = 0.1\n[world]\nweight_up = 0\nweight_down = 1\n",
    ),
}
TRAIN_FILES = (
    "curves.csv", "policy/actor.mlp1", "policy/critic.mlp1", "policy/log_std.txt", "estimator.mlp1",
)
# Training and evaluation both on analytic tokens.
GENERALIZE_ANALYTIC = (
    "[run]\nseeds = 1\n[ppo]\nn_envs = 3\nhorizon = 24\n"
    "[env]\nhorizon = 60\ntoken_source = analytic\ntoken_refresh = 5\n"
    "[generalize]\nupdates = 2\ntrain_heights = 0.12,0.14\neval_heights = 0.12,0.18\n"
    "episodes = 6\nmodes = token\n"
)

TRAINING_GOLDEN = {
    "train/default/curves.csv": (
        "df232d1c5d76a1c7192766cf361eb888e8563ac66aecc828d18648a00519e456"
    ),
    "train/default/policy/actor.mlp1": (
        "1f8009c78f8e9ba4a41a33aa8f4140ae55839d895ad2c481d40eee0eaff99df4"
    ),
    "train/default/policy/critic.mlp1": (
        "bd543759191362bcb0c80bc3a46e3c743c00a7816ef29c915d6701615447c7f4"
    ),
    "train/default/policy/log_std.txt": (
        "a157f791a640c3d00bec6ac14f6a69d66c52add177ec7f94aa6a7b4048604ded"
    ),
    "train/default/estimator.mlp1": (
        "e6408c020396b52830d79572d4890b3628393937c5940952cdc58ed7212c647a"
    ),
    "train/occluded_down_flips/curves.csv": (
        "fa51c4581684f226ece9636b3fcd1006cf4054964b32a927d4a516c37e5b2d9d"
    ),
    "train/occluded_down_flips/policy/actor.mlp1": (
        "5c3ae16ceb28076f43a0ada6a005cde42ba016c0d78f4a19ab0c354717433bdb"
    ),
    "train/occluded_down_flips/policy/critic.mlp1": (
        "603d8a6fd01d8d7e949152b1c5a11cb7decd2232c81bd28ad57d19bd6b94919d"
    ),
    "train/occluded_down_flips/policy/log_std.txt": (
        "eff0976aa2865c4200be704c57bcb0d862b2542c7787161227cf59c202684139"
    ),
    "train/occluded_down_flips/estimator.mlp1": (
        "a3919575cc9fb1c8d3989bc8d5b8996d1c4fd0d99266a8d1b4a916f401dfb633"
    ),
    "generalize/analytic/per_seed.csv": (
        "e282fc3e504e4052f38f193f0ebe72c395c39950bace97495f677b06dd9139e2"
    ),
    "generalize/analytic/generalization.csv": (
        "c6b46ca575d12920c2120b78229dc4cdf6f4208dd800ec6259d2211d80709fa1"
    ),
}

# A schedule with three commands over a 30-step flight; the episode runs
# 19 steps, so the trace crosses both command changes.
TRACK = (
    "[run]\nseeds = 1\n[ppo]\nn_envs = 3\nhorizon = 24\n[env]\nhorizon = 60\n"
    "[track]\nupdates = 10\nn_steps = 30\nschedule = 0:0.2,8:0.4,16:0.3\n"
)
# Every observation mode on two seeds, with a threshold low enough to be crossed.
ABLATION = (
    "[run]\nseeds = 1,2\n[ppo]\nn_envs = 2\nhorizon = 16\n[env]\nhorizon = 60\n"
    "[ablation]\nupdates = 3\neval_episodes = 4\nterrain_heights = 0.12,0.16\n"
    "terrain_episodes = 2\nsuccess_threshold = 0.1\nsuccess_window = 2\n"
)
ABLATION_FILES = (
    *(f"curves_{m}_seed{s}.csv" for m in ("blind", "heightscan", "token") for s in (1, 2)),
    "per_seed.csv",
    "summary.csv",
)

COMMAND_GOLDEN = {
    "track/track.csv": (
        "20b5ec8bfbbe8428238cc45e0b9c715280e0d8c2d04181e003c846549de6f3cc"
    ),
    "ablation/curves_blind_seed1.csv": (
        "cab8ecdda3df0375920e26066c7252d37d12c26ca6e78e84e0d1cb62710f3ff9"
    ),
    "ablation/curves_blind_seed2.csv": (
        "374e0d8df8e14f541ddff647363ac44333309597dfb7b16ab19f62d6451260d5"
    ),
    "ablation/curves_heightscan_seed1.csv": (
        "7590a20d2615c401b80e0087602e49bae7982b8938bb4b4f51487b0b456150ce"
    ),
    "ablation/curves_heightscan_seed2.csv": (
        "9321b4b9c9e472befbb64a1dbf358de2b696addb81a9d9f3d81a55b3a31b34f8"
    ),
    "ablation/curves_token_seed1.csv": (
        "e0c1eb4cc7fab0d8164e933d1789cd51ab9eac6748ba718bd5ff072c4ffeb74a"
    ),
    "ablation/curves_token_seed2.csv": (
        "5c52469b3849fbe9cae70fe598eab032589977f41f671bd50a35f7dea6d16b57"
    ),
    "ablation/per_seed.csv": (
        "dcadcf4307767a4eb1538e882ebdfbf75b5f23591ba3525ae223260f4db8202e"
    ),
    "ablation/summary.csv": (
        "053b271569f60f63dd3f77b9a3f39cb869518c718dbb107aa7cb89a734fbd939"
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_body(path) -> bytes:
    """A CSV's bytes without its manifest line."""
    lines = path.read_text().splitlines(keepends=True)
    return "".join(ln for ln in lines if not ln.startswith("#")).encode()


def perception_digests(out_root) -> dict[str, str]:
    """sha256 of every pinned output, keyed by variant and file."""
    digests = {}
    for variant, extra in GEN_VARIANTS.items():
        seeds = ",".join(str(s) for s in GEN_SEEDS)
        cfg = parse_config_text(f"[run]\nseeds = {seeds}\n" + extra, base_dir=out_root)
        cmd_gen(cfg, out_root / f"gen_{variant}")
        for seed in GEN_SEEDS:
            case = out_root / f"gen_{variant}" / "gen" / f"seed_{seed:06d}"
            for name in ("cloud.xyz", "grid.bevg"):
                digests[f"gen/{variant}/{seed}/{name}"] = _sha256((case / name).read_bytes())
    for variant, extra in BENCHMARK_VARIANTS.items():
        text = f"[run]\nseeds = 1\n{extra}[benchmark]\nn_configs = 40\n"
        text += f"dropout = {BENCHMARK_DROPOUT[variant]}\n"
        cfg = parse_config_text(text, base_dir=out_root)
        out = out_root / f"benchmark_{variant}"
        cmd_benchmark_estimator(cfg, out)
        body = _csv_body(out / "benchmark_estimator_details.csv")
        digests[f"benchmark/{variant}/details.csv"] = _sha256(body)
    return digests


def training_digests(out_root) -> dict[str, str]:
    """sha256 of every pinned ``train`` and ``generalize`` output."""
    digests = {}
    for variant, (env, extra) in TRAIN_VARIANTS.items():
        cfg = parse_config_text(TRAIN.format(env=env, extra=extra), base_dir=out_root)
        out = cmd_train(cfg, out_root / f"train_{variant}")["out"]
        for name in TRAIN_FILES:
            data = _csv_body(out / name) if name.endswith(".csv") else (out / name).read_bytes()
            digests[f"train/{variant}/{name}"] = _sha256(data)
    cmd_generalize(parse_config_text(GENERALIZE_ANALYTIC, base_dir=out_root), out_root)
    for name in ("per_seed.csv", "generalization.csv"):
        digests[f"generalize/analytic/{name}"] = _sha256(_csv_body(out_root / "generalize" / name))
    return digests


def command_digests(out_root) -> dict[str, str]:
    """sha256 of every pinned ``track`` and ``ablation`` output."""
    cmd_track(parse_config_text(TRACK, base_dir=out_root), out_root)
    digests = {"track/track.csv": _sha256(_csv_body(out_root / "track" / "track.csv"))}
    cmd_ablation(parse_config_text(ABLATION, base_dir=out_root), out_root)
    for name in ABLATION_FILES:
        digests[f"ablation/{name}"] = _sha256(_csv_body(out_root / "ablation" / name))
    return digests


def test_perception_outputs_match_golden_bytes(tmp_path):
    assert perception_digests(tmp_path) == GOLDEN


def test_training_outputs_match_golden_bytes(tmp_path):
    assert training_digests(tmp_path) == TRAINING_GOLDEN


def test_command_outputs_match_golden_bytes(tmp_path):
    assert command_digests(tmp_path) == COMMAND_GOLDEN
