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

The digests hold per (numpy version, libm, BLAS on one thread). They
rest on numpy's sort and summation kernels, so they hold for the numpy
version CI pins (2.4.6); on libm, because every exp and log of training
goes through the C library's scalar functions rather than numpy's SIMD
loops; and on BLAS running on one thread: the estimator net's products
round differently when split across threads. ``stairlab`` pins BLAS to
one thread on import, and ``conftest.py`` imports it before the test
modules import numpy, so the digests hold whatever
``OPENBLAS_NUM_THREADS`` the suite is run with.

numpy's AVX2 and AVX-512 loops give the same bytes, and the suite runs
the loops of the CPU it finds. Below AVX2, ``np.tanh`` rounds
differently, so the training and command digests need at least AVX2;
the perception digests hold at every level down to numpy's baseline.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        "6da68f5be1788b9c05f061b69bc813890a1877cb07bb6d5f81678e4e7977b743"
    ),
    "train/default/policy/actor.mlp1": (
        "f3d5ab942ec74bb98603f317ef2b0f8bc3c1c4b329c0a045b44432eb3074cda5"
    ),
    "train/default/policy/critic.mlp1": (
        "41a2be03a9cbf86deb80156d86ad9617369e24d132699ea785f0dee75ce9b845"
    ),
    "train/default/policy/log_std.txt": (
        "a157f791a640c3d00bec6ac14f6a69d66c52add177ec7f94aa6a7b4048604ded"
    ),
    "train/default/estimator.mlp1": (
        "5fc71cdf3a2f1c6204ef5d72366fa63e39f7a001acfd2a11e46b801b03da2498"
    ),
    "train/occluded_down_flips/curves.csv": (
        "49441042907cb2c63eee9a9e7664803ab597acca3aa3e366aa48b3d6fe3d7107"
    ),
    "train/occluded_down_flips/policy/actor.mlp1": (
        "fd2eab20ef14e5e0eb576821814922cb43ccb6baf70b8377ced5a57d8d439947"
    ),
    "train/occluded_down_flips/policy/critic.mlp1": (
        "2fa89c5f96bbfba7ae4999413b0a581bc1f2571233bba0d0e28dfca4488f4cd2"
    ),
    "train/occluded_down_flips/policy/log_std.txt": (
        "eff0976aa2865c4200be704c57bcb0d862b2542c7787161227cf59c202684139"
    ),
    "train/occluded_down_flips/estimator.mlp1": (
        "7ead490fbfc576c1b4baf4157e95ef10895f829d4be5d8c2a738b7a6b1d7361d"
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
        "fda68319383205e43122c989012cb42868069c52c07f44c36a41341152d990be"
    ),
    "ablation/curves_blind_seed1.csv": (
        "a0576c0f84b3e1c6877f2278d2954eabf54439be5339367b03e4b17fae7e413d"
    ),
    "ablation/curves_blind_seed2.csv": (
        "d7c7223901f7387a4da41469f288f268d96c572ef0097f51b00fe426b96665c5"
    ),
    "ablation/curves_heightscan_seed1.csv": (
        "a2db541188dfad26985c72279ae53e945a207430bc0ba2ef91e5db8dcb8a3123"
    ),
    "ablation/curves_heightscan_seed2.csv": (
        "a6f7cca37c627c0a88532c50050f42b60eea6d113b9b8b625008f6c212f51fb8"
    ),
    "ablation/curves_token_seed1.csv": (
        "fd0bc966ea325330397e4400b4f4ce785edb0e429ea2d317e600d4f3c10abcbe"
    ),
    "ablation/curves_token_seed2.csv": (
        "df5de0a39a76689684a35f62ff695ccc25c0745743a5b64bb9f0c3097f1b910b"
    ),
    "ablation/per_seed.csv": (
        "8597120547d390afdea272a38c0c439445a20a899d40d425066e828c3d31829d"
    ),
    "ablation/summary.csv": (
        "29b7d06cd36bbd9c45ee2a88b6e2fff28d9ff796be0e029a3d1396b15528ef96"
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


AVX512_LEVELS = "X86_V4 AVX512_ICL AVX512_SPR"  # NPY_DISABLE_CPU_FEATURES value that leaves AVX2


def _fresh_env(blas_threads: str = "1", disabled_simd: str = "") -> dict[str, str]:
    """Environment of a fresh stairlab process.

    The process asks BLAS for ``blas_threads`` threads before stairlab is
    imported, and numpy runs without the SIMD levels in ``disabled_simd``.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("STAIRLAB_OUT", "NPY_DISABLE_CPU_FEATURES")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas_threads
    if disabled_simd:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled_simd
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cli_train_bytes(out_root, env: dict[str, str]) -> dict[str, bytes]:
    """Bytes of the default tiny ``train``'s outputs, run by the CLI in a process with ``env``."""
    out_root.mkdir()
    config = out_root / "train.ini"
    config.write_text(TRAIN.format(env="", extra=""))
    command = [sys.executable, "-m", "stairlab.cli", "--config", str(config), "--out", str(out_root)]
    subprocess.run([*command, "train"], env=env, check=True, capture_output=True)
    return {name: (out_root / "train" / name).read_bytes() for name in TRAIN_FILES}


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = _cli_train_bytes(tmp_path / "one", _fresh_env("1"))
    assert one == _cli_train_bytes(tmp_path / "four", _fresh_env("4"))


def test_train_bytes_do_not_depend_on_numpy_avx512_loops(tmp_path):
    # numpy's AVX2 and AVX-512 exp and log round differently; training calls libm's instead.
    probe = "from numpy._core._multiarray_umath import __cpu_features__ as f; print(f.get('X86_V4', False))"
    native = _fresh_env()
    found = subprocess.run([sys.executable, "-c", probe], env=native, check=True, capture_output=True, text=True)
    if found.stdout.strip() != "True":
        pytest.skip("this CPU has no AVX-512, so numpy runs no AVX-512 loops")
    avx2 = _fresh_env(disabled_simd=AVX512_LEVELS)
    assert _cli_train_bytes(tmp_path / "native", native) == _cli_train_bytes(tmp_path / "avx2", avx2)
