"""Golden bytes of the perception outputs.

The sha256 of each file below was recorded from a known-good build and
pins the bytes of ``gen`` (cloud and grid files) and of
``benchmark-estimator`` (the per-case details, manifest line left out,
since it carries the config hash). A change to scan, project or the
estimator that alters any output byte fails here; such a change must
record the new digests and say which outputs changed and why.

The digests rest on numpy's sort and summation kernels, so they hold for
the numpy version CI pins (2.4.6).
"""

import hashlib

from stairlab.config import parse_config_text
from stairlab.experiments import cmd_benchmark_estimator, cmd_gen

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
        lines = (out / "benchmark_estimator_details.csv").read_text().splitlines(keepends=True)
        body = "".join(ln for ln in lines if not ln.startswith("#"))
        digests[f"benchmark/{variant}/details.csv"] = _sha256(body.encode())
    return digests


def test_perception_outputs_match_golden_bytes(tmp_path):
    assert perception_digests(tmp_path) == GOLDEN
