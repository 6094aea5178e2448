"""Seeded mutation test over every file format the CLI reads.

Each reader starts from a valid file, then reads bounded, seeded mutants
of it: truncations, flipped bytes, injected NaN or inf values and
negative counts. A mutant must either parse or raise ``StairlabError`` /
``ValueError`` whose message names the file.
"""

import re
import struct

import numpy as np
import pytest

from stairlab.bev import project, read_grid, write_grid
from stairlab.cloud_io import read_ply, read_xyz, write_xyz
from stairlab.errors import StairlabError
from stairlab.nn import Mlp, load_mlp, save_mlp
from stairlab.sensor import SensorModel, scan
from stairlab.world import StairClass, StairSpec, TerrainProfile

from helpers import write_ply

MUTANTS_PER_KIND = 12
BAD_FLOATS = ("nan", "inf", "-inf", "NaN", "-Infinity")


def small_cloud():
    spec = StairSpec(StairClass.STAIRS_UP, 0.15, 0.30, 0.1, 8, 1.0, 1.0)
    sensor = SensorModel(window=1.0, sample_pitch=0.1)
    return scan(TerrainProfile(spec), (-0.5, 0.0, 0.0), sensor, seed=3)


def write_valid(fmt, path):
    cloud = small_cloud()
    if fmt == "xyz":
        write_xyz(path, cloud)
    elif fmt == "ply":
        write_ply(path, cloud)
    elif fmt == "bevg":
        write_grid(path, project(cloud))
    else:
        save_mlp(path, Mlp.create([4, 3, 2], np.random.default_rng(0)))


READERS = {"xyz": read_xyz, "ply": read_ply, "bevg": read_grid, "mlp1": load_mlp}


def truncations(raw, rng):
    return [raw[: int(n)] for n in rng.integers(0, len(raw), MUTANTS_PER_KIND)]


def byte_flips(raw, rng):
    out = []
    for _ in range(MUTANTS_PER_KIND):
        buf = bytearray(raw)
        for pos in rng.integers(0, len(raw), rng.integers(1, 5)):
            buf[pos] ^= int(rng.integers(1, 256))
        out.append(bytes(buf))
    return out


def non_finite(fmt, raw, rng):
    """A NaN or inf in place of a number: a text token, or an aligned binary value."""
    out = []
    for k in range(MUTANTS_PER_KIND):
        bad = BAD_FLOATS[k % len(BAD_FLOATS)]
        if fmt in ("xyz", "ply"):
            text = raw.decode()
            numbers = list(re.finditer(r"-?\d+\.\d+(e-?\d+)?", text))
            m = numbers[int(rng.integers(len(numbers)))]
            out.append((text[: m.start()] + bad + text[m.end() :]).encode())
        else:
            code, size, start = ("<f", 4, 20) if fmt == "bevg" else ("<d", 8, 8 + 4 * 3)
            pos = start + size * int(rng.integers(0, (len(raw) - start) // size))
            out.append(raw[:pos] + struct.pack(code, float(bad)) + raw[pos + size :])
    return out


def negative_counts(fmt, raw, rng):
    """Counts a writer never emits: negative, or -1 stored as an unsigned field."""
    if fmt == "xyz":
        return []  # no count field
    if fmt == "ply":
        text = raw.decode()
        return [
            re.sub(r"element vertex \d+", f"element vertex {n}", text).encode()
            for n in (-1, -100, "-0", 10**9)
        ]
    # .bevg: version, channels, height, width; .mlp1: layer count, then the three sizes.
    return [raw[:pos] + struct.pack("<i", -1) + raw[pos + 4 :] for pos in range(4, 20, 4)]


def mutants(fmt, raw, rng):
    return (
        [("truncate", m) for m in truncations(raw, rng)]
        + [("flip", m) for m in byte_flips(raw, rng)]
        + [("non_finite", m) for m in non_finite(fmt, raw, rng)]
        + [("negative_count", m) for m in negative_counts(fmt, raw, rng)]
    )


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_mutants_parse_or_name_the_file(tmp_path, fmt):
    valid = tmp_path / f"valid.{fmt}"
    write_valid(fmt, valid)
    READERS[fmt](valid)
    rng = np.random.default_rng(sum(map(ord, fmt)))
    rejected = 0
    for i, (kind, blob) in enumerate(mutants(fmt, valid.read_bytes(), rng)):
        path = tmp_path / f"mutant_{i:03d}_{kind}.{fmt}"
        path.write_bytes(blob)
        try:
            READERS[fmt](path)
        except (StairlabError, ValueError) as exc:
            assert str(path) in str(exc), f"{kind}: {exc!r}"
            rejected += 1
    assert rejected > 0
