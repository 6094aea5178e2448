"""Point cloud file formats: plain XYZ text and an ASCII PLY subset.

Both writers emit full-precision decimal floats so that a write/read
round trip reproduces the in-memory coordinates exactly. Both readers
reject a non-numeric or non-finite coordinate, naming the path and line,
and a file that does not decode as text, naming the path.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .sensor import PointCloud


def _lines(cloud: PointCloud) -> list[str]:
    return [f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for p in cloud.points]


def write_xyz(path, cloud: PointCloud) -> None:
    lines = _lines(cloud)
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _text_lines(path) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text file (bad byte at offset {exc.start})") from exc


def _point(path, lineno: int, parts: list[str]) -> list[float]:
    """The coordinates on line ``lineno``; non-numeric or non-finite ones are rejected."""
    try:
        xyz = [float(v) for v in parts]
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: non-numeric value") from exc
    if not all(math.isfinite(v) for v in xyz):
        raise ValueError(f"{path}: line {lineno}: non-finite coordinate")
    return xyz


def read_xyz(path) -> PointCloud:
    pts = []
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 'x y z', got {raw!r}")
        pts.append(_point(path, lineno, parts))
    return PointCloud(np.asarray(pts, dtype=float).reshape(-1, 3))


def write_ply(path, cloud: PointCloud) -> None:
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    Path(path).write_text("\n".join(header + _lines(cloud)) + "\n")


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY file with exactly float x/y/z vertex properties.

    Binary PLY variants are rejected with a clear error.
    """
    lines = _text_lines(path)
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file (missing 'ply' magic line)")

    vertex_count = None
    properties: list[str] = []
    body_start = None
    for i, raw in enumerate(lines[1:], start=1):
        line = raw.strip()
        if line.startswith("comment"):
            continue
        if line.startswith("format"):
            if "ascii" not in line:
                raise ValueError(f"{path}: binary PLY is not supported (got {line!r})")
        elif line.startswith("element vertex"):
            parts = line.split()
            if len(parts) != 3 or not parts[2].isdecimal():
                raise ValueError(f"{path}: invalid vertex count in {line!r}")
            vertex_count = int(parts[2])
        elif line.startswith("element"):
            raise ValueError(f"{path}: unsupported element {line!r}")
        elif line.startswith("property"):
            parts = line.split()
            if len(parts) != 3 or parts[1] not in ("float", "float32", "double", "float64"):
                raise ValueError(f"{path}: unsupported property {line!r}")
            properties.append(parts[2])
        elif line == "end_header":
            body_start = i + 1
            break
    if body_start is None:
        raise ValueError(f"{path}: PLY header missing end_header")
    if vertex_count is None:
        raise ValueError(f"{path}: PLY header missing 'element vertex'")
    if properties != ["x", "y", "z"]:
        raise ValueError(f"{path}: expected float x, y, z properties, got {properties}")

    body = [(n, ln) for n, ln in enumerate(lines[body_start:], start=body_start + 1) if ln.strip()]
    if len(body) < vertex_count:
        raise ValueError(f"{path}: expected {vertex_count} vertices, found {len(body)}")
    pts = []
    for lineno, raw in body[:vertex_count]:
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed vertex line {raw!r}")
        pts.append(_point(path, lineno, parts))
    return PointCloud(np.asarray(pts, dtype=float).reshape(-1, 3))


def read_cloud(path) -> PointCloud:
    """Dispatch on extension: .ply goes through the PLY parser, else XYZ."""
    if str(path).lower().endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)
