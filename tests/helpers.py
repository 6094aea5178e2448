"""Helpers shared by the test modules."""

import inspect
import math
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from stairlab.sensor import PointCloud
from stairlab.world import ParameterRanges, StairClass, StairSpec


def with_class(ranges: ParameterRanges, stair_class: StairClass) -> ParameterRanges:
    """``ranges`` restricted to draw only ``stair_class``."""
    weights = [0.0, 0.0, 0.0]
    weights[int(stair_class)] = 1.0
    return replace(ranges, class_weights=tuple(weights))


def write_ply(path, cloud: PointCloud) -> None:
    """Write ``cloud`` as ASCII PLY with full-precision float x, y, z, as the readers' input."""
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    body = [f"{x!r} {y!r} {z!r}" for x, y, z in cloud.points.tolist()]
    Path(path).write_text("\n".join(header + body) + "\n")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Depths where s / d misplaces a riser by one: 0.35 * 3 / 0.35 < 3, and the
# float below 0.253 * 5, divided by 0.253, rounds up to 5.
BOUNDARY_SPECS = [
    StairSpec(StairClass.STAIRS_UP, 0.13, 0.35, 0.3, 8, 1.0, 0.8, 1.1, -0.6),
    StairSpec(StairClass.STAIRS_UP, 0.1, 0.253, 0.0, 9, 1.0, 0.8),
    StairSpec(StairClass.STAIRS_DOWN, 0.17, 0.289, -0.2, 9, 1.0, 0.8),
    StairSpec(StairClass.STAIRS_DOWN, 0.1, 0.3, 0.0, 9, 1.0, 0.8),
    StairSpec(StairClass.FLAT, 0.0, 0.0, 0.0, 4, 1.0, 0.8),
]


def spec_id(spec):
    return f"{spec.stair_class.name}-{spec.d_step}"


def boundary_positions(spec):
    """Each riser position, one ulp either side, zeros of both signs, and points off the flight."""
    d = spec.d_step if spec.d_step > 0.0 else 0.3
    risers = d * np.arange(spec.n_steps + 1, dtype=float)
    out = [-0.0, 0.0, -d, -0.5 * d, -1e-300, 1e-300, 10.0, -10.0]
    for r in risers.tolist():
        out += [r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf), r + 0.5 * d]
    return out


def line_allocations(fn, *args) -> dict[tuple[str, int], int]:
    """The most new memory live at once between two traced events of ``fn``, per source line.

    Every line, call and return in every Python frame is an event, and the
    memory made between two events is charged to the (file, line) of the
    first, so a block of B bytes made and freed within one line reads at
    least B there.
    """
    worst: dict[tuple[str, int], int] = {}
    base = 0
    where = ("", 0)

    def trace(frame, event, arg):
        nonlocal base, where
        current, peak = tracemalloc.get_traced_memory()
        worst[where] = max(worst.get(where, 0), peak - base)
        tracemalloc.reset_peak()
        base = current
        where = (frame.f_code.co_filename, frame.f_lineno)
        return trace

    previous = sys.gettrace()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sys.settrace(trace)
        try:
            fn(*args)
        finally:
            sys.settrace(previous)
    finally:
        tracemalloc.stop()
    return worst


def largest_line_allocation(fn, *args) -> int:
    """The most new memory live at once between two traced events of ``fn``, over all lines."""
    return max(line_allocations(fn, *args).values(), default=0)


def source_line(fn, text: str) -> tuple[str, int]:
    """The (file, line) of the one line of ``fn``'s source that holds ``text``."""
    lines, first = inspect.getsourcelines(fn)
    found = [first + i for i, line in enumerate(lines) if text in line]
    assert len(found) == 1, (fn, text, found)
    return fn.__code__.co_filename, found[0]
