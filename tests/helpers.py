"""Helpers shared by the test modules."""

from dataclasses import replace

from stairlab.world import ParameterRanges, StairClass


def with_class(ranges: ParameterRanges, stair_class: StairClass) -> ParameterRanges:
    """``ranges`` restricted to draw only ``stair_class``."""
    weights = [0.0, 0.0, 0.0]
    weights[int(stair_class)] = 1.0
    return replace(ranges, class_weights=tuple(weights))
