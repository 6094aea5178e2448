"""Span tracer for the traced run, and the per-layer metrics it yields.

The tracer wraps public functions and methods of ``stairlab`` from the
outside. A function bound elsewhere with ``from .x import y`` is replaced
in every ``stairlab`` module that holds it, since the caller looks the
name up in its own module; methods are replaced on their class. Spans nest
on one stack (the program is single-threaded), so a span's self time is
its duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np
from stairlab import bev, env, estimator, experiments, nn, ppo, sensor, world


class SpanStats:
    """Durations of every span of one name, their summed self time, and a summed measure."""

    __slots__ = ("durations", "self_s", "measure")

    def __init__(self) -> None:
        self.durations = array("d")
        self.self_s = 0.0
        self.measure = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _traced(self, name: str, fn, measure=None):
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat.durations.append(duration)
                stat.self_s += duration - children[0]
            if measure is not None:
                stat.measure += measure(out)
            return out

        return traced

    def wrap_function(self, name: str, fn, measure=None) -> None:
        """Trace ``fn`` wherever a ``stairlab`` module binds it."""
        traced = self._traced(name, fn, measure)
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "stairlab"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, traced)

    def wrap_method(self, name: str, cls, attr: str, measure=None) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._traced(name, fn, measure))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return len(stat.durations) if stat else 0


def install_stairlab(tracer: Tracer) -> None:
    """Trace the public functions of every layer, from worlds up to experiments."""
    functions = [
        ("world.generate_stairs", world.generate_stairs, None),
        ("world.ground_truth_token", world.ground_truth_token, None),
        ("sensor.scan", sensor.scan, len),
        ("sensor.dropout", sensor.dropout, None),
        ("bev.project", bev.project, None),
        ("estimator.estimate_token", estimator.estimate_token, None),
        ("estimator.estimate_yaw", estimator.estimate_yaw, None),
        ("estimator.extract_profile", estimator.extract_profile, None),
        ("estimator.analyze_steps", estimator.analyze_steps, None),
        ("estimator.riser_ahead_on_axis", estimator.riser_ahead_on_axis, None),
        ("nn.pool_bev", nn.pool_bev, None),
        ("nn.adam_step", nn.adam_step, None),
        ("ppo.collect", ppo.collect, lambda batch: len(batch.episodes)),
        ("ppo.gae", ppo.gae, None),
        ("ppo.ppo_update", ppo.ppo_update, None),
        ("ppo.estimator_update", ppo.estimator_update, None),
        ("ppo.train_policy", ppo.train_policy, None),
        ("ppo.train_three_stage", ppo.train_three_stage, None),
        ("experiments.benchmark_case", experiments.benchmark_case, None),
    ]
    methods = [
        ("world.height_on_axis", world.TerrainProfile, "height_on_axis"),
        ("env.step", env.StepperEnv, "step"),
        ("env.reset", env.StepperEnv, "reset"),
        ("env.observe", env.StepperEnv, "observe"),
        ("env.supervision_sample", env.StepperEnv, "supervision_sample"),
        ("nn.mlp_forward", nn.Mlp, "forward"),
        ("nn.mlp_backward", nn.Mlp, "backward"),
        ("ppo.act_batch", ppo.GaussianPolicy, "act_batch"),
    ]
    for name, fn, measure in functions:
        tracer.wrap_function(name, fn, measure)
    for name, cls, attr in methods:
        tracer.wrap_method(name, cls, attr)


# name -> (unit, better). Generic suffixes: .calls per operation, .p50_<unit>
# of one span's duration, .self_s of self time per operation.
PER_LAYER = {
    "world.generate_stairs.calls": ("1/op", "lower"),
    "world.height_on_axis.calls": ("1/op", "lower"),
    "world.ground_truth_token.calls": ("1/op", "lower"),
    "sensor.scan.calls": ("1/op", "lower"),
    "sensor.scan.p50_ms": ("ms", "lower"),
    "sensor.scan.self_s": ("s/op", "lower"),
    "sensor.scan.points_mean": ("points", "higher"),
    "bev.project.calls": ("1/op", "lower"),
    "bev.project.p50_ms": ("ms", "lower"),
    "bev.project.self_s": ("s/op", "lower"),
    "estimator.estimate_token.p50_ms": ("ms", "lower"),
    "estimator.estimate_yaw.calls": ("1/op", "lower"),
    "estimator.estimate_yaw.p50_ms": ("ms", "lower"),
    "estimator.extract_profile.p50_ms": ("ms", "lower"),
    "estimator.analyze_steps.p50_ms": ("ms", "lower"),
    "estimator.riser_ahead_on_axis.p50_ms": ("ms", "lower"),
    "nn.pool_bev.calls": ("1/op", "lower"),
    "nn.pool_bev.p50_ms": ("ms", "lower"),
    "nn.mlp_forward.self_s": ("s/op", "lower"),
    "nn.mlp_backward.self_s": ("s/op", "lower"),
    "nn.adam_step.self_s": ("s/op", "lower"),
    "env.step.calls": ("1/op", "lower"),
    "env.step.p50_us": ("us", "lower"),
    "env.step.self_s": ("s/op", "lower"),
    "env.reset.calls": ("1/op", "lower"),
    "env.observe.self_s": ("s/op", "lower"),
    "env.supervision_sample.calls": ("1/op", "lower"),
    "env.scans_per_step": ("1/step", "lower"),
    "ppo.collect.self_s": ("s/op", "lower"),
    "ppo.collect.share": ("fraction", "lower"),
    "ppo.act_batch.self_s": ("s/op", "lower"),
    "ppo.gae.p50_ms": ("ms", "lower"),
    "ppo.ppo_update.p50_s": ("s", "lower"),
    "ppo.estimator_update.p50_s": ("s", "lower"),
    "ppo.episodes": ("1/op", "higher"),
    "experiments.benchmark_case.p50_ms": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def layer_metrics(tracer: Tracer, n_ops: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric; 0 for a layer that does not run on the workload."""

    def stat(span: str) -> SpanStats:
        return tracer.stats.get(span) or SpanStats()

    special = {
        "sensor.scan.points_mean": stat("sensor.scan").measure / max(1, tracer.calls("sensor.scan")),
        "env.scans_per_step": (
            tracer.calls("sensor.scan") / tracer.calls("env.step") if tracer.calls("env.step") else 0.0
        ),
        "ppo.collect.share": float(np.sum(stat("ppo.collect").durations)) / traced_s,
        "ppo.episodes": stat("ppo.collect").measure / n_ops,
        "trace.overhead": traced_s / untraced_s,
    }
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        span, kind = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif kind == "calls":
            value = tracer.calls(span) / n_ops
        elif kind == "self_s":
            value = stat(span).self_s / n_ops
        else:
            durations = stat(span).durations
            value = statistics.median(durations) * _SCALE[unit] if durations else 0.0
        out[name] = {"value": float(value), "unit": unit}
    return out
