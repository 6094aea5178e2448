"""Kinematic planar stepper: a desk-scale stair-traversal MDP.

The stepper walks along a staircase's ascent axis choosing stride, swing
clearance, and a heading correction each decision. The swing foot follows
a parabolic arc; scraping the terrain (scuff) or landing within the edge
margin of a riser ends the episode as a failure, crossing the final riser
(or the flat-terrain goal line) ends it as a success.

Observation modes expose increasing amounts of terrain information:
proprioception only (blind), a forward height scan, or the explicit
terrain token and the along-axis distance to the next riser ahead. The
env does the dynamics only; tokens and supervision samples come from its
``tokens.TokenFeed`` (teacher, estimators, sensing) on the env's RNG, and
learned tokens need the ``estimator_net`` (an ``nn.Mlp``) the env is built with.

A step makes no numpy call on scalar data. Heights, the edge test and
the next-riser distance use ``math.floor``/``ceil`` and ``min``/``max`` on
the same IEEE operations as ``TerrainProfile.height_on_axis`` and
``riser_positions``, so every observation, reward and event is bit for
bit what the array queries give. The swing arc's samples are the one
array: a cached ``linspace`` per sample count, with the terrain under it
computed in place.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bev import EXTENT
from .errors import ConfigError, check_counts
from .estimator import EstimatorConfig
from .sensor import SensorModel
from .tokens import TokenFeed, TokenSource
from .world import StairClass, StairSpec, TerrainProfile, wrap_pi

STRIDE_BOUNDS = (0.10, 0.50)
CLEARANCE_BOUNDS = (0.0, 0.30)
DHEADING_BOUNDS = (-math.radians(5.0), math.radians(5.0))

ACTION_LOW = np.array([STRIDE_BOUNDS[0], CLEARANCE_BOUNDS[0], DHEADING_BOUNDS[0]])
ACTION_HIGH = np.array([STRIDE_BOUNDS[1], CLEARANCE_BOUNDS[1], DHEADING_BOUNDS[1]])

ARC_SAMPLE_PITCH = 0.01
_SCUFF_EPS = 1e-9


class ObsMode(str, Enum):
    BLIND = "blind"
    HEIGHTSCAN = "heightscan"
    TOKEN = "token"


OBS_DIM = {ObsMode.BLIND: 6, ObsMode.HEIGHTSCAN: 23, ObsMode.TOKEN: 13}

HEIGHTSCAN_SAMPLES = 17
HEIGHTSCAN_SPACING = 0.10


@dataclass(frozen=True)
class RewardWeights:
    velocity: float = 1.0
    forward: float = 2.0
    clearance: float = 0.5
    heading: float = 0.5
    tracking_scale: float = 0.3
    terminal_bonus: float = 10.0


@dataclass(frozen=True)
class EnvConfig:
    obs_mode: ObsMode = ObsMode.TOKEN
    token_source: TokenSource = TokenSource.GROUND_TRUTH
    horizon: int = 200
    reward: RewardWeights = RewardWeights()
    edge_margin: float = 0.02
    v_cmd_range: tuple[float, float] = (0.2, 0.4)
    command_schedule: tuple[tuple[int, float], ...] | None = None
    token_noise_h: float = 0.0
    token_noise_d: float = 0.0
    token_flip_p: float = 0.0
    heightscan_noise: float = 0.0
    flat_goal: float = 3.0
    v_avg_alpha: float = 0.3
    step_dt: float = 1.0
    token_refresh: int = 5
    sensor: SensorModel = SensorModel()
    estimator: EstimatorConfig = EstimatorConfig()

    def __post_init__(self) -> None:
        check_counts(self, "[env] ", horizon=1, token_refresh=1)
        if not 0.0 <= self.token_flip_p <= 1.0:
            raise ConfigError("token_flip_p must lie in [0, 1]")
        if self.sensor.window > EXTENT:
            raise ConfigError(
                f"sensor window {self.sensor.window} exceeds the {EXTENT} m BEV grid"
            )


@dataclass
class EpisodeRecord:
    length: int
    return_: float
    success: bool
    event: str
    stair_class: StairClass
    h_step: float
    d_step: float
    mean_abs_verr: float
    mean_abs_heading: float


@dataclass(frozen=True)
class EvalMetrics:
    e_vel: float
    e_ang: float
    m_reward: float
    success_rate: float


def arc_heights(z0: float, z1: float, clearance: float, u: np.ndarray) -> np.ndarray:
    """Swing-foot height along the arc, parametrized by u in [0, 1].

    The arc is the parabola through (0, z0) and (1, z1) whose maximum is
    max(z0, z1) + clearance. With zero clearance the vertex sits at the
    higher endpoint (a flat segment degenerates to a straight line).
    """
    apex = max(z0, z1) + clearance
    a0 = math.sqrt(max(apex - z0, 0.0))
    a1 = math.sqrt(max(apex - z1, 0.0))
    if a0 + a1 == 0.0:
        return np.full_like(np.asarray(u, dtype=float), apex)
    u_star = a0 / (a0 + a1)
    if u_star > 0.0:
        coeff = (apex - z0) / (u_star * u_star)
    else:
        coeff = apex - z1
    du = np.asarray(u, dtype=float) - u_star
    return apex - coeff * du * du


_HEIGHTSCAN_OFFSETS = HEIGHTSCAN_SPACING * np.arange(1, HEIGHTSCAN_SAMPLES + 1)

# TerrainToken.as_vector's class one-hot, indexed by class.
_ONE_HOT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@functools.lru_cache(maxsize=64)
def _arc_samples(n: int) -> np.ndarray:
    """``np.linspace(0, 1, n + 1)``, read-only; strides within bounds need n <= 50."""
    u = np.linspace(0.0, 1.0, n + 1)
    u.flags.writeable = False
    return u


class StepperEnv:
    """Single stepper instance; owns its RNG, deterministic per seed."""

    def __init__(self, cfg: EnvConfig, seed, estimator_net=None):
        self.cfg = cfg
        self._rng = np.random.default_rng(seed)
        self._tokens = TokenFeed(cfg, self._rng, estimator_net)
        self.spec: StairSpec | None = None
        self.done = True

    # -- lifecycle ---------------------------------------------------------

    def reset(self, spec: StairSpec) -> np.ndarray:
        if spec.lead_flat < 0.3:
            raise ConfigError("lead_flat must be >= 0.3 m to place the stepper")
        self.spec = spec
        self.profile = TerrainProfile(spec)
        flat = spec.stair_class == StairClass.FLAT
        self._flat = flat
        self._up = spec.stair_class == StairClass.STAIRS_UP
        self._h = float(spec.h_step)
        self._d = float(spec.d_step)
        self._n_risers = 0 if flat else spec.n_steps
        self._axis_yaw = 0.0 if flat else spec.stair_yaw
        self._axis_cos = math.cos(self._axis_yaw)
        self._axis_sin = math.sin(self._axis_yaw)

        self.s = -spec.lead_flat / 2.0
        self.lat = 0.0
        self.support_height = self._height(self.s)
        self.heading_err = 0.0 if flat else wrap_pi(0.0 - spec.stair_yaw)
        self.v_avg = 0.0
        self.last_dh = 0.0
        self.prev_action = (0.0, 0.0, 0.0)
        self.t = 0
        self.done = False
        self._goal_s = self.s + self.cfg.flat_goal if flat else self._d * (self._n_risers - 1)
        if self.cfg.command_schedule is None:
            lo, hi = self.cfg.v_cmd_range
            self._episode_cmd = float(self._rng.uniform(lo, hi))
        self.v_cmd = self._command_at(0)
        self._sum_abs_verr = 0.0
        self._sum_abs_heading = 0.0
        self._return = 0.0
        self._last_event = "none"
        self._tokens.reset()
        self.last_obs = self.observe()
        return self.last_obs

    def _command_at(self, t: int) -> float:
        sched = self.cfg.command_schedule
        if sched is None:
            return self._episode_cmd
        v = sched[0][1]
        for t_start, value in sched:
            if t >= t_start:
                v = value
        return float(v)

    # -- terrain queries on one along-axis position ------------------------

    def _height(self, s: float) -> float:
        """``profile.height_on_axis(s)`` on a float."""
        if self._flat:
            return 0.0
        q = s / self._d
        if self._up:
            return self._h * min(max(math.floor(q) + 1.0, 0.0), self._n_risers)
        # np.ceil keeps the sign of a zero result (ceil(-0.5) is -0.0), and
        # np.clip, like max(), keeps a -0.0 at the lower bound 0.
        return -self._h * min(max(math.copysign(math.ceil(q), q), 0.0), self._n_risers)

    def _riser_ahead(self, s: float) -> int:
        """Index k of the first riser strictly ahead of ``s``; the riser count past the last.

        Riser k lies at ``d * k``, the product ``riser_positions`` forms, so
        the strict test agrees with ``riser_positions() > s`` at every
        boundary. Call only on stairs.
        """
        d, n = self._d, self._n_risers
        k = min(max(math.floor(s / d) + 1, 0), n)
        while k > 0 and d * (k - 1) > s:
            k -= 1
        while k < n and d * k <= s:
            k += 1
        return k

    def _next_riser(self, s: float) -> float:
        """``profile.next_riser_distance(s)`` on a float."""
        n = self._n_risers
        k = self._riser_ahead(s) if n else 0
        return self._d * k - s if k < n else 0.0

    def _arc_terrain(self, s: float, ds: float, u: np.ndarray) -> np.ndarray:
        """``height_on_axis(s + u * ds) - _SCUFF_EPS``, in place on one array.

        The clip bounds may give a zero the other sign than np.clip does;
        the scuff check only compares these heights. Call only on stairs.
        """
        x = u * ds
        x += s
        x /= self._d
        if self._up:
            np.floor(x, out=x)
            x += 1.0
        else:
            np.ceil(x, out=x)
        np.maximum(x, 0.0, out=x)
        np.minimum(x, self._n_risers, out=x)
        x *= self._h if self._up else -self._h
        x -= _SCUFF_EPS
        return x

    # -- pose helpers ------------------------------------------------------

    @property
    def world_pose(self) -> tuple[float, float, float]:
        spec = self.spec
        ca, sa = self._axis_cos, self._axis_sin
        px = spec.origin_x + self.s * ca - self.lat * sa
        py = spec.origin_y + self.s * sa + self.lat * ca
        return px, py, wrap_pi(self._axis_yaw + self.heading_err)

    # -- dynamics ----------------------------------------------------------

    def step(self, action) -> tuple[np.ndarray, float, bool, str]:
        """Advance one decision; returns (obs, reward, done, event).

        ``action`` is any three numbers (stride, clearance, dheading), as an
        array, list, tuple or (1, 3) array; each is clamped to its bounds.
        ``event`` is "none" or what ended the episode: "scuff" (the swing arc
        sampling below terrain) or "edge" (landing within the edge margin of
        a riser line), both with the terminal penalty, "success" (crossing
        the goal line) with the terminal bonus, or "timeout" at the horizon.
        The env keeps no per-step history: a caller that wants a trace
        reads the env's state around each step, as ``cmd_track`` does.
        """
        if self.done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        stride, clearance, dheading = np.asarray(action, dtype=float).reshape(3).tolist()
        stride = min(max(stride, STRIDE_BOUNDS[0]), STRIDE_BOUNDS[1])
        clearance = min(max(clearance, CLEARANCE_BOUNDS[0]), CLEARANCE_BOUNDS[1])
        dheading = min(max(dheading, DHEADING_BOUNDS[0]), DHEADING_BOUNDS[1])
        cfg = self.cfg

        he_new = wrap_pi(self.heading_err - dheading)
        ds = stride * math.cos(he_new)
        s = self.s
        s_new = s + ds
        z0 = self.support_height
        z1 = self._height(s_new)

        u = _arc_samples(max(2, int(math.ceil(abs(ds) / ARC_SAMPLE_PITCH))))
        foot = arc_heights(z0, z1, clearance, u)
        if z0 == z1:
            # The terrain is monotone along the arc, so it is z1 under all of it.
            scuffed = bool(foot.min() < z1 - _SCUFF_EPS)
        else:
            scuffed = bool((foot < self._arc_terrain(s, ds, u)).any())

        on_edge = False
        n = self._n_risers
        if not scuffed and n:
            # The nearest riser is the last one behind s_new or the first ahead.
            d = self._d
            k = self._riser_ahead(s_new)
            gap = abs(s_new - d * (k - 1)) if k > 0 else math.inf
            if k < n:
                gap = min(gap, abs(s_new - d * k))
            on_edge = gap < cfg.edge_margin

        # State advances even on a terminal step, so it shows where the episode ended.
        self.s = s_new
        self.lat += stride * math.sin(he_new)
        self.heading_err = he_new
        self.last_dh = z1 - z0
        self.support_height = z1
        v_inst = ds / cfg.step_dt
        alpha = cfg.v_avg_alpha
        self.v_avg = (1.0 - alpha) * self.v_avg + alpha * v_inst
        self.prev_action = (stride, clearance, dheading)

        w = cfg.reward
        verr = (self.v_avg - self.v_cmd) / w.tracking_scale
        reward = (
            w.velocity * math.exp(-verr * verr)
            + w.forward * ds
            - w.clearance * clearance
            - w.heading * abs(he_new)
        )

        event = "none"
        if scuffed:
            event = "scuff"
            reward -= w.terminal_bonus
            self.done = True
        elif on_edge:
            event = "edge"
            reward -= w.terminal_bonus
            self.done = True
        elif s_new > self._goal_s:
            event = "success"
            reward += w.terminal_bonus
            self.done = True

        self._sum_abs_verr += abs(self.v_avg - self.v_cmd)
        self._sum_abs_heading += abs(self.heading_err)
        self._return += reward

        self.t += 1
        if not self.done and self.t >= cfg.horizon:
            event = "timeout"
            self.done = True
        self.v_cmd = self._command_at(self.t)
        self._last_event = event

        obs = self.observe() if not self.done else np.zeros(OBS_DIM[cfg.obs_mode])
        self.last_obs = obs
        return obs, reward, self.done, event

    def episode_record(self) -> EpisodeRecord:
        n = max(1, self.t)
        return EpisodeRecord(
            length=self.t,
            return_=self._return,
            success=self._last_event == "success",
            event=self._last_event,
            stair_class=self.spec.stair_class,
            h_step=self.spec.h_step,
            d_step=self.spec.d_step,
            mean_abs_verr=self._sum_abs_verr / n,
            mean_abs_heading=self._sum_abs_heading / n,
        )

    # -- observations ------------------------------------------------------

    def observe(self) -> np.ndarray:
        row = [self.last_dh, self.v_avg, self.v_cmd, *self.prev_action]
        mode = self.cfg.obs_mode
        if mode == ObsMode.BLIND:
            return np.array(row)
        if mode == ObsMode.HEIGHTSCAN:
            ahead = self.s + _HEIGHTSCAN_OFFSETS * math.cos(self.heading_err)
            heights = self.profile.height_on_axis(ahead) - self.support_height
            if self.cfg.heightscan_noise > 0.0:
                heights = heights + self._rng.normal(0.0, self.cfg.heightscan_noise, heights.shape)
            return np.array(row + heights.tolist())
        token, next_riser = self._tokens.token(self)
        cls = _ONE_HOT[token.stair_class]
        return np.array(row + [*cls, token.h_step, token.d_step, token.theta, next_riser])

    def supervision_sample(self) -> tuple[np.ndarray, int, float, float]:
        """Pooled BEV features of the current pose plus teacher labels."""
        return self._tokens.supervision_sample(self)


def max_passable_height(rates: Iterable[tuple[float, float]]) -> float:
    """M_terrain: the highest step height whose success rate is at least 0.5, else 0.

    ``rates`` holds (step height, success rate) pairs.
    """
    return max([0.0] + [h for h, rate in rates if rate >= 0.5])


def metrics(records: list[EpisodeRecord], horizon: int) -> EvalMetrics:
    """Aggregate evaluation metrics over a set of episodes."""
    if not records:
        raise ValueError("metrics over an empty episode set are undefined")
    e_vel = float(np.mean([r.mean_abs_verr for r in records]))
    e_ang = float(np.mean([r.mean_abs_heading for r in records]))
    m_reward = float(np.mean([r.return_ / horizon for r in records]))
    rate = float(np.mean([r.success for r in records]))
    return EvalMetrics(e_vel, e_ang, m_reward, rate)

