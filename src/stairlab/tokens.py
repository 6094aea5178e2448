"""Terrain tokens for the stepper's observation: one ``TokenFeed`` per env.

Sources: the privileged teacher (``ground_truth``) reads the token from
the spec at every step, with optional noise on h and d and class flips;
``analytic`` runs the geometric estimator on the sensed BEV grid;
``learned`` runs the estimator net on the grid's pooled features, with
yaw and the next riser from the grid's geometry. The estimators refresh
at every env step ``t`` with ``t % token_refresh == 0`` (``observe`` runs
at every step, from reset on) and carry the next-riser distance forward
between refreshes by the along-axis advance, wrapped by the step depth.
A step senses and estimates at most once: the token and a supervision
sample at the same step share one grid, one pooling and one seed drawn
from the env's generator, which every draw comes from, in the order the
env asks. The features are kept once pooled, the grid is not.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .bev import BevGrid, project
from .errors import ConfigError
from .estimator import estimate_token, estimate_yaw, riser_ahead_on_axis, wrap_ahead
from .nn import Mlp, estimator_heads, pool_bev
from .sensor import scan
from .world import StairClass, TerrainToken, ground_truth_token, wrap_pi

if TYPE_CHECKING:
    from .env import EnvConfig, StepperEnv


class TokenSource(str, Enum):
    GROUND_TRUTH = "ground_truth"
    ANALYTIC = "analytic"
    LEARNED = "learned"


class TokenFeed:
    """Tokens and supervision samples for one env, drawn from the env's generator."""

    def __init__(self, cfg: EnvConfig, rng: np.random.Generator, estimator_net: Mlp | None):
        if cfg.token_source == TokenSource.LEARNED and estimator_net is None:
            raise ConfigError("learned token source requires an estimator net")
        self.cfg = cfg
        self._rng = rng
        self._net = estimator_net
        # (t, grid until pooled, features once pooled) of the last sense.
        self._sense: tuple[int, BevGrid | None, np.ndarray | None] | None = None
        self._held: tuple[TerrainToken, float, float, int] | None = None  # (token, riser, s, t)

    def reset(self) -> None:
        self._sense = self._held = None

    def token(self, env: StepperEnv) -> tuple[TerrainToken, float]:
        """The token at the env's pose and the distance to the next riser (0 on a flat token)."""
        if self.cfg.token_source == TokenSource.GROUND_TRUTH:
            token = self._perturb(self._teacher(env))
            next_riser = env.profile.next_riser(env.s)
        else:
            if self.refresh_due(env) and (self._held is None or self._held[3] != env.t):
                self._held = (*self._estimate(env), env.s, env.t)
            token, next_riser, s_sensed, _ = self._held
            if next_riser > 0.0:
                next_riser = wrap_ahead(next_riser - (env.s - s_sensed), token.d_step)
        return token, 0.0 if token.stair_class == StairClass.FLAT else next_riser

    def refresh_due(self, env: StepperEnv) -> bool:
        """Whether the estimators refresh the token at the env's step."""
        return env.t % self.cfg.token_refresh == 0

    def supervision_sample(self, env: StepperEnv) -> tuple[np.ndarray, int, float, float]:
        """Pooled BEV features of the env's pose plus teacher labels."""
        gt = self._teacher(env)
        return self._features(env), int(gt.stair_class), gt.h_step, gt.d_step

    def _teacher(self, env: StepperEnv) -> TerrainToken:
        pose = env.world_pose
        return ground_truth_token(env.spec, pose[2], pose[:2], self.cfg.sensor.window)

    def _grid(self, env: StepperEnv) -> BevGrid:
        """The grid sensed at the env's step; sensed anew if the step has none, or only pooled."""
        t, grid, _ = self._sense or (None, None, None)
        if t != env.t or grid is None:
            seed = int(self._rng.integers(0, 2**63 - 1))
            grid = project(scan(env.profile, env.world_pose, self.cfg.sensor, seed))
            self._sense = (env.t, grid, None)
        return grid

    def _features(self, env: StepperEnv) -> np.ndarray:
        """The pooled features of the step's grid, made once; the grid is dropped."""
        t, _, features = self._sense or (None, None, None)
        if t != env.t or features is None:
            features = pool_bev(self._grid(env))
        self._sense = (env.t, None, features)
        return features

    def _estimate(self, env: StepperEnv) -> tuple[TerrainToken, float]:
        cfg = self.cfg
        if cfg.token_source == TokenSource.ANALYTIC:
            est = estimate_token(self._grid(env), cfg.estimator)
            return est.token, est.next_riser
        grid, features = self._grid(env), self._features(env)
        logits, h, d = estimator_heads(self._net(features[None, :]))
        cls = StairClass(int(np.argmax(logits[0])))
        h, d = (0.0, 0.0) if cls == StairClass.FLAT else (float(h[0]), float(d[0]))
        yaw = estimate_yaw(grid, cfg.estimator)
        next_riser = riser_ahead_on_axis(grid, yaw, cfg.estimator)
        return TerrainToken(cls, max(h, 0.0), max(d, 0.0), wrap_pi(-yaw)), next_riser

    def _perturb(self, token: TerrainToken) -> TerrainToken:
        cfg = self.cfg
        if cfg.token_noise_h == 0.0 and cfg.token_noise_d == 0.0 and cfg.token_flip_p == 0.0:
            return token
        h, d, cls = token.h_step, token.d_step, token.stair_class
        if token.stair_class != StairClass.FLAT:
            if cfg.token_noise_h > 0.0:
                h = max(0.0, h + float(self._rng.normal(0.0, cfg.token_noise_h)))
            if cfg.token_noise_d > 0.0:
                d = max(0.0, d + float(self._rng.normal(0.0, cfg.token_noise_d)))
        if cfg.token_flip_p > 0.0 and self._rng.random() < cfg.token_flip_p:
            others = [c for c in StairClass if c != cls]
            cls = others[int(self._rng.integers(len(others)))]
            if cls == StairClass.FLAT:
                h = d = 0.0
        return TerrainToken(cls, h, d, token.theta)
