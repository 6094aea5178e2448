"""stairlab: stair-geometry perception and geometry-conditioned stepping policies."""

from .bev import BevGrid, project, read_grid, write_grid
from .env import EnvConfig, EpisodeRecord, EvalMetrics, ObsMode, StepperEnv, TokenSource
from .errors import ConfigError, StairlabError, TrainingError
from .estimator import EstimatorConfig, TokenEstimate, estimate_token
from .nn import Mlp, TerrainLossWeights, pool_bev, terrain_loss
from .ppo import GaussianPolicy, PpoConfig, TrainConfig, gae, train_three_stage
from .sensor import PointCloud, SensorModel, dropout, scan
from .world import (
    ParameterRanges,
    StairClass,
    StairSpec,
    TerrainProfile,
    TerrainToken,
    generate_stairs,
    ground_truth_token,
    wrap_pi,
)

__version__ = "0.1.0"

__all__ = [
    "BevGrid",
    "ConfigError",
    "EnvConfig",
    "EpisodeRecord",
    "EstimatorConfig",
    "EvalMetrics",
    "GaussianPolicy",
    "Mlp",
    "ObsMode",
    "ParameterRanges",
    "PointCloud",
    "PpoConfig",
    "SensorModel",
    "StairClass",
    "StairSpec",
    "StairlabError",
    "StepperEnv",
    "TerrainLossWeights",
    "TerrainProfile",
    "TerrainToken",
    "TokenEstimate",
    "TokenSource",
    "TrainConfig",
    "TrainingError",
    "dropout",
    "estimate_token",
    "gae",
    "generate_stairs",
    "ground_truth_token",
    "pool_bev",
    "project",
    "read_grid",
    "scan",
    "terrain_loss",
    "train_three_stage",
    "wrap_pi",
    "write_grid",
]
