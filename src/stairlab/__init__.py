"""stairlab: stair-geometry perception and geometry-conditioned stepping policies."""

import os

# Outputs are bit for bit a function of (config, seeds) only with BLAS on
# one thread: the estimator net's products round differently when BLAS
# splits them across threads. BLAS reads these when numpy is first
# imported, so a program that imports numpy before stairlab must set them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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
