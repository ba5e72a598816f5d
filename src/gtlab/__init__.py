"""Adaptive group testing: pooling strategies, bounds, and verification."""

from gtlab.core import (
    Instance,
    PoolOracle,
    RunResult,
    Session,
    Transcript,
    finalize,
    instance_from_mask,
)
from gtlab.competitive import ZcPlan, run_individual, run_zc
from gtlab.splitting import pool_size
from gtlab.zigzag import initial_rank, run_zd, run_zu

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "PoolOracle",
    "RunResult",
    "Session",
    "Transcript",
    "ZcPlan",
    "finalize",
    "initial_rank",
    "instance_from_mask",
    "pool_size",
    "run_individual",
    "run_zc",
    "run_zd",
    "run_zu",
    "__version__",
]
