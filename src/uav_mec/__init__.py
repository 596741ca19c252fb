"""Multi-UAV maritime surveillance edge computing: min-max latency planning.

A library and CLI that model surveillance UAVs streaming video through a
relay UAV with an edge server, and jointly plan computing offloading, relay
placement, and target association to minimize the slowest UAV's total
processing latency.
"""

from .config import ExperimentConfig, load_config, parse_config, save_config
from .orchestrator import SCHEMES, SolverReport, run_proposed
from .scenario import Scenario, generate_scenario

__all__ = [
    "ExperimentConfig",
    "SCHEMES",
    "Scenario",
    "SolverReport",
    "generate_scenario",
    "load_config",
    "parse_config",
    "run_proposed",
    "save_config",
]

__version__ = "0.1.0"
