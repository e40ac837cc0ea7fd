"""Ordinal change classification toolkit.

Losses with analytic gradients (cross-entropy, focal, a cumulative
earth-mover distance and their combination), a small siamese MLP trained by
hand-written backpropagation, ensembling and volume-level postprocessing
rules, a multiclass metric suite, a seeded synthetic data generator, and a
command line front end; numpy is the only runtime dependency.
"""

__version__ = "0.1.0"

from .core import ClassLabel, Task
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DataError,
    InvalidInputError,
    NumericError,
    OrdchangeError,
    UndefinedMetricError,
)

__all__ = [
    "__version__",
    "ClassLabel",
    "Task",
    "OrdchangeError",
    "InvalidInputError",
    "ConfigError",
    "DataError",
    "NumericError",
    "CheckpointError",
    "AlignmentError",
    "UndefinedMetricError",
]
