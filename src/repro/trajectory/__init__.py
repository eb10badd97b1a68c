"""Trajectory modelling in the mapped 2-D state space.

The paper models the temporal evolution of the mapped execution as a
movement process characterized by two parameters per step (§3.2.3,
following Marsh et al.):

* the **distance** ``d`` between successive positions, and
* the **absolute angle** ``alpha`` between the x direction and the step.

Both are learned *per execution mode* as empirical probability
densities (histograms, smoothed with KDE for visualization) and future
states are sampled with the inverse-transform method.
"""

from repro.trajectory.histograms import EmpiricalDistribution, Histogram
from repro.trajectory.kde import gaussian_kde, silverman_bandwidth
from repro.trajectory.modes import ExecutionMode, ModeModelBank, classify_mode
from repro.trajectory.sampling import TrajectoryModel
from repro.trajectory.var import VectorAutoregression, rolling_var_forecast_error

__all__ = [
    "EmpiricalDistribution",
    "ExecutionMode",
    "Histogram",
    "ModeModelBank",
    "TrajectoryModel",
    "VectorAutoregression",
    "classify_mode",
    "gaussian_kde",
    "silverman_bandwidth",
    "rolling_var_forecast_error",
]
