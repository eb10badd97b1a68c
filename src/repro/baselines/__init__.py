"""Baselines and ablation comparators.

* :class:`~repro.baselines.no_prevention.NoPrevention` — co-locate and
  never act: the paper's "without Stay-Away" curves (upper utilization
  band, violating QoS series).
* :class:`~repro.baselines.reactive.ReactiveThrottler` — throttle only
  *after* an observed violation, resume after a fixed cooldown; the
  ablation showing what prediction buys.
* :mod:`repro.baselines.static_profiling` — a Bubble-Up-style static
  admission decision from offline profiles; demonstrates the paper's
  point that static profiling cannot follow dynamic workloads (§1, §8).
* :class:`~repro.baselines.qclouds.QCloudsLike` — Q-Clouds-style weight
  boosting on a work-conserving weighted scheduler; works while
  schedulable headroom exists, fails on memory-subsystem interference
  (§8).
"""

from repro.baselines.deepdive import DeepDiveLike
from repro.baselines.no_prevention import NoPrevention
from repro.baselines.qclouds import QCloudsLike
from repro.baselines.reactive import ReactiveThrottler
from repro.baselines.static_profiling import (
    StaticColocationPolicy,
    StaticProfile,
    profile_application,
    static_admission_decision,
)

__all__ = [
    "DeepDiveLike",
    "NoPrevention",
    "QCloudsLike",
    "ReactiveThrottler",
    "StaticColocationPolicy",
    "StaticProfile",
    "profile_application",
    "static_admission_decision",
]
