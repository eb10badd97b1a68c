"""Stay-Away: the paper's mechanism (Mapping -> Prediction -> Action).

:class:`~repro.core.controller.StayAway` is the middleware that runs on
the host each period:

1. **Mapping** (:mod:`repro.core.mapping`) — normalize the measurement
   vector, deduplicate against known representatives and place it on
   the 2-D MDS map; label it a violation-state when the sensitive
   application reported a QoS violation this period.
2. **Prediction** (:mod:`repro.core.prediction`) — learn per-execution-
   mode step distributions, sample candidate next states, and vote them
   against the violation-ranges kept by
   :class:`~repro.core.state_space.StateSpace`.
3. **Action** (:mod:`repro.core.action`) — pause the batch containers
   (SIGSTOP) when a transition toward violation is predicted or
   observed; resume (SIGCONT) on a learned phase-change threshold beta,
   with a random probe against starvation.

Templates (:mod:`repro.core.template`) let a map captured for a
repeatable sensitive application seed future runs with different batch
co-locations (§6); they are also the restart path: a controller
started from one adopts the batch containers it finds paused.
"""

from repro.core.action import ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import Event, EventKind, EventLog
from repro.core.mapping import MappedSample, MappingPipeline
from repro.core.prediction import Prediction, Predictor
from repro.core.priorities import PrioritizedApp, PrioritizedStayAway
from repro.core.resilience import ControllerHealth, DegradedModeMachine
from repro.core.state_space import StateLabel, StateSpace, violation_range_radius
from repro.core.template import MapTemplate

__all__ = [
    "ControllerHealth",
    "DegradedModeMachine",
    "Event",
    "EventKind",
    "EventLog",
    "MapTemplate",
    "MappedSample",
    "MappingPipeline",
    "Prediction",
    "Predictor",
    "PrioritizedApp",
    "PrioritizedStayAway",
    "StateLabel",
    "StateSpace",
    "StayAway",
    "StayAwayConfig",
    "ThrottleManager",
    "violation_range_radius",
]
