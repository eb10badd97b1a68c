"""Fleet control plane: many Stay-Away hosts, one coordinator.

The paper scopes Stay-Away to a single host and explicitly defers the
cluster dimension ("complements cluster schedulers", §2.1; naive
migration dismissed as slow/costly, §8). This package supplies that
dimension as a :class:`~repro.sim.cluster.Cluster` middleware built to
stay correct under failure:

* :mod:`repro.fleet.coordinator` — :class:`FleetCoordinator` runs one
  Stay-Away controller per host behind an isolation cell
  (:class:`HostControllerCell`): an uncaught controller exception
  degrades *that host* to a reactive pause/resume policy for that tick
  instead of unwinding the coordinator.
* :mod:`repro.fleet.scoring` — :class:`InterferenceScorer` folds each
  host's predicted violation probability, observed-QoS history and CPU
  utilization into one score driving evict-from-hot / admit-on-cold
  placement with a hysteresis band.
* :mod:`repro.fleet.migration` — :class:`MigrationSupervisor` turns the
  simulator's fire-and-forget migration primitive into a supervised
  PREPARE → COPY → LAND → COMMIT state machine with per-attempt
  timeout, bounded retry with exponential backoff, and
  rollback-to-source when the destination dies mid-copy.

There is one kind of cell. It ticks whatever ``controller_factory``
returned, so a caller that wants a host's controller behind the
wire-record service seam (acknowledged actuation, decisions lagging by
the stream watermark — the stepping stone to sharding cells across
real processes) returns a stream bridge from the factory; this package
never imports the ``service`` package.

Layering: fleet may import ``core``, ``sim`` and ``monitoring``;
``service`` is an independent sibling, and nothing below fleet may
import fleet (enforced by sacheck SA103).
"""

from repro.fleet.coordinator import FleetCoordinator, HostControllerCell
from repro.fleet.migration import (
    MigrationState,
    MigrationSupervisor,
    SupervisedMigration,
)
from repro.fleet.scoring import HostScore, InterferenceScorer

__all__ = [
    "FleetCoordinator",
    "HostControllerCell",
    "HostScore",
    "InterferenceScorer",
    "MigrationState",
    "MigrationSupervisor",
    "SupervisedMigration",
]
