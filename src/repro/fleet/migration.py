"""Supervised, fault-tolerant migrations.

The simulator's :meth:`~repro.sim.cluster.Cluster.migrate` is
fire-and-forget: it either starts a copy or raises, and once started
the cluster lands/bounces/loses the container on its own at landing
time. This module wraps it in the state machine a real control plane
needs — the §8 objection that "VM migration is slow and involves a
high cost" is precisely why migrations must be supervised rather than
assumed to succeed:

``PREPARE`` — waiting to start (initial attempt, or backing off after
a failure). ``COPY`` — the cluster is copying the memory image; the
supervisor watches for landing, destination death and timeout.
``LAND`` → ``COMMIT`` — the container resumed on the destination; the
migration is done. ``ROLLBACK`` — attempts exhausted; the container
stays on (or was bounced back to) its source. ``LOST`` — both ends
died mid-copy; the container is gone, and the supervisor records it
rather than pretending otherwise.

Every attempt's :class:`~repro.sim.cluster.MigrationRecord` is kept on
the :class:`SupervisedMigration`, so a chaos drill can assert the
no-orphan invariant: after the run, every record reached a terminal
``landed`` / ``bounced`` / ``lost`` outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.cluster import (
    MIGRATION_BOUNCED,
    MIGRATION_LANDED,
    MIGRATION_LOST,
    MigrationRecord,
)

if TYPE_CHECKING:
    from repro.sim.cluster import Cluster

#: Ticks a single attempt may stay in COPY before it is cancelled.
ATTEMPT_TIMEOUT = 40
#: Re-attempts after a failed attempt before rolling back.
RETRIES = 2
#: Base ticks between attempts; doubles per attempt already made.
RETRY_BACKOFF = 5
#: Cap on simultaneously live (non-terminal) migrations.
MAX_CONCURRENT = 4


class MigrationState:
    """States of one supervised migration (str constants)."""

    PREPARE = "prepare"
    COPY = "copy"
    LAND = "land"
    COMMIT = "commit"
    ROLLBACK = "rollback"
    LOST = "lost"

    #: states in which the supervisor is done with the migration
    TERMINAL = (COMMIT, ROLLBACK, LOST)


@dataclass
class SupervisedMigration:
    """One migration intent, across all its attempts.

    Attributes
    ----------
    container / source / destination:
        What should move where. ``source`` is where the container was
        when the intent was requested.
    state:
        Current :class:`MigrationState` constant.
    attempts:
        Copy attempts started (or refused by the cluster) so far.
    records:
        The cluster-level :class:`~repro.sim.cluster.MigrationRecord`
        of every attempt that actually started, in order.
    requested_tick / completed_tick:
        When the intent was created and when it reached a terminal
        state (None while live).
    next_attempt_tick:
        Earliest tick the next attempt may start (backoff).
    attempt_started_tick:
        Tick the current copy attempt started; the attempt's timeout is
        counted from here, so a retry gets a fresh time budget.
    reason:
        Why the migration ended where it did (terminal states only).
    transitions:
        ``(tick, state)`` history, for tests and post-mortems.
    """

    container: str
    source: str
    destination: str
    state: str = MigrationState.PREPARE
    attempts: int = 0
    records: List[MigrationRecord] = field(default_factory=list)
    requested_tick: int = 0
    completed_tick: Optional[int] = None
    next_attempt_tick: int = 0
    attempt_started_tick: int = 0
    reason: str = ""
    transitions: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        """Whether the supervisor is done with this migration."""
        return self.state in MigrationState.TERMINAL

    def _move(self, tick: int, state: str, reason: str = "") -> None:
        self.state = state
        self.transitions.append((tick, state))
        if state in MigrationState.TERMINAL:
            self.completed_tick = tick
            self.reason = reason


class MigrationSupervisor:
    """Drive supervised migrations against a cluster.

    Parameters
    ----------
    cluster:
        The cluster to migrate on.

    Call :meth:`request` to register an intent and :meth:`poll` once
    per cluster tick to advance every live state machine.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.migrations: List[SupervisedMigration] = []
        self.retry_count = 0
        self.timeout_count = 0

    # -- intake ------------------------------------------------------------
    @property
    def active(self) -> List[SupervisedMigration]:
        """Live (non-terminal) migrations."""
        return [m for m in self.migrations if not m.terminal]

    def supervising(self, container: str) -> bool:
        """Whether a live migration already covers this container."""
        return any(m.container == container for m in self.active)

    def request(
        self, tick: int, container: str, destination: str
    ) -> Optional[SupervisedMigration]:
        """Register a migration intent; None if refused.

        Refused when the concurrency cap is reached, the container is
        already supervised, or it cannot be located on an up host.
        """
        if len(self.active) >= MAX_CONCURRENT:
            return None
        if self.supervising(container):
            return None
        location = self.cluster.locate(container)
        if location.status != "on-host" or location.host == destination:
            return None
        migration = SupervisedMigration(
            container=container,
            source=location.host,
            destination=destination,
            requested_tick=tick,
            next_attempt_tick=tick,
        )
        migration.transitions.append((tick, MigrationState.PREPARE))
        self.migrations.append(migration)
        return migration

    # -- state machine -----------------------------------------------------
    def poll(self, tick: int) -> None:
        """Advance every live migration by one supervision round."""
        for migration in self.active:
            if migration.state == MigrationState.PREPARE:
                self._poll_prepare(tick, migration)
            elif migration.state == MigrationState.COPY:
                self._poll_copy(tick, migration)

    def _poll_prepare(self, tick: int, migration: SupervisedMigration) -> None:
        if tick < migration.next_attempt_tick:
            return
        location = self.cluster.locate(migration.container)
        if location.status == "absent":
            migration._move(tick, MigrationState.LOST, "container vanished")
            return
        if location.status == "migrating":
            # An unsupervised migration of the same container raced us;
            # give up cleanly rather than fight over it.
            migration._move(tick, MigrationState.ROLLBACK, "externally migrated")
            return
        migration.attempts += 1
        try:
            record = self.cluster.migrate(migration.container, migration.destination)
        except ValueError as exc:
            self._attempt_failed(tick, migration, f"start refused: {exc}")
            return
        migration.records.append(record)
        migration.attempt_started_tick = tick
        migration._move(tick, MigrationState.COPY)

    def _poll_copy(self, tick: int, migration: SupervisedMigration) -> None:
        record = migration.records[-1]
        if record.outcome == MIGRATION_LANDED:
            # Landing preserves container state; a container the source
            # throttle had paused must come back to life on its new
            # host, where it no longer threatens the sensitive app.
            landed_host = self.cluster.hosts.get(record.destination)
            if landed_host is not None:
                landed_host.resume(record.container)
            migration._move(tick, MigrationState.LAND)
            migration._move(tick, MigrationState.COMMIT, "landed")
            return
        if record.outcome == MIGRATION_BOUNCED:
            self._attempt_failed(tick, migration, "bounced at landing")
            return
        if record.outcome == MIGRATION_LOST:
            migration._move(tick, MigrationState.LOST, "lost at landing")
            return
        # Still copying: cut the attempt short if the destination died
        # or the attempt exceeded its time budget.
        destination_dead = not self.cluster.host_is_up(migration.destination)
        timed_out = tick - migration.attempt_started_tick >= ATTEMPT_TIMEOUT
        if not destination_dead and not timed_out:
            return
        if timed_out and not destination_dead:
            self.timeout_count += 1
        outcome = self.cluster.cancel_migration(record)
        if outcome == MIGRATION_LOST:
            migration._move(tick, MigrationState.LOST, "source died mid-copy")
            return
        why = "destination died mid-copy" if destination_dead else "attempt timed out"
        self._attempt_failed(tick, migration, why)

    def _attempt_failed(
        self, tick: int, migration: SupervisedMigration, why: str
    ) -> None:
        if migration.attempts <= RETRIES:
            self.retry_count += 1
            migration.next_attempt_tick = tick + RETRY_BACKOFF * (
                2 ** max(0, migration.attempts - 1)
            )
            migration._move(tick, MigrationState.PREPARE)
        else:
            migration._move(tick, MigrationState.ROLLBACK, why)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Counts by terminal state plus retry/timeout tallies."""
        by_state: Dict[str, int] = {}
        for migration in self.migrations:
            by_state[migration.state] = by_state.get(migration.state, 0) + 1
        return {
            "requested": len(self.migrations),
            "committed": by_state.get(MigrationState.COMMIT, 0),
            "rolled_back": by_state.get(MigrationState.ROLLBACK, 0),
            "lost": by_state.get(MigrationState.LOST, 0),
            "active": len(self.active),
            "retries": self.retry_count,
            "timeouts": self.timeout_count,
        }
