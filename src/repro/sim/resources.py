"""Resource kinds and resource vectors.

A :class:`ResourceVector` describes either a demand, an allocation or a
capacity over the five resource dimensions the simulated host exposes:

* ``CPU`` — cores of compute (a *rate* resource; 4.0 = four cores).
* ``MEMORY`` — resident memory in MB (a *space* resource).
* ``MEMORY_BW`` — memory-bus bandwidth in MB/s (rate).
* ``DISK_IO`` — disk throughput in MB/s (rate).
* ``NETWORK`` — network throughput in Mbit/s (rate).

The paper monitors "CPU, memory, I/O, network traffic" per VM and notes
that the metric set is open-ended ("performance counters for each VM
can be used to characterize the load on the memory bus", §3.1); we
therefore include memory bandwidth explicitly so that memory-subsystem
contention (MemoryBomb, Twitter-Analysis memory phases) is observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Resource(Enum):
    """The resource dimensions tracked by the simulated host."""

    CPU = "cpu"
    MEMORY = "memory"
    MEMORY_BW = "memory_bw"
    DISK_IO = "disk_io"
    NETWORK = "network"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Resource.{self.name}"


#: Resources that are consumed per unit time and shared proportionally
#: under contention. MEMORY is the only space resource: overcommitting
#: it triggers swapping, which penalizes every memory-resident tenant.
RATE_RESOURCES: Tuple[Resource, ...] = (
    Resource.CPU,
    Resource.MEMORY_BW,
    Resource.DISK_IO,
    Resource.NETWORK,
)

_FIELDS: Tuple[Resource, ...] = tuple(Resource)


@dataclass(frozen=True)
class ResourceVector:
    """An immutable value over all five resource dimensions.

    Supports elementwise arithmetic so contention models and workloads
    can combine demands without manual bookkeeping.
    """

    cpu: float = 0.0
    memory: float = 0.0
    memory_bw: float = 0.0
    disk_io: float = 0.0
    network: float = 0.0

    # -- construction -------------------------------------------------
    @classmethod
    def zero(cls) -> "ResourceVector":
        """The all-zero vector (one shared instance: vectors are immutable)."""
        return _ZERO

    @classmethod
    def from_mapping(cls, values: Mapping[Resource, float]) -> "ResourceVector":
        """Build a vector from a ``{Resource: value}`` mapping."""
        return cls(**{res.value: float(values.get(res, 0.0)) for res in _FIELDS})

    # -- access -------------------------------------------------------
    def values(self) -> Tuple[float, ...]:
        """The five fields in canonical (``Resource`` and wire-metric) order."""
        return (self.cpu, self.memory, self.memory_bw, self.disk_io, self.network)

    def get(self, resource: Resource) -> float:
        """Value for one resource dimension."""
        return float(self.values()[_FIELDS.index(resource)])

    def as_dict(self) -> Dict[Resource, float]:
        """A ``{Resource: value}`` snapshot of this vector."""
        return dict(self.items())

    def items(self) -> Iterator[Tuple[Resource, float]]:
        """Iterate ``(resource, value)`` pairs in canonical order."""
        return zip(_FIELDS, map(float, self.values()))

    def replace(self, resource: Resource, value: float) -> "ResourceVector":
        """A copy of this vector with one dimension replaced."""
        values = self.as_dict()
        values[resource] = float(value)
        return ResourceVector.from_mapping(values)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu + other.cpu,
            memory=self.memory + other.memory,
            memory_bw=self.memory_bw + other.memory_bw,
            disk_io=self.disk_io + other.disk_io,
            network=self.network + other.network,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu - other.cpu,
            memory=self.memory - other.memory,
            memory_bw=self.memory_bw - other.memory_bw,
            disk_io=self.disk_io - other.disk_io,
            network=self.network - other.network,
        )

    def scaled(self, factor: float) -> "ResourceVector":
        """Elementwise multiplication by a scalar."""
        return ResourceVector(
            cpu=self.cpu * factor,
            memory=self.memory * factor,
            memory_bw=self.memory_bw * factor,
            disk_io=self.disk_io * factor,
            network=self.network * factor,
        )

    def clamped(self, lower: float = 0.0) -> "ResourceVector":
        """Elementwise ``max(value, lower)`` (demands must not go negative)."""
        return ResourceVector(
            cpu=max(self.cpu, lower),
            memory=max(self.memory, lower),
            memory_bw=max(self.memory_bw, lower),
            disk_io=max(self.disk_io, lower),
            network=max(self.network, lower),
        )

    def capped_by(self, limits: "ResourceVector") -> "ResourceVector":
        """Elementwise ``min(value, limit)``; used for cgroup-style caps."""
        return ResourceVector(
            cpu=min(self.cpu, limits.cpu),
            memory=min(self.memory, limits.memory),
            memory_bw=min(self.memory_bw, limits.memory_bw),
            disk_io=min(self.disk_io, limits.disk_io),
            network=min(self.network, limits.network),
        )

    def is_zero(self, tolerance: float = 1e-12) -> bool:
        """True when every dimension is (numerically) zero."""
        return (
            abs(self.cpu) <= tolerance
            and abs(self.memory) <= tolerance
            and abs(self.memory_bw) <= tolerance
            and abs(self.disk_io) <= tolerance
            and abs(self.network) <= tolerance
        )


_ZERO = ResourceVector()


def sum_vectors(vectors: Iterable[ResourceVector]) -> ResourceVector:
    """Elementwise sum of an iterable of vectors (zero if empty)."""
    total = ResourceVector.zero()
    for vector in vectors:
        total = total + vector
    return total


def default_host_capacity() -> ResourceVector:
    """Capacity modelled on the paper's testbed.

    The paper uses a 3.2 GHz dual-socket Intel Core i5 with 4 cores,
    4 MB shared L3 (§7). We translate this into a 4-core CPU budget,
    8 GB of RAM, ~10 GB/s memory bus, a SATA-class disk and gigabit
    Ethernet — the era-appropriate commodity box.
    """
    return ResourceVector(
        cpu=4.0,
        memory=8192.0,
        memory_bw=10_000.0,
        disk_io=150.0,
        network=1000.0,
    )
