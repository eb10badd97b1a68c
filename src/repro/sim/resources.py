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

from enum import Enum
from typing import Any, Callable, Dict, Iterable, Iterator, NamedTuple, Tuple


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
_INDEX: Dict[Resource, int] = {resource: i for i, resource in enumerate(_FIELDS)}

#: ``_new(ResourceVector, five_floats)`` builds a vector without the
#: generated ``__new__``'s argument handling (about a third cheaper).
_new: Callable[..., Any] = tuple.__new__


class ResourceVector(NamedTuple):
    """An immutable value over all five resource dimensions.

    A tuple in canonical order — ``Resource`` order, which is the wire's
    :data:`repro.observation.METRICS` order — so a vector *is* the usage
    or capacity tuple an :class:`~repro.observation.Observation` carries.
    ``+`` and ``-`` are elementwise (not tuple concatenation), so
    contention models and workloads combine demands without manual
    bookkeeping.
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

    # -- access -------------------------------------------------------
    def values(self) -> Tuple[float, ...]:
        """The five fields in canonical order: the vector itself."""
        return self

    def get(self, resource: Resource) -> float:
        """Value for one resource dimension."""
        return float(self[_INDEX[resource]])

    def items(self) -> Iterator[Tuple[Resource, float]]:
        """Iterate ``(resource, value)`` pairs in canonical order."""
        return zip(_FIELDS, map(float, self))

    def replace(self, resource: Resource, value: float) -> "ResourceVector":
        """A copy of this vector with one dimension replaced."""
        return self._replace(**{resource.value: float(value)})

    # -- arithmetic ---------------------------------------------------
    # Elementwise where tuple's ``+`` concatenates, hence the narrower
    # operand type than the supertype's.
    def __add__(self, other: "ResourceVector") -> "ResourceVector":  # type: ignore[override]
        a, b, c, d, e = self
        f, g, h, i, j = other
        return _new(ResourceVector, (a + f, b + g, c + h, d + i, e + j))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        a, b, c, d, e = self
        f, g, h, i, j = other
        return _new(ResourceVector, (a - f, b - g, c - h, d - i, e - j))

    def scaled(self, factor: float) -> "ResourceVector":
        """Elementwise multiplication by a scalar."""
        a, b, c, d, e = self
        return _new(ResourceVector, (a * factor, b * factor, c * factor, d * factor, e * factor))

    def clamped(self, lower: float = 0.0) -> "ResourceVector":
        """Elementwise ``max(value, lower)`` (demands must not go negative);
        ``self`` when no value is below ``lower`` (a NaN takes the max)."""
        a, b, c, d, e = self
        if a >= lower and b >= lower and c >= lower and d >= lower and e >= lower:
            return self
        return _new(
            ResourceVector,
            (max(a, lower), max(b, lower), max(c, lower), max(d, lower), max(e, lower)),
        )

    def capped_by(self, limits: "ResourceVector") -> "ResourceVector":
        """Elementwise ``min(value, limit)``; used for cgroup-style caps."""
        a, b, c, d, e = self
        f, g, h, i, j = limits
        return _new(ResourceVector, (min(a, f), min(b, g), min(c, h), min(d, i), min(e, j)))

    def is_zero(self, tolerance: float = 1e-12) -> bool:
        """True when every dimension is (numerically) zero."""
        a, b, c, d, e = self
        return (
            abs(a) <= tolerance
            and abs(b) <= tolerance
            and abs(c) <= tolerance
            and abs(d) <= tolerance
            and abs(e) <= tolerance
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
