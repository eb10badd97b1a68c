"""Contention resolution: how co-located demand turns into allocations.

The paper's observable phenomenon is simple: when co-located containers
contend for a shared resource, the sensitive application's service rate
drops and a QoS violation manifests (§1, §3). This module reproduces
that phenomenon with two mechanisms:

* **Proportional share on rate resources** (CPU, memory bandwidth, disk
  I/O, network): when the summed demand exceeds capacity, each tenant
  receives ``demand * capacity / total`` — the fair-share behaviour of
  the Linux CFS scheduler and of saturated buses/devices.

* **Swap pressure on memory**: memory is a space resource. When the
  summed resident-set demand exceeds physical memory, the OS swaps
  pages; in the paper this is exactly how Twitter-Analysis hurts the
  Webservice ("its memory operation is intensive enough to force the OS
  to swap pages of Webservice to disk", §7.2). We model this as a
  progress penalty applied to every memory-resident tenant plus induced
  disk traffic, growing with the overcommit ratio.

An application's *progress factor* for the tick is the worst
satisfaction ratio across the rate resources it actually demanded,
multiplied by the swap penalty. A progress factor of 1.0 means the
application ran as if alone on the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.sim.resources import (
    RATE_RESOURCES,
    Resource,
    ResourceVector,
    sum_vectors,
)


def swap_pressure(
    memory_total: float,
    memory_capacity: float,
    swap_cost: float,
    swap_io_per_overcommit_mb: float,
) -> Tuple[float, float, float]:
    """The swap-pressure equation, shared by every contention path.

    With overcommit ratio ``rho = memory_total / memory_capacity`` the
    multiplicative progress penalty applied to memory-resident tenants
    is ``1 / (1 + swap_cost * (rho - 1))`` for ``rho > 1``, and the
    page traffic charged against the disk is
    ``(memory_total - memory_capacity) * swap_io_per_overcommit_mb``.

    Returns ``(ratio, penalty, swap_io)``; ``(1.0, 1.0, 0.0)`` when
    there is no overcommit (or no finite memory capacity).
    """
    overcommit_mb = max(0.0, memory_total - memory_capacity)
    if memory_capacity > 0 and overcommit_mb > 0:
        ratio = memory_total / memory_capacity
        penalty = 1.0 / (1.0 + swap_cost * (ratio - 1.0))
    else:
        ratio = 1.0
        penalty = 1.0
    return ratio, penalty, overcommit_mb * swap_io_per_overcommit_mb


@dataclass(frozen=True)
class Allocation:
    """What one container actually received during a tick.

    Attributes
    ----------
    granted:
        The resource amounts actually delivered this tick.
    progress:
        Fraction of the work the application wanted to do this tick
        that it could complete, in ``[0, 1]``.
    swap_penalty:
        The multiplicative slow-down attributable to memory
        overcommit (1.0 = no swapping). Folded into ``progress``;
        reported separately for analysis.
    """

    granted: ResourceVector
    progress: float
    swap_penalty: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.progress <= 1.0 + 1e-9:
            raise ValueError(f"progress must be in [0, 1], got {self.progress}")


class ContentionModel:
    """Interface: turn per-container demands into per-container allocations."""

    def resolve(
        self,
        demands: Mapping[str, ResourceVector],
        capacity: ResourceVector,
        weights: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, Allocation]:
        """Resolve contention for one tick.

        Parameters
        ----------
        demands:
            Demand vector per container name. Paused containers must
            not appear here (they demand nothing).
        capacity:
            The host's total capacity.
        weights:
            Optional cgroup-shares-style weights per container; how a
            model honours them is model-specific. ``None`` means equal
            weights.
        """
        raise NotImplementedError


@dataclass
class ProportionalShareModel(ContentionModel):
    """Fair proportional sharing with a swap penalty on memory overcommit.

    Parameters
    ----------
    swap_cost:
        Strength of the swapping penalty. With overcommit ratio
        ``rho = total_memory_demand / capacity`` the multiplicative
        penalty applied to memory-resident tenants is
        ``1 / (1 + swap_cost * (rho - 1))`` for ``rho > 1``. The
        default makes a 25% overcommit cost roughly half the machine's
        effective speed — deliberately harsh, as real swapping is.
    swap_io_per_overcommit_mb:
        Disk traffic (MB/s) induced per MB of overcommitted memory,
        charged against disk capacity so that swapping also congests
        the disk for everyone.
    """

    swap_cost: float = 3.0
    swap_io_per_overcommit_mb: float = 0.05
    _last_swap_ratio: float = field(default=1.0, repr=False)

    def resolve(
        self,
        demands: Mapping[str, ResourceVector],
        capacity: ResourceVector,
        weights: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, Allocation]:
        # Proportional share divides saturated resources by demand; it
        # deliberately ignores weights (see WeightedWaterFillModel for
        # a shares-aware scheduler).
        if not demands:
            self._last_swap_ratio = 1.0
            return {}
        for name, demand in demands.items():
            for resource, value in demand.items():
                if value < 0:
                    raise ValueError(
                        f"container {name!r} demanded negative {resource.name}: {value}"
                    )

        total = sum_vectors(demands.values())

        # Swap pressure from memory overcommit. The induced disk I/O is
        # added to the disk demand pool *before* disk shares are
        # computed, so heavy swapping congests the disk for all tenants.
        memory_total = total.get(Resource.MEMORY)
        memory_capacity = capacity.get(Resource.MEMORY)
        ratio, swap_penalty, swap_io = swap_pressure(
            memory_total, memory_capacity,
            self.swap_cost, self.swap_io_per_overcommit_mb,
        )
        self._last_swap_ratio = ratio

        # Per-resource satisfaction ratio shared by all tenants.
        share_ratio: Dict[Resource, float] = {}
        for resource in RATE_RESOURCES:
            demanded = total.get(resource)
            if resource is Resource.DISK_IO:
                demanded += swap_io
            available = capacity.get(resource)
            if demanded <= available or demanded <= 0:
                share_ratio[resource] = 1.0
            else:
                share_ratio[resource] = available / demanded

        memory_ratio = 1.0
        if memory_total > memory_capacity > 0:
            memory_ratio = memory_capacity / memory_total

        allocations: Dict[str, Allocation] = {}
        for name, demand in demands.items():
            granted_values: Dict[Resource, float] = {}
            progress = 1.0
            for resource in RATE_RESOURCES:
                wanted = demand.get(resource)
                got = wanted * share_ratio[resource]
                granted_values[resource] = got
                if wanted > 0:
                    progress = min(progress, got / wanted)
            granted_values[Resource.MEMORY] = demand.get(Resource.MEMORY) * memory_ratio

            tenant_swap_penalty = 1.0
            if demand.get(Resource.MEMORY) > 0:
                tenant_swap_penalty = swap_penalty
            progress *= tenant_swap_penalty

            allocations[name] = Allocation(
                granted=ResourceVector.from_mapping(granted_values),
                progress=min(1.0, max(0.0, progress)),
                swap_penalty=tenant_swap_penalty,
            )
        return allocations

    @property
    def last_swap_ratio(self) -> float:
        """Memory overcommit ratio observed in the most recent resolve."""
        return self._last_swap_ratio


def weighted_water_fill(
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacity: float,
) -> Dict[str, float]:
    """Weighted max-min allocation of one rate resource.

    The work-conserving behaviour of the Linux CFS scheduler with
    cgroup shares: each tenant is entitled to a weight-proportional
    slice; tenants demanding less than their slice are fully satisfied
    and their leftover is redistributed among the still-hungry ones.

    Tenants are processed in ``demands`` insertion order. The floating-
    point fold order (weight totals, distributed sums) follows that
    order too, so results are reproducible across interpreter runs.
    The hungry set used to be a Python ``set`` of names, which made the
    fold follow string-hash order — results then varied in the last ulp
    with ``PYTHONHASHSEED``.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    granted = {name: 0.0 for name in demands}
    hungry = [name for name, demand in demands.items() if demand > 0]
    for name in hungry:
        if weights.get(name, 1.0) <= 0:
            raise ValueError(f"weight for {name!r} must be positive")
    remaining = capacity
    # Each pass either satisfies at least one tenant fully or ends.
    while hungry and remaining > 1e-12:
        total_weight = sum(weights.get(name, 1.0) for name in hungry)
        satisfied = set()
        distributed = 0.0
        for name in hungry:
            slice_ = remaining * weights.get(name, 1.0) / total_weight
            need = demands[name] - granted[name]
            take = min(slice_, need)
            granted[name] += take
            distributed += take
            if granted[name] >= demands[name] - 1e-12:
                satisfied.add(name)
        remaining -= distributed
        if not satisfied:
            break
        hungry = [name for name in hungry if name not in satisfied]
    return granted


@dataclass
class WeightedWaterFillModel(ContentionModel):
    """Work-conserving weighted fair sharing (CFS + cgroup shares).

    Unlike :class:`ProportionalShareModel`, a tenant demanding less
    than its fair slice is fully satisfied, and cgroup-style ``weights``
    shift the slices under saturation. Memory stays a space resource
    with the same swap penalty — crucially, *weights cannot buy a
    tenant out of swap pressure*, which is exactly the headroom limit
    that Q-Clouds-style weight boosting runs into (§8).
    """

    swap_cost: float = 3.0
    swap_io_per_overcommit_mb: float = 0.05
    _last_swap_ratio: float = field(default=1.0, repr=False)

    def resolve(
        self,
        demands: Mapping[str, ResourceVector],
        capacity: ResourceVector,
        weights: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, Allocation]:
        if not demands:
            self._last_swap_ratio = 1.0
            return {}
        weights = dict(weights) if weights else {}
        for name, demand in demands.items():
            for resource, value in demand.items():
                if value < 0:
                    raise ValueError(
                        f"container {name!r} demanded negative {resource.name}: {value}"
                    )

        total = sum_vectors(demands.values())
        memory_total = total.get(Resource.MEMORY)
        memory_capacity = capacity.get(Resource.MEMORY)
        ratio, swap_penalty, swap_io = swap_pressure(
            memory_total, memory_capacity,
            self.swap_cost, self.swap_io_per_overcommit_mb,
        )
        self._last_swap_ratio = ratio

        # Per-resource weighted water-filling.
        per_resource_grants: Dict[Resource, Dict[str, float]] = {}
        for resource in RATE_RESOURCES:
            available = capacity.get(resource)
            if resource is Resource.DISK_IO:
                available = max(0.0, available - swap_io)
            per_resource_grants[resource] = weighted_water_fill(
                {name: demand.get(resource) for name, demand in demands.items()},
                weights,
                available,
            )

        memory_ratio = 1.0
        if memory_total > memory_capacity > 0:
            memory_ratio = memory_capacity / memory_total

        allocations: Dict[str, Allocation] = {}
        for name, demand in demands.items():
            granted_values: Dict[Resource, float] = {}
            progress = 1.0
            for resource in RATE_RESOURCES:
                wanted = demand.get(resource)
                got = per_resource_grants[resource][name]
                granted_values[resource] = got
                if wanted > 0:
                    progress = min(progress, got / wanted)
            granted_values[Resource.MEMORY] = demand.get(Resource.MEMORY) * memory_ratio

            tenant_swap_penalty = 1.0
            if demand.get(Resource.MEMORY) > 0:
                tenant_swap_penalty = swap_penalty
            progress *= tenant_swap_penalty

            allocations[name] = Allocation(
                granted=ResourceVector.from_mapping(granted_values),
                progress=min(1.0, max(0.0, progress)),
                swap_penalty=tenant_swap_penalty,
            )
        return allocations

    @property
    def last_swap_ratio(self) -> float:
        """Memory overcommit ratio observed in the most recent resolve."""
        return self._last_swap_ratio
