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
from math import isfinite
from typing import Dict, Mapping, Optional, Tuple

from repro.sim.resources import ResourceVector


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


def _fold_demands(model, demands: Mapping[str, ResourceVector], memory_capacity: float):
    """The opening half of ``resolve`` that both models share.

    Refuses a negative or non-finite demand (``ValueError`` naming the
    container and resource), folds the demands field by field from 0.0
    in insertion order, prices memory overcommit and records its ratio
    on ``model``. Returns the rate totals (in ``RATE_RESOURCES`` order),
    ``swap_penalty``, ``swap_io`` and the resident ``memory_ratio``.
    """
    cpu = memory = memory_bw = disk_io = network = lowest = 0.0
    for demand in demands.values():
        cpu += demand.cpu
        memory += demand.memory
        memory_bw += demand.memory_bw
        disk_io += demand.disk_io
        network += demand.network
        lowest = min(
            lowest, demand.cpu, demand.memory, demand.memory_bw, demand.disk_io, demand.network
        )
    # A non-finite value makes its total non-finite, so one test clears
    # the whole tick; the per-field walk only names the offender.
    if lowest < 0 or not isfinite(cpu + memory + memory_bw + disk_io + network):
        for name, demand in demands.items():
            for resource, value in demand.items():
                if value < 0 or not isfinite(value):
                    kind = "negative" if value < 0 else "non-finite"
                    raise ValueError(
                        f"container {name!r} demanded {kind} {resource.name}: {value}"
                    )
    ratio, swap_penalty, swap_io = swap_pressure(
        memory, memory_capacity, model.swap_cost, model.swap_io_per_overcommit_mb
    )
    model._last_swap_ratio = ratio
    memory_ratio = memory_capacity / memory if memory > memory_capacity > 0 else 1.0
    return (cpu, memory_bw, disk_io, network), swap_penalty, swap_io, memory_ratio


def _allocation(demand: ResourceVector, granted: ResourceVector, swap_penalty: float) -> Allocation:
    """The closing half: one tenant's grant becomes its ``Allocation``.

    Progress is the worst ``got / wanted`` over the rate resources the
    tenant demanded, visited in ``RATE_RESOURCES`` order, times the swap
    penalty when it holds memory.
    """
    progress = 1.0
    if demand.cpu > 0:
        progress = min(progress, granted.cpu / demand.cpu)
    if demand.memory_bw > 0:
        progress = min(progress, granted.memory_bw / demand.memory_bw)
    if demand.disk_io > 0:
        progress = min(progress, granted.disk_io / demand.disk_io)
    if demand.network > 0:
        progress = min(progress, granted.network / demand.network)
    tenant_swap_penalty = swap_penalty if demand.memory > 0 else 1.0
    progress *= tenant_swap_penalty
    return Allocation(granted, min(1.0, max(0.0, progress)), tenant_swap_penalty)


def _share(demanded: float, available: float) -> float:
    """The satisfaction ratio every tenant of one rate resource gets."""
    return 1.0 if demanded <= available or demanded <= 0 else available / demanded


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
        # Swap pressure from memory overcommit. The induced disk I/O is
        # added to the disk demand pool *before* disk shares are
        # computed, so heavy swapping congests the disk for all tenants.
        totals, swap_penalty, swap_io, memory_ratio = _fold_demands(self, demands, capacity.memory)
        # Per-resource satisfaction ratio shared by all tenants.
        cpu = _share(totals[0], capacity.cpu)
        memory_bw = _share(totals[1], capacity.memory_bw)
        disk_io = _share(totals[2] + swap_io, capacity.disk_io)
        network = _share(totals[3], capacity.network)
        allocations: Dict[str, Allocation] = {}
        for name, demand in demands.items():
            granted = ResourceVector(
                demand.cpu * cpu,
                demand.memory * memory_ratio,
                demand.memory_bw * memory_bw,
                demand.disk_io * disk_io,
                demand.network * network,
            )
            allocations[name] = _allocation(demand, granted, swap_penalty)
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
        total_weight = 0.0  # an explicit fold: sum() is compensated from 3.12 on
        for name in hungry:
            total_weight += weights.get(name, 1.0)
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
        _, swap_penalty, swap_io, memory_ratio = _fold_demands(self, demands, capacity.memory)
        # Per-resource weighted water-filling; swap traffic is taken
        # out of the disk before it is divided.
        tenants = demands.items()
        cpu = weighted_water_fill({n: d.cpu for n, d in tenants}, weights, capacity.cpu)
        memory_bw = weighted_water_fill(
            {n: d.memory_bw for n, d in tenants}, weights, capacity.memory_bw
        )
        disk_io = weighted_water_fill(
            {n: d.disk_io for n, d in tenants}, weights, max(0.0, capacity.disk_io - swap_io)
        )
        network = weighted_water_fill({n: d.network for n, d in tenants}, weights, capacity.network)
        allocations: Dict[str, Allocation] = {}
        for name, demand in demands.items():
            granted = ResourceVector(
                cpu[name],
                demand.memory * memory_ratio,
                memory_bw[name],
                disk_io[name],
                network[name],
            )
            allocations[name] = _allocation(demand, granted, swap_penalty)
        return allocations

    @property
    def last_swap_ratio(self) -> float:
        """Memory overcommit ratio observed in the most recent resolve."""
        return self._last_swap_ratio
