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

import numpy as np

from repro.sim.resources import (
    MEMORY_INDEX,
    RATE_INDICES,
    RATE_RESOURCES,
    Resource,
    ResourceVector,
    sum_vectors,
)

#: Position of disk I/O within the ``RATE_INDICES`` column block —
#: the rate column that swap-induced I/O congests.
_DISK_RATE_POS = RATE_RESOURCES.index(Resource.DISK_IO)


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
    there is no overcommit (or no finite memory capacity). The array
    resolvers (:func:`resolve_proportional_arrays`,
    :func:`resolve_waterfill_arrays`) implement this same equation
    vectorized, operation for operation — keep the two in sync.
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


# ---------------------------------------------------------------------------
# Batched (struct-of-arrays) resolvers
# ---------------------------------------------------------------------------
#
# These resolve contention for *all containers on all hosts* in one
# pass over dense arrays. Shapes follow one convention throughout:
#
#   C — number of active (demanding) containers across the fleet
#   H — number of hosts
#   R — number of resource dimensions (``NUM_RESOURCES``, column order
#       ``RESOURCE_INDEX``)
#
# Per-host aggregation uses ``np.add.at`` — an *unbuffered, ordered*
# segmented reduction that folds rows in index order. Because the
# scalar models fold their Python dicts in the same (insertion) order,
# the array resolvers produce bit-identical floats to the scalar path
# on the same platform; see docs/SIMULATION.md for the full
# equivalence contract.


@dataclass(frozen=True)
class BatchResolution:
    """Result of one batched contention pass.

    Attributes
    ----------
    granted:
        ``(C, R)`` resources actually delivered per container row.
    progress:
        ``(C,)`` progress factor per container row, in ``[0, 1]``.
    swap_penalty:
        ``(C,)`` multiplicative swap slow-down per container row
        (1.0 where the row demanded no memory).
    swap_ratio:
        ``(H,)`` memory overcommit ratio per host (1.0 = none).
    """

    granted: np.ndarray
    progress: np.ndarray
    swap_penalty: np.ndarray
    swap_ratio: np.ndarray


def _swap_pressure_arrays(
    totals: np.ndarray,
    capacity: np.ndarray,
    swap_cost: np.ndarray,
    swap_io_rate: np.ndarray,
):
    """Vectorized :func:`swap_pressure` over ``(H, R)`` demand totals.

    Returns ``(ratio (H,), penalty (H,), swap_io (H,), memory_ratio
    (H,))`` — the per-host swap state plus the residency scale factor
    applied to memory grants under overcommit.
    """
    memory_total = totals[:, MEMORY_INDEX]
    memory_capacity = capacity[:, MEMORY_INDEX]
    overcommit = np.maximum(0.0, memory_total - memory_capacity)
    swapping = (memory_capacity > 0) & (overcommit > 0)
    safe_capacity = np.where(memory_capacity > 0, memory_capacity, 1.0)
    ratio = np.where(swapping, memory_total / safe_capacity, 1.0)
    penalty = np.where(swapping, 1.0 / (1.0 + swap_cost * (ratio - 1.0)), 1.0)
    swap_io = overcommit * swap_io_rate
    squeezed = (memory_total > memory_capacity) & (memory_capacity > 0)
    safe_total = np.where(memory_total > 0, memory_total, 1.0)
    memory_ratio = np.where(squeezed, memory_capacity / safe_total, 1.0)
    return ratio, penalty, swap_io, memory_ratio


def _finish_batch(
    demand: np.ndarray,
    host_index: np.ndarray,
    got_rate: np.ndarray,
    penalty: np.ndarray,
    memory_ratio: np.ndarray,
    swap_ratio: np.ndarray,
) -> BatchResolution:
    """Assemble granted/progress arrays from per-row rate grants.

    ``got_rate`` is ``(C, len(RATE_INDICES))`` in ``RATE_INDICES``
    column order; progress is the worst satisfaction ratio across the
    rate resources each row demanded, times the host's swap penalty
    where the row holds memory — exactly the scalar models' math.
    """
    wanted_rate = demand[:, RATE_INDICES]
    safe_wanted = np.where(wanted_rate > 0, wanted_rate, 1.0)
    satisfaction = np.where(wanted_rate > 0, got_rate / safe_wanted, np.inf)
    progress = np.minimum(1.0, satisfaction.min(axis=1, initial=np.inf))

    granted = np.zeros_like(demand)
    granted[:, RATE_INDICES] = got_rate
    granted[:, MEMORY_INDEX] = demand[:, MEMORY_INDEX] * memory_ratio[host_index]

    tenant_penalty = np.where(
        demand[:, MEMORY_INDEX] > 0, penalty[host_index], 1.0
    )
    progress = progress * tenant_penalty
    progress = np.minimum(1.0, np.maximum(0.0, progress))
    return BatchResolution(
        granted=granted,
        progress=progress,
        swap_penalty=tenant_penalty,
        swap_ratio=swap_ratio,
    )


def resolve_proportional_arrays(
    demand: np.ndarray,
    host_index: np.ndarray,
    capacity: np.ndarray,
    swap_cost: np.ndarray,
    swap_io_rate: np.ndarray,
) -> BatchResolution:
    """Batched :class:`ProportionalShareModel` over all hosts at once.

    Parameters
    ----------
    demand:
        ``(C, R)`` non-negative demand rows for the fleet's demanding
        containers (zero-demand rows are legal but see the engine's
        ``is_zero`` gate for scalar parity).
    host_index:
        ``(C,)`` integer row -> host assignment; rows of one host must
        appear in that host's container insertion order for bit parity
        with the scalar path.
    capacity:
        ``(H, R)`` per-host capacities.
    swap_cost / swap_io_rate:
        ``(H,)`` per-host swap model parameters (one scalar model
        instance per host in the object world).
    """
    if demand.size and np.any(demand < 0):
        raise ValueError("batched demands must be non-negative")
    totals = np.zeros_like(capacity)
    np.add.at(totals, host_index, demand)

    swap_ratio, penalty, swap_io, memory_ratio = _swap_pressure_arrays(
        totals, capacity, swap_cost, swap_io_rate
    )

    demanded = totals[:, RATE_INDICES].copy()
    demanded[:, _DISK_RATE_POS] += swap_io
    available = capacity[:, RATE_INDICES]
    safe_demanded = np.where(demanded > 0, demanded, 1.0)
    share = np.where(
        (demanded <= available) | (demanded <= 0),
        1.0,
        available / safe_demanded,
    )

    got_rate = demand[:, RATE_INDICES] * share[host_index]
    return _finish_batch(
        demand, host_index, got_rate, penalty, memory_ratio, swap_ratio
    )


def segmented_water_fill(
    demands: np.ndarray,
    weights: np.ndarray,
    host_index: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """Weighted max-min allocation of one rate resource, per host segment.

    The batched twin of :func:`weighted_water_fill`: rows sharing a
    ``host_index`` value form one segment and water-fill that host's
    ``capacity`` entry. Fold order inside a segment is row order, so a
    segment reproduces the scalar function bit for bit when rows are in
    the host's insertion order.

    Parameters
    ----------
    demands / weights / host_index:
        ``(C,)`` arrays; weights must be positive wherever demand > 0.
    capacity:
        ``(H,)`` per-host capacity of this one resource.

    Returns the ``(C,)`` granted amounts.
    """
    if np.any(capacity < 0):
        raise ValueError("capacity must be non-negative")
    rows = demands.shape[0]
    hosts = capacity.shape[0]
    granted = np.zeros(rows)
    hungry = demands > 0
    if np.any(hungry & (weights <= 0)):
        raise ValueError("weights must be positive for demanding rows")
    remaining = capacity.astype(np.float64).copy()
    host_live = np.ones(hosts, dtype=bool)
    # Each pass fully satisfies at least one row per still-live host,
    # so ``rows + 1`` passes bound the loop.
    for _ in range(rows + 1):
        live = hungry & host_live[host_index] & (remaining[host_index] > 1e-12)
        if not live.any():
            break
        total_weight = np.zeros(hosts)
        np.add.at(total_weight, host_index[live], weights[live])
        safe_total = np.where(total_weight > 0, total_weight, 1.0)
        slice_ = remaining[host_index] * weights / safe_total[host_index]
        need = demands - granted
        take = np.where(live, np.minimum(slice_, need), 0.0)
        granted = granted + take
        distributed = np.zeros(hosts)
        np.add.at(distributed, host_index[live], take[live])
        remaining = remaining - distributed
        satisfied = live & (granted >= demands - 1e-12)
        had_live = np.zeros(hosts, dtype=bool)
        had_live[host_index[live]] = True
        saw_satisfied = np.zeros(hosts, dtype=bool)
        saw_satisfied[host_index[satisfied]] = True
        host_live &= ~had_live | saw_satisfied
        hungry &= ~satisfied
    return granted


def resolve_waterfill_arrays(
    demand: np.ndarray,
    host_index: np.ndarray,
    weights: np.ndarray,
    capacity: np.ndarray,
    swap_cost: np.ndarray,
    swap_io_rate: np.ndarray,
) -> BatchResolution:
    """Batched :class:`WeightedWaterFillModel` over all hosts at once.

    Shapes as in :func:`resolve_proportional_arrays`, plus ``weights``
    ``(C,)`` — the cgroup-shares weights per container row. Swap
    pressure *reduces available disk capacity* before filling (the
    scalar model's convention), and weights cannot buy a tenant out of
    the swap penalty.
    """
    if demand.size and np.any(demand < 0):
        raise ValueError("batched demands must be non-negative")
    totals = np.zeros_like(capacity)
    np.add.at(totals, host_index, demand)

    swap_ratio, penalty, swap_io, memory_ratio = _swap_pressure_arrays(
        totals, capacity, swap_cost, swap_io_rate
    )

    available = capacity[:, RATE_INDICES].copy()
    available[:, _DISK_RATE_POS] = np.maximum(
        0.0, available[:, _DISK_RATE_POS] - swap_io
    )
    got_rate = np.empty((demand.shape[0], len(RATE_INDICES)))
    for pos, column in enumerate(RATE_INDICES):
        got_rate[:, pos] = segmented_water_fill(
            demand[:, column], weights, host_index, available[:, pos]
        )
    return _finish_batch(
        demand, host_index, got_rate, penalty, memory_ratio, swap_ratio
    )


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
    order too, so results are reproducible across interpreter runs and
    bit-identical to the segmented array implementation
    (:func:`segmented_water_fill`). The hungry set used to be a Python
    ``set`` of names, which made the fold follow string-hash order —
    results then varied in the last ulp with ``PYTHONHASHSEED``.
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
