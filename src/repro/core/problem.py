"""Formulation of the virtualization design problem (paper, Section 3).

``N`` workloads ``W_1..W_N``, each against its own database, run in
``N`` virtual machines on one physical machine with ``m`` controllable
resources. An :class:`AllocationMatrix` assigns each workload a
:class:`ResourceVector`; validity requires every share non-negative and
each resource's shares summing to (at most) one. The objective is to
minimize ``sum_i Cost(W_i, R_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.engine.database import Database
from repro.util.errors import AllocationError
from repro.virt.machine import PhysicalMachine
from repro.virt.resources import (
    ALL_RESOURCES,
    SHARE_EPSILON,
    ResourceKind,
    ResourceVector,
    equal_share,
)
from repro.workloads.workload import Workload


@dataclass
class WorkloadSpec:
    """One workload plus the database it runs against."""

    workload: Workload
    database: Database

    @property
    def name(self) -> str:
        return self.workload.name


class AllocationMatrix:
    """The paper's ``R``: one share vector per workload."""

    def __init__(self, allocations: Mapping[str, ResourceVector]):
        if not allocations:
            raise AllocationError("an allocation matrix needs at least one workload")
        self._allocations: Dict[str, ResourceVector] = dict(allocations)

    @classmethod
    def equal(cls, workload_names: Sequence[str]) -> "AllocationMatrix":
        """The default allocation: every resource split evenly."""
        share = equal_share(len(workload_names))
        return cls({name: share for name in workload_names})

    def vector_for(self, workload_name: str) -> ResourceVector:
        try:
            return self._allocations[workload_name]
        except KeyError:
            raise AllocationError(f"no allocation for workload {workload_name!r}") from None

    def workload_names(self) -> List[str]:
        return sorted(self._allocations)

    def items(self) -> Iterable[Tuple[str, ResourceVector]]:
        return self._allocations.items()

    def as_dict(self) -> Dict[str, ResourceVector]:
        return dict(self._allocations)

    def as_record(self) -> Dict[str, List[float]]:
        """JSON-ready ``{workload: [cpu, memory, io]}`` (journal records)."""
        return {name: list(self._allocations[name].as_tuple())
                for name in self.workload_names()}

    def with_vector(self, workload_name: str,
                    vector: ResourceVector) -> "AllocationMatrix":
        updated = dict(self._allocations)
        updated[workload_name] = vector
        return AllocationMatrix(updated)

    def resource_totals(self) -> Dict[ResourceKind, float]:
        totals = {kind: 0.0 for kind in ALL_RESOURCES}
        for vector in self._allocations.values():
            for kind in ALL_RESOURCES:
                totals[kind] += vector.share(kind)
        return totals

    def validate(self, require_full: bool = False) -> None:
        """Raise :class:`AllocationError` on an infeasible matrix.

        With *require_full*, each resource must be fully allocated
        (shares summing to 1), matching the paper's equality constraint.
        """
        for name, vector in self._allocations.items():
            for kind in ALL_RESOURCES:
                if vector.share(kind) < -SHARE_EPSILON:
                    raise AllocationError(
                        f"negative {kind} share for workload {name!r}"
                    )
        for kind, total in self.resource_totals().items():
            if total > 1.0 + SHARE_EPSILON:
                per_vm = ", ".join(
                    f"{name}={vector.share(kind):.4f}"
                    for name, vector in sorted(self._allocations.items())
                )
                raise AllocationError(
                    f"{kind} oversubscribed: shares sum to {total:.4f} > 1 "
                    f"({per_vm})"
                )
            if require_full and abs(total - 1.0) > 1e-6:
                raise AllocationError(
                    f"{kind} not fully allocated: shares sum to {total:.4f}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AllocationMatrix):
            return NotImplemented
        return self._allocations == other._allocations

    def __repr__(self) -> str:
        rows = ", ".join(
            f"{name}: ({vec.cpu:.2f}, {vec.memory:.2f}, {vec.io:.2f})"
            for name, vec in sorted(self._allocations.items())
        )
        return f"AllocationMatrix({rows})"


@dataclass
class VirtualizationDesignProblem:
    """A complete problem instance."""

    machine: PhysicalMachine
    specs: List[WorkloadSpec]
    #: Resources the search controls; the rest are fixed at
    #: ``fixed_shares`` (the paper's experiment controls CPU only, with
    #: memory fixed at 50/50).
    controlled_resources: Tuple[ResourceKind, ...] = (
        ResourceKind.CPU, ResourceKind.MEMORY, ResourceKind.IO,
    )
    fixed_shares: Dict[ResourceKind, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.specs:
            raise AllocationError("a design problem needs at least one workload")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise AllocationError(f"duplicate workload names: {names}")
        if not self.controlled_resources:
            raise AllocationError("at least one resource must be controlled")

    @property
    def n_workloads(self) -> int:
        return len(self.specs)

    def workload_names(self) -> List[str]:
        return [spec.name for spec in self.specs]

    def spec(self, name: str) -> WorkloadSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise AllocationError(f"unknown workload {name!r}")

    def fixed_share_for(self, kind: ResourceKind, workload_name: str) -> float:
        """The fixed share of an uncontrolled resource for a workload."""
        per_workload = self.fixed_shares.get(kind)
        if per_workload is not None and workload_name in per_workload:
            return per_workload[workload_name]
        return 1.0 / self.n_workloads

    def default_allocation(self) -> AllocationMatrix:
        """Equal controlled shares plus the configured fixed shares."""
        allocations = {}
        for spec in self.specs:
            shares = {}
            for kind in ALL_RESOURCES:
                if kind in self.controlled_resources:
                    shares[kind] = 1.0 / self.n_workloads
                else:
                    shares[kind] = self.fixed_share_for(kind, spec.name)
            allocations[spec.name] = ResourceVector(shares)
        return AllocationMatrix(allocations)
