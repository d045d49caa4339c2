"""Resource kinds and per-VM resource share vectors.

The paper controls ``m`` physical resources per virtual machine; the
ones Xen exposes and the paper names are CPU, memory, and I/O
bandwidth. A :class:`ResourceVector` is the paper's ``R_i``: the
fraction of each resource allocated to one VM/workload.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, Mapping

from repro.util.errors import AllocationError

#: Shares are fractions in [0, 1]; comparisons use this tolerance.
SHARE_EPSILON = 1e-9


class ResourceKind(str, Enum):
    """A controllable physical resource."""

    CPU = "cpu"
    MEMORY = "memory"
    IO = "io"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Resources in canonical order, used when vectors are flattened.
ALL_RESOURCES = (ResourceKind.CPU, ResourceKind.MEMORY, ResourceKind.IO)


class ResourceVector:
    """An immutable mapping from :class:`ResourceKind` to a share in [0, 1].

    This is the ``R_i`` of the paper's formulation. Resources absent
    from the mapping default to share 0, except when the vector is
    constructed through :meth:`full` or :func:`equal_share`.
    """

    __slots__ = ("_shares",)

    def __init__(self, shares: Mapping[ResourceKind, float]):
        validated: Dict[ResourceKind, float] = {}
        for kind, share in shares.items():
            kind = ResourceKind(kind)
            share = float(share)
            if share < -SHARE_EPSILON or share > 1 + SHARE_EPSILON:
                raise AllocationError(
                    f"share for {kind} must be in [0, 1], got {share}"
                )
            validated[kind] = min(1.0, max(0.0, share))
        self._shares = validated

    @classmethod
    def of(cls, cpu: float = 0.0, memory: float = 0.0, io: float = 0.0) -> "ResourceVector":
        """Convenience constructor with keyword shares."""
        return cls(
            {
                ResourceKind.CPU: cpu,
                ResourceKind.MEMORY: memory,
                ResourceKind.IO: io,
            }
        )

    @classmethod
    def full(cls) -> "ResourceVector":
        """All resources fully allocated (a dedicated machine)."""
        return cls({kind: 1.0 for kind in ALL_RESOURCES})

    def share(self, kind: ResourceKind) -> float:
        """The fraction of *kind* in this vector (0 if absent)."""
        share = self._shares.get(kind)
        if share is None:  # absent, or not a member: coerce (may raise)
            return self._shares.get(ResourceKind(kind), 0.0)
        return share

    @property
    def cpu(self) -> float:
        return self.share(ResourceKind.CPU)

    @property
    def memory(self) -> float:
        return self.share(ResourceKind.MEMORY)

    @property
    def io(self) -> float:
        return self.share(ResourceKind.IO)

    def kinds(self) -> Iterable[ResourceKind]:
        """Resource kinds with an explicit (possibly zero) share."""
        return tuple(self._shares.keys())

    def with_share(self, kind: ResourceKind, share: float) -> "ResourceVector":
        """A copy of this vector with *kind* set to *share*."""
        updated = dict(self._shares)
        updated[ResourceKind(kind)] = share
        return ResourceVector(updated)

    def scaled(self, factor: float) -> "ResourceVector":
        """A copy with every share multiplied by *factor* (clamped to 1)."""
        return ResourceVector(
            {kind: min(1.0, share * factor) for kind, share in self._shares.items()}
        )

    def as_tuple(self) -> tuple:
        """Shares in canonical (cpu, memory, io) order."""
        shares = self._shares
        return (shares.get(ResourceKind.CPU, 0.0),
                shares.get(ResourceKind.MEMORY, 0.0),
                shares.get(ResourceKind.IO, 0.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return all(
            abs(self.share(kind) - other.share(kind)) <= SHARE_EPSILON
            for kind in ALL_RESOURCES
        )

    def __hash__(self) -> int:
        return hash(tuple(round(s, 9) for s in self.as_tuple()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{kind.value}={self.share(kind):.3f}" for kind in ALL_RESOURCES)
        return f"ResourceVector({parts})"


def equal_share(n_vms: int) -> ResourceVector:
    """The default allocation: every resource split evenly among *n_vms* VMs."""
    if n_vms <= 0:
        raise AllocationError("n_vms must be positive")
    share = 1.0 / n_vms
    return ResourceVector({kind: share for kind in ALL_RESOURCES})


def total_shares(vectors: Iterable[ResourceVector]) -> ResourceVector:
    """Element-wise sum of share vectors (may exceed 1; callers validate)."""
    totals = {kind: 0.0 for kind in ALL_RESOURCES}
    for vector in vectors:
        for kind in ALL_RESOURCES:
            totals[kind] += vector.share(kind)
    # Bypass the [0, 1] validation: a sum is a diagnostic quantity.
    result = ResourceVector.of()
    result._shares = totals  # noqa: SLF001 - internal constructor shortcut
    return result
