"""Tests for resource kinds and share vectors."""

import pytest

from repro.util.errors import AllocationError
from repro.virt.resources import (
    ALL_RESOURCES,
    ResourceKind,
    ResourceVector,
    equal_share,
    total_shares,
)


class TestResourceVector:
    def test_of_constructor(self):
        vec = ResourceVector.of(cpu=0.5, memory=0.25, io=0.75)
        assert vec.cpu == 0.5
        assert vec.memory == 0.25
        assert vec.io == 0.75

    def test_missing_kind_defaults_to_zero(self):
        vec = ResourceVector({ResourceKind.CPU: 0.4})
        assert vec.memory == 0.0
        assert vec.io == 0.0

    def test_full(self):
        vec = ResourceVector.full()
        assert vec.as_tuple() == (1.0, 1.0, 1.0)

    def test_rejects_negative_share(self):
        with pytest.raises(AllocationError):
            ResourceVector.of(cpu=-0.1)

    def test_rejects_over_one(self):
        with pytest.raises(AllocationError):
            ResourceVector.of(memory=1.5)

    def test_accepts_string_kind(self):
        vec = ResourceVector({"cpu": 0.3})
        assert vec.cpu == 0.3

    def test_share_by_member_string_and_absent_kind(self):
        vec = ResourceVector({ResourceKind.CPU: 0.3})
        assert vec.share(ResourceKind.CPU) == 0.3
        assert vec.share("cpu") == 0.3
        assert vec.share(ResourceKind.IO) == 0.0
        assert vec.share("memory") == 0.0

    def test_share_of_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="not a valid ResourceKind"):
            ResourceVector.of(cpu=0.5).share("gpu")

    def test_as_tuple_is_canonical_with_absent_kinds_zero(self):
        assert ResourceVector({"io": 0.2, "cpu": 0.7}).as_tuple() == (
            0.7, 0.0, 0.2)
        assert ResourceVector.of(cpu=0.1, memory=0.2, io=0.3).as_tuple() == (
            0.1, 0.2, 0.3)

    def test_with_share_returns_new_vector(self):
        vec = ResourceVector.of(cpu=0.5)
        updated = vec.with_share(ResourceKind.CPU, 0.7)
        assert updated.cpu == 0.7
        assert vec.cpu == 0.5  # original unchanged

    def test_scaled_clamps_at_one(self):
        vec = ResourceVector.of(cpu=0.6, memory=0.2)
        scaled = vec.scaled(2.0)
        assert scaled.cpu == 1.0
        assert scaled.memory == pytest.approx(0.4)

    def test_equality_tolerant(self):
        assert ResourceVector.of(cpu=0.1 + 0.2) == ResourceVector.of(cpu=0.3)

    def test_hashable(self):
        assert len({ResourceVector.of(cpu=0.5), ResourceVector.of(cpu=0.5)}) == 1

    def test_as_tuple_canonical_order(self):
        vec = ResourceVector.of(cpu=0.1, memory=0.2, io=0.3)
        assert vec.as_tuple() == (0.1, 0.2, 0.3)


class TestEqualShare:
    def test_splits_evenly(self):
        vec = equal_share(4)
        assert all(vec.share(kind) == 0.25 for kind in ALL_RESOURCES)

    def test_single_vm_gets_everything(self):
        assert equal_share(1) == ResourceVector.full()

    def test_rejects_non_positive(self):
        with pytest.raises(AllocationError):
            equal_share(0)


def test_total_shares_sums():
    total = total_shares([
        ResourceVector.of(cpu=0.25, memory=0.5),
        ResourceVector.of(cpu=0.5, io=0.5),
    ])
    assert total.share(ResourceKind.CPU) == pytest.approx(0.75)
    assert total.share(ResourceKind.MEMORY) == pytest.approx(0.5)
    assert total.share(ResourceKind.IO) == pytest.approx(0.5)
