"""Unit tests for system partitioning and channel extraction."""

import pytest

from repro.errors import PartitionError
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.closeness import ClosenessModel, cut_traffic
from repro.partition.module import ModuleKind, SystemModule
from repro.partition.partitioner import Partition, cluster_partition
from repro.spec.access import Direction
from repro.spec.behavior import Behavior
from repro.spec.expr import Index, Ref
from repro.spec.stmt import Assign, For, While
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable


class TestSystemModule:
    def test_memory_rejects_behaviors(self):
        module = SystemModule("mem", ModuleKind.MEMORY)
        with pytest.raises(PartitionError):
            module.add_behavior(Behavior("B"))

    def test_storage_bits(self):
        module = SystemModule("mem", ModuleKind.MEMORY)
        module.add_variable(Variable("a", IntType(16)))
        module.add_variable(Variable("b", ArrayType(IntType(8), 4)))
        assert module.storage_bits == 16 + 32

    def test_duplicate_variable_rejected(self):
        module = SystemModule("m")
        v = Variable("v", IntType(16))
        module.add_variable(v)
        with pytest.raises(PartitionError):
            module.add_variable(v)


class TestPartition:
    def test_assign_by_name(self, fig3):
        # fig3 fixture already assigned; build a fresh partition.
        partition = Partition(fig3.system)
        m1 = partition.add_module("m1")
        m2 = partition.add_module("m2")
        partition.assign("P", "m1")
        partition.assign("Q", "m1")
        partition.assign("X", "m2")
        partition.assign("MEM", "m2")
        partition.validate()
        assert partition.module_of("P") is m1
        assert partition.module_of("MEM") is m2

    def test_double_assignment_rejected(self, fig3):
        partition = Partition(fig3.system)
        partition.add_module("m1")
        partition.assign("P", "m1")
        with pytest.raises(PartitionError, match="already assigned"):
            partition.assign("P", "m1")

    def test_unassigned_object_fails_validation(self, fig3):
        partition = Partition(fig3.system)
        partition.add_module("m1")
        partition.assign("P", "m1")
        with pytest.raises(PartitionError, match="unassigned"):
            partition.validate()

    def test_unknown_names_rejected(self, fig3):
        partition = Partition(fig3.system)
        partition.add_module("m1")
        with pytest.raises(PartitionError):
            partition.assign("NOPE", "m1")
        with pytest.raises(PartitionError):
            partition.assign("P", "nomodule")

    def test_duplicate_module_name_rejected(self, fig3):
        partition = Partition(fig3.system)
        partition.add_module("m1")
        with pytest.raises(PartitionError):
            partition.add_module("m1")

    def test_is_remote(self, fig3):
        assert fig3.partition.is_remote(fig3.P, fig3.X)

    def test_memory_module_rejects_behavior_assignment(self, fig3):
        partition = Partition(fig3.system)
        partition.add_module("mem", ModuleKind.MEMORY)
        with pytest.raises(PartitionError):
            partition.assign("P", "mem")


class TestChannelExtraction:
    def test_fig3_yields_four_channels(self, fig3):
        """Figure 3: CH0..CH3 -- P>X, P<X, P>MEM, Q>MEM."""
        assert len(fig3.channels) == 4
        triples = {(c.accessor.name, c.variable.name, c.direction)
                   for c in fig3.channels}
        assert triples == {
            ("P", "X", Direction.WRITE),
            ("P", "X", Direction.READ),
            ("P", "MEM", Direction.WRITE),
            ("Q", "MEM", Direction.WRITE),
        }

    def test_channel_names_deterministic(self, fig3):
        from tests.conftest import make_fig3
        again = make_fig3()
        assert [c.name for c in fig3.channels] == \
            [c.name for c in again.channels]

    def test_message_bits(self, fig3):
        by_triple = {(c.accessor.name, c.variable.name, c.direction): c
                     for c in fig3.channels}
        # X is a 16-bit scalar; MEM is 64x16 -> 6 + 16 = 22 bits.
        assert by_triple[("P", "X", Direction.WRITE)].message_bits == 16
        assert by_triple[("P", "MEM", Direction.WRITE)].message_bits == 22

    def test_local_accesses_produce_no_channels(self):
        shared = Variable("s", IntType(16))
        behavior = Behavior("B", [Assign(shared, 1)])
        system = SystemSpec("sys", [behavior], [shared])
        partition = Partition(system)
        m = partition.add_module("m")
        partition.assign(behavior, m)
        partition.assign(shared, m)
        assert extract_channels(partition) == []

    def test_zero_trip_pragma_still_yields_a_channel(self):
        """A loop whose pragma says 0 trips still runs; its remote read
        needs a channel, or refinement cannot rewrite it."""
        from repro.protogen.refine import generate_protocol
        from repro.verify import verify_refinement

        shared = Variable("s", IntType(16), init=5)
        count = Variable("c", IntType(16), init=0)
        local = Variable("l", IntType(16))
        behavior = Behavior("B", [
            While(Ref(count) < 2, [Assign(local, Ref(shared)),
                                   Assign(count, Ref(count) + 1)],
                  trip_count=0),
        ], local_variables=[count, local])
        system = SystemSpec("sys", [behavior], [shared])
        partition = Partition(system)
        chip = partition.add_module("chip")
        memory = partition.add_module("memory")
        partition.assign(behavior, chip)
        partition.assign(shared, memory)
        [channel] = extract_channels(partition)
        assert (channel.variable, channel.accesses) == (shared, 0)
        group = default_bus_groups(partition, channels=[channel])[0]
        refined = generate_protocol(system, group, width=16)
        assert verify_refinement(system, refined).passed

    def test_module_annotations(self, fig3):
        for channel in fig3.channels:
            assert channel.accessor_module == "module1"
            assert channel.variable_module == "module2"

    def test_default_groups_by_module_pair(self, fig3):
        groups = default_bus_groups(fig3.partition)
        assert len(groups) == 1
        assert len(groups[0]) == 4
        assert groups[0].name == "bus_module1_module2"


class TestCloseness:
    def test_traffic_between_behavior_and_variable(self, fig3):
        model = ClosenessModel(fig3.system)
        # P moves 16 (write X) + 16 (read X) bits.
        assert model.traffic(fig3.P, fig3.X) == 32
        # Q moves one 22-bit message to MEM.
        assert model.traffic(fig3.Q, fig3.MEM) == 22

    def test_behavior_behavior_closeness_via_shared_variable(self, fig3):
        model = ClosenessModel(fig3.system)
        assert model.closeness(fig3.P, fig3.Q) > 0

    def test_cut_traffic(self, fig3):
        model = ClosenessModel(fig3.system)
        together = {fig3.P: "m", fig3.Q: "m", fig3.X: "m", fig3.MEM: "m"}
        assert cut_traffic(model, together) == 0
        split = {fig3.P: "m1", fig3.Q: "m1", fig3.X: "m2", fig3.MEM: "m2"}
        assert cut_traffic(model, split) == 32 + 22 + 22


class TestClusterPartition:
    def test_clustering_keeps_heavy_pairs_together(self):
        """A behavior hammering an array clusters with it."""
        arr = Variable("arr", ArrayType(IntType(16), 64))
        other = Variable("other", IntType(16))
        i = Variable("i", IntType(16))
        heavy = Behavior("HEAVY", [
            For(i, 0, 63, [Assign((arr, Ref(i)), 0)]),
        ])
        light = Behavior("LIGHT", [Assign(other, 1)])
        system = SystemSpec("sys", [heavy, light], [arr, other])
        partition = cluster_partition(system, 2)
        assert partition.module_of(heavy) is partition.module_of(arr)
        assert partition.module_of(light) is partition.module_of(other)

    def test_module_count_respected(self, fig3):
        partition = cluster_partition(fig3.system, 2)
        assert len(partition.modules) == 2
        partition.validate()

    def test_single_module_has_no_channels(self, fig3):
        partition = cluster_partition(fig3.system, 1)
        assert extract_channels(partition) == []

    def test_deterministic(self, fig3):
        from tests.conftest import make_fig3
        a = cluster_partition(fig3.system, 2)
        other = make_fig3()
        b = cluster_partition(other.system, 2)
        names_a = sorted(
            (m.name, sorted(x.name for x in m.contents()))
            for m in a.modules
        )
        names_b = sorted(
            (m.name, sorted(x.name for x in m.contents()))
            for m in b.modules
        )
        assert names_a == names_b

    def test_too_many_modules_rejected(self, fig3):
        with pytest.raises(PartitionError):
            cluster_partition(fig3.system, 99)

    def test_variable_only_cluster_becomes_memory(self):
        """Two unconnected variables + one behavior, 2 modules."""
        a = Variable("a", ArrayType(IntType(16), 64))
        b = Variable("b", ArrayType(IntType(16), 64))
        i = Variable("i", IntType(16))
        worker = Behavior("W", [
            For(i, 0, 3, [Assign((a, Ref(i)), 0)]),
        ])
        system = SystemSpec("sys", [worker], [a, b])
        partition = cluster_partition(system, 2)
        lonely = partition.module_of(b)
        assert lonely.kind is ModuleKind.MEMORY
