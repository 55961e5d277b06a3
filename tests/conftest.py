"""Shared fixtures: the Figure 3 example system and the FLC model."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List

import pytest

from repro.analysis.product import PROOFS
from repro.apps.flc import FlcModel, build_flc
from repro.channels.channel import Channel
from repro.channels.group import ChannelGroup
from repro.fifo import FifoTable
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protogen.fsm import synthesize_fsm
from repro.protogen.procedures import make_procedures
from repro.protogen.structure import make_structure
from repro.spec.access import Direction
from repro.spec.behavior import Behavior
from repro.spec.expr import Index, Ref
from repro.spec.stmt import Assign
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable


@dataclass
class Fig3System:
    """The paper's Figure 3 example, built fresh per test."""

    system: SystemSpec
    partition: Partition
    channels: List[Channel]
    group: ChannelGroup
    P: Behavior
    Q: Behavior
    X: Variable
    MEM: Variable


def make_fig3() -> Fig3System:
    """Behaviors P and Q accessing variables X and MEM over 4 channels.

    P: ``X <= 32; Xt <= X; MEM(AD) <= Xt + 7``  (AD initialized to 5)
    Q: ``MEM(60) <= COUNT``                     (COUNT initialized to 42)

    Partitioned as in Figure 3: P, Q on module1; X, MEM on module2.
    """
    X = Variable("X", IntType(16))
    MEM = Variable("MEM", ArrayType(IntType(16), 64))
    AD = Variable("AD", IntType(16), init=5)
    COUNT = Variable("COUNT", IntType(16), init=42)
    Xt = Variable("Xt", IntType(16))

    P = Behavior("P", [
        Assign(X, 32),
        Assign(Xt, Ref(X)),
        Assign((MEM, Ref(AD)), Ref(Xt) + 7),
    ], local_variables=[AD, Xt])
    Q = Behavior("Q", [
        Assign((MEM, 60), Ref(COUNT)),
    ], local_variables=[COUNT])

    system = SystemSpec("fig3", [P, Q], [X, MEM])
    partition = Partition(system)
    module1 = partition.add_module("module1")
    module2 = partition.add_module("module2")
    partition.assign(P, module1)
    partition.assign(Q, module1)
    partition.assign(X, module2)
    partition.assign(MEM, module2)
    partition.validate()

    channels = extract_channels(partition)
    group = default_bus_groups(partition, channels=channels)[0]
    return Fig3System(system=system, partition=partition,
                      channels=channels, group=group,
                      P=P, Q=Q, X=X, MEM=MEM)


#: Expected final values of the Figure 3 run (P then Q).
FIG3_EXPECTED = {"X": 32, "MEM[5]": 39, "MEM[60]": 42}


@pytest.fixture
def fig3() -> Fig3System:
    return make_fig3()


@contextmanager
def cold_proof_table():
    """The process-wide proof table emptied, and restored on exit:
    every channel proof in between is derived afresh."""
    saved = PROOFS.clean
    PROOFS.clean = FifoTable(saved.limit)
    try:
        yield
    finally:
        PROOFS.clean = saved


@pytest.fixture
def cold_proofs():
    with cold_proof_table():
        yield


@pytest.fixture(scope="session")
def flc() -> FlcModel:
    """The FLC model (session-scoped: building it is cheap, but many
    tests share it read-only)."""
    return build_flc(250, 180)


def assert_fig3_values(final_values) -> None:
    """Assert the canonical Figure 3 outcome on a final-value dict."""
    assert final_values["X"] == 32
    assert final_values["MEM"][5] == 39
    assert final_values["MEM"][60] == 42


def make_pair(protocol, width=8, direction=Direction.WRITE, count=2,
              plan=None):
    """Synthesized (accessor, server, structure) of the first of
    ``count`` array channels sharing a hand-built bus."""
    channels = []
    for i in range(count):
        arr = Variable("arr", ArrayType(IntType(16), 128))
        channels.append(Channel(f"ch{i}", Behavior(f"B{i}"), arr,
                                direction, 1))
    group = ChannelGroup("g", channels)
    structure = make_structure("B", group, width, protocol,
                               protection=plan)
    pair = make_procedures(channels[0], protocol)
    accessor = synthesize_fsm(pair.accessor, structure)
    server = synthesize_fsm(pair.server, structure)
    return accessor, server, structure
