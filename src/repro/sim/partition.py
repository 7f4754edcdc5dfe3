"""Scripted partition schedules.

The paper distinguishes *real* partitions (router/link crashes) from
*virtual* partitions (overload-induced timeouts) that "tend to disappear
and heal faster".  Both are expressed here as timed reconfigurations of
the :class:`~repro.sim.network.Network` partition blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from .engine import Simulation
from .network import Network, NodeId


@dataclass(frozen=True)
class PartitionEvent:
    """One scheduled change to the network's partition blocks.

    ``blocks`` is the full block list to install; an empty list means
    *heal* (everyone back in one block).
    """

    time: int
    blocks: Sequence[Sequence[NodeId]] = field(default_factory=tuple)

    @property
    def is_heal(self) -> bool:
        return len(self.blocks) <= 1


class PartitionSchedule:
    """A timed script of partition and heal events.

    Example::

        schedule = PartitionSchedule()
        schedule.split_at(2_000_000, [["p0", "p1"], ["p2", "p3"]])
        schedule.heal_at(5_000_000)
        schedule.apply(sim, network)
    """

    def __init__(self) -> None:
        self.events: List[PartitionEvent] = []

    def split_at(self, time: int, blocks: Sequence[Iterable[NodeId]]) -> "PartitionSchedule":
        """Install the given partition blocks at ``time``."""
        self.events.append(PartitionEvent(time, tuple(tuple(b) for b in blocks)))
        return self

    def heal_at(self, time: int) -> "PartitionSchedule":
        """Merge all blocks at ``time``."""
        self.events.append(PartitionEvent(time, tuple()))
        return self

    def virtual_partition(
        self, start: int, duration: int, blocks: Sequence[Iterable[NodeId]]
    ) -> "PartitionSchedule":
        """A short-lived partition that heals after ``duration`` microseconds."""
        self.split_at(start, blocks)
        self.heal_at(start + duration)
        return self

    def apply(self, sim: Simulation, network: Network) -> None:
        """Schedule every event of this script on the simulation."""
        for event in sorted(self.events, key=lambda e: e.time):
            if event.is_heal:
                sim.schedule_at(event.time, network.heal)
            else:
                sim.schedule_at(event.time, network.set_partitions, event.blocks)

    def __len__(self) -> int:
        return len(self.events)
