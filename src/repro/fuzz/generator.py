"""Random schedule generation from stream-split seeds.

One :class:`ScheduleGenerator` is built from a root seed; iteration
``i`` draws every choice from ``RngRegistry(root).fork(f"iter:{i}")``,
so:

* the whole campaign is reproducible from ``(seed, profile)`` alone;
* iterations are mutually independent — re-running iteration 17 never
  requires generating iterations 0..16 first;
* adding a new kind of random choice consumes from its own named stream
  and leaves existing draws untouched (runs stay comparable across
  fuzzer changes).

Profiles weight the step mix:

``partition``  multi-way splits, partial heals (re-partitions with
               coarser blocks), light churn;
``churn``      join/leave/crash/recover heavy, occasional splits;
``mixed``      everything, including message bursts (the default);
``recovery``   crash_recover heavy — incarnation bumps and name
               servers that restart empty, under concurrent partitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..sim.engine import MS
from ..runtime.rng import RngRegistry
from .schedule import Schedule, Step

PROFILES = ("partition", "churn", "mixed", "recovery")

#: step kind -> weight, per profile.
_PROFILE_WEIGHTS: Dict[str, Dict[str, float]] = {
    "partition": {
        "partition": 5.0,
        "heal": 3.0,
        "crash": 0.5,
        "recover": 0.5,
        "join": 1.5,
        "leave": 0.5,
        "burst": 1.5,
        "settle": 0.5,
    },
    "churn": {
        "partition": 0.5,
        "heal": 1.0,
        "crash": 1.5,
        "recover": 1.5,
        "join": 4.0,
        "leave": 2.5,
        "burst": 1.0,
        "settle": 0.5,
    },
    "mixed": {
        "partition": 1.5,
        "heal": 2.0,
        "crash": 1.0,
        "recover": 1.0,
        "join": 3.0,
        "leave": 2.0,
        "burst": 2.0,
        "settle": 0.5,
        "crash_recover": 1.2,
    },
    "recovery": {
        "partition": 1.5,
        "heal": 2.0,
        "crash": 0.5,
        "recover": 0.5,
        "join": 2.0,
        "leave": 1.0,
        "burst": 1.0,
        "settle": 0.5,
        "crash_recover": 5.5,
    },
}

_DELAY_CHOICES_US = (600 * MS, 1_000 * MS, 1_500 * MS, 2_000 * MS)

#: ``crash_recover`` downtime choices.
_DOWN_CHOICES_US = (200 * MS, 500 * MS, 1_000 * MS, 2_000 * MS)


@dataclass
class GeneratorConfig:
    """Shape of the generated scenarios."""

    num_processes: int = 6
    num_name_servers: int = 2
    #: 0 = fully replicated naming (every server owns every shard); >0
    #: shards the namespace with this many replicas per shard
    #: (PROTOCOLS.md §18).
    replication_factor: int = 0
    num_groups: int = 3
    min_steps: int = 8
    max_steps: int = 16
    max_partition_blocks: int = 3
    max_burst: int = 6
    #: Members initially joined per group (overlapping layouts emerge
    #: because groups sample from the same small process pool).
    initial_per_group: int = 3


class ScheduleGenerator:
    """Derives one deterministic :class:`Schedule` per iteration index."""

    def __init__(
        self,
        seed: int,
        profile: str = "mixed",
        config: GeneratorConfig | None = None,
    ):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r} (want one of {PROFILES})")
        self.seed = int(seed)
        self.profile = profile
        self.config = config or GeneratorConfig()
        self.registry = RngRegistry(self.seed)

    # ------------------------------------------------------------------
    def generate(self, index: int) -> Schedule:
        """The schedule for iteration ``index`` (independent of others)."""
        fork = self.registry.fork(f"iter:{index}")
        rng = fork.stream("schedule")
        config = self.config
        processes = [f"p{i}" for i in range(config.num_processes)]
        servers = [f"ns{i}" for i in range(config.num_name_servers)]
        groups = tuple(f"s{i}" for i in range(config.num_groups))

        initial = self._initial_membership(rng, processes, groups)
        steps = self._steps(rng, processes, servers, groups, initial)
        return Schedule(
            seed=fork.stream("cluster-seed").randrange(2**31),
            num_processes=config.num_processes,
            num_name_servers=config.num_name_servers,
            replication_factor=config.replication_factor,
            groups=groups,
            initial_members=initial,
            steps=steps,
            profile=self.profile,
            label=f"fuzz-{self.seed}-{self.profile}{self._naming_tag()}-{index:04d}",
        )

    def _naming_tag(self) -> str:
        """``-ns<servers>[rf<factor>]`` off the default naming shape, else "".

        Campaigns that differ only in their name-server roster then pin
        their digests under distinct labels.
        """
        config, default = self.config, GeneratorConfig()
        shape = (config.num_name_servers, config.replication_factor)
        if shape == (default.num_name_servers, default.replication_factor):
            return ""
        rf = f"rf{config.replication_factor}" if config.replication_factor else ""
        return f"-ns{config.num_name_servers}{rf}"

    # ------------------------------------------------------------------
    def _initial_membership(
        self,
        rng: random.Random,
        processes: Sequence[str],
        groups: Sequence[str],
    ) -> Dict[str, Tuple[str, ...]]:
        """Overlapping group layouts over one shared process pool."""
        per_group = min(self.config.initial_per_group, len(processes))
        layout: Dict[str, Tuple[str, ...]] = {}
        for group in groups:
            size = rng.randint(max(1, per_group - 1), per_group)
            members = rng.sample(list(processes), size)
            layout[group] = tuple(sorted(members))
        return layout

    def _random_blocks(
        self,
        rng: random.Random,
        processes: Sequence[str],
        servers: Sequence[str],
    ) -> Tuple[Tuple[str, ...], ...]:
        """A random multi-way split; every block gets a server while they
        last (round-robin), so minority blocks can still resolve names."""
        num_blocks = rng.randint(2, min(self.config.max_partition_blocks, len(processes)))
        pool = list(processes)
        rng.shuffle(pool)
        # Random block sizes that sum to len(pool), each >= 1 (singleton
        # blocks are an explicitly wanted case).
        cuts = sorted(rng.sample(range(1, len(pool)), num_blocks - 1))
        blocks: List[List[str]] = []
        previous = 0
        for cut in cuts + [len(pool)]:
            blocks.append(pool[previous:cut])
            previous = cut
        for index, server in enumerate(servers):
            blocks[index % len(blocks)].append(server)
        return tuple(tuple(block) for block in blocks)

    def _steps(
        self,
        rng: random.Random,
        processes: Sequence[str],
        servers: Sequence[str],
        groups: Sequence[str],
        initial: Dict[str, Tuple[str, ...]],
    ) -> List[Step]:
        weights = _PROFILE_WEIGHTS[self.profile]
        kinds = list(weights)
        weight_values = [weights[kind] for kind in kinds]
        count = rng.randint(self.config.min_steps, self.config.max_steps)
        steps: List[Step] = []
        for _ in range(count):
            kind = rng.choices(kinds, weight_values)[0]
            delay = rng.choice(_DELAY_CHOICES_US)
            if kind == "partition":
                steps.append(
                    Step(
                        kind="partition",
                        blocks=self._random_blocks(rng, processes, servers),
                        delay_us=delay,
                    )
                )
            elif kind == "burst":
                steps.append(
                    Step(
                        kind="burst",
                        node=rng.choice(list(processes)),
                        group=rng.choice(list(groups)),
                        count=rng.randint(1, self.config.max_burst),
                        delay_us=delay,
                    )
                )
            elif kind in ("join", "leave"):
                steps.append(
                    Step(
                        kind=kind,
                        node=rng.choice(list(processes)),
                        group=rng.choice(list(groups)),
                        delay_us=delay,
                    )
                )
            elif kind in ("crash", "recover"):
                steps.append(
                    Step(kind=kind, node=rng.choice(list(processes)), delay_us=delay)
                )
            elif kind == "crash_recover":
                # Processes and name servers alike.
                steps.append(
                    Step(
                        kind="crash_recover",
                        node=rng.choice(list(processes) + list(servers)),
                        down_us=rng.choice(_DOWN_CHOICES_US),
                        delay_us=delay,
                    )
                )
            else:  # heal / settle
                steps.append(Step(kind=kind, delay_us=delay))
        return steps
