"""The fuzzer's schedule grammar and its canonical JSON form.

A :class:`Schedule` is a *complete, self-contained* description of one
fuzz run: the cluster shape (process/name-server counts, group layout,
initial membership), the root seed every random stream derives from, and
an ordered list of :class:`Step`\\ s — fault and workload actions applied
one after another with a simulated pause between them.

Because the cluster, the link model and every protocol timer draw all
randomness from the schedule's seed through the stream-split
:class:`~repro.runtime.rng.RngRegistry`, replaying a schedule reproduces the
original run *bit for bit*: same event interleaving, same trace stream,
same outcome.  That is what makes shrinking and frozen regression
corpora possible.

Step kinds
----------

``partition``   install the given blocks (lists of node ids; processes
                and name servers alike).  Issued while already
                partitioned it *re*-partitions, so a schedule expresses
                partial heals as successive ``partition`` steps with
                coarser blocks.
``heal``        merge all blocks back into one network.
``crash``       fail-stop ``node`` (no-op if already crashed).
``recover``     restart ``node`` with a clean slate (no-op if alive).
``join``        ``node`` joins LWG ``group`` (no-op if member/crashed).
``leave``       ``node`` leaves LWG ``group`` (no-op if not a member).
``burst``       ``node`` multicasts ``count`` messages to ``group``.
``settle``      nothing — just advance time by ``delay_us``.
``crash_recover``  fail-stop ``node``, keep it down for ``down_us``,
                then restart it *in one atomic step*, with a bumped
                incarnation.  A restarted name server comes back with an
                empty database.  Works on processes and name servers
                alike.

Every step carries ``delay_us``: how far the simulation advances after
the action is applied.  Loading rejects any key the schema does not
read and any unknown step kind, so a file written for a retired option
or step never replays silently as something else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Sequence, Tuple

from ..sim.engine import MS

STEP_KINDS = (
    "partition",
    "heal",
    "crash",
    "recover",
    "join",
    "leave",
    "burst",
    "settle",
    "crash_recover",
)

#: Default pause after a step (microseconds).
DEFAULT_DELAY_US = 1_200 * MS

#: Schema version stamped into every serialized schedule.
SCHEMA_VERSION = 1


def _reject_unknown_keys(data: Dict, known: Iterable[str]) -> None:
    unknown = sorted(set(data).difference(known))
    if unknown:
        raise ValueError(f"unknown schedule key(s): {', '.join(map(repr, unknown))}")


@dataclass(frozen=True)
class Step:
    """One fault/workload action in a schedule."""

    kind: str
    node: str = ""
    group: str = ""
    blocks: Tuple[Tuple[str, ...], ...] = ()
    count: int = 0
    delay_us: int = DEFAULT_DELAY_US
    #: ``crash_recover``: simulated downtime between the crash and the
    #: restart.
    down_us: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")

    def describe(self) -> str:
        """Compact one-line rendering, used in logs and artifacts."""
        if self.kind == "partition":
            body = "|".join(",".join(block) for block in self.blocks)
        elif self.kind == "burst":
            body = f"{self.node}->{self.group} x{self.count}"
        elif self.kind in ("join", "leave"):
            body = f"{self.node}:{self.group}"
        elif self.kind in ("crash", "recover"):
            body = self.node
        elif self.kind == "crash_recover":
            body = f"{self.node} down {self.down_us // 1000}ms"
        else:
            body = ""
        suffix = f" +{self.delay_us // 1000}ms"
        return f"{self.kind}({body}){suffix}"

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "delay_us": self.delay_us}
        if self.node:
            out["node"] = self.node
        if self.group:
            out["group"] = self.group
        if self.blocks:
            out["blocks"] = [list(block) for block in self.blocks]
        if self.count:
            out["count"] = self.count
        if self.down_us:
            out["down_us"] = self.down_us
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "Step":
        _reject_unknown_keys(data, (f.name for f in fields(cls)))
        return cls(
            kind=data["kind"],
            node=data.get("node", ""),
            group=data.get("group", ""),
            blocks=tuple(tuple(block) for block in data.get("blocks", ())),
            count=int(data.get("count", 0)),
            delay_us=int(data.get("delay_us", DEFAULT_DELAY_US)),
            down_us=int(data.get("down_us", 0)),
        )


@dataclass
class Schedule:
    """A complete, replayable fuzz scenario."""

    seed: int
    num_processes: int = 6
    num_name_servers: int = 2
    groups: Tuple[str, ...] = ("s0", "s1", "s2")
    #: group -> nodes joined before the fault schedule starts.
    initial_members: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Time to converge the initial membership before step 0.
    settle_us: int = 8_000 * MS
    #: Time allowed for quiescence after the last step (simulated).
    quiesce_timeout_us: int = 120_000 * MS
    steps: List[Step] = field(default_factory=list)
    profile: str = "mixed"
    label: str = ""

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    @property
    def process_ids(self) -> List[str]:
        return [f"p{i}" for i in range(self.num_processes)]

    @property
    def name_server_ids(self) -> List[str]:
        return [f"ns{i}" for i in range(self.num_name_servers)]

    def describe(self) -> str:
        lines = [
            f"schedule {self.label or '(unnamed)'}: seed={self.seed} "
            f"profile={self.profile} processes={self.num_processes} "
            f"groups={list(self.groups)} steps={len(self.steps)}"
        ]
        for index, step in enumerate(self.steps):
            lines.append(f"  [{index:02d}] {step.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Canonical JSON form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": SCHEMA_VERSION,
            "label": self.label,
            "profile": self.profile,
            "seed": self.seed,
            "num_processes": self.num_processes,
            "num_name_servers": self.num_name_servers,
            "groups": list(self.groups),
            "initial_members": {
                group: list(members)
                for group, members in sorted(self.initial_members.items())
            },
            "settle_us": self.settle_us,
            "quiesce_timeout_us": self.quiesce_timeout_us,
            "steps": [step.to_dict() for step in self.steps],
        }

    def to_json(self) -> str:
        """Canonical serialized form (stable key order, 2-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "Schedule":
        version = int(data.get("version", SCHEMA_VERSION))
        if version > SCHEMA_VERSION:
            raise ValueError(f"schedule schema version {version} not supported")
        _reject_unknown_keys(data, ["version", *(f.name for f in fields(cls))])
        return cls(
            seed=int(data["seed"]),
            num_processes=int(data.get("num_processes", 6)),
            num_name_servers=int(data.get("num_name_servers", 2)),
            groups=tuple(data.get("groups", ())),
            initial_members={
                group: tuple(members)
                for group, members in data.get("initial_members", {}).items()
            },
            settle_us=int(data.get("settle_us", 8_000 * MS)),
            quiesce_timeout_us=int(data.get("quiesce_timeout_us", 120_000 * MS)),
            steps=[Step.from_dict(step) for step in data.get("steps", [])],
            profile=data.get("profile", "mixed"),
            label=data.get("label", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def replace_steps(self, steps: Sequence[Step]) -> "Schedule":
        """A copy of this schedule with a different step list."""
        return Schedule(
            seed=self.seed,
            num_processes=self.num_processes,
            num_name_servers=self.num_name_servers,
            groups=self.groups,
            initial_members=dict(self.initial_members),
            settle_us=self.settle_us,
            quiesce_timeout_us=self.quiesce_timeout_us,
            steps=list(steps),
            profile=self.profile,
            label=self.label,
        )
