"""Schedule grammar: validation, description, canonical JSON round-trip."""

import json
from pathlib import Path

import pytest

from repro.fuzz import DEFAULT_DELAY_US, Schedule, Step


def sample_schedule() -> Schedule:
    return Schedule(
        seed=12345,
        num_processes=4,
        num_name_servers=2,
        groups=("s0", "s1"),
        initial_members={"s0": ("p0", "p1"), "s1": ("p1", "p2", "p3")},
        steps=[
            Step(kind="partition", blocks=(("p0", "p1", "ns0"), ("p2",), ("p3", "ns1"))),
            Step(kind="burst", node="p1", group="s0", count=3, delay_us=600_000),
            Step(kind="crash", node="p2"),
            Step(kind="heal"),
            Step(kind="settle", delay_us=2_000_000),
        ],
        profile="mixed",
        label="sample",
    )


def test_unknown_step_kind_rejected():
    with pytest.raises(ValueError, match="unknown step kind"):
        Step(kind="explode")


def test_step_defaults():
    step = Step(kind="heal")
    assert step.delay_us == DEFAULT_DELAY_US
    assert step.node == "" and step.group == ""
    assert step.blocks == () and step.count == 0


def test_json_round_trip_preserves_everything():
    schedule = sample_schedule()
    clone = Schedule.from_json(schedule.to_json())
    assert clone == schedule


def test_json_is_canonical():
    schedule = sample_schedule()
    text = schedule.to_json()
    # Stable bytes: serializing twice (and after a round trip) matches.
    assert text == schedule.to_json()
    assert text == Schedule.from_json(text).to_json()
    data = json.loads(text)
    assert data["version"] == 1
    assert list(data) == sorted(data)


def test_future_schema_version_rejected():
    data = sample_schedule().to_dict()
    data["version"] = 99
    with pytest.raises(ValueError, match="schema version"):
        Schedule.from_dict(data)


def test_replace_steps_copies_without_aliasing():
    schedule = sample_schedule()
    shorter = schedule.replace_steps(schedule.steps[:2])
    assert len(shorter.steps) == 2
    assert len(schedule.steps) == 5
    assert shorter.seed == schedule.seed
    assert shorter.initial_members == schedule.initial_members
    shorter.initial_members["s9"] = ("p0",)
    assert "s9" not in schedule.initial_members


def test_describe_mentions_every_step():
    schedule = sample_schedule()
    text = schedule.describe()
    assert "sample" in text
    assert "partition(p0,p1,ns0|p2|p3,ns1)" in text
    assert "burst(p1->s0 x3)" in text
    assert "crash(p2)" in text


def test_derived_node_ids():
    schedule = sample_schedule()
    assert schedule.process_ids == ["p0", "p1", "p2", "p3"]
    assert schedule.name_server_ids == ["ns0", "ns1"]


def test_flat_schedule_json_omits_zoning_fields():
    # Schedule JSON has no topology/zones keys and no per-step zones.
    data = json.loads(sample_schedule().to_json())
    assert "topology" not in data and "zones" not in data
    assert all("zone" not in step for step in data["steps"])


def test_unknown_keys_rejected():
    # A file carrying a retired option must not replay as something else.
    path = Path(__file__).parent / "corpus" / "partition-0003.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    Schedule.from_dict(data)
    with pytest.raises(ValueError, match="'topology'"):
        Schedule.from_dict({**data, "topology": "zoned"})
    step = {**data["steps"][0], "zone": 1}
    with pytest.raises(ValueError, match="'zone'"):
        Schedule.from_dict({**data, "steps": [step]})


def test_retired_placement_key_rejected():
    # Placement is always the Figure-1 rules; an old optimizer schedule
    # must fail loudly rather than replay under them.
    path = Path(__file__).parent / "corpus" / "mixed-0001.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match="'placement'"):
        Schedule.from_dict({**data, "placement": "optimizer"})


def test_retired_replication_factor_rejected():
    # Every name server holds every record; a schedule written for a
    # sharded roster must fail loudly rather than replay fully replicated.
    path = Path(__file__).parent / "corpus" / "mixed-0003.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    Schedule.from_dict(data)
    with pytest.raises(ValueError, match="'replication_factor'"):
        Schedule.from_dict({**data, "replication_factor": 2})


def test_retired_corrupt_state_rejected():
    # A schedule written for the retired store-corruption step must
    # fail loudly, not replay as something else.
    path = Path(__file__).parent / "corpus" / "recovery-0000.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    step = {**data["steps"][0], "kind": "corrupt_state"}
    with pytest.raises(ValueError, match="'corrupt_state'"):
        Schedule.from_dict({**data, "steps": [step]})
    step = {**data["steps"][0], "mode": "bit_flip"}
    with pytest.raises(ValueError, match="'mode'"):
        Schedule.from_dict({**data, "steps": [step]})
