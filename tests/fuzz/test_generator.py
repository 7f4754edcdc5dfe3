"""Schedule generation: determinism, independence, well-formedness."""

import pytest

from repro.fuzz import PROFILES, GeneratorConfig, ScheduleGenerator, Step
from repro.fuzz.schedule import STEP_KINDS


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        ScheduleGenerator(0, profile="chaos")


def test_same_seed_same_schedules():
    a = ScheduleGenerator(7, "mixed").generate(3)
    b = ScheduleGenerator(7, "mixed").generate(3)
    assert a == b
    assert a.to_json() == b.to_json()


def test_iterations_are_independent():
    # generate(5) must not depend on whether earlier iterations ran —
    # that is what lets a single failing iteration be replayed alone.
    fresh = ScheduleGenerator(7, "mixed").generate(5)
    warmed = ScheduleGenerator(7, "mixed")
    for index in range(5):
        warmed.generate(index)
    assert warmed.generate(5) == fresh


def test_different_seeds_differ():
    a = ScheduleGenerator(1, "mixed").generate(0)
    b = ScheduleGenerator(2, "mixed").generate(0)
    assert a.steps != b.steps or a.seed != b.seed


@pytest.mark.parametrize("profile", PROFILES)
def test_schedules_are_well_formed(profile):
    config = GeneratorConfig(num_processes=5, num_groups=2)
    generator = ScheduleGenerator(11, profile, config=config)
    for index in range(10):
        schedule = generator.generate(index)
        processes = set(schedule.process_ids)
        servers = set(schedule.name_server_ids)
        assert config.min_steps <= len(schedule.steps) <= config.max_steps
        for group, members in schedule.initial_members.items():
            assert group in schedule.groups
            assert members and set(members) <= processes
        for step in schedule.steps:
            assert isinstance(step, Step)
            assert step.kind in STEP_KINDS
            if step.kind == "partition":
                assert 2 <= len(step.blocks) <= config.max_partition_blocks
                flat = [n for block in step.blocks for n in block]
                assert all(block for block in step.blocks)
                # Every process and name server lands in exactly one block.
                assert sorted(flat) == sorted(processes | servers)
            elif step.kind == "burst":
                assert step.node in processes
                assert step.group in schedule.groups
                assert 1 <= step.count <= config.max_burst
            elif step.kind in ("join", "leave"):
                assert step.node in processes
                assert step.group in schedule.groups
            elif step.kind in ("crash", "recover"):
                assert step.node in processes
            elif step.kind == "crash_recover":
                assert step.node in processes | servers
                assert step.down_us > 0


def test_singleton_blocks_do_occur():
    # The generator must be able to isolate a single process — an
    # explicitly wanted case for quorum/minority behaviour.
    generator = ScheduleGenerator(11, "partition")
    saw_singleton = False
    for index in range(20):
        for step in generator.generate(index).steps:
            if step.kind != "partition":
                continue
            if any(len([n for n in b if n.startswith("p")]) == 1 for b in step.blocks):
                saw_singleton = True
    assert saw_singleton


def test_recovery_profile_exercises_new_kinds():
    generator = ScheduleGenerator(3, "recovery")
    restarted = set()
    for index in range(10):
        for step in generator.generate(index).steps:
            if step.kind == "crash_recover":
                restarted.add(step.node)
    # Processes and name servers alike restart within a few runs.
    assert any(node.startswith("p") for node in restarted)
    assert any(node.startswith("ns") for node in restarted)


def test_labels_identify_campaign_and_iteration():
    schedule = ScheduleGenerator(7, "churn").generate(12)
    assert schedule.label == "fuzz-7-churn-0012"
    assert schedule.profile == "churn"


def test_labels_name_a_non_default_naming_shape():
    # Campaigns that differ only in their roster pin distinct labels.
    def label(**shape):
        return ScheduleGenerator(11, "recovery", GeneratorConfig(**shape)).generate(3).label

    assert label() == "fuzz-11-recovery-0003"
    assert label(num_name_servers=1) == "fuzz-11-recovery-ns1-0003"
    assert label(num_name_servers=4) == "fuzz-11-recovery-ns4-0003"
