"""Long-running churn: joins, leaves, crashes, partitions — then quiesce.

The strongest whole-stack test: a scripted schedule of membership churn
and failures runs against the dynamic service, after which the system
must quiesce into a consistent state:

* every surviving member of each LWG holds the same view;
* that view contains exactly the surviving members;
* every process's LWG rides the HWG its view coordinator registered;
* the naming service stores exactly one live mapping per surviving LWG.

The runner checks the first three; this file adds the naming one.
"""

from functools import partial

from repro.fuzz import CLEAN, Schedule, ScheduleRunner, Step

MS = 1_000

#: 1.5 s between steps.
S = partial(Step, delay_us=1_500 * MS)

PROCESSES = tuple(f"p{i}" for i in range(6))

#: The live processes split in halves, one name server each.
HALVES = (("p0", "p1", "p2", "ns0"), ("p3", "p4", "p5", "ns1"))
#: The same once p5 has crashed.
HALVES_WITHOUT_P5 = (("p0", "p1", "ns0"), ("p2", "p3", "p4", "ns1"))


def run_churn(seed, steps):
    """Everyone in g0, even indexes in g1; apply ``steps``; check quiescence."""
    schedule = Schedule(
        seed=seed,
        groups=("g0", "g1", "g2"),
        initial_members={"g0": PROCESSES, "g1": PROCESSES[::2]},
        steps=steps,
        label=f"churn-{seed}",
    )
    runner = ScheduleRunner(schedule)
    outcome = runner.run()
    assert outcome.classification == CLEAN, outcome.summary()
    # Naming converged too: one live mapping per non-empty group.
    for group, members in runner.expected.items():
        if not members:
            continue
        records = runner.cluster.name_servers["ns0"].db.live_records(f"lwg:{group}")
        assert len(records) == 1, (group, [str(r) for r in records])
        assert set(records[0].lwg_members) == members, (group, records[0])


def test_join_leave_churn():
    run_churn(101, [
        S("join", "p1", "g2"), S("join", "p3", "g2"), S("leave", "p0", "g1"),
        S("join", "p5", "g1"), S("leave", "p1", "g2"), S("join", "p0", "g2"),
        S("leave", "p2", "g0"), S("join", "p2", "g0"),
    ])


def test_churn_with_crashes():
    run_churn(102, [
        S("join", "p1", "g2"), S("crash", "p5"), S("join", "p3", "g2"),
        S("leave", "p0", "g1"), S("crash", "p3"), S("join", "p1", "g1"),
    ])


def test_churn_with_partition_and_heal():
    run_churn(103, [
        S("partition", blocks=HALVES), S("join", "p1", "g2"),
        S("join", "p4", "g2"), S("leave", "p2", "g0"), S("heal"),
        S("join", "p2", "g0"),
    ])


def test_churn_everything_at_once():
    run_churn(104, [
        S("partition", blocks=HALVES), S("join", "p1", "g2"), S("crash", "p5"),
        S("join", "p2", "g2"), S("heal"), S("leave", "p0", "g0"),
        S("partition", blocks=HALVES_WITHOUT_P5), S("join", "p4", "g1"),
        S("heal"), S("join", "p0", "g0"),
    ])


def test_repeated_partition_cycles_converge():
    cycle = [S("partition", blocks=HALVES), S("join", "p2", "g2"), S("heal")]
    run_churn(105, cycle * 3)
