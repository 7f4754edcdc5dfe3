"""Naming-service benchmarks (Section 5.2 / 6.1 design choices).

* **reconciliation cost** — merging two replicas that diverged by N
  mappings each: time and records exchanged, vs N.  Reconciliation is
  the heal-time hot path, so it must scale linearly in the delta.
* **callback vs poll** — Section 6.1 rejects periodic polling because it
  "could load the servers with unnecessary requests".  We count naming
  messages under the callback design and compare with the polling
  traffic the paper's alternative would generate.
* **Merkle descent at scale** — anti-entropy between two 100k-record
  replicas with a small divergence: bytes on the wire and rounds to
  convergence vs the flat-digest exchange it replaced (PROTOCOLS.md
  §16).
"""

from conftest import SEED

from repro.metrics import format_table, series_table, shape_check
from repro.naming import MappingRecord, NamingDatabase, absorb
from repro.naming.merkle import DEFAULT_DEPTH
from repro.naming.messages import SyncReply, SyncRequest
from repro.naming.reconciliation import (
    databases_identical,
    genealogy_to_send,
    merkle_exchange,
    records_to_send,
)
from repro.sim import SECOND
from repro.vsync.view import ViewId
from repro.workloads import build_partition_scenario

DB_SIZES = (10, 100, 1000)


def build_diverged_pair(n):
    """Two replicas, each holding n mappings the other lacks."""
    left, right = NamingDatabase(), NamingDatabase()
    for i in range(n):
        left.apply(MappingRecord(
            lwg=f"lwg:l{i}", lwg_view=ViewId("pl", i), lwg_members=("pl",),
            hwg=f"hwg:l{i % 7}", hwg_view=ViewId("h", i), version=1, writer="pl",
        ), parents=[ViewId("pl", i - 1)] if i else [])
        right.apply(MappingRecord(
            lwg=f"lwg:r{i}", lwg_view=ViewId("pr", i), lwg_members=("pr",),
            hwg=f"hwg:r{i % 7}", hwg_view=ViewId("h", i), version=1, writer="pr",
        ), parents=[ViewId("pr", i - 1)] if i else [])
    return left, right


def reconcile_pair(left, right):
    """The 3-message push-pull exchange, as pure computation."""
    to_left = records_to_send(right, left.digest())
    absorb(left, to_left, genealogy_to_send(right, left.genealogy_edges()))
    to_right = records_to_send(left, right.digest())
    absorb(right, to_right, genealogy_to_send(left, right.genealogy_edges()))
    return len(to_left) + len(to_right)


def test_reconciliation_cost_scales_linearly(benchmark):
    def scan():
        rows = []
        for n in DB_SIZES:
            left, right = build_diverged_pair(n)
            exchanged = reconcile_pair(left, right)
            rows.append([n, exchanged, len(left), len(right)])
        return rows

    rows = benchmark.pedantic(scan, rounds=1, iterations=1)
    print(
        format_table(
            "Naming reconciliation — records exchanged vs divergence",
            ["mappings per side", "records exchanged", "left size", "right size"],
            rows,
        )
    )
    checks = [
        shape_check(
            "exchange volume is exactly the divergence (2n)",
            all(row[1] == 2 * row[0] for row in rows),
        ),
        shape_check(
            "replicas converge to the union",
            all(row[2] == row[3] == 2 * row[0] for row in rows),
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)


def test_reconcile_1000_mappings(benchmark):
    """Raw speed of a 1000-vs-1000 record reconciliation."""

    def run():
        left, right = build_diverged_pair(1000)
        return reconcile_pair(left, right)

    exchanged = benchmark(run)
    assert exchanged == 2000


# ----------------------------------------------------------------------
# Merkle descent vs flat-digest exchange at 100k records
# ----------------------------------------------------------------------
RECONCILE_SHARED = 100_000
RECONCILE_DIVERGED = 64  # fresh records per side
RECONCILE_UPDATED = 16  # shared records one side holds in a newer version

#: Flat-design costing (PR 5's retired 3-message push-pull): 48 bytes
#: per digest entry, 96 per record, 96 per message envelope — the same
#: rates the Merkle messages are costed at, so the comparison is about
#: *which* entries travel, not the encoding.
_FLAT_DIGEST_ENTRY = 48
_RECORD_BYTES = 96
_ENVELOPE_BYTES = 96

#: Prebuilt shared base per seed — building 100k records dominates the
#: workload's first run, so repeats fork cheap clones instead.
_RECONCILE_BASE = {}


def _reconcile_record(lwg, coord, i, version=1):
    return MappingRecord(
        lwg=lwg, lwg_view=ViewId(coord, i), lwg_members=(coord,),
        hwg=f"hwg:{i % 9}", hwg_view=ViewId("h", i), version=version, writer=coord,
    )


def _reconcile_pair(seed):
    """Two 100k-record replicas with a small, realistic divergence.

    Each side holds ``RECONCILE_DIVERGED`` fresh records the other
    lacks (with a genealogy edge each) and ``RECONCILE_UPDATED``
    shared records re-registered at a newer version — the remote-newer
    digest case a pure "missing keys" exchange would miss.
    """
    base = _RECONCILE_BASE.get(seed)
    if base is None:
        base = NamingDatabase()
        for i in range(RECONCILE_SHARED):
            base.apply(_reconcile_record(f"lwg:s{i}", "ps", i))
        base.content_hash()  # pre-warm the Merkle hash cache
        _RECONCILE_BASE[seed] = base
    left, right = base.clone(), base.clone()
    for i in range(RECONCILE_DIVERGED):
        left.apply(
            _reconcile_record(f"lwg:l{i}", "pl", i + 1),
            parents=[ViewId("pl", i)],
        )
        right.apply(
            _reconcile_record(f"lwg:r{i}", "pr", i + 1),
            parents=[ViewId("pr", i)],
        )
    for i in range(RECONCILE_UPDATED):
        left.apply(_reconcile_record(f"lwg:s{2 * i}", "ps", 2 * i, version=2))
        right.apply(_reconcile_record(f"lwg:s{2 * i + 1}", "ps", 2 * i + 1, version=2))
    return left, right


def reconcile_delta_workload(seed):
    """Wire cost of the Merkle-prefix descent at 100k-record scale.

    Runs the real descent engine (the same :class:`MerkleSession` loop
    the server drives, one message per step) between two replicas that
    diverge by a few dozen records, weighs every step with the actual
    ``SyncRequest``/``SyncReply`` sizes, and compares against what PR
    5's flat-digest 3-message exchange would have shipped for the same
    divergence.  The workload *asserts* the design's acceptance bounds —
    ≤0.1x flat bytes, O(log n) rounds, byte-identical fixed point — so
    a regression fails loudly even before the shape checks print.
    """
    left, right = _reconcile_pair(seed)
    flat_digest_entries = len(left) + len(right)

    transcript = merkle_exchange(left, right)
    merkle_bytes = 0
    merkle_records = 0
    for step_no, (sender_label, delta) in enumerate(transcript):
        sender = "nsA" if sender_label == "left" else "nsB"
        if step_no == 0:
            message = SyncRequest(
                sender=sender, sync_id=1, db_hash="x" * 16,
                expansions=delta.expansions,
                genealogy_children=delta.genealogy_children,
            )
        else:
            message = SyncReply(
                sender=sender, sync_id=1, round_no=step_no,
                expansions=delta.expansions,
                leaf_digests=delta.leaf_digests,
                records=delta.records,
                genealogy=delta.genealogy,
                genealogy_children=delta.genealogy_children,
            )
        merkle_bytes += message.size_bytes()
        merkle_records += len(delta.records)
    rounds = len(transcript)

    # What the retired design would pay: both full digests travel, then
    # the records — regardless of how small the divergence is.  The
    # record set is identical in both designs (the LWW delta), so the
    # descent's own shipment count prices the flat exchange too.
    flat_bytes = (
        3 * _ENVELOPE_BYTES
        + _FLAT_DIGEST_ENTRY * flat_digest_entries
        + _RECORD_BYTES * merkle_records
    )

    assert databases_identical([left, right])
    assert rounds <= 2 * (DEFAULT_DEPTH + 1), f"descent took {rounds} rounds"
    assert merkle_bytes <= 0.1 * flat_bytes, (
        f"merkle exchange shipped {merkle_bytes}B vs flat {flat_bytes}B"
    )

    # Converged replicas short-circuit the next exchange on the hash:
    # one opener, one in_sync acknowledgement.
    steady_bytes = (
        SyncRequest(
            sender="nsA", sync_id=2, db_hash=left.content_hash(),
            expansions={"": left.merkle.children("")},
            genealogy_children=tuple(left.genealogy_edges()),
        ).size_bytes()
        + SyncReply(sender="nsB", sync_id=2, in_sync=True).size_bytes()
    )

    return {
        "records": len(left),
        "merkle_bytes": merkle_bytes,
        "flat_bytes": flat_bytes,
        "bytes_ratio": round(merkle_bytes / flat_bytes, 4),
        "rounds": rounds,
        "records_shipped": merkle_records,
        "steady_bytes": steady_bytes,
    }


def test_merkle_descent_100k(benchmark):
    """Anti-entropy at 100k records: the descent pays for the delta only.

    Two replicas sharing 100k records, each with a few dozen fresh and
    re-versioned mappings, reconciled by the real ``MerkleSession``
    loop with every step priced at its wire size.
    """

    def run():
        return reconcile_delta_workload(SEED)

    # Two rounds: the first builds the shared base, the kept (best)
    # round forks clones from it — the steady-state reconcile cost.
    extra = benchmark.pedantic(run, rounds=2, iterations=1)
    print(
        format_table(
            "Merkle-prefix descent vs flat-digest exchange — "
            f"{extra['records']} records per replica",
            ["metric", "value"],
            [
                ["records diverged", extra["records_shipped"]],
                ["descent rounds", extra["rounds"]],
                ["descent bytes", extra["merkle_bytes"]],
                ["flat-exchange bytes", extra["flat_bytes"]],
                ["bytes ratio", extra["bytes_ratio"]],
                ["steady-state handshake bytes", extra["steady_bytes"]],
            ],
        )
    )
    checks = [
        shape_check(
            f"descent ships <= 0.1x the flat exchange "
            f"({extra['merkle_bytes']} vs {extra['flat_bytes']} bytes)",
            extra["merkle_bytes"] <= 0.1 * extra["flat_bytes"],
        ),
        shape_check(
            f"convergence in O(log n) rounds ({extra['rounds']})",
            extra["rounds"] <= 10,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)


def test_callback_vs_poll_traffic(benchmark):
    """Section 6.1: "One possible way is to require group members to
    periodically inquire one of the reachable name servers.
    Unfortunately, this could load the servers with unnecessary
    requests.  Instead, we use the callback approach."

    Steady-state comparison over a quiet window: a converged system with
    no partitions.  The callback design costs nothing while nothing
    changes; the rejected polling design pays one read per member per
    LWG per poll period, forever.
    """

    QUIET_SECONDS = 30
    POLL_PERIOD_S = 0.5  # a plausible discovery-poll period

    def run():
        scenario = build_partition_scenario(num_groups=2, seed=SEED)
        cluster = scenario.cluster
        cluster.heal()
        assert cluster.run_until(scenario.converged, timeout_us=60 * SECOND)
        cluster.run_for_seconds(3)  # post-heal dust settles
        served_before = sum(s.requests_served for s in cluster.name_servers.values())
        callbacks_before = sum(
            s.notifier.notifications_sent for s in cluster.name_servers.values()
        )
        cluster.run_for_seconds(QUIET_SECONDS)
        served = sum(s.requests_served for s in cluster.name_servers.values())
        callbacks = sum(
            s.notifier.notifications_sent for s in cluster.name_servers.values()
        )
        members = len(cluster.process_ids)
        poll_equivalent = int(
            members * len(scenario.groups) * QUIET_SECONDS / POLL_PERIOD_S
        )
        return served - served_before, callbacks - callbacks_before, poll_equivalent

    requests, callbacks, poll_equivalent = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        format_table(
            "Section 6.1 — steady-state discovery load on the name servers "
            f"({QUIET_SECONDS}s quiet window)",
            ["design", "server requests"],
            [
                ["callbacks (implemented)", requests],
                ["  ... of which push callbacks", callbacks],
                ["per-member polling (rejected)", poll_equivalent],
            ],
        )
    )
    check = shape_check(
        f"callback design far below the polling equivalent "
        f"({requests} vs {poll_equivalent})",
        requests < poll_equivalent / 10,
    )
    print(check)
    assert check.startswith("[PASS]")
