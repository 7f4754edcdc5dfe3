"""Naming scale-out: sharded replica sets vs full replication.

PROTOCOLS.md §18 shards the naming service by LWG-name hash, pinning
each shard to a rendezvous-hashed replica set of ``replication_factor``
servers.  The payoff claimed there is *scale-out*: adding servers
divides the per-server load instead of multiplying the replication
bill.  This bench sweeps the roster 4 -> 16 -> 64 at rf=3 under a fixed
write campaign and checks both halves of that claim:

* per-server outbound naming bytes, message count and resident records
  all *fall* (or at worst stay flat) as the roster grows — the work is
  divided, not duplicated;
* at 16 servers the sharded deployment costs ≤0.35x the
  fully-replicated equivalent in per-server bytes and records.
"""

from conftest import SEED

from repro.metrics import series_table, shape_check
from repro.naming.client import NamingClient
from repro.naming.records import MappingRecord
from repro.naming.server import NameServer
from repro.naming.sharding import ShardMap
from repro.sim import MS, SECOND, SimRuntime
from repro.vsync.locator import GroupAddressing
from repro.vsync.stack import ProtocolStack
from repro.vsync.view import ViewId

SCALEOUT_SWEEP = (4, 16, 64)
SCALEOUT_RF = 3
SCALEOUT_WRITES = 192
SCALEOUT_SETTLE_S = 4


def shard_scaleout_workload(seed, num_servers, replication_factor):
    """Per-server naming load for one deployment shape.

    ``replication_factor=0`` means a fully replicated map — every
    server owns every shard (the comparison baseline).  One client writes
    :data:`SCALEOUT_WRITES` distinct LWG mappings (no parents, so the
    exchange cost is records, not genealogy), the cluster settles
    through several gossip periods, and every server's outbound naming
    traffic is metered at its own ``send``/``multicast`` seam — a
    multicast to ``k`` destinations counts ``k`` times its size, the
    same accounting the fabric uses.
    """
    env = SimRuntime.create(seed=seed, keep_trace=False)
    server_ids = [f"ns{i}" for i in range(num_servers)]
    shard_map = ShardMap(server_ids, replication_factor or num_servers)
    bytes_sent = {node: 0 for node in server_ids}
    msgs_sent = {node: 0 for node in server_ids}
    servers = {}
    for node in server_ids:
        server = NameServer(env, node, peers=server_ids, shard_map=shard_map)
        servers[node] = server
        original_send, original_multicast = server.send, server.multicast

        def send(dst, msg, size=256, _n=node, _s=original_send):
            bytes_sent[_n] += size
            msgs_sent[_n] += 1
            return _s(dst, msg, size)

        def multicast(dsts, msg, size=256, _n=node, _m=original_multicast):
            targets = list(dsts)
            bytes_sent[_n] += size * len(targets)
            msgs_sent[_n] += len(targets)
            return _m(targets, msg, size)

        server.send = send
        server.multicast = multicast
    stack = ProtocolStack(env, "p0", GroupAddressing())
    client = NamingClient(stack, server_ids, shard_map=shard_map)
    acked = [0]
    for i in range(SCALEOUT_WRITES):
        record = MappingRecord(
            lwg=f"lwg:{i}", lwg_view=ViewId("p0", 1), lwg_members=("p0",),
            hwg=f"hwg:{i % 7}", hwg_view=ViewId("h", 1),
            version=client.next_version(), writer="p0",
        )
        client.set(record, on_reply=lambda _r: acked.__setitem__(0, acked[0] + 1))
        env.run_for(10 * MS)
    env.run_for(SCALEOUT_SETTLE_S * SECOND)
    assert acked[0] == SCALEOUT_WRITES, f"{acked[0]} of {SCALEOUT_WRITES} acked"
    resident = [len(s.db) for s in servers.values()]
    if not shard_map.fully_replicated:
        # Each write must live on exactly its replica set, nowhere else.
        assert sum(resident) == SCALEOUT_WRITES * replication_factor
    return {
        "bytes_per_server": sum(bytes_sent.values()) / num_servers,
        "msgs_per_server": sum(msgs_sent.values()) / num_servers,
        "records_per_server": sum(resident) / num_servers,
        "records_max": max(resident),
        "client_retries": client.retries,
    }


def run_scaleout():
    sweep = [
        shard_scaleout_workload(SEED, n, SCALEOUT_RF) for n in SCALEOUT_SWEEP
    ]
    full_16 = shard_scaleout_workload(SEED, 16, 0)
    return sweep, full_16


def test_shard_scaleout(benchmark):
    sweep, full_16 = benchmark.pedantic(run_scaleout, rounds=1, iterations=1)
    by_n = dict(zip(SCALEOUT_SWEEP, sweep))
    print(
        series_table(
            f"Naming scale-out — n servers at rf={SCALEOUT_RF}, fixed write campaign",
            "n",
            list(SCALEOUT_SWEEP),
            {
                "bytes/server": [r["bytes_per_server"] for r in sweep],
                "msgs/server": [r["msgs_per_server"] for r in sweep],
                "records/server": [r["records_per_server"] for r in sweep],
                "records max": [r["records_max"] for r in sweep],
            },
            note=f"fully-replicated n=16 for comparison: "
            f"{full_16['bytes_per_server']:.0f} bytes/server, "
            f"{full_16['records_per_server']:.0f} records/server",
        )
    )
    bytes_ratio = by_n[16]["bytes_per_server"] / full_16["bytes_per_server"]
    records_ratio = by_n[16]["records_per_server"] / full_16["records_per_server"]
    checks = [
        shape_check(
            f"per-server bytes fall with roster growth "
            f"({by_n[4]['bytes_per_server']:.0f} -> {by_n[64]['bytes_per_server']:.0f})",
            by_n[64]["bytes_per_server"] <= 1.1 * by_n[4]["bytes_per_server"],
        ),
        shape_check(
            f"per-server records fall with roster growth "
            f"({by_n[4]['records_per_server']:.0f} -> {by_n[64]['records_per_server']:.0f})",
            by_n[64]["records_per_server"] <= 1.1 * by_n[4]["records_per_server"],
        ),
        shape_check(
            f"per-server messages fall with roster growth "
            f"({by_n[4]['msgs_per_server']:.0f} -> {by_n[64]['msgs_per_server']:.0f})",
            by_n[64]["msgs_per_server"] <= 1.1 * by_n[4]["msgs_per_server"],
        ),
        shape_check(
            f"sharded/full bytes at n=16 ({bytes_ratio:.3f}) <= 0.35",
            bytes_ratio <= 0.35,
        ),
        shape_check(
            f"sharded/full records at n=16 ({records_ratio:.3f}) <= 0.35",
            records_ratio <= 0.35,
        ),
        shape_check(
            "no client retries at any roster size",
            all(r["client_retries"] == 0 for r in sweep),
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
