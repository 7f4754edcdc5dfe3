"""End-to-end tests of naming client and servers over the sim network."""

import pytest

from tests.helpers import run_until

from repro.naming import MappingRecord, NameServer, NamingClient, databases_consistent
from repro.naming.messages import NsRequest, NsResponse, SyncReply
from repro.naming.reconciliation import DEFAULT_MAX_SYNC_ROUNDS
from repro.sim import MS, SECOND
from repro.vsync import GroupAddressing, ProtocolStack
from repro.vsync.view import ViewId


def setup(env, num_servers=2, clients=("p0",)):
    server_ids = [f"ns{i}" for i in range(num_servers)]
    servers = {i: NameServer(env, i, peers=server_ids) for i in server_ids}
    addressing = GroupAddressing()
    stacks = {c: ProtocolStack(env, c, addressing) for c in clients}
    naming_clients = {c: NamingClient(stacks[c], server_ids) for c in clients}
    return servers, stacks, naming_clients


def rec(client, lwg, view, hwg, members=("p0",)):
    return MappingRecord(
        lwg=lwg, lwg_view=view, lwg_members=members, hwg=hwg,
        hwg_view=ViewId("h", 1), version=client.next_version(), writer=client.node,
    )


def test_set_then_read(env):
    servers, stacks, clients = setup(env)
    client = clients["p0"]
    replies = []
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    client.read("lwg:a", lambda records: replies.append(records))
    env.sim.run_until(1 * SECOND)
    assert replies and replies[0][0].hwg == "hwg:1"


def test_testset_returns_existing_mapping(env):
    servers, stacks, clients = setup(env)
    client = clients["p0"]
    replies = []
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(1 * SECOND)
    proposal = rec(client, "lwg:a", ViewId("p0", 99), "hwg:LOSER")
    client.testset(proposal, on_reply=lambda records: replies.append(records))
    env.sim.run_until(2 * SECOND)
    hwgs = {r.hwg for r in replies[0]}
    assert "hwg:1" in hwgs
    # The losing proposal was not installed at the contacted server.
    assert all(not db_has(servers, "hwg:LOSER") for _ in [0])


def db_has(servers, hwg):
    return any(
        any(r.hwg == hwg for r in s.db.snapshot()) for s in servers.values()
    )


def test_testset_installs_when_absent(env):
    servers, stacks, clients = setup(env)
    client = clients["p0"]
    replies = []
    proposal = rec(client, "lwg:new", ViewId("p0", 1), "hwg:mine")
    client.testset(proposal, on_reply=lambda records: replies.append(records))
    env.sim.run_until(1 * SECOND)
    assert replies[0][0].hwg == "hwg:mine"


def test_eager_push_replicates_writes(env):
    servers, stacks, clients = setup(env)
    client = clients["p0"]
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(1 * SECOND)
    assert databases_consistent([s.db for s in servers.values()])
    assert all(len(s.db) == 1 for s in servers.values())


def test_unset_tombstones_mapping(env):
    servers, stacks, clients = setup(env)
    client = clients["p0"]
    view = ViewId("p0", 1)
    client.set(rec(client, "lwg:a", view, "hwg:1"))
    env.sim.run_until(1 * SECOND)
    tombstone = MappingRecord(
        lwg="lwg:a", lwg_view=view, lwg_members=("p0",), hwg="hwg:1",
        hwg_view=ViewId("h", 1), version=client.next_version(),
        writer=client.node, deleted=True,
    )
    client.unset(tombstone)
    env.sim.run_until(2 * SECOND)
    assert all(s.db.live_records("lwg:a") == [] for s in servers.values())


def test_client_retries_on_unreachable_server(env):
    servers, stacks, clients = setup(env, num_servers=2)
    client = clients["p0"]
    # Cut the client off from whichever server it would try first;
    # rotation must find the other one.
    env.network.set_partitions([["p0", "ns1"], ["ns0"]])
    replies = []
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"),
               on_reply=lambda records: replies.append(records))
    assert run_until(env, lambda: bool(replies), timeout_s=5)
    assert client.retries >= 0  # rotation may or may not have been needed
    assert len(servers["ns1"].db) == 1


class SilentStack:
    """The slice of ProtocolStack a NamingClient uses, on a wire that
    swallows every request: ``sent`` logs (sim-time, server)."""

    def __init__(self, env, node="p0"):
        self.env = env
        self.node = node
        self.sent = []

    def register_handler(self, kinds, handler):
        self.handler = handler

    def send(self, dst, msg, size):
        self.sent.append((self.env.now, dst))

    def set_timer(self, delay, callback):
        return self.env.scheduler.schedule(delay, callback)


def test_unanswered_request_backs_off_and_rotates(env):
    """One retry rule: the per-attempt timeout doubles from 150 ms to a
    4.8 s cap (a timeout under load means congestion, and a fixed-rate
    retry feeds it), each attempt going to the next server."""
    roster = ["ns0", "ns1", "ns2"]
    stack = SilentStack(env)
    client = NamingClient(stack, roster)
    client.read("lwg:a", lambda records: None)
    env.run_for(20 * SECOND)
    times = [at for at, _ in stack.sent[:8]]
    gaps_ms = [(b - a) // MS for a, b in zip(times, times[1:])]
    assert gaps_ms == [150, 300, 600, 1200, 2400, 4800, 4800]
    first = roster.index(stack.sent[0][1])
    assert [dst for _, dst in stack.sent[:8]] == [
        roster[(first + i) % 3] for i in range(8)
    ]
    assert client.retries == len(stack.sent) - 1


def test_reply_cancels_the_pending_retry(env):
    stack = SilentStack(env)
    client = NamingClient(stack, ["ns0", "ns1"])
    replies = []
    client.read("lwg:a", replies.append)
    env.run_for(1 * SECOND)  # three attempts out, the fourth armed
    assert len(stack.sent) == 3
    assert stack.handler("ns0", NsResponse(request_id=1, server="ns0", records=()))
    assert replies == [()]
    env.run_for(20 * SECOND)
    assert len(stack.sent) == 3


def test_gossip_reconciles_after_partition(env):
    servers, stacks, clients = setup(env, num_servers=2, clients=("p0", "p5"))
    env.network.set_partitions([["p0", "ns0"], ["p5", "ns1"]])
    c0, c5 = clients["p0"], clients["p5"]
    c0.set(rec(c0, "lwg:a", ViewId("p0", 1), "hwg:1"))
    c5.set(rec(c5, "lwg:a", ViewId("p5", 1), "hwg:2", members=("p5",)))
    env.sim.run_until(2 * SECOND)
    assert len(servers["ns0"].db) == 1
    assert len(servers["ns1"].db) == 1
    env.network.heal()
    assert run_until(
        env,
        lambda: databases_consistent([servers["ns0"].db, servers["ns1"].db])
        and len(servers["ns0"].db) == 2,
        timeout_s=5,
    )


def test_multiple_mappings_callback_reaches_coordinators(env):
    servers, stacks, clients = setup(env, num_servers=2, clients=("p0", "p5"))
    callbacks = {"p0": [], "p5": []}
    for node, client in clients.items():
        client.on_multiple_mappings = (
            lambda msg, n=node: callbacks[n].append(msg)
        )
    env.network.set_partitions([["p0", "ns0"], ["p5", "ns1"]])
    c0, c5 = clients["p0"], clients["p5"]
    c0.set(rec(c0, "lwg:a", ViewId("p0", 1), "hwg:1", members=("p0",)))
    c5.set(rec(c5, "lwg:a", ViewId("p5", 1), "hwg:2", members=("p5",)))
    env.sim.run_until(2 * SECOND)
    env.network.heal()
    assert run_until(env, lambda: callbacks["p0"] and callbacks["p5"], timeout_s=5)
    message = callbacks["p0"][0]
    assert message.lwg == "lwg:a"
    assert len(message.records) == 2


def test_synced_servers_short_circuit_gossip(env):
    """Once replicas match byte-for-byte, anti-entropy degenerates to a
    hash handshake: in_sync replies, no digests or records shipped."""
    servers, stacks, clients = setup(env)
    client = clients["p0"]
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(2 * SECOND)  # push + at least one full exchange
    from repro.naming import databases_identical
    assert databases_identical([s.db for s in servers.values()])
    before = {i: s.syncs_short_circuited for i, s in servers.items()}
    env.sim.run_until(5 * SECOND)  # several quiet gossip periods
    shorted = sum(
        s.syncs_short_circuited - before[i] for i, s in servers.items()
    )
    assert shorted >= 4
    assert databases_identical([s.db for s in servers.values()])
    # A fresh write breaks the fixed point; gossip must still converge it.
    client.set(rec(client, "lwg:b", ViewId("p0", 2), "hwg:2"))
    assert run_until(
        env,
        lambda: databases_identical([s.db for s in servers.values()])
        and len(servers["ns0"].db) == 2,
        timeout_s=5,
    )


def test_three_servers_converge(env):
    servers, stacks, clients = setup(env, num_servers=3)
    client = clients["p0"]
    for i in range(5):
        client.set(rec(client, f"lwg:g{i}", ViewId("p0", i + 1), f"hwg:{i}"))
    assert run_until(
        env,
        lambda: databases_consistent([s.db for s in servers.values()])
        and len(servers["ns0"].db) == 5,
        timeout_s=5,
    )


def test_client_fails_over_when_replica_dies_mid_request(env):
    servers, stacks, clients = setup(env, num_servers=4)
    client = clients["p0"]
    first = client.servers[client._server_offset]
    replies = []
    client.set(
        rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"),
        on_reply=lambda records: replies.append(records),
    )
    # The request is in flight; its target dies before answering.
    env.failures.crash_now(first)
    assert run_until(env, lambda: bool(replies), timeout_s=5)
    assert client.retries >= 1
    # The next server served the write and pushed it to every live peer.
    survivors = [s for node, s in servers.items() if node != first]
    assert run_until(
        env, lambda: all(s.db.live_records("lwg:a") for s in survivors), timeout_s=5
    )


def test_client_needs_a_server(env):
    with pytest.raises(ValueError, match="at least one server"):
        NamingClient(SilentStack(env), [])


def test_unknown_op_is_rejected(env):
    server = NameServer(env, "ns0")
    with pytest.raises(ValueError, match="unknown naming op 'bogus'"):
        server.on_message("p0", NsRequest(op="bogus", lwg="lwg:a"), 128)


def recording_server(env):
    """ns0 with peer ns1 and one record; ``sent`` logs its sends."""
    server = NameServer(env, "ns0", peers=["ns0", "ns1"])
    server.db.apply(MappingRecord(
        lwg="lwg:a", lwg_view=ViewId("p0", 1), lwg_members=("p0",), hwg="hwg:1",
        hwg_view=ViewId("h", 1), version=1, writer="p0",
    ))
    sent = []
    server.send = lambda dst, msg, size: sent.append((dst, msg))
    return server, sent


def test_step_past_the_round_cap_for_an_unknown_session_is_refused(env):
    server, sent = recording_server(env)
    step = SyncReply(sender="ns1", sync_id=9, round_no=DEFAULT_MAX_SYNC_ROUNDS + 1,
                     expansions={"": {}})
    server.on_message("ns1", step, step.size_bytes())
    assert sent == [] and server._sessions == {}


def test_descent_reaching_the_round_cap_is_dropped_unanswered(env):
    server, sent = recording_server(env)
    # The peer claims an empty tree: the answer would ship our record,
    # but this step is the last one the cap allows.
    step = SyncReply(sender="ns1", sync_id=9, round_no=DEFAULT_MAX_SYNC_ROUNDS,
                     expansions={"": {}})
    server.on_message("ns1", step, step.size_bytes())
    assert sent == [] and server._sessions == {}
    assert server.syncs_capped == 1
    # One step earlier the same delta is answered with the record.
    server.on_message("ns1", SyncReply(sender="ns1", sync_id=10, round_no=1,
                                       expansions={"": {}}), 96)
    assert [msg.records[0].lwg for _, msg in sent] == ["lwg:a"]
