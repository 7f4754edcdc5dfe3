"""Tests for the protocol stack's message dispatch, handler registry and
durable per-node identity."""

from tests.helpers import RecordingListener, converged, make_group, run_until

from repro.sim import SECOND
from repro.vsync import GroupAddressing, ProtocolStack
from repro.vsync.messages import Ordered, VsyncMessage
from repro.vsync.view import ViewId


def test_extra_handler_consumes_before_vsync(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    seen = []

    def handler(src, msg):
        if msg == "custom":
            seen.append((src, msg))
            return True
        return False

    stack.register_handler(str, handler)
    other = ProtocolStack(env, "p1", addressing)
    other.send("p0", "custom")
    env.sim.run_until(10_000)
    assert seen == [("p1", "custom")]


def test_unconsumed_non_vsync_payloads_are_dropped(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    other = ProtocolStack(env, "p1", addressing)
    other.send("p0", {"random": "dict"})
    env.sim.run_until(10_000)  # no exception: silently ignored


def test_message_for_unknown_group_is_ignored(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    other = ProtocolStack(env, "p1", addressing)
    stray = Ordered(group="ghost", view_id=ViewId("x", 1), seq=0, sender="p1")
    other.send("p0", stray)
    env.sim.run_until(10_000)  # dropped without error


def test_any_traffic_feeds_the_failure_detector(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    other = ProtocolStack(env, "p1", addressing)
    stack.fd.monitor("p1")
    # Starve heartbeats by cutting p1's timers: simply never run long
    # enough for HB, but send an unrelated message.
    other.send("p0", {"noise": True})
    env.sim.run_until(10_000)
    assert not stack.fd.is_suspected("p1")


def test_two_groups_on_one_stack_are_independent(env):
    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"p{i}", addressing) for i in range(2)]
    listeners_a = [RecordingListener(s.node) for s in stacks]
    listeners_b = [RecordingListener(s.node) for s in stacks]
    group_a = [s.endpoint("ga", listeners_a[i]) for i, s in enumerate(stacks)]
    group_b = [s.endpoint("gb", listeners_b[i]) for i, s in enumerate(stacks)]
    for endpoint in group_a + group_b:
        endpoint.join()
    assert run_until(env, lambda: converged(group_a, 2) and converged(group_b, 2))
    group_a[0].send("for-a")
    group_b[1].send("for-b")
    env.sim.run_until(env.sim.now + 1 * SECOND)
    assert [p for _, p in listeners_a[1].data] == ["for-a"]
    assert [p for _, p in listeners_b[0].data] == ["for-b"]


def test_view_seq_is_monotonic_across_groups(env):
    addressing = GroupAddressing()
    stack = ProtocolStack(env, "p0", addressing)
    values = [stack.next_view_seq() for _ in range(10)]
    assert values == sorted(values)
    assert len(set(values)) == 10


# -- routing: a handler is offered exactly the message classes it declared ----


class Base:
    pass


class Sub(Base):
    pass


class Unrelated:
    pass


def _pair(env):
    addressing = GroupAddressing()
    return ProtocolStack(env, "p0", addressing), ProtocolStack(env, "p1", addressing)


def _recorder(log, name, consume):
    def handler(src, msg):
        log.append((name, type(msg).__name__))
        return consume

    return handler


def _deliver(env, sender, *messages):
    for msg in messages:
        sender.send("p0", msg)
    env.sim.run_until(env.sim.now + 10_000)


def test_handler_sees_exactly_its_declared_kinds(env):
    stack, other = _pair(env)
    log = []
    stack.register_handler(Base, _recorder(log, "base", True))
    _deliver(env, other, Base(), Sub(), Unrelated(), "text")
    assert log == [("base", "Base"), ("base", "Sub")]


def test_overlapping_kinds_are_offered_in_registration_order(env):
    stack, other = _pair(env)
    log = []
    stack.register_handler(Base, _recorder(log, "first", False))
    stack.register_handler((Sub, str), _recorder(log, "second", True))
    stack.register_handler(Base, _recorder(log, "third", True))
    _deliver(env, other, Sub(), Base(), "text")
    assert log == [
        ("first", "Sub"), ("second", "Sub"),  # consumed: "third" never offered
        ("first", "Base"), ("third", "Base"),
        ("second", "str"),
    ]


def test_registration_after_traffic_clears_the_route_memo(env):
    stack, other = _pair(env)
    log = []
    stack.register_handler(Base, _recorder(log, "base", False))
    _deliver(env, other, Sub())
    stack.register_handler(Sub, _recorder(log, "late", True))
    _deliver(env, other, Sub())
    assert log == [("base", "Sub"), ("base", "Sub"), ("late", "Sub")]


class _EndpointProbe:
    def __init__(self):
        self.received = []

    def on_message(self, src, msg):
        self.received.append((src, msg))


def test_unclaimed_vsync_message_still_reaches_its_endpoint(env):
    stack, other = _pair(env)
    log = []
    stack.register_handler(str, _recorder(log, "text", True))
    stack.register_handler(VsyncMessage, _recorder(log, "declines", False))
    probe = stack.endpoints["g"] = _EndpointProbe()
    msg = Ordered(group="g", view_id=ViewId("p1", 1), seq=0, sender="p1")
    _deliver(env, other, msg)
    assert log == [("declines", "Ordered")]
    assert probe.received == [("p1", msg)]


def test_unclaimed_foreign_payload_is_dropped_silently(env):
    stack, other = _pair(env)
    log = []
    stack.register_handler(Base, _recorder(log, "base", True))
    probe = stack.endpoints["g"] = _EndpointProbe()
    _deliver(env, other, Unrelated(), {"group": "g"})
    assert log == [] and probe.received == []


def test_default_store_brands_previous_life_views_stale(env):
    """A stack built without an explicit store still remembers, across a
    crash, which views it installed in its previous life."""
    stacks, endpoints, _ = make_group(env, 3)
    assert run_until(env, lambda: converged(endpoints, 3))
    stack = stacks[2]
    old_view = endpoints[2].current_view.view_id
    assert not stack.is_stale_view("g", old_view)
    env.failures.crash_now(stack.node)
    env.sim.run_until(env.sim.now + SECOND)
    env.failures.recover_now(stack.node)
    assert stack.is_stale_view("g", old_view) is True
