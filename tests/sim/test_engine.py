"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import MS, SECOND, Simulation, SimulationError


def test_time_starts_at_zero():
    assert Simulation().now == 0


def test_schedule_and_run_until_advances_clock():
    sim = Simulation()
    fired = []
    sim.schedule(10, lambda: fired.append(sim.now))
    sim.run_until(100)
    assert fired == [10]
    assert sim.now == 100


def test_events_fire_in_time_order():
    sim = Simulation()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulation()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["first", "second", "third"]


def test_zero_delay_event_fires():
    sim = Simulation()
    fired = []
    sim.schedule(0, lambda: fired.append(True))
    sim.run()
    assert fired == [True]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulation()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_schedule_at_is_a_handle_free_post():
    sim = Simulation()
    fired = []
    assert sim.schedule_at(30, lambda *args: fired.append((sim.now, args)), "a", 1) is None
    assert sim.pending_events == 1
    sim.run()
    assert fired == [(30, ("a", 1))]
    assert sim.pending_events == 0


def test_schedule_at_post_in_past_rejected_and_not_counted():
    sim = Simulation()
    sim.run_until(10)
    with pytest.raises(SimulationError):
        sim.schedule_at(9, lambda value: None, "late")
    assert sim.pending_events == 0
    sim.schedule_at(10, lambda: None)  # the present is not the past
    assert sim.run() == 1


def test_posts_and_handles_interleave_by_insertion_order():
    sim = Simulation()
    order = []
    sim.schedule(5, lambda: order.append("handle-1"))
    sim.schedule_at(5, order.append, "post-2")
    sim.schedule(5, lambda: order.append("handle-3")).cancel()
    sim.schedule_at(5, order.append, "post-4")
    sim.schedule_at(4, order.append, "post-0")
    sim.run()
    assert order == ["post-0", "handle-1", "post-2", "post-4"]


def test_run_max_events_counts_posts():
    sim = Simulation()

    def repost():
        sim.schedule_at(sim.now + 1, repost)

    sim.schedule_at(1, repost)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    assert sim.now == 100


def test_run_until_backwards_rejected():
    sim = Simulation()
    sim.run_until(100)
    with pytest.raises(SimulationError):
        sim.run_until(50)


def test_cancelled_event_does_not_fire():
    sim = Simulation()
    fired = []
    handle = sim.schedule(10, lambda: fired.append(True))
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.pending


def test_cancel_twice_is_safe():
    sim = Simulation()
    handle = sim.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_handle_states():
    sim = Simulation()
    handle = sim.schedule(10, lambda: None)
    assert handle.pending and not handle.fired
    sim.run()
    assert handle.fired and not handle.pending


def test_events_scheduled_during_run_fire():
    sim = Simulation()
    fired = []

    def outer():
        sim.schedule(5, lambda: fired.append("inner"))

    sim.schedule(10, outer)
    sim.run()
    assert fired == ["inner"]
    assert sim.now == 15


def test_run_until_does_not_run_later_events():
    sim = Simulation()
    fired = []
    sim.schedule(10, lambda: fired.append("early"))
    sim.schedule(200, lambda: fired.append("late"))
    sim.run_until(100)
    assert fired == ["early"]
    sim.run_until(300)
    assert fired == ["early", "late"]


def test_step_returns_false_when_empty():
    sim = Simulation()
    assert sim.step() is False


def test_run_returns_event_count():
    sim = Simulation()
    for i in range(7):
        sim.schedule(i, lambda: None)
    assert sim.run() == 7


def test_run_guards_against_runaway():
    sim = Simulation()

    def reschedule():
        sim.schedule(1, reschedule)

    sim.schedule(1, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_pending_events_counts_uncancelled():
    sim = Simulation()
    h1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    h1.cancel()
    assert sim.pending_events == 1


def test_pending_events_decrements_as_events_fire():
    sim = Simulation()
    for i in range(5):
        sim.schedule(10 * (i + 1), lambda: None)
    assert sim.pending_events == 5
    sim.run_until(25)
    assert sim.pending_events == 3
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulation()
    handle = sim.schedule(10, lambda: None)
    sim.run()
    assert sim.pending_events == 0
    handle.cancel()  # cancelling a fired event must be a no-op
    assert sim.pending_events == 0


def test_double_cancel_decrements_once():
    sim = Simulation()
    handle = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.pending_events == 1


def test_pending_events_exact_under_churn():
    """The live counter always matches a brute-force scan of the heap."""
    sim = Simulation()
    handles = [sim.schedule(10 + i, lambda: None) for i in range(100)]
    for handle in handles[::3]:
        handle.cancel()
    expected = sum(
        1 for h in handles if not h.cancelled and not h.fired
    )
    assert sim.pending_events == expected
    sim.run_until(50)
    expected = sum(
        1 for h in handles if not h.cancelled and not h.fired
    )
    assert sim.pending_events == expected


def test_cancel_from_inside_event_keeps_counter_exact():
    sim = Simulation()
    victim = sim.schedule(20, lambda: None)
    sim.schedule(10, victim.cancel)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_time_constants():
    assert SECOND == 1_000_000
    assert MS == 1_000


def test_clock_advances_even_without_events():
    sim = Simulation()
    sim.run_until(12345)
    assert sim.now == 12345
