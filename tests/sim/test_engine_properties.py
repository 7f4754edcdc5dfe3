"""Property-based tests of the event engine's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulation


@settings(max_examples=80, deadline=None)
@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), max_size=40))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulation()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=80, deadline=None)
@given(delays=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=30))
def test_ties_fire_in_insertion_order(delays):
    sim = Simulation()
    fired = []
    for index, delay in enumerate(delays):
        sim.schedule(delay, lambda i=index: fired.append(i))
    sim.run()
    # Within each timestamp, indices must appear in insertion order.
    by_time = {}
    for position, index in enumerate(fired):
        by_time.setdefault(delays[index], []).append(index)
    for indices in by_time.values():
        assert indices == sorted(indices)


@settings(max_examples=50, deadline=None)
@given(
    delays=st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=30),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_cancelled_events_never_fire(delays, cancel_mask):
    sim = Simulation()
    fired = []
    handles = []
    for index, delay in enumerate(delays):
        handles.append(sim.schedule(delay, lambda i=index: fired.append(i)))
    cancelled = set()
    for index, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            handle.cancel()
            cancelled.add(index)
    sim.run()
    assert not (set(fired) & cancelled)
    assert set(fired) == set(range(len(delays))) - cancelled


@settings(max_examples=50, deadline=None)
@given(
    splits=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
    horizon=st.integers(min_value=0, max_value=1500),
)
def test_run_until_is_a_clean_cut(splits, horizon):
    sim = Simulation()
    fired = []
    for delay in splits:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run_until(horizon)
    assert all(d <= horizon for d in fired)
    assert sorted(fired) == sorted(d for d in splits if d <= horizon)
    assert sim.now == horizon


# -- both heap-entry shapes ------------------------------------------------------
# ``schedule`` pushes a cancellable ``(time, seq, handle)`` entry and
# ``schedule_at`` a handle-free ``(time, seq, None, fn, args)`` post.  The
# run loops tell them apart; these properties check that, mixed, they still
# fire in (time, insertion) order, keep ``pending_events`` exact and fire
# the same sequence whichever loop drains them.

_SHAPES = st.sampled_from(["schedule", "post"])
_EVENTS = st.lists(
    st.tuples(
        _SHAPES,
        st.integers(min_value=0, max_value=60),  # delay
        st.booleans(),  # cancel (a ``schedule`` only)
        st.none() | st.tuples(_SHAPES, st.integers(min_value=0, max_value=60)),  # child
    ),
    max_size=30,
)


def _load(sim, events, fired):
    """Schedule ``events`` on ``sim``; returns ``(made, cancelled)``, where
    ``made[0]`` counts the entries made so far (children included).

    Each event logs ``(label, now)`` when it fires and, if it has a child,
    schedules or posts that child from inside its own firing.
    """
    made = [0]

    def add(shape, delay, label, child):
        made[0] += 1
        if shape == "schedule":
            return sim.schedule(delay, lambda: fire(label, child))
        assert sim.schedule_at(sim.now + delay, fire, label, child) is None
        return None

    def fire(label, child):
        fired.append((label, sim.now))
        if child is not None:
            add(child[0], child[1], (label, "child"), None)

    handles = [add(shape, delay, index, child)
               for index, (shape, delay, _, child) in enumerate(events)]
    cancelled = 0
    for handle, (shape, _, cancel, _) in zip(handles, events):
        if shape == "schedule" and cancel:
            handle.cancel()
            cancelled += 1
    return made, cancelled


def _reference(events):
    """The firing sequence a (time, insertion)-ordered queue must produce."""
    queue = []
    for index, (shape, delay, cancel, child) in enumerate(events):
        if not (shape == "schedule" and cancel):
            queue.append((delay, index, index, child))
    seq = len(events)
    fired = []
    while queue:
        queue.sort()
        time, _, label, child = queue.pop(0)
        fired.append((label, time))
        if child is not None:
            queue.append((time + child[1], seq, (label, "child"), None))
            seq += 1
    return fired


@settings(max_examples=80, deadline=None)
@given(events=_EVENTS)
def test_mixed_shapes_fire_in_time_then_insertion_order(events):
    sim = Simulation()
    fired = []
    made, cancelled = _load(sim, events, fired)
    ran = sim.run()
    assert fired == _reference(events)
    assert ran == len(fired) == made[0] - cancelled
    assert sim.pending_events == 0


@settings(max_examples=60, deadline=None)
@given(
    events=_EVENTS,
    horizons=st.lists(st.integers(min_value=0, max_value=130), max_size=6),
)
def test_pending_events_exact_after_every_horizon(events, horizons):
    sim = Simulation()
    fired = []
    made, cancelled = _load(sim, events, fired)
    expected = _reference(events)
    for horizon in sorted(horizons) + [130]:
        sim.run_until(horizon)
        assert fired == [entry for entry in expected if entry[1] <= horizon]
        assert sim.pending_events == made[0] - cancelled - len(fired)
    assert sim.pending_events == 0


@settings(max_examples=60, deadline=None)
@given(
    events=_EVENTS,
    horizons=st.lists(st.integers(min_value=0, max_value=130), max_size=6),
)
def test_run_run_until_and_step_fire_the_same_sequence(events, horizons):
    def drained(drain):
        sim = Simulation()
        fired = []
        _load(sim, events, fired)
        drain(sim)
        return fired, sim.pending_events

    def by_horizons(sim):
        for horizon in sorted(horizons) + [130]:
            sim.run_until(horizon)

    def by_steps(sim):
        while sim.step():
            pass

    reference = drained(lambda sim: sim.run())
    assert drained(by_horizons) == reference
    assert drained(by_steps) == reference
