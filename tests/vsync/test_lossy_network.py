"""Full-stack behaviour over a lossy network.

The default scenarios run loss-free (partitions and crashes are the
paper's failure model), but every protocol must survive message loss:
NACK-driven gap repair on the ordered channel, retransmission on the
control plane, retried rounds in membership.
"""

import pytest

from tests.helpers import RecordingListener, converged, run_until

from repro.sim import LinkModel, SECOND, SimRuntime
from repro.vsync import GroupAddressing, ProtocolStack


def lossy_group(n, loss, seed=7):
    env = SimRuntime.create(seed=seed, link=LinkModel(loss_probability=loss, jitter_us=100))
    addressing = GroupAddressing()
    stacks = [ProtocolStack(env, f"p{i}", addressing) for i in range(n)]
    listeners = [RecordingListener(s.node) for s in stacks]
    endpoints = [s.endpoint("g", listeners[i]) for i, s in enumerate(stacks)]
    for endpoint in endpoints:
        endpoint.join()
    return env, stacks, endpoints, listeners


@pytest.mark.parametrize("loss", [0.05, 0.15])
def test_group_converges_under_loss(loss):
    env, stacks, endpoints, _ = lossy_group(3, loss)
    assert run_until(env, lambda: converged(endpoints, 3), timeout_s=30)


def test_ordered_delivery_complete_under_loss():
    env, stacks, endpoints, listeners = lossy_group(3, 0.10)
    assert run_until(env, lambda: converged(endpoints, 3), timeout_s=30)
    for i in range(30):
        endpoints[i % 3].send(("m", i), size=64)
    assert run_until(
        env,
        lambda: all(len(l.data) == 30 for l in listeners),
        timeout_s=60,
    ), [len(l.data) for l in listeners]
    # Identical order everywhere, no duplicates.
    sequences = {tuple(l.data) for l in listeners}
    assert len(sequences) == 1
    only = next(iter(sequences))
    assert len(set(only)) == 30


def test_view_change_completes_under_loss():
    env, stacks, endpoints, listeners = lossy_group(3, 0.10)
    assert run_until(env, lambda: converged(endpoints, 3), timeout_s=30)
    endpoints[2].leave()
    assert run_until(env, lambda: converged(endpoints[:2], 2), timeout_s=40)


def test_no_spurious_view_changes_under_mild_loss():
    """5% loss must not fool the failure detector into suspicions."""
    env, stacks, endpoints, _ = lossy_group(4, 0.05, seed=9)
    assert run_until(env, lambda: converged(endpoints, 4), timeout_s=30)
    stable = endpoints[0].current_view.view_id
    env.sim.run_until(env.sim.now + 10 * SECOND)
    assert all(e.current_view.view_id == stable for e in endpoints)
