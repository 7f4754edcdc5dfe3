"""Property-based tests for the stream-split RNG registry.

The fuzzer's reproducibility rests entirely on three properties of
:class:`~repro.runtime.rng.RngRegistry`:

* a ``(seed, stream-name)`` pair identifies one draw sequence,
  regardless of how many other streams exist or in what order they were
  created;
* forked registries are deterministic functions of ``(seed, fork-name)``
  and their streams are independent of the parent's;
* ``_derive_seed`` is a stable, documented mapping — changing it silently
  would invalidate every frozen schedule and corpus digest.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.rng import _derive_seed
from repro.sim import RngRegistry

seeds = st.integers(min_value=0, max_value=2**63 - 1)
names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=24,
)


def draws(rng, n=8):
    return [rng.randrange(2**32) for _ in range(n)]


@given(seed=seeds, name=names, others=st.lists(names, max_size=6))
@settings(max_examples=100, deadline=None)
def test_stream_draws_independent_of_creation_order(seed, name, others):
    # Registry A touches a bunch of other streams first; registry B asks
    # for `name` immediately.  Both must see the same sequence.
    a = RngRegistry(seed)
    for other in others:
        if other != name:
            a.stream(other).random()
    b = RngRegistry(seed)
    assert draws(a.stream(name)) == draws(b.stream(name))


@given(seed=seeds, name=names)
@settings(max_examples=100, deadline=None)
def test_same_seed_same_stream_same_draws(seed, name):
    assert draws(RngRegistry(seed).stream(name)) == draws(
        RngRegistry(seed).stream(name)
    )


@given(seed=seeds, a=names, b=names)
@settings(max_examples=100, deadline=None)
def test_distinct_names_give_distinct_streams(seed, a, b):
    if a == b:
        return
    registry = RngRegistry(seed)
    assert draws(registry.stream(a)) != draws(registry.stream(b))


@given(seed=seeds, fork_name=names, stream_name=names)
@settings(max_examples=100, deadline=None)
def test_fork_is_a_pure_function_of_seed_and_name(seed, fork_name, stream_name):
    one = RngRegistry(seed).fork(fork_name)
    two = RngRegistry(seed).fork(fork_name)
    assert one.seed == two.seed
    assert draws(one.stream(stream_name)) == draws(two.stream(stream_name))


@given(seed=seeds, fork_name=names, stream_name=names)
@settings(max_examples=100, deadline=None)
def test_fork_streams_independent_of_parent_usage(seed, fork_name, stream_name):
    # Consuming draws in the parent must never perturb a fork.
    parent = RngRegistry(seed)
    parent.stream(stream_name).random()
    warm_fork = parent.fork(fork_name)
    cold_fork = RngRegistry(seed).fork(fork_name)
    assert draws(warm_fork.stream(stream_name)) == draws(
        cold_fork.stream(stream_name)
    )


@given(seed=seeds, name=names)
@settings(max_examples=100, deadline=None)
def test_fork_differs_from_same_named_stream(seed, name):
    # fork("x") and stream("x") must not collide (distinct derivations).
    registry = RngRegistry(seed)
    fork_draws = draws(registry.fork(name).stream(name))
    stream_draws = draws(RngRegistry(seed).stream(name))
    assert fork_draws != stream_draws


@given(seed=seeds, name=names)
@settings(max_examples=100, deadline=None)
def test_derive_seed_is_stable_across_calls(seed, name):
    assert _derive_seed(seed, name) == _derive_seed(seed, name)
    assert 0 <= _derive_seed(seed, name) < 2**64


def test_derive_seed_frozen_values():
    # Golden values: if this test fails, the derivation changed and every
    # frozen schedule, corpus file and recorded digest is invalidated.
    # Bump the fuzz schedule SCHEMA_VERSION if you change this knowingly.
    assert _derive_seed(0, "net.latency") == 13176976292430956614
    assert _derive_seed(7, "fork:iter:0") == 11957199679723830767
    assert _derive_seed(42, "schedule") == 5307109112791399321
