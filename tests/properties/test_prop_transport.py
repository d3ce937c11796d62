"""Property-based tests for the ARQ transport on lossy links.

Under arbitrary seeded loss up to 30%, the transport must still honour
the footnote-6 contract protocol code relies on:

* every sent message is delivered **exactly once**;
* deliveries between a given (src, dst) pair happen **in send order**;
* two runs with the same seed produce **identical delivery traces**
  (the replay guarantee every debugging session depends on).
"""

from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.network import StarNetwork
from repro.simnet.transport import ReliableTransport

NODES = (1, 2, 3)

#: A traffic plan: (src index, dst index) per message; payloads are the
#: message's position in the plan, so order checks are trivial.
plans = st.lists(
    st.tuples(st.integers(0, len(NODES) - 1), st.integers(0, len(NODES) - 1)),
    min_size=1,
    max_size=40,
).map(lambda pairs: [(NODES[s], NODES[d]) for s, d in pairs if s != d])


def run_plan(plan, seed, loss):
    """Execute a traffic plan; returns the delivery trace."""
    sim = Simulator()
    faults = FaultInjector(sim, seed=seed, loss_rate=loss)
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=faults)
    # max_retries is set high enough that non-delivery has vanishing
    # probability even at 30% loss (0.3^41 per segment).
    transport = ReliableTransport(net, max_retries=40)
    trace = []
    for node in NODES:
        transport.attach(
            node, lambda src, payload, node=node: trace.append((sim.now, src, node, payload))
        )
    for i, (src, dst) in enumerate(plan):
        transport.send(src, dst, i, 20 + (i % 7))
    sim.run()
    return trace


@settings(max_examples=30, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**32 - 1), loss=st.floats(0.0, 0.3))
def test_exactly_once_and_per_pair_order(plan, seed, loss):
    trace = run_plan(plan, seed, loss)
    delivered = [payload for _t, _src, _dst, payload in trace]
    # Exactly once: every message index appears exactly one time.
    assert sorted(delivered) == list(range(len(plan)))
    # Per-pair FIFO: for each (src, dst), delivery order == send order.
    for src, dst in set(plan):
        sent = [i for i, pair in enumerate(plan) if pair == (src, dst)]
        got = [payload for _t, s, d, payload in trace if (s, d) == (src, dst)]
        assert got == sent


@settings(max_examples=20, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**32 - 1), loss=st.floats(0.0, 0.3))
def test_same_seed_replays_identical_trace(plan, seed, loss):
    assert run_plan(plan, seed, loss) == run_plan(plan, seed, loss)


@settings(max_examples=15, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**32 - 1))
def test_lossless_run_has_no_retransmissions(plan, seed):
    sim = Simulator()
    faults = FaultInjector(sim, seed=seed)
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=faults)
    transport = ReliableTransport(net)
    delivered = []
    for node in NODES:
        transport.attach(node, lambda src, payload: delivered.append(payload))
    for i, (src, dst) in enumerate(plan):
        transport.send(src, dst, i, 50)
    sim.run()
    assert transport.retransmits == 0
    assert transport.duplicates == 0
    assert sorted(delivered) == list(range(len(plan)))
