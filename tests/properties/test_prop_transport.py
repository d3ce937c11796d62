"""Property-based tests for the ARQ transport on lossy links.

Under arbitrary seeded loss up to 30%, the transport must still honour
the footnote-6 contract protocol code relies on:

* every sent message is delivered **exactly once**;
* deliveries between a given (src, dst) pair happen **in send order**;
* two runs with the same seed produce **identical delivery traces**
  (the replay guarantee every debugging session depends on);
* retransmit tickets behind one watch entry time out exactly what a
  cancellable timer per transmission would: the same retransmissions
  and the same give-ups, at the same instants, under loss, outages and
  crash-restarts;
* on a star that can never lose a packet, the direct path delivers
  what the ARQ delivers: the same per-pair sequences, each payload
  once, also where jitter reorders the star; and where nothing can
  reorder it, each receive within the time the ARQ's ACKs held the
  links.
"""

from hypothesis import example, given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.faults import FaultInjector
from repro.simnet.network import StarNetwork
from repro.simnet.transport import ReliableTransport, Segment

NODES = (1, 2, 3)
#: A node no test attaches: a loss rate on its links draws nothing, but
#: leaves the injector not faultless, so the transport runs the ARQ.
UNUSED = 99

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
    faults.set_loss_rate(0.5, node_id=UNUSED)
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


class _TimerPerSegment(ReliableTransport):
    """Reference ARQ: every transmission arms its own cancellable timer
    (``Simulator.timer``, which draws the ``seq`` a ticket draws), and
    every ACK and every detach cancels the timers it settles."""

    __slots__ = ("timers",)

    def __init__(self, network, **kwargs):
        super().__init__(network, **kwargs)
        self.timers = {}

    def _transmit(self, pair, state, out):
        src, dst = pair
        now = self.sim.now
        uplink = self.network.uplinks.get(src)
        own_queue = max(uplink.busy_until - now, 0.0) if uplink is not None else 0.0
        self.network.send(src, dst, Segment(out.seqno, out.payload, now), out.size_bytes)
        interval = min(state.rto * 2**out.attempts, self.rto_max)
        self.timers[out] = self.sim.timer(own_queue + interval, self._on_timer, pair, out)

    def _on_timer(self, pair, out):
        del self.timers[out]
        self._time_out(pair, out.seqno)

    def _on_ack(self, pair, ack):
        state = self._senders.get(pair)
        out = state.outstanding.get(ack.seqno) if state is not None else None
        if out is not None:
            self.timers.pop(out).cancel()
        super()._on_ack(pair, ack)

    def detach(self, node_id):
        for pair, state in self._senders.items():
            if node_id in pair:
                for out in state.outstanding.values():
                    self.timers.pop(out).cancel()
        super().detach(node_id)


def _logging(base):
    """``base`` that logs ``(time, pair, seqno)`` of every retransmission."""

    class Logging(base):
        __slots__ = ("log",)

        def _transmit(self, pair, state, out):
            if out.attempts:
                self.log.append((self.sim.now, pair, out.seqno))
            super()._transmit(pair, state, out)

    return Logging


#: (kind, node, other node, at, length): a send from node to other at
#: ``at``, a crash-restart of node down for ``length``, or an outage of
#: node's links for ``length``.
fault_ops = st.lists(
    st.tuples(
        st.sampled_from(("send", "send", "crash", "outage")),
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.floats(0.0, 1.0),
        st.floats(0.005, 0.5),
    ),
    min_size=1,
    max_size=40,
)


def arq_log(cls, ops, seed, loss):
    """Retransmissions and give-ups, in order, of ``cls`` on ``ops``."""
    sim = Simulator()
    faults = FaultInjector(sim, seed=seed, loss_rate=loss)
    net = StarNetwork(sim, bandwidth_bps=1_000_000, faults=faults)
    log = []
    transport = _logging(cls)(
        net,
        rto_initial=0.02,
        rto_max=0.2,
        max_retries=3,
        on_failure=lambda src, dst, payload: log.append((sim.now, (src, dst), "failed", payload)),
    )
    transport.log = log

    def handler(src, payload):
        pass

    def send(src, dst, index):
        if net.attached(src):
            transport.send(src, dst, index, 20 + (index % 7) * 300)

    def crash(node, downtime):
        if net.attached(node):
            transport.detach(node)
            sim.schedule(downtime, restart, node)

    def restart(node):
        if not net.attached(node):
            transport.attach(node, handler)

    for node in NODES:
        transport.attach(node, handler)
    for index, (kind, node, other, at, length) in enumerate(ops):
        if kind == "send" and node != other:
            sim.schedule(at, send, node, other, index)
        elif kind == "crash":
            sim.schedule(at, crash, node, length)
        elif kind == "outage":
            faults.schedule_outage(node, at, length)
    sim.run()
    return log


@settings(max_examples=40, deadline=None)
@given(ops=fault_ops, seed=st.integers(0, 2**32 - 1), loss=st.floats(0.0, 0.3))
def test_tickets_time_out_what_a_timer_per_segment_would(ops, seed, loss):
    assert arq_log(ReliableTransport, ops, seed, loss) == arq_log(_TimerPerSegment, ops, seed, loss)


#: (src index, dst index, send instant, payload bytes) per message.
timed_plans = st.lists(
    st.tuples(
        st.integers(0, len(NODES) - 1),
        st.integers(0, len(NODES) - 1),
        st.floats(0.0, 0.05),
        st.integers(1, 3000),
    ),
    min_size=1,
    max_size=40,
).map(lambda sends: [(NODES[s], NODES[d], at, size) for s, d, at, size in sends if s != d])


def lossless_deliveries(plan, arq, jitter, seed):
    """``(instant, src, dst, payload)`` of every receive on a lossless,
    faultless 1 Mb/s star with ``jitter`` seconds of propagation jitter
    (drawn from ``seed``), with the transport on the ARQ or direct."""
    sim = Simulator()
    faults = FaultInjector(sim)
    if arq:
        faults.set_loss_rate(0.5, node_id=UNUSED)
    net = StarNetwork(
        sim, bandwidth_bps=1_000_000, faults=faults, propagation_jitter=jitter, jitter_seed=seed
    )
    # A timeout above any backlog the plan can build (~1 s): no
    # spurious retransmission puts a second copy on the links.
    transport = ReliableTransport(net, rto_initial=2.0, rto_min=2.0, rto_max=2.0)
    trace = []
    for node in NODES:
        transport.attach(
            node, lambda src, payload, node=node: trace.append((sim.now, src, node, payload))
        )
    for index, (src, dst, at, size) in enumerate(plan):
        sim.schedule(at, transport.send, src, dst, index, size)
    sim.run()
    if plan:
        assert bool(transport.direct) is not arq  # faultlessness alone decides
    else:
        assert transport.direct is None
    assert transport.retransmits == 0 and transport.acks_sent == len(plan)
    return trace


@settings(max_examples=60, deadline=None)
@example(plan=[(1, 2, 0.0, 1)] * 3, jitter=1e-3, seed=0)  # the 3rd overtakes the 2nd
@given(
    plan=timed_plans,
    jitter=st.one_of(st.just(0.0), st.floats(1e-6, 1e-3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_path_delivers_what_the_arq_delivers(plan, jitter, seed):
    arq = lossless_deliveries(plan, arq=True, jitter=jitter, seed=seed)
    direct = lossless_deliveries(plan, arq=False, jitter=jitter, seed=seed)
    order = sorted(range(len(plan)), key=lambda i: plan[i][2])  # stable: ties in plan order
    for trace in (arq, direct):
        assert sorted(p for _t, _s, _d, p in trace) == list(range(len(plan)))  # each once
    for src, dst in {(src, dst) for src, dst, _at, _size in plan}:
        sent = [i for i in order if plan[i][:2] == (src, dst)]
        for trace in (arq, direct):
            assert [p for _t, s, d, p in trace if (s, d) == (src, dst)] == sent
    if jitter:
        return  # the ARQ's ACKs draw jitter too: the two runs' draws part
    # The runs differ only in where the ACKs sit: both hold the uplink
    # an ACK leaves, only the ARQ's ACK also holds the downlink it
    # reaches, for one serialization time. Every instant is a max of
    # sums of such times, so no receive moves by more than all of them.
    bound = len(plan) * ReliableTransport.ACK_BYTES * 8 / 1_000_000
    arrived = {payload: at for at, _s, _d, payload in arq}
    for at, _src, _dst, payload in direct:
        assert abs(at - arrived[payload]) <= bound + 1e-12
